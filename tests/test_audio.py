import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from unitcat.audio import (
    MalformedHeaderError,
    TruncatedDataError,
    UnsupportedFormatError,
    Waveform,
    read_wav,
    write_wav,
)


def _hand_encoded_wav(samples, rate=16000, channels=1, bits=16, fmt=1):
    """Independent canonical encoding straight from the RIFF layout."""
    payload = b"".join(struct.pack("<h", s) for s in samples)
    block_align = channels * bits // 8
    out = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
    out += b"fmt " + struct.pack(
        "<IHHIIHH", 16, fmt, channels, rate, rate * block_align, block_align, bits
    )
    out += b"data" + struct.pack("<I", len(payload)) + payload
    return out


def test_reads_hand_encoded_file():
    data = _hand_encoded_wav([0, 1000, -1000, 32767])
    w = read_wav(data)
    assert w.num_samples == 4
    assert w.sample_rate == 16000
    assert w.channels == 1
    assert w.samples[0].tolist() == [0, 1000, -1000, 32767]


def test_write_matches_hand_encoding():
    w = Waveform(np.array([0, 1000, -1000, 32767], dtype=np.int16), 16000)
    assert write_wav(w) == _hand_encoded_wav([0, 1000, -1000, 32767])


def test_one_sample_file_size():
    w = Waveform(np.array([5], dtype=np.int16), 8000)
    assert len(write_wav(w)) == 44 + 2


def test_empty_waveform_roundtrip():
    w = Waveform(np.zeros(0, dtype=np.int16), 16000)
    data = write_wav(w)
    assert struct.unpack_from("<I", data, 40)[0] == 0
    back = read_wav(data)
    assert back.num_samples == 0
    assert back.sample_rate == 16000


def test_bad_magic_is_malformed_header():
    with pytest.raises(MalformedHeaderError):
        read_wav(b"RIFX" + b"\x00" * 40)


def _chunk(chunk_id, body, size=None):
    return chunk_id + struct.pack("<I", len(body) if size is None else size) + body


def _fmt(channels=1, rate=16000):
    return _chunk(b"fmt ", struct.pack("<HHIIHH", 1, channels, rate, rate * 2 * channels,
                                       2 * channels, 16))


def _riff(*chunks, form=b"WAVE"):
    body = form + b"".join(chunks)
    return b"RIFF" + struct.pack("<I", len(body)) + body


@pytest.mark.parametrize(
    "data, error, fragment",
    [
        (b"RIFF\x04\x00\x00\x00WAV", MalformedHeaderError, "too short for a RIFF header"),
        (_riff(form=b"AVI "), MalformedHeaderError, "bad RIFF form type"),
        (_riff(_chunk(b"fmt ", bytes(14))), MalformedHeaderError, "fmt chunk shorter than 16"),
        (_riff(_chunk(b"fmt ", b"", size=16)), MalformedHeaderError, "fmt chunk shorter than 16"),
        (_riff(_chunk(b"data", bytes(2)), _fmt()), MalformedHeaderError,
         "data chunk before fmt chunk"),
        (_riff(_fmt(channels=0), _chunk(b"data", b"")), MalformedHeaderError,
         "invalid channel count 0"),
        (_riff(_fmt(rate=0), _chunk(b"data", b"")), MalformedHeaderError,
         "invalid sample rate 0"),
        (_riff(_fmt(), _chunk(b"data", bytes(2), size=4)), TruncatedDataError,
         "declares 4 bytes but only 2 remain"),
        (_riff(_fmt(channels=2), _chunk(b"data", bytes(6))), TruncatedDataError,
         "not a whole number of 2-channel frames"),
        (_riff(_fmt()), MalformedHeaderError, "no data chunk found"),
    ],
)
def test_malformed_files_are_refused_by_class_and_reason(data, error, fragment):
    with pytest.raises(error, match=fragment):
        read_wav(data)


@pytest.mark.parametrize(
    "samples, rate, fragment",
    [
        (np.zeros((1, 2, 3), dtype=np.int16), 16000, "1-D or 2-D"),
        (np.zeros(4, dtype=np.float32), 16000, "must be int16"),
        (np.zeros(4, dtype=np.int16), 0, "sample_rate must be positive"),
    ],
)
def test_waveform_constructor_refusals(samples, rate, fragment):
    with pytest.raises(ValueError, match=fragment):
        Waveform(samples, rate)


def test_nonpcm_codec_rejected_distinctly():
    data = _hand_encoded_wav([1, 2], fmt=3)
    with pytest.raises(UnsupportedFormatError, match="codec"):
        read_wav(data)


def test_wrong_bit_depth_rejected_distinctly():
    payload = struct.pack("<hh", 1, 2)
    data = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
    data += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 16000, 16000, 1, 8)
    data += b"data" + struct.pack("<I", len(payload)) + payload
    with pytest.raises(UnsupportedFormatError, match="bit depth"):
        read_wav(data)


def test_truncated_data_chunk_rejected_distinctly():
    data = _hand_encoded_wav([1, 2, 3, 4])
    with pytest.raises(TruncatedDataError):
        read_wav(data[:-3])


def test_unknown_chunks_are_skipped():
    good = _hand_encoded_wav([7, -7])
    head, rest = good[:12], good[12:]
    junk = b"LIST" + struct.pack("<I", 4) + b"info"
    patched = head + junk + rest
    w = read_wav(patched)
    assert w.samples[0].tolist() == [7, -7]


def test_multichannel_deinterleaved():
    # frames (L, R): (1, -1), (2, -2), (3, -3)
    payload = struct.pack("<6h", 1, -1, 2, -2, 3, -3)
    data = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
    data += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 2, 44100, 44100 * 4, 4, 16)
    data += b"data" + struct.pack("<I", len(payload)) + payload
    w = read_wav(data)
    assert w.channels == 2
    assert w.samples[0].tolist() == [1, 2, 3]
    assert w.samples[1].tolist() == [-1, -2, -3]
    assert read_wav(write_wav(w)).samples.tolist() == w.samples.tolist()


@settings(max_examples=60)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=300),
    st.integers(min_value=1, max_value=96000),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_roundtrip_is_bit_exact(channels, length, rate, seed):
    rng = np.random.default_rng(seed)
    samples = rng.integers(-32768, 32768, size=(channels, length), dtype=np.int16)
    w = Waveform(samples, rate)
    back = read_wav(write_wav(w))
    assert back.sample_rate == rate
    assert back.channels == channels
    assert np.array_equal(back.samples, samples)
    assert write_wav(back) == write_wav(w)


def test_channel_extraction():
    w = Waveform(np.array([[1, 2], [3, 4]], dtype=np.int16), 8000)
    mono = w.channel(1)
    assert mono.channels == 1
    assert mono.samples[0].tolist() == [3, 4]
    with pytest.raises(IndexError):
        w.channel(2)
