"""16-bit PCM WAV reading and writing.

The codec is deliberately hand-rolled instead of delegating to ``wave``: the
pipeline needs lossless multi-channel round trips and precise, distinct
diagnostics for the three ways corpus files go bad in practice (mangled
header, non-PCM payload, truncated data chunk).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class WavError(ValueError):
    """Base class for WAV decoding problems."""


class MalformedHeaderError(WavError):
    pass


class UnsupportedFormatError(WavError):
    pass


class TruncatedDataError(WavError):
    pass


@dataclass
class Waveform:
    """PCM sample buffer, channel-major: ``samples[ch][i]`` is int16."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self) -> None:
        arr = np.asarray(self.samples)
        if arr.ndim == 1:
            arr = arr[np.newaxis, :]
        if arr.ndim != 2:
            raise ValueError(f"samples must be 1-D or 2-D, got shape {arr.shape}")
        if arr.dtype != np.int16:
            raise ValueError(f"samples must be int16, got {arr.dtype}")
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        self.samples = arr

    @property
    def channels(self) -> int:
        return self.samples.shape[0]

    @property
    def num_samples(self) -> int:
        return self.samples.shape[1]

    @property
    def duration(self) -> float:
        return self.num_samples / self.sample_rate

    def channel(self, index: int) -> "Waveform":
        """Single channel as a new mono waveform."""
        if not 0 <= index < self.channels:
            raise IndexError(f"channel {index} out of range for {self.channels} channels")
        return Waveform(self.samples[index : index + 1].copy(), self.sample_rate)

    def mono(self) -> np.ndarray:
        if self.channels != 1:
            raise ValueError(f"expected mono waveform, got {self.channels} channels")
        return self.samples[0]


def read_wav(data: bytes) -> Waveform:
    """Decode RIFF/WAVE bytes holding 16-bit integer PCM.

    Channels are de-interleaved into channel-major order. Non fmt/data
    chunks are skipped.
    """
    if len(data) < 12:
        raise MalformedHeaderError(f"file too short for a RIFF header ({len(data)} bytes)")
    if data[0:4] != b"RIFF":
        raise MalformedHeaderError(f"bad magic {data[0:4]!r}, expected b'RIFF'")
    if data[8:12] != b"WAVE":
        raise MalformedHeaderError(f"bad RIFF form type {data[8:12]!r}, expected b'WAVE'")

    fmt = None
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = data[pos : pos + 4]
        (chunk_size,) = struct.unpack_from("<I", data, pos + 4)
        body = pos + 8
        if chunk_id == b"fmt ":
            if chunk_size < 16 or body + 16 > len(data):
                raise MalformedHeaderError("fmt chunk shorter than 16 bytes")
            fmt = struct.unpack_from("<HHIIHH", data, body)
        elif chunk_id == b"data":
            if fmt is None:
                raise MalformedHeaderError("data chunk before fmt chunk")
            audio_format, channels, rate, _byte_rate, _block_align, bits = fmt
            if audio_format != 1:
                raise UnsupportedFormatError(f"unsupported codec: format code {audio_format}, only PCM (1)")
            if bits != 16:
                raise UnsupportedFormatError(f"unsupported bit depth: {bits}, only 16-bit")
            if channels < 1:
                raise MalformedHeaderError(f"invalid channel count {channels}")
            if rate <= 0:
                raise MalformedHeaderError(f"invalid sample rate {rate}")
            if body + chunk_size > len(data):
                raise TruncatedDataError(
                    f"data chunk declares {chunk_size} bytes but only "
                    f"{len(data) - body} remain"
                )
            if chunk_size % (2 * channels) != 0:
                raise TruncatedDataError(
                    f"data chunk size {chunk_size} is not a whole number of "
                    f"{channels}-channel frames"
                )
            flat = np.frombuffer(data, dtype="<i2", count=chunk_size // 2, offset=body)
            frames = flat.reshape(-1, channels).T if channels > 1 else flat[np.newaxis, :]
            return Waveform(np.array(frames, dtype=np.int16, order="C"), rate)
        # skip unknown chunk; chunks are word-aligned
        pos = body + chunk_size + (chunk_size & 1)
    raise MalformedHeaderError("no data chunk found")


def write_wav(w: Waveform) -> bytearray:
    """Encode as canonical 44-byte-header PCM WAVE; ``read_wav`` inverts it.

    The samples are interleaved straight into the returned buffer, which
    is the only copy of them made."""
    channels = w.channels
    payload_size = 2 * w.samples.size
    byte_rate = w.sample_rate * channels * 2
    header = b"RIFF" + struct.pack("<I", 36 + payload_size) + b"WAVE"
    header += b"fmt " + struct.pack(
        "<IHHIIHH", 16, 1, channels, w.sample_rate, byte_rate, channels * 2, 16
    )
    header += b"data" + struct.pack("<I", payload_size)
    out = bytearray(len(header) + payload_size)
    out[: len(header)] = header
    np.frombuffer(out, dtype="<i2", offset=len(header)).reshape(-1, channels)[:] = w.samples.T
    return out


def load_wav(path: str | Path) -> Waveform:
    return read_wav(Path(path).read_bytes())


def save_wav(path: str | Path, w: Waveform) -> None:
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_bytes(write_wav(w))
