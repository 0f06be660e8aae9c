import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from unitcat.audio import Waveform, load_wav, save_wav
from unitcat.corpus import AlignmentEntry
from unitcat.segmentation import (
    SegmentationError,
    UnitLibrary,
    UnitSegment,
    build_library,
    extract_segments,
    library_stats,
    list_library_speakers,
    load_library,
    sample_index,
    save_library,
)

UNITS = ("ni", "hao", "mi", "ya")


def _wave(n, rate=16000, seed=0):
    rng = np.random.default_rng(seed)
    return Waveform(rng.integers(-3000, 3000, size=n, dtype=np.int16), rate)


def _segment(speaker, unit, source, start, end, rate=16000, seed=1):
    rng = np.random.default_rng(seed)
    samples = rng.integers(-100, 100, size=end - start, dtype=np.int16)
    return UnitSegment(speaker, unit, source, start, end, samples, rate)


def test_sample_index_rounds_half_up():
    assert sample_index(0.10, 16000) == 1600
    assert sample_index(0.32, 16000) == 5120
    assert sample_index(0.50, 16000) == 8000
    # exactly .5 of a sample rounds up
    assert sample_index(1.5 / 16000, 16000) == 2
    assert sample_index(0.0, 16000) == 0


def test_extract_boundaries_from_alignment():
    w = _wave(9000)
    entries = [
        AlignmentEntry("utt", "ni", 0.10, 0.22),
        AlignmentEntry("utt", "hao", 0.32, 0.18),
    ]
    segs = extract_segments(w, entries, "spk")
    assert [(s.start_sample, s.end_sample) for s in segs] == [
        (1600, 5120),
        (5120, 8000),
    ]
    assert [s.unit for s in segs] == ["ni", "hao"]
    assert all(s.speaker_id == "spk" for s in segs)


def test_extract_slices_are_verbatim():
    w = _wave(9000, seed=7)
    entries = [AlignmentEntry("utt", "ni", 0.10, 0.22)]
    (seg,) = extract_segments(w, entries, "spk")
    assert np.array_equal(seg.samples, w.samples[0, 1600:5120])
    # a private copy: mutating it must not touch the source
    seg.samples[0] += 1
    assert w.samples[0, 1600] == _wave(9000, seed=7).samples[0, 1600]


def test_extract_skips_silence():
    w = _wave(16000)
    entries = [
        AlignmentEntry("utt", "sil", 0.0, 0.1),
        AlignmentEntry("utt", "ni", 0.1, 0.2),
        AlignmentEntry("utt", "spn", 0.3, 0.1),
    ]
    segs = extract_segments(w, entries, "spk")
    assert [s.unit for s in segs] == ["ni"]


def test_extract_rejects_stereo():
    w = Waveform(np.zeros((2, 100), dtype=np.int16), 16000)
    with pytest.raises(SegmentationError, match="mono"):
        extract_segments(w, [], "spk")


def test_extract_out_of_bounds_entry():
    w = _wave(1000)
    entries = [AlignmentEntry("utt", "ni", 0.05, 0.05)]
    with pytest.raises(SegmentationError, match="past"):
        extract_segments(w, entries, "spk")


def test_extract_empty_sample_range():
    w = _wave(1000, rate=100)
    entries = [AlignmentEntry("utt", "ni", 0.100, 0.004)]
    with pytest.raises(SegmentationError, match="empty"):
        extract_segments(w, entries, "spk")


def test_extract_overlap_rejected():
    w = _wave(16000)
    entries = [
        AlignmentEntry("utt", "ni", 0.0, 0.3),
        AlignmentEntry("utt", "hao", 0.2, 0.3),
    ]
    with pytest.raises(Exception, match="overlap"):
        extract_segments(w, entries, "spk")


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(2, 8))
def test_extract_concatenation_recovers_contiguous_signal(seed, pieces):
    # contiguous entries tile the waveform; concatenating slices restores it
    rate = 1000
    rng = np.random.default_rng(seed)
    bounds = np.sort(rng.choice(np.arange(1, 50), size=pieces - 1, replace=False))
    bounds = [0, *bounds.tolist(), 50]
    w = _wave(50, rate=rate, seed=seed)
    entries = [
        AlignmentEntry("utt", f"u{i}", lo / rate, (hi - lo) / rate)
        for i, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
    ]
    segs = extract_segments(w, entries, "spk")
    joined = np.concatenate([s.samples for s in segs])
    assert np.array_equal(joined, w.samples[0])


# --- libraries --------------------------------------------------------------


def test_build_library_groups_in_order():
    segs = [
        _segment("spk", "ni", "a", 0, 10),
        _segment("spk", "hao", "a", 10, 20),
        _segment("spk", "ni", "b", 5, 15),
    ]
    lib = build_library(segs, UNITS)
    assert lib.speaker_id == "spk"
    assert [s.source_utterance for s in lib.table["ni"]] == ["a", "b"]
    assert lib.count("ni") == 2
    assert lib.count("hao") == 1
    assert lib.count("mi") == 0


def test_build_library_discards_non_target_units():
    segs = [
        _segment("spk", "ni", "a", 0, 10),
        _segment("spk", "umm", "a", 10, 20),
    ]
    lib = build_library(segs, UNITS)
    assert set(lib.table) == {"ni"}


def test_build_library_empty():
    lib = build_library([], UNITS)
    assert lib.table == {}
    stats = library_stats(lib, UNITS)
    assert stats.covered is False
    assert stats.max_count == 0


def test_build_library_rejects_mixed_speakers():
    segs = [_segment("a", "ni", "u", 0, 10), _segment("b", "ni", "u", 0, 10)]
    with pytest.raises(SegmentationError, match="speakers"):
        build_library(segs, UNITS)


def test_build_library_rejects_mixed_rates():
    segs = [
        _segment("a", "ni", "u", 0, 10, rate=16000),
        _segment("a", "ni", "v", 0, 10, rate=8000),
    ]
    with pytest.raises(SegmentationError, match="rates"):
        build_library(segs, UNITS)


def test_count_sum_invariant():
    segs = [
        _segment("spk", u, f"s{i}", i * 10, i * 10 + 5)
        for i, u in enumerate(["ni", "ni", "hao", "ya", "mi", "mi", "mi"])
    ]
    lib = build_library(segs, UNITS)
    assert sum(lib.count(u) for u in UNITS) == len(segs)


def test_stats_worked_counts():
    segs = []
    k = 0
    for unit, n in [("ni", 3), ("hao", 2), ("mi", 5), ("ya", 1)]:
        for _ in range(n):
            segs.append(_segment("spk", unit, f"s{k}", 0, 8))
            k += 1
    stats = library_stats(build_library(segs, UNITS), UNITS)
    assert stats.counts == {"ni": 3, "hao": 2, "mi": 5, "ya": 1}
    assert stats.covered is True
    assert stats.max_count == 5


def test_stats_missing_unit_blocks_coverage():
    segs = []
    k = 0
    for unit, n in [("ni", 3), ("mi", 5), ("ya", 1)]:
        for _ in range(n):
            segs.append(_segment("spk", unit, f"s{k}", 0, 8))
            k += 1
    stats = library_stats(build_library(segs, UNITS), UNITS)
    assert stats.counts["hao"] == 0
    assert stats.covered is False
    assert stats.max_count == 5


# --- persistence -------------------------------------------------------------


def test_library_roundtrip(tmp_path):
    segs = [
        _segment("spk3", "ni", "a", 0, 12, seed=3),
        _segment("spk3", "ni", "b", 4, 20, seed=4),
        _segment("spk3", "hao", "a", 12, 30, seed=5),
    ]
    lib = build_library(segs, UNITS)
    save_library(tmp_path, lib)
    assert list_library_speakers(tmp_path) == ["spk3"]

    back = load_library(tmp_path / "spk3")
    assert back.speaker_id == "spk3"
    assert set(back.table) == set(lib.table)
    for unit in lib.table:
        orig, loaded = lib.table[unit], back.table[unit]
        assert [(s.source_utterance, s.start_sample, s.end_sample) for s in orig] == [
            (s.source_utterance, s.start_sample, s.end_sample) for s in loaded
        ]
        for a, b in zip(orig, loaded):
            assert np.array_equal(a.samples, b.samples)
            assert a.sample_rate == b.sample_rate


def _saved_library(tmp_path):
    segs = [
        _segment("spk3", "ni", "a", 0, 12, seed=3),
        _segment("spk3", "hao", "a", 12, 30, seed=5),
        _segment("spk3", "ni", "b", 4, 20, seed=4),
    ]
    return save_library(tmp_path, build_library(segs, UNITS)), segs


def test_library_is_one_mono_wav_in_row_order(tmp_path):
    speaker_dir, segs = _saved_library(tmp_path)
    assert sorted(p.name for p in speaker_dir.iterdir()) == ["segments.tsv", "segments.wav"]
    rows = [line.split("\t") for line in (speaker_dir / "segments.tsv").read_text().splitlines()]
    # rows go unit by unit, each unit's segments in source order
    assert [(r[1], r[2]) for r in rows] == [("ni", "a"), ("ni", "b"), ("hao", "a")]
    audio = load_wav(speaker_dir / "segments.wav")
    assert audio.channels == 1 and audio.sample_rate == 16000
    by_row = [segs[0], segs[2], segs[1]]
    assert np.array_equal(audio.mono(), np.concatenate([s.samples for s in by_row]))


@pytest.mark.parametrize("extra", [-1, 2])
def test_load_library_refuses_a_wav_that_does_not_hold_its_rows(tmp_path, extra):
    speaker_dir, _ = _saved_library(tmp_path)
    wav = speaker_dir / "segments.wav"
    samples = load_wav(wav).mono()
    save_wav(wav, Waveform(np.resize(samples, len(samples) + extra), 16000))
    message = f"{re.escape(str(wav))} holds {46 + extra} samples, but the 3 rows of .* sum to 46"
    with pytest.raises(SegmentationError, match=message):
        load_library(speaker_dir)


@pytest.mark.parametrize(
    "start, end",
    [("x", "20"), ("-5", "20"), ("1_0", "20"), ("4", "\u0662\u0660"), ("20", "20"), ("20", "4")],
)
def test_load_library_refuses_a_start_or_end_that_is_not_a_sample_range(tmp_path, start, end):
    speaker_dir, _ = _saved_library(tmp_path)
    manifest = speaker_dir / "segments.tsv"
    lines = manifest.read_text().splitlines()
    lines[1] = "\t".join(lines[1].split("\t")[:3] + [start, end])
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    message = f"{re.escape(str(manifest))}:2: start and end must be non-negative integers"
    with pytest.raises(SegmentationError, match=message):
        load_library(speaker_dir)


def test_load_library_refuses_a_multichannel_wav(tmp_path):
    speaker_dir, _ = _saved_library(tmp_path)
    save_wav(speaker_dir / "segments.wav", Waveform(np.zeros((2, 46), dtype=np.int16), 16000))
    with pytest.raises(SegmentationError, match="segments.wav: expected mono, got 2 channels"):
        load_library(speaker_dir)


def test_load_library_asks_for_a_new_segment_run_on_the_per_segment_layout(tmp_path):
    speaker_dir, segs = _saved_library(tmp_path)
    # the earlier layout: the same rows, one WAV per segment under wav/
    (speaker_dir / "segments.wav").unlink()
    for s in segs:
        name = f"{s.unit}_{s.source_utterance}_{s.start_sample}_{s.end_sample}.wav"
        save_wav(speaker_dir / "wav" / name, Waveform(s.samples, s.sample_rate))
    with pytest.raises(SegmentationError, match="rerun `unitcat segment`"):
        load_library(speaker_dir)


def test_empty_library_round_trips_without_a_wav(tmp_path):
    speaker_dir = save_library(tmp_path, UnitLibrary(speaker_id="spk9", table={}))
    assert [p.name for p in speaker_dir.iterdir()] == ["segments.tsv"]
    assert (speaker_dir / "segments.tsv").read_text() == ""
    back = load_library(speaker_dir)
    assert (back.speaker_id, back.table) == ("spk9", {})


def test_save_library_refuses_mixed_rates(tmp_path):
    segs = [_segment("spk", "ni", "a", 0, 8), _segment("spk", "ni", "b", 0, 8, rate=8000)]
    lib = UnitLibrary("spk", {"ni": segs})
    with pytest.raises(SegmentationError, match="mixed sample rates"):
        save_library(tmp_path, lib)
    assert not (tmp_path / "spk" / "segments.wav").exists()


def test_list_library_speakers_empty_and_sorted(tmp_path):
    assert list_library_speakers(tmp_path / "nope") == []
    for spk in ["b", "a", "c"]:
        save_library(tmp_path, build_library([_segment(spk, "ni", "u", 0, 8)], UNITS))
    (tmp_path / "junk").mkdir()
    assert list_library_speakers(tmp_path) == ["a", "b", "c"]
