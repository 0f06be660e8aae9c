"""Single-unit segment extraction and per-speaker unit libraries.

Each speaker's utterances are chunked into one segment per aligned
non-silence unit; segments for the units of a target transcript are then
grouped into a per-speaker library keyed by unit label.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio import Waveform, load_wav, save_wav
from .corpus import (
    DEFAULT_SILENCE_LABELS,
    AlignmentEntry,
    check_non_overlapping,
)


class SegmentationError(ValueError):
    pass


@dataclass
class UnitSegment:
    """A verbatim mono slice of one aligned unit."""

    speaker_id: str
    unit: str
    source_utterance: str
    start_sample: int
    end_sample: int
    samples: np.ndarray
    sample_rate: int

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=np.int16)
        if self.samples.ndim != 1:
            raise ValueError(f"segment samples must be 1-D, got shape {self.samples.shape}")
        if self.end_sample - self.start_sample != len(self.samples) or len(self.samples) == 0:
            raise ValueError(
                f"segment range [{self.start_sample}, {self.end_sample}) does not "
                f"match {len(self.samples)} samples"
            )


@dataclass
class UnitLibrary:
    """Per-speaker map from unit label to its candidate segments."""

    speaker_id: str
    table: dict[str, list[UnitSegment]]

    def count(self, unit: str) -> int:
        return len(self.table.get(unit, ()))


@dataclass
class LibraryStats:
    counts: dict[str, int]
    covered: bool
    max_count: int


def sample_index(t: float, rate: int) -> int:
    """Time in seconds to a sample index, rounding half up."""
    return int(math.floor(t * rate + 0.5))


def extract_segments(
    w: Waveform,
    entries: list[AlignmentEntry],
    speaker_id: str,
    silence_labels: frozenset[str] | set[str] = DEFAULT_SILENCE_LABELS,
) -> list[UnitSegment]:
    """One segment per non-silence alignment entry, in entry order.

    Boundaries are round-half-up of time*rate; slices are verbatim copies
    of the waveform samples.
    """
    if w.channels != 1:
        raise SegmentationError(
            f"segment extraction needs mono audio, got {w.channels} channels"
        )
    check_non_overlapping(entries)
    mono = w.mono()
    segments = []
    for e in entries:
        if e.unit in silence_labels:
            continue
        start = sample_index(e.start, w.sample_rate)
        end = sample_index(e.end, w.sample_rate)
        if end > w.num_samples:
            raise SegmentationError(
                f"utterance {e.utterance_id!r}: unit {e.unit!r} ends at sample {end}, "
                f"past the {w.num_samples}-sample waveform"
            )
        if end <= start:
            raise SegmentationError(
                f"utterance {e.utterance_id!r}: unit {e.unit!r} rounds to an empty "
                f"sample range [{start}, {end})"
            )
        segments.append(
            UnitSegment(
                speaker_id=speaker_id,
                unit=e.unit,
                source_utterance=e.utterance_id,
                start_sample=start,
                end_sample=end,
                samples=mono[start:end].copy(),
                sample_rate=w.sample_rate,
            )
        )
    return segments


def build_library(segments: list[UnitSegment], target_units: tuple[str, ...]) -> UnitLibrary:
    """Group target-unit segments by unit, keeping per-unit source order."""
    if not segments:
        return UnitLibrary(speaker_id="", table={})
    speakers = {s.speaker_id for s in segments}
    if len(speakers) != 1:
        raise SegmentationError(f"segments from multiple speakers: {sorted(speakers)}")
    rates = {s.sample_rate for s in segments}
    if len(rates) != 1:
        raise SegmentationError(f"segments with mixed sample rates: {sorted(rates)}")
    wanted = set(target_units)
    table: dict[str, list[UnitSegment]] = {}
    for s in segments:
        if s.unit in wanted:
            table.setdefault(s.unit, []).append(s)
    return UnitLibrary(speaker_id=segments[0].speaker_id, table=table)


def library_stats(lib: UnitLibrary, target_units: tuple[str, ...]) -> LibraryStats:
    """Per-target-unit candidate counts, full-coverage flag, and the max count.

    The max count is the number of utterances to synthesize for the speaker.
    """
    counts = {u: lib.count(u) for u in target_units}
    covered = all(c >= 1 for c in counts.values()) and bool(counts)
    max_count = max(counts.values(), default=0)
    return LibraryStats(counts=counts, covered=covered, max_count=max_count)


# --- persistence --------------------------------------------------------
#
# A library is stored as <dir>/<speaker>/segments.tsv with columns
# speaker, unit, source, start_sample, end_sample, plus
# <dir>/<speaker>/segments.wav, a mono WAV holding every row's samples back
# to back in row order: row k is the end - start samples that follow rows
# 0..k-1. A library with no rows has no segments.wav.


def save_library(libdir: str | Path, lib: UnitLibrary) -> Path:
    speaker_dir = Path(libdir) / lib.speaker_id
    speaker_dir.mkdir(parents=True, exist_ok=True)
    rows = [(unit, s) for unit, segs in lib.table.items() for s in segs]
    if rows:
        rates = {s.sample_rate for _, s in rows}
        if len(rates) != 1:
            raise SegmentationError(
                f"speaker {lib.speaker_id!r}: segments with mixed sample rates {sorted(rates)}"
            )
        samples = np.concatenate([s.samples for _, s in rows])
        save_wav(speaker_dir / "segments.wav", Waveform(samples, rates.pop()))
    (speaker_dir / "segments.tsv").write_text(
        "".join(
            f"{s.speaker_id}\t{unit}\t{s.source_utterance}\t{s.start_sample}\t{s.end_sample}\n"
            for unit, s in rows
        ),
        encoding="utf-8",
    )
    return speaker_dir


def load_library(speaker_dir: str | Path) -> UnitLibrary:
    speaker_dir = Path(speaker_dir)
    manifest = speaker_dir / "segments.tsv"
    rows = []
    for lineno, line in enumerate(
        manifest.read_text(encoding="utf-8").splitlines(), start=1
    ):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 5:
            raise SegmentationError(
                f"{manifest}:{lineno}: expected 5 fields, got {len(fields)}"
            )
        spk, unit, source, start_s, end_s = fields
        rows.append((spk, unit, source, int(start_s), int(end_s)))
    if not rows:
        return UnitLibrary(speaker_id=speaker_dir.name, table={})

    wav_path = speaker_dir / "segments.wav"
    if not wav_path.is_file():
        raise SegmentationError(
            f"{wav_path} is missing, though {manifest} lists {len(rows)} segments (a "
            "library in the older layout keeps one WAV per segment under wav/); "
            "rerun `unitcat segment`"
        )
    audio = load_wav(wav_path)
    if audio.channels != 1:
        raise SegmentationError(f"{wav_path}: expected mono, got {audio.channels} channels")
    expected = sum(end - start for _, _, _, start, end in rows)
    if audio.num_samples != expected:
        raise SegmentationError(
            f"{wav_path} holds {audio.num_samples} samples, but the {len(rows)} rows "
            f"of {manifest} sum to {expected}"
        )
    samples = audio.mono()
    table: dict[str, list[UnitSegment]] = {}
    offset = 0
    for spk, unit, source, start, end in rows:
        # a copy per segment, not a view of the file's one array: small
        # arrays refill the holes that segmenting leaves in the heap
        piece = samples[offset : offset + end - start].copy()
        table.setdefault(unit, []).append(
            UnitSegment(spk, unit, source, start, end, piece, audio.sample_rate)
        )
        offset += end - start
    return UnitLibrary(speaker_id=rows[-1][0], table=table)


def list_library_speakers(libdir: str | Path) -> list[str]:
    root = Path(libdir)
    if not root.is_dir():
        return []
    return sorted(p.name for p in root.iterdir() if (p / "segments.tsv").is_file())
