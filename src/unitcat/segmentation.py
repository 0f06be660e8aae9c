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
# speaker, unit, source, start_sample, end_sample, plus one sliced WAV per
# row at <dir>/<speaker>/wav/<unit>_<source>_<start>_<end>.wav.


def _segment_wav_name(unit: str, source: str, start: int, end: int) -> str:
    return f"{unit}_{source}_{start}_{end}.wav"


def save_library(libdir: str | Path, lib: UnitLibrary) -> Path:
    speaker_dir = Path(libdir) / lib.speaker_id
    wav_dir = speaker_dir / "wav"
    wav_dir.mkdir(parents=True, exist_ok=True)
    lines = []
    for unit, segs in lib.table.items():
        for s in segs:
            lines.append(
                f"{s.speaker_id}\t{unit}\t{s.source_utterance}"
                f"\t{s.start_sample}\t{s.end_sample}"
            )
            name = _segment_wav_name(s.unit, s.source_utterance, s.start_sample, s.end_sample)
            save_wav(wav_dir / name, Waveform(s.samples, s.sample_rate))
    (speaker_dir / "segments.tsv").write_text(
        "".join(line + "\n" for line in lines), encoding="utf-8"
    )
    return speaker_dir


def load_library(speaker_dir: str | Path) -> UnitLibrary:
    speaker_dir = Path(speaker_dir)
    table: dict[str, list[UnitSegment]] = {}
    speaker_id = speaker_dir.name
    manifest = speaker_dir / "segments.tsv"
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
        start, end = int(start_s), int(end_s)
        seg_wav = load_wav(speaker_dir / "wav" / _segment_wav_name(unit, source, start, end))
        table.setdefault(unit, []).append(
            UnitSegment(spk, unit, source, start, end, seg_wav.mono(), seg_wav.sample_rate)
        )
        speaker_id = spk
    return UnitLibrary(speaker_id=speaker_id, table=table)


def list_library_speakers(libdir: str | Path) -> list[str]:
    root = Path(libdir)
    if not root.is_dir():
        return []
    return sorted(p.name for p in root.iterdir() if (p / "segments.tsv").is_file())
