"""Corpus metadata: alignment files and utterance manifests.

Alignment files are CTM-like text, five whitespace-separated fields per
line: utterance_id channel start duration unit, the times in seconds
written in ASCII digits. Manifests are TSV with
columns utterance_id, speaker_id, transcript (space-joined units),
audio_path and an optional channel index, a non-negative integer in ASCII
digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SILENCE_LABELS = frozenset({"sil", "spn"})

# Adjacent entries written with 2-3 decimals can differ from exact adjacency
# by float rounding (0.1 + 0.2 > 0.3); only larger overlaps are real.
_OVERLAP_EPS = 1e-9


def ascii_number(convert):
    """convert (int or float) as a parser that also refuses what int() and
    float() accept but no unitcat file, config or flag is written with:
    digit-group underscores ('1_0') and non-ASCII digits."""

    def parse(raw: str):
        if "_" in raw or not raw.isascii():
            raise ValueError(f"expected a number in ASCII digits, got {raw!r}")
        return convert(raw)

    return parse


_parse_time = ascii_number(float)


class AlignmentError(ValueError):
    pass


class ManifestError(ValueError):
    pass


@dataclass
class AlignmentEntry:
    utterance_id: str
    unit: str
    start: float
    duration: float

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass
class UtteranceRecord:
    utterance_id: str
    speaker_id: str
    transcript: tuple[str, ...]
    audio_path: str
    channel_index: int | None = None


# --- alignments ---------------------------------------------------------


def parse_alignment(text: str) -> list[AlignmentEntry]:
    """Parse CTM-like alignment text; order preserved, empty lines skipped."""
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 5:
            raise AlignmentError(
                f"line {lineno}: expected 5 fields "
                f"(utterance_id channel start duration unit), got {len(fields)}"
            )
        utterance_id, _channel, start_s, duration_s, unit = fields
        try:
            start = _parse_time(start_s)
            duration = _parse_time(duration_s)
        except ValueError:
            raise AlignmentError(
                f"line {lineno}: non-numeric time field in {start_s!r} / {duration_s!r}"
            ) from None
        if not (math.isfinite(start) and math.isfinite(duration)):
            raise AlignmentError(
                f"line {lineno}: non-finite time field in {start_s!r} / {duration_s!r}"
            )
        if start < 0:
            raise AlignmentError(f"line {lineno}: negative start time {start}")
        if duration <= 0:
            raise AlignmentError(f"line {lineno}: non-positive duration {duration}")
        entries.append(AlignmentEntry(utterance_id, unit, start, duration))
    return entries


def format_alignment(entries: list[AlignmentEntry]) -> str:
    lines = [
        f"{e.utterance_id} 1 {e.start:.6g} {e.duration:.6g} {e.unit}" for e in entries
    ]
    return "".join(line + "\n" for line in lines)


def load_alignment(path: str | Path) -> list[AlignmentEntry]:
    """parse_alignment of a file; a refusal names the file before its line."""
    try:
        return parse_alignment(Path(path).read_text(encoding="utf-8"))
    except AlignmentError as exc:
        raise AlignmentError(f"{path}: {exc}") from None


def group_alignments(entries: list[AlignmentEntry]) -> dict[str, list[AlignmentEntry]]:
    """Entries grouped per utterance, file order preserved within groups."""
    groups: dict[str, list[AlignmentEntry]] = {}
    for e in entries:
        groups.setdefault(e.utterance_id, []).append(e)
    return groups


def check_non_overlapping(entries: list[AlignmentEntry]) -> None:
    """Raise if any two entries of one utterance overlap in time."""
    ordered = sorted(entries, key=lambda e: e.start)
    for prev, cur in zip(ordered, ordered[1:]):
        if cur.start < prev.end - _OVERLAP_EPS:
            raise AlignmentError(
                f"utterance {cur.utterance_id!r}: entry {cur.unit!r} at {cur.start} "
                f"overlaps {prev.unit!r} ending at {prev.end}"
            )


# --- manifests ----------------------------------------------------------


def parse_manifest(text: str) -> list[UtteranceRecord]:
    records = []
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) not in (4, 5):
            raise ManifestError(
                f"line {lineno}: expected 4 or 5 tab-separated fields, got {len(fields)}"
            )
        utterance_id, speaker_id, transcript, audio_path = fields[:4]
        channel: int | None = None
        if len(fields) == 5 and fields[4] != "":
            # int() would also take "-1", "1_0" and non-ASCII digits
            if not (fields[4].isascii() and fields[4].isdigit()):
                raise ManifestError(
                    f"line {lineno}: channel index {fields[4]!r} is not an integer >= 0"
                )
            channel = int(fields[4])
        if utterance_id in seen:
            raise ManifestError(
                f"line {lineno}: duplicate utterance_id {utterance_id!r} "
                f"(first seen at line {seen[utterance_id]})"
            )
        seen[utterance_id] = lineno
        records.append(
            UtteranceRecord(
                utterance_id, speaker_id, tuple(transcript.split()), audio_path, channel
            )
        )
    return records


def format_manifest(records: list[UtteranceRecord]) -> str:
    lines = []
    for r in records:
        row = [r.utterance_id, r.speaker_id, " ".join(r.transcript), r.audio_path]
        if r.channel_index is not None:
            row.append(str(r.channel_index))
        lines.append("\t".join(row))
    return "".join(line + "\n" for line in lines)


def load_manifest(path: str | Path) -> list[UtteranceRecord]:
    """parse_manifest of a file; a refusal names the file before its line."""
    try:
        return parse_manifest(Path(path).read_text(encoding="utf-8"))
    except ManifestError as exc:
        raise ManifestError(f"{path}: {exc}") from None


def save_manifest(path: str | Path, records: list[UtteranceRecord]) -> None:
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(format_manifest(records), encoding="utf-8")
