"""Synthetic fixture corpora for tests and pipeline demos.

Speakers are pure-tone voices: each speaker has a fundamental frequency
and every unit is a fixed-duration tone at a unit-specific multiple of it,
with the amplitude varying per occurrence so no two segments are byte
identical. Utterances, alignments, a manifest and a trial list over the
ids the synthesizer will later produce are all written to one directory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio import Waveform, save_wav
from .corpus import AlignmentEntry, UtteranceRecord, format_alignment, save_manifest
from .synthesis import synth_utterance_id

DEFAULT_UNITS = ("ni", "hao", "mi", "ya")

_SIL_EDGE_S = 0.05
_SIL_GAP_S = 0.08
_UNIT_BASE_S = 0.18
_UNIT_STEP_S = 0.02
_UNITS_PER_UTTERANCE = 3


@dataclass
class ToySpeakerSpec:
    speaker_id: str
    fundamental_hz: float
    unit_counts: dict[str, int]

    def expected_synth_count(self) -> int:
        """Utterances the synthesizer will produce if coverage holds."""
        return max(self.unit_counts.values(), default=0)

    def covered(self, units: tuple[str, ...]) -> bool:
        return all(self.unit_counts.get(u, 0) >= 1 for u in units)


@dataclass
class ToyCorpus:
    root: Path
    units: tuple[str, ...]
    specs: list[ToySpeakerSpec]
    records: list[UtteranceRecord]
    manifest_path: Path
    alignment_path: Path
    trials_path: Path
    sample_rate: int


def default_speaker_specs(
    num_speakers: int,
    units: tuple[str, ...] = DEFAULT_UNITS,
    uncovered_speakers: tuple[str, ...] = (),
) -> list[ToySpeakerSpec]:
    """Varied per-unit counts per speaker spk0 .. spk<num_speakers - 1>;
    listed speakers lose their first unit entirely (count 0) to exercise
    the skip path. Listing a speaker that is not generated is refused."""
    unknown = sorted(set(uncovered_speakers) - {f"spk{k}" for k in range(num_speakers)})
    if unknown:
        raise ValueError(
            f"uncovered speakers {', '.join(unknown)} are not among the {num_speakers} "
            "generated speakers"
        )
    base_patterns = [(3, 2, 5, 1), (2, 4, 1, 3), (1, 1, 2, 2), (4, 1, 3, 2), (2, 3, 2, 4)]
    specs = []
    for k in range(num_speakers):
        speaker_id = f"spk{k}"
        pattern = base_patterns[k % len(base_patterns)]
        counts = {u: pattern[i % len(pattern)] for i, u in enumerate(units)}
        if speaker_id in uncovered_speakers:
            counts[units[0]] = 0
        specs.append(ToySpeakerSpec(speaker_id, 150.0 * (k + 1), counts))
    return specs


def unit_duration_s(units: tuple[str, ...], unit: str) -> float:
    return _UNIT_BASE_S + _UNIT_STEP_S * units.index(unit)


def unit_tone(
    spec: ToySpeakerSpec,
    units: tuple[str, ...],
    unit: str,
    occurrence: int,
    sample_rate: int,
) -> np.ndarray:
    """The occurrence-th rendition of a unit by this speaker, int16 mono."""
    freq = spec.fundamental_hz * (1.0 + 0.3 * units.index(unit))
    num = int(round(unit_duration_s(units, unit) * sample_rate))
    amp = 6000.0 + 400.0 * (occurrence % 7)
    t = np.arange(num) / sample_rate
    return np.rint(amp * np.sin(2.0 * math.pi * freq * t)).astype(np.int16)


def make_toy_corpus(
    out_dir: str | Path,
    specs: list[ToySpeakerSpec],
    units: tuple[str, ...] = DEFAULT_UNITS,
    sample_rate: int = 16000,
) -> ToyCorpus:
    root = Path(out_dir)
    wav_dir = root / "wav"
    wav_dir.mkdir(parents=True, exist_ok=True)

    records: list[UtteranceRecord] = []
    alignment_entries: list[AlignmentEntry] = []
    for spec in specs:
        occurrences = [
            u for u in units for _ in range(spec.unit_counts.get(u, 0))
        ]
        occ_counter = {u: 0 for u in units}
        for utt_idx in range(0, len(occurrences), _UNITS_PER_UTTERANCE):
            chunk = occurrences[utt_idx : utt_idx + _UNITS_PER_UTTERANCE]
            utt_id = f"{spec.speaker_id}-src-{utt_idx // _UNITS_PER_UTTERANCE:03d}"
            pieces: list[np.ndarray] = []
            cursor = 0

            def put(label: str, samples: np.ndarray) -> None:
                nonlocal cursor
                alignment_entries.append(
                    AlignmentEntry(
                        utt_id,
                        label,
                        cursor / sample_rate,
                        len(samples) / sample_rate,
                    )
                )
                pieces.append(samples)
                cursor += len(samples)

            put("sil", np.zeros(int(round(_SIL_EDGE_S * sample_rate)), dtype=np.int16))
            for i, u in enumerate(chunk):
                if i:
                    put("sil", np.zeros(int(round(_SIL_GAP_S * sample_rate)), dtype=np.int16))
                put(u, unit_tone(spec, units, u, occ_counter[u], sample_rate))
                occ_counter[u] += 1
            put("sil", np.zeros(int(round(_SIL_EDGE_S * sample_rate)), dtype=np.int16))

            save_wav(wav_dir / f"{utt_id}.wav", Waveform(np.concatenate(pieces), sample_rate))
            records.append(
                UtteranceRecord(utt_id, spec.speaker_id, tuple(chunk), f"wav/{utt_id}.wav")
            )

    manifest_path = root / "manifest.tsv"
    save_manifest(manifest_path, records)
    alignment_path = root / "ali.ctm"
    alignment_path.write_text(format_alignment(alignment_entries), encoding="utf-8")
    trials_path = root / "trials.tsv"
    trials_path.write_text(_toy_trials(specs, units), encoding="utf-8")
    return ToyCorpus(
        root, units, specs, records, manifest_path, alignment_path, trials_path, sample_rate
    )


def _toy_trials(specs: list[ToySpeakerSpec], units: tuple[str, ...]) -> str:
    """Trials over the ids the synthesizer will emit for covered speakers."""
    covered = [s for s in specs if s.covered(units)]
    lines = []
    for s in covered:
        n = s.expected_synth_count()
        a = synth_utterance_id(s.speaker_id, 0)
        b = synth_utterance_id(s.speaker_id, 1 if n > 1 else 0)
        lines.append(f"{a} {b} target")
    for s, other in zip(covered, covered[1:]):
        lines.append(
            f"{synth_utterance_id(s.speaker_id, 0)} "
            f"{synth_utterance_id(other.speaker_id, 0)} nontarget"
        )
    return "".join(line + "\n" for line in lines)
