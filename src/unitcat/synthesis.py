"""Fixed-transcript synthesis by seeded unit selection and concatenation.

For each covered speaker the planner draws, per transcript position, a
uniform random candidate from that unit's library list (with replacement),
and the renderer concatenates the chosen slices verbatim: no crossfade, no
gap, no gain change. Additive-noise and reverberation augmentation of
rendered audio lives here too.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio import Waveform, load_wav, save_wav
from .config import check_snr_list
from .corpus import UtteranceRecord, save_manifest
from .rng import SplitMix64, derive_seed
from .segmentation import UnitLibrary, library_stats


class CoverageError(ValueError):
    """A library lacks candidates for a transcript unit."""


class AugmentError(ValueError):
    pass


@dataclass
class SynthesisPlan:
    speaker_id: str
    transcript: tuple[str, ...]
    choices: tuple[int, ...]
    seed_record: int

    def __post_init__(self) -> None:
        if len(self.choices) != len(self.transcript):
            raise ValueError(
                f"{len(self.choices)} choices for {len(self.transcript)} transcript units"
            )


@dataclass
class SynthesizedUtterance:
    """A written utterance's record and plan; its audio is the WAV at record.audio_path."""

    record: UtteranceRecord
    plan: SynthesisPlan


@dataclass
class SynthesisReport:
    utterances: list[SynthesizedUtterance]
    per_speaker_counts: dict[str, int]
    skipped: list[tuple[str, tuple[str, ...]]]  # (speaker_id, missing units)


def unique_units(transcript: tuple[str, ...]) -> tuple[str, ...]:
    seen: dict[str, None] = {}
    for u in transcript:
        seen.setdefault(u)
    return tuple(seen)


def synth_utterance_id(speaker_id: str, index: int) -> str:
    return f"{speaker_id}-synth-{index:03d}"


def plan_synthesis(
    lib: UnitLibrary, transcript: tuple[str, ...], count: int, seed: int
) -> list[SynthesisPlan]:
    """Exactly `count` plans; each slot uniform over that unit's candidates.

    Draws come from a per-utterance stream derived from (seed, speaker,
    utterance index), so plans are reproducible item by item.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    for u in unique_units(transcript):
        if lib.count(u) == 0:
            raise CoverageError(
                f"speaker {lib.speaker_id!r} has no segments for unit {u!r}"
            )
    plans = []
    for i in range(count):
        stream_seed = derive_seed(seed, lib.speaker_id, i)
        rng = SplitMix64(stream_seed)
        choices = tuple(rng.next_below(lib.count(u)) for u in transcript)
        plans.append(SynthesisPlan(lib.speaker_id, tuple(transcript), choices, stream_seed))
    return plans


def render(plan: SynthesisPlan, lib: UnitLibrary) -> Waveform:
    """Concatenate the plan's chosen segment slices in transcript order."""
    chosen = []
    for unit, idx in zip(plan.transcript, plan.choices):
        candidates = lib.table.get(unit, [])
        if not 0 <= idx < len(candidates):
            raise CoverageError(
                f"choice {idx} out of range for unit {unit!r} "
                f"with {len(candidates)} candidates"
            )
        chosen.append(candidates[idx])
    rates = {s.sample_rate for s in chosen}
    if len(rates) != 1:
        raise ValueError(f"chosen segments mix sample rates {sorted(rates)}")
    samples = np.concatenate([s.samples for s in chosen])
    return Waveform(samples, chosen[0].sample_rate)


def synthesize_corpus(
    libraries: Iterable[UnitLibrary],
    transcript: tuple[str, ...],
    seed: int,
    out_dir: str | Path,
) -> SynthesisReport:
    """Render per covered speaker exactly max-unit-count utterances into out_dir.

    Speakers whose library misses any transcript unit are skipped and reported. Each
    utterance's WAV is saved as soon as it is rendered. manifest.tsv, plans.tsv and
    skips.tsv are removed first and written after the last WAV, so a failed call leaves
    none of them. Output is deterministic for a fixed seed: utterance seeds derive from
    (seed, speaker, index), and utterances are written in library order.
    """
    out_dir = Path(out_dir)
    (out_dir / "wav").mkdir(parents=True, exist_ok=True)
    for name in ("manifest.tsv", "plans.tsv", "skips.tsv"):
        (out_dir / name).unlink(missing_ok=True)
    units = unique_units(transcript)
    skipped = []
    counts: dict[str, int] = {}
    utterances = []
    for lib in libraries:
        stats = library_stats(lib, units)
        if not stats.covered:
            missing = tuple(u for u in units if stats.counts[u] == 0)
            skipped.append((lib.speaker_id, missing))
            continue
        counts[lib.speaker_id] = stats.max_count
        for i, plan in enumerate(plan_synthesis(lib, transcript, stats.max_count, seed)):
            utt_id = synth_utterance_id(lib.speaker_id, i)
            record = UtteranceRecord(
                utterance_id=utt_id,
                speaker_id=lib.speaker_id,
                transcript=tuple(transcript),
                audio_path=f"wav/{utt_id}.wav",
            )
            save_wav(out_dir / record.audio_path, render(plan, lib))
            utterances.append(SynthesizedUtterance(record, plan))

    report = SynthesisReport(utterances, counts, skipped)
    _write_synthesis_artifacts(out_dir, report)
    return report


def _write_synthesis_artifacts(out_dir: Path, report: SynthesisReport) -> None:
    save_manifest(out_dir / "manifest.tsv", [s.record for s in report.utterances])
    plan_lines = [
        f"{s.record.utterance_id}\t{s.plan.speaker_id}"
        f"\t{' '.join(s.plan.transcript)}"
        f"\t{' '.join(str(c) for c in s.plan.choices)}"
        f"\t{s.plan.seed_record:016x}"
        for s in report.utterances
    ]
    (out_dir / "plans.tsv").write_text(
        "".join(line + "\n" for line in plan_lines), encoding="utf-8"
    )
    skip_lines = [f"{spk}\t{' '.join(missing)}" for spk, missing in report.skipped]
    (out_dir / "skips.tsv").write_text(
        "".join(line + "\n" for line in skip_lines), encoding="utf-8"
    )


# --- acoustic augmentation ----------------------------------------------


def _mono_float(w: Waveform, what: str) -> np.ndarray:
    if w.channels != 1:
        raise AugmentError(f"{what} must be mono, got {w.channels} channels")
    return w.mono().astype(np.float64)


def _noise_samples(noise: Waveform) -> np.ndarray:
    n = _mono_float(noise, "noise")
    if len(n) == 0:
        raise AugmentError("empty noise waveform")
    return n


def _to_int16(x: np.ndarray, sample_rate: int) -> tuple[Waveform, int]:
    """Round to int16, saturating; also the number of samples clipped."""
    rounded = np.rint(x)
    clipped = int(np.count_nonzero((rounded > 32767) | (rounded < -32768)))
    return Waveform(np.clip(rounded, -32768, 32767).astype(np.int16), sample_rate), clipped


def _mix_noise_core(
    speech: Waveform, noise: np.ndarray, noise_rate: int, snr_db: float, seed: int
) -> tuple[Waveform, int]:
    """mix_noise on noise already decoded by _noise_samples."""
    if speech.sample_rate != noise_rate:
        raise AugmentError(
            f"sample-rate mismatch: speech {speech.sample_rate}, noise {noise_rate}"
        )
    s = _mono_float(speech, "speech")
    offset = SplitMix64(seed).next_below(len(noise))
    n = noise[offset : offset + len(s)]
    if len(n) < len(s):  # the segment wraps around the end of the noise
        n = np.resize(np.concatenate((n, noise[:offset])), len(s))
    p_speech = float(np.mean(s * s))
    p_noise = float(np.mean(n * n))
    if p_speech == 0.0:
        raise AugmentError("zero-power speech: SNR gain undefined")
    if p_noise == 0.0:
        raise AugmentError("zero-power noise segment: SNR gain undefined")
    gain = float(np.sqrt(p_speech / (p_noise * 10.0 ** (snr_db / 10.0))))
    return _to_int16(s + gain * n, speech.sample_rate)


def mix_noise(speech: Waveform, noise: Waveform, snr_db: float, seed: int) -> Waveform:
    """Add a seeded, gain-scaled noise segment at the requested SNR.

    The noise segment starts at a seeded random offset and wraps around if
    the noise is shorter than the speech; powers are measured over the
    mixed region, so the realized SNR matches snr_db exactly before
    rounding. Samples saturate to int16.
    """
    return _mix_noise_core(speech, _noise_samples(noise), noise.sample_rate, snr_db, seed)[0]


def _convolve_rir_core(speech: Waveform, rir: np.ndarray) -> tuple[Waveform, int]:
    kernel = np.asarray(rir, dtype=np.float64)
    if kernel.ndim != 1 or len(kernel) == 0:
        raise AugmentError("rir must be a non-empty 1-D sample sequence")
    if float(np.max(np.abs(kernel))) == 0.0:
        raise AugmentError("rir has zero peak")
    s = _mono_float(speech, "speech")
    # taps past the speech's length never reach the kept outputs
    kernel = kernel[: len(s)]
    # The kept outputs are exactly zero iff the first nonzero speech sample
    # and the first nonzero tap lie len(s) or more apart. Test that here:
    # the FFT's round-off would leave ~1e-16 noise in place of the zeros.
    nonzero_s, nonzero_k = np.flatnonzero(s), np.flatnonzero(kernel)
    if not len(nonzero_s) or not len(nonzero_k) or nonzero_s[0] + nonzero_k[0] >= len(s):
        raise AugmentError("convolved signal has zero peak, cannot renormalize")
    # linear convolution as an FFT product long enough that nothing wraps
    # around, truncated to the input length
    size = len(s) + len(kernel) - 1
    n = 1 << (size - 1).bit_length()
    out = np.fft.irfft(np.fft.rfft(s, n) * np.fft.rfft(kernel, n), n)[: len(s)]
    out_peak = float(np.max(np.abs(out)))
    if out_peak == 0.0:
        raise AugmentError("convolved signal has zero peak, cannot renormalize")
    in_peak = float(np.max(np.abs(s)))
    out *= in_peak / out_peak
    return _to_int16(out, speech.sample_rate)


def convolve_rir(speech: Waveform, rir: np.ndarray) -> Waveform:
    """Convolve with an impulse response, renormalized to the input's peak."""
    return _convolve_rir_core(speech, rir)[0]


@dataclass
class AugmentationRow:
    utterance_id: str
    kind: str  # "noise" or "reverb"
    snr_db: float | None
    clipped: int


def augment_corpus(
    records: list[UtteranceRecord],
    audio_root: str | Path,
    out_dir: str | Path,
    seed: int,
    noise_paths: list[Path] | None = None,
    snr_list: list[float] | None = None,
    rir_paths: list[Path] | None = None,
) -> tuple[list[UtteranceRecord], list[AugmentationRow]]:
    """Write noisy / reverberant copies of a manifest's utterances.

    One copy per (utterance, SNR) plus one reverb copy per utterance when
    RIRs are given. All copies of one utterance go to one WAV,
    wav/<utterance_id>.wav, one channel per copy: the noisy copies in
    snr_list order, then the reverberant one. The augmented manifest names
    each copy's channel in its channel index column. Copies that differ in
    length or rate are refused before their file is written, and an SNR
    that is not finite or repeats an earlier one (see check_snr_list)
    before any file is. Noise and RIR files are chosen by per-utterance
    seeded draws, so output is deterministic. Returns the augmented
    records and the per-copy report rows (clipped-sample counts included).
    """
    try:
        check_snr_list(tuple(snr_list or ()))
    except ValueError as exc:
        raise AugmentError(str(exc)) from None
    audio_root = Path(audio_root)
    out_dir = Path(out_dir)
    noises = (
        [(w.sample_rate, _noise_samples(w)) for w in map(load_wav, noise_paths)]
        if noise_paths and snr_list
        else []
    )
    kernels = [load_wav(p).mono().astype(np.float64) / 32768.0 for p in rir_paths or ()]
    out_records: list[UtteranceRecord] = []
    report: list[AugmentationRow] = []
    for rec in records:
        speech = load_wav(audio_root / rec.audio_path)
        copies = []  # (id, kind, snr_db, (waveform, clipped))
        for snr in snr_list if noises else ():
            pick_rng = SplitMix64(derive_seed(seed, "noise-pick", rec.utterance_id, str(snr)))
            rate, noise = noises[pick_rng.next_below(len(noises))]
            mix_seed = derive_seed(seed, "noise-mix", rec.utterance_id, str(snr))
            mixed = _mix_noise_core(speech, noise, rate, snr, mix_seed)
            copies.append((f"{rec.utterance_id}-noise{snr:g}", "noise", snr, mixed))
        if kernels:
            pick_rng = SplitMix64(derive_seed(seed, "rir-pick", rec.utterance_id))
            kernel = kernels[pick_rng.next_below(len(kernels))]
            reverbed = _convolve_rir_core(speech, kernel)
            copies.append((f"{rec.utterance_id}-reverb", "reverb", None, reverbed))
        if not copies:
            continue
        waves = [wave for *_, (wave, _) in copies]
        shapes = {(w.sample_rate, w.num_samples) for w in waves}
        if len(shapes) != 1:
            raise AugmentError(
                f"utterance {rec.utterance_id!r}: copies differ in (rate, samples): "
                f"{sorted(shapes)}"
            )
        path = f"wav/{rec.utterance_id}.wav"
        channels = np.stack([w.mono() for w in waves])
        save_wav(out_dir / path, Waveform(channels, waves[0].sample_rate))
        for channel, (new_id, kind, snr, (_, clipped)) in enumerate(copies):
            out_records.append(
                UtteranceRecord(new_id, rec.speaker_id, rec.transcript, path, channel)
            )
            report.append(AugmentationRow(new_id, kind, snr, clipped))
    save_manifest(out_dir / "manifest.tsv", out_records)
    report_lines = [
        f"{r.utterance_id}\t{r.kind}\t{'' if r.snr_db is None else f'{r.snr_db:g}'}\t{r.clipped}"
        for r in report
    ]
    (out_dir / "augment_report.tsv").write_text(
        "".join(line + "\n" for line in report_lines), encoding="utf-8"
    )
    return out_records, report
