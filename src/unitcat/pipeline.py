"""End-to-end pipeline: segment, synth, augment, featurize, train,
extract, score, eval.

Each stage is one public function of explicit input paths, output paths
and parameters that returns its report lines; ``unitcat run`` and the
standalone subcommands both call it. ``run_pipeline`` reads every stage's
inputs from the previous stage's directory under cfg.out_dir and replaces
the stage's own directory, so a rerun never reads a stale artifact. All
randomness derives from one seed and no artifact contains a timestamp, so
rerunning with the same seed reproduces the tree byte for byte.
"""

from __future__ import annotations

import contextlib
import shutil
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from .archive import ArchiveWriter, read_archive
from .audio import Waveform, load_wav
from .config import ConfigError, PipelineConfig
from .corpus import (
    DEFAULT_SILENCE_LABELS,
    UtteranceRecord,
    derive_vad,
    group_alignments,
    load_alignment,
    load_manifest,
)
from .features import (
    FRAME_SHIFT_S,
    FRAME_WIDTH_S,
    SpecAugmentParams,
    apply_vad_filter,
    compute_fbank,
    frame_count,
    frame_sizes,
    sliding_mean_normalize,
    spec_augment,
)
from .rng import derive_seed
from .scoring import (
    DetMetrics,
    compute_det_metrics,
    format_roc,
    format_scores,
    load_trials,
    parse_scores,
    roc_svg,
    score_trials,
)
from .segmentation import (
    UnitLibrary,
    build_library,
    extract_segments,
    library_stats,
    list_library_speakers,
    load_library,
    save_library,
)
from .synthesis import synthesize_corpus, unique_units, augment_corpus
from .tdnn import (
    MIN_FRAMES,
    AamParams,
    TdnnConfig,
    forward,
    init_tdnn,
    load_params,
    save_params,
    train_step,
)
from .workspace import Workspace

STAGES = ("segment", "synth", "augment", "featurize", "train", "extract", "score", "eval")


class PipelineError(RuntimeError):
    pass


def parse_stages(raw: str | None) -> tuple[str, ...]:
    """None selects every stage; '' or 'none' selects no stage."""
    if raw is None:
        return STAGES
    names = [s.strip() for s in raw.split(",") if s.strip()]
    if raw.strip().lower() in ("", "none"):
        return ()
    unknown = [n for n in names if n not in STAGES]
    if unknown:
        raise ConfigError(f"unknown stage name(s): {', '.join(unknown)}")
    return tuple(s for s in STAGES if s in names)


def _require(path: Path, hint: str) -> Path:
    if not path.exists():
        raise PipelineError(f"missing {hint}: {path}")
    return path


def _records_with_audio(
    audio_root: Path, records: list[UtteranceRecord]
) -> Iterator[tuple[UtteranceRecord, Waveform]]:
    """Each record with its audio, in order; consecutive records that name
    one file (the channels of an augmented utterance) share one read."""
    path = wav = None
    for rec in records:
        if rec.audio_path != path:
            path, wav = rec.audio_path, load_wav(audio_root / rec.audio_path)
        yield rec, wav.channel(rec.channel_index) if rec.channel_index is not None else wav


def run_pipeline(cfg: PipelineConfig, stages: tuple[str, ...] = STAGES) -> str:
    out = Path(cfg.out_dir)
    report: list[str] = []
    if not stages:
        return "config valid; no stages requested\n"
    for stage in stages:
        runner = _STAGE_RUNNERS[stage]
        lines = runner(cfg, out)
        report.append(f"[{stage}]")
        report.extend(lines)
        report.append("")
    text = "".join(line + "\n" for line in report)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.txt").write_text(text, encoding="utf-8")
    return text


# --- stages ---------------------------------------------------------------


def segment_corpus(
    manifest_path: Path,
    alignment_path: Path,
    audio_root: Path,
    transcript: tuple[str, ...],
    silence_labels,
    libdir: Path,
) -> list[str]:
    """Chunk every manifest utterance and persist one library per speaker;
    returns per-speaker summary lines."""
    manifest = load_manifest(_require(manifest_path, "corpus manifest"))
    alignments = group_alignments(load_alignment(_require(alignment_path, "alignment file")))
    by_speaker: dict[str, list] = {}
    for rec, wav in _records_with_audio(audio_root, manifest):
        if rec.utterance_id not in alignments:
            raise PipelineError(f"no alignment entries for utterance {rec.utterance_id!r}")
        segs = extract_segments(
            wav, alignments[rec.utterance_id], rec.speaker_id, silence_labels
        )
        by_speaker.setdefault(rec.speaker_id, []).extend(segs)

    units = unique_units(transcript)
    lines = []
    for speaker in sorted(by_speaker):
        segs = by_speaker[speaker]
        lib = (
            build_library(segs, units)
            if segs
            else UnitLibrary(speaker_id=speaker, table={})
        )
        save_library(libdir, lib)
        stats = library_stats(lib, units)
        counts = " ".join(f"{u}:{stats.counts[u]}" for u in units)
        lines.append(
            f"{speaker}: {counts} covered={'yes' if stats.covered else 'no'} "
            f"max_count={stats.max_count}"
        )
    lines.append(f"speakers: {len(by_speaker)}")
    return lines


def synthesize_libraries(
    libdir: Path, transcript: tuple[str, ...], seed: int, out_dir: Path
) -> list[str]:
    """Synthesize from every unit library under libdir into out_dir."""
    speakers = list_library_speakers(_require(libdir, "unit library directory"))
    if not speakers:
        raise PipelineError(f"no unit libraries under {libdir}")
    libs = [load_library(libdir / spk) for spk in speakers]
    result = synthesize_corpus(libs, transcript, derive_seed(seed, "synth"), out_dir=out_dir)
    lines = [
        f"{spk}: {n} utterances" for spk, n in sorted(result.per_speaker_counts.items())
    ]
    for spk, missing in result.skipped:
        lines.append(f"skipped {spk}: missing {' '.join(missing)}")
    lines.append(f"synthesized: {len(result.utterances)}")
    return lines


def augment_audio(
    manifest_path: Path,
    audio_root: Path,
    out_dir: Path,
    seed: int,
    noise_dir: str | Path | None,
    snr_list: tuple[float, ...],
    rir_dir: str | Path | None,
) -> list[str]:
    """Noisy copies (noise_dir with at least one SNR) and reverberant
    copies (rir_dir) of a manifest's utterances, written to out_dir."""
    if not (noise_dir and snr_list) and not rir_dir:
        return ["nothing configured, skipped"]
    records = load_manifest(_require(manifest_path, "synthesized manifest"))
    noise_paths = sorted(Path(noise_dir).glob("*.wav")) if noise_dir else []
    rir_paths = sorted(Path(rir_dir).glob("*.wav")) if rir_dir else []
    if noise_dir and not noise_paths:
        raise PipelineError(f"no .wav files under noise_dir {noise_dir}")
    if rir_dir and not rir_paths:
        raise PipelineError(f"no .wav files under rir_dir {rir_dir}")
    out_records, rows = augment_corpus(
        records,
        audio_root,
        out_dir,
        derive_seed(seed, "augment"),
        noise_paths=noise_paths or None,
        snr_list=list(snr_list) or None,
        rir_paths=rir_paths or None,
    )
    clipped = sum(r.clipped for r in rows)
    return [f"augmented copies: {len(out_records)}", f"clipped samples: {clipped}"]


def featurize_corpus(
    sources: list[tuple[Path, Path]],
    out_base: Path,
    cmn_window: int,
    specaug: SpecAugmentParams | None,
    seed: int,
    alignment_path: Path | None = None,
) -> list[str]:
    """Normalized fbank features of every record of each (manifest, audio
    root) source, in the archive out_base. With alignments, non-speech
    frames are dropped before normalization. With specaug, a masked copy
    of every record goes to the archive "train" beside out_base."""
    if cmn_window < 1:
        raise ValueError(f"cmn_window must be >= 1, got {cmn_window}")
    train_base = out_base.with_name("train")
    if specaug is not None and out_base.with_suffix("") == train_base:
        raise ValueError(f"{out_base} is where the masked archive goes; choose another name")
    manifests = [
        (load_manifest(_require(manifest_path, "manifest")), audio_root)
        for manifest_path, audio_root in sources
    ]
    alignments = group_alignments(load_alignment(alignment_path)) if alignment_path else None
    if alignments is not None:
        # an utterance aligned only to silence would keep no frames
        unaligned = [
            rec.utterance_id
            for records, _ in manifests
            for rec in records
            if all(e.unit in DEFAULT_SILENCE_LABELS for e in alignments.get(rec.utterance_id, ()))
        ]
        if unaligned:
            raise ValueError(
                f"{len(unaligned)} utterance(s) have no alignment entries outside the "
                f"silence labels ({', '.join(sorted(DEFAULT_SILENCE_LABELS))}): "
                f"{', '.join(unaligned[:5])}"
            )
    utterances = frames = 0
    work = Workspace()
    with contextlib.ExitStack() as stack:
        plain = stack.enter_context(ArchiveWriter(out_base))
        masked = stack.enter_context(ArchiveWriter(train_base)) if specaug is not None else None
        for records, audio_root in manifests:
            for rec, wav in _records_with_audio(audio_root, records):
                feats = compute_fbank(wav, work)
                if alignments is not None:
                    win, shift = frame_sizes(wav.sample_rate)
                    vad = derive_vad(
                        alignments[rec.utterance_id],
                        FRAME_SHIFT_S,
                        FRAME_WIDTH_S,
                        frame_count(wav.num_samples, win, shift),
                    )
                    feats = apply_vad_filter(feats, vad)
                    if not len(feats):
                        # known only now: the check above reads labels, not audio lengths
                        raise ValueError(
                            f"utterance {rec.utterance_id!r}: no frame of its "
                            f"{wav.duration:.2f} s of audio lies inside a non-silence "
                            "alignment entry"
                        )
                feats = sliding_mean_normalize(feats, cmn_window)
                plain.add(rec.utterance_id, feats)
                if masked is not None:
                    mask_seed = derive_seed(seed, "specaug", rec.utterance_id)
                    masked.add(rec.utterance_id, spec_augment(feats, specaug, mask_seed))
                utterances += 1
                frames += len(feats)
    lines = [f"utterances: {utterances}", f"frames: {frames}"]
    if masked is not None:
        lines.append("masking: on")
    return lines


def train_model(
    features_base: Path,
    manifest_paths: list[Path],
    params_path: Path,
    steps: int,
    learn_rate: float,
    seed: int,
) -> list[str]:
    """Train the TDNN on the first record of every archived id, labelled
    with its speaker from the manifests."""
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    _require(features_base.with_suffix(".tsv"), "feature archive")
    archive = read_archive(features_base)
    speaker_of = {
        rec.utterance_id: rec.speaker_id
        for path in manifest_paths
        for rec in load_manifest(_require(path, "manifest"))
    }
    missing = [u for u in archive if u not in speaker_of]
    if missing:
        raise PipelineError(f"feature ids missing from the manifests: {', '.join(missing[:5])}")
    speakers = sorted({speaker_of[u] for u in archive})
    if len(speakers) < 2:
        raise PipelineError(f"training needs at least 2 speakers, found {len(speakers)}")
    short = [
        f"{utt_id} ({len(records[0])})"
        for utt_id, records in archive.items()
        if len(records[0]) < MIN_FRAMES
    ]
    if short:
        raise ValueError(
            f"training needs at least {MIN_FRAMES} frames per utterance; "
            f"{len(short)} have fewer: {', '.join(short[:5])}"
        )
    class_index = {s: i for i, s in enumerate(speakers)}
    batch = [
        (records[0].astype(np.float64), class_index[speaker_of[utt_id]])
        for utt_id, records in archive.items()
    ]

    params = init_tdnn(TdnnConfig(num_classes=len(speakers)), derive_seed(seed, "init"))
    aam = AamParams()
    losses = []
    work = Workspace()
    for _ in range(steps):
        params, loss = train_step(params, batch, learn_rate, aam, work)
        losses.append(loss)
    save_params(params_path, params)
    return [
        f"classes: {len(speakers)}",
        f"utterances: {len(batch)}",
        f"steps: {steps}",
        f"first_loss: {losses[0]:.6f}",
        f"final_loss: {losses[-1]:.6f}",
    ]


def extract_embeddings(params_path: Path, features_base: Path, out_base: Path) -> list[str]:
    """One embedding per feature record, in archive order, from one batched
    forward pass; the embedding archive is written only once they all exist."""
    params = load_params(_require(params_path, "trained parameters"))
    _require(features_base.with_suffix(".tsv"), "feature archive")
    archive = read_archive(features_base)
    records = [(utt_id, feats) for utt_id, recs in archive.items() for feats in recs]
    feat_dim = params.config.feat_dim
    unfit = [
        f"{utt_id} ({len(feats)}x{feats.shape[1]})"
        for utt_id, feats in records
        if len(feats) < MIN_FRAMES or feats.shape[1] != feat_dim
    ]
    if unfit:
        raise ValueError(
            f"extraction needs at least {MIN_FRAMES} frames of {feat_dim} features per "
            f"record; {len(unfit)} differ: {', '.join(unfit[:5])}"
        )
    nonfinite = [utt_id for utt_id, feats in records if not np.isfinite(feats).all()]
    if nonfinite:
        raise ValueError(
            f"{len(nonfinite)} feature records hold non-finite values: "
            f"{', '.join(nonfinite[:5])}"
        )
    embeddings, _ = forward(params, [feats for _, feats in records])
    with ArchiveWriter(out_base) as writer:
        for (utt_id, _), embedding in zip(records, embeddings):
            writer.add(utt_id, embedding)
    return [f"embeddings: {len(records)}"]


def score_embeddings(trials_path: Path, embeddings_base: Path, scores_path: Path) -> list[str]:
    """Cosine-score every trial, writing the score file."""
    trials = load_trials(_require(trials_path, "trial list"))
    _require(embeddings_base.with_suffix(".tsv"), "embedding archive")
    score_set = score_trials(trials, read_archive(embeddings_base))
    scores_path.parent.mkdir(parents=True, exist_ok=True)
    scores_path.write_text(format_scores(trials, score_set), encoding="utf-8")
    n_target = int(np.count_nonzero(score_set.is_target))
    return [
        f"trials: {len(trials)}",
        f"targets: {n_target}",
        f"nontargets: {len(trials) - n_target}",
    ]


def evaluate_scores(
    scores_path: Path, p_target: float, c_miss: float, c_fa: float, roc_path: Path | None = None
) -> tuple[DetMetrics, list[str]]:
    """EER and minDCF of a score file, with their summary lines; the DET
    sweep goes to roc_path when one is given."""
    text = _require(scores_path, "score file").read_text(encoding="utf-8")
    metrics = compute_det_metrics(parse_scores(text), p_target, c_miss, c_fa)
    if roc_path is not None:
        roc_path.parent.mkdir(parents=True, exist_ok=True)
        roc_path.write_text(format_roc(metrics.roc), encoding="utf-8")
    return metrics, [
        f"eer_percent = {100.0 * metrics.eer:.4f}",
        f"eer_threshold = {metrics.eer_threshold:.6f}",
        f"min_dcf = {metrics.min_dcf:.6f}",
        f"dcf_threshold = {metrics.dcf_threshold:.6f}",
    ]


# --- run's stage runners: map the config onto the stage functions ---------


def _fresh(path: Path) -> Path:
    """path, after removing what an earlier run left there."""
    if path.exists():
        shutil.rmtree(path)
    return path


def _stage_segment(cfg: PipelineConfig, out: Path) -> list[str]:
    corpus = Path(cfg.corpus_dir)
    return segment_corpus(
        corpus / "manifest.tsv",
        corpus / "ali.ctm",
        corpus,
        cfg.transcript,
        cfg.silence_labels,
        _fresh(out / "libraries"),
    )


def _stage_synth(cfg: PipelineConfig, out: Path) -> list[str]:
    return synthesize_libraries(out / "libraries", cfg.transcript, cfg.seed, _fresh(out / "synth"))


def _stage_augment(cfg: PipelineConfig, out: Path) -> list[str]:
    synth = out / "synth"
    return augment_audio(
        synth / "manifest.tsv",
        synth,
        _fresh(out / "augmented"),
        cfg.seed,
        cfg.noise_dir,
        cfg.snr_list,
        cfg.rir_dir,
    )


def _corpus_sources(out: Path) -> list[tuple[Path, Path]]:
    """(manifest, audio root) of the synthesized corpus and, when augment
    wrote one, of the augmented copies."""
    dirs = [out / "synth"]
    if (out / "augmented" / "manifest.tsv").exists():
        dirs.append(out / "augmented")
    return [(d / "manifest.tsv", d) for d in dirs]


def _stage_featurize(cfg: PipelineConfig, out: Path) -> list[str]:
    specaug = (
        SpecAugmentParams(
            cfg.freq_mask_width, cfg.num_freq_masks, cfg.time_mask_width, cfg.num_time_masks
        )
        if cfg.spec_augment
        else None
    )
    feats = _fresh(out / "features") / "features"
    return featurize_corpus(_corpus_sources(out), feats, cfg.cmn_window, specaug, cfg.seed)


def _stage_train(cfg: PipelineConfig, out: Path) -> list[str]:
    feats = out / "features" / ("train" if cfg.spec_augment else "features")
    manifests = [manifest for manifest, _ in _corpus_sources(out)]
    params = _fresh(out / "model") / "params.bin"
    return train_model(feats, manifests, params, cfg.train_steps, cfg.learn_rate, cfg.seed)


def _stage_extract(cfg: PipelineConfig, out: Path) -> list[str]:
    params = out / "model" / "params.bin"
    embeddings = _fresh(out / "embeddings") / "embeddings"
    return extract_embeddings(params, out / "features" / "features", embeddings)


def _stage_score(cfg: PipelineConfig, out: Path) -> list[str]:
    trials = Path(cfg.corpus_dir) / "trials.tsv"
    scores = _fresh(out / "scores") / "scores.txt"
    return score_embeddings(trials, out / "embeddings" / "embeddings", scores)


def _stage_eval(cfg: PipelineConfig, out: Path) -> list[str]:
    eval_dir = _fresh(out / "eval")
    metrics, summary = evaluate_scores(
        out / "scores" / "scores.txt", cfg.p_target, cfg.c_miss, cfg.c_fa, eval_dir / "roc.tsv"
    )
    (eval_dir / "roc.svg").write_text(roc_svg(metrics.roc), encoding="utf-8")
    (eval_dir / "metrics.txt").write_text(
        "".join(line + "\n" for line in summary), encoding="utf-8"
    )
    return summary


_STAGE_RUNNERS = {
    "segment": _stage_segment,
    "synth": _stage_synth,
    "augment": _stage_augment,
    "featurize": _stage_featurize,
    "train": _stage_train,
    "extract": _stage_extract,
    "score": _stage_score,
    "eval": _stage_eval,
}
