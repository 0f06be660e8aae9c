"""End-to-end pipeline: segment, synth, augment, featurize, train,
extract, score, eval.

Each stage is one public function of explicit input paths, output paths
and parameters that returns its report lines; ``unitcat run`` and the
standalone subcommands both call it. Each directory output (a stage's under
cfg.out_dir, standalone segment's and synth's --out) is written by
``swapped_in`` into ``<dir>.partial``, which replaces ``<dir>`` only when the
writer returns, so a rerun never reads a stale or half-written artifact. All
randomness derives from one seed and no artifact contains a timestamp, so
rerunning with the same seed reproduces the tree byte for byte.
"""

from __future__ import annotations

import contextlib
import shutil
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from .archive import ArchiveWriter, Record, read_archive, read_index
from .audio import Waveform, load_wav
from .config import ConfigError, PipelineConfig
from .corpus import (
    DEFAULT_SILENCE_LABELS,
    UtteranceRecord,
    group_alignments,
    load_alignment,
    load_manifest,
)
from .features import (
    NUM_FILTERS,
    SpecAugmentParams,
    apply_vad_filter,
    compute_fbank,
    derive_vad,
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


class PipelineError(RuntimeError):
    pass


def parse_stages(raw: str | None) -> tuple[str, ...]:
    """None selects every stage; '' or 'none' selects no stage."""
    if raw is None:
        return STAGES
    names = [s.strip() for s in raw.split(",") if s.strip()]
    if raw.strip().lower() in ("", "none"):
        return ()
    if not names:
        raise ConfigError(f"stage list {raw!r} names no stage; use 'none' to only validate")
    unknown = [n for n in names if n not in STAGES]
    if unknown:
        raise ConfigError(f"unknown stage name(s): {', '.join(unknown)}")
    return tuple(s for s in STAGES if s in names)


@contextlib.contextmanager
def swapped_in(done: Path) -> Iterator[Path]:
    """Yield an empty ``<done>.partial`` to write into. It replaces done when the block
    returns (done is removed if nothing was written) and is removed if it raises."""
    partial = done.with_name(f"{done.name}.partial")
    if partial.exists():  # what a killed writer left
        shutil.rmtree(partial)
    try:
        yield partial
    except BaseException:
        shutil.rmtree(partial, ignore_errors=True)
        raise
    if done.exists():
        shutil.rmtree(done)
    if partial.exists():
        partial.rename(done)


def _require(path: Path, hint: str) -> Path:
    if not path.exists():
        raise PipelineError(f"missing {hint}: {path}")
    return path


def _records_with_audio(
    audio_root: Path, records: list[UtteranceRecord]
) -> Iterator[tuple[UtteranceRecord, Waveform]]:
    """Each record with its mono audio, in order; consecutive records that
    name one file (the channels of an augmented utterance) share one read.
    A channel index past the file's channels is refused, and so is a
    multi-channel file listed without one, naming the utterance and file."""
    path = wav = None
    for rec in records:
        if rec.audio_path != path:
            path, wav = rec.audio_path, load_wav(audio_root / rec.audio_path)
        if rec.channel_index is None:
            if wav.channels != 1:
                raise ValueError(
                    f"utterance {rec.utterance_id!r}: {audio_root / path} has "
                    f"{wav.channels} channels and the manifest gives no channel index"
                )
            yield rec, wav
        elif not 0 <= rec.channel_index < wav.channels:
            raise ValueError(
                f"utterance {rec.utterance_id!r}: channel index {rec.channel_index} is out "
                f"of range for the {wav.channels} channel(s) of {audio_root / path}"
            )
        else:
            yield rec, wav.channel(rec.channel_index)


def _refuse_unfit_features(stage: str, records: list[tuple[str, np.ndarray | Record]]) -> None:
    """Refuse (id, record) pairs, naming up to five, if a record has fewer
    than MIN_FRAMES rows or other than NUM_FILTERS columns, and then if one
    holds a value that is not finite. The first check reads only .shape,
    so it reads no archive.Record's payload."""
    unfit = [
        f"{utt_id} ({record.shape[0]}x{record.shape[1]})"
        for utt_id, record in records
        if record.shape[0] < MIN_FRAMES or record.shape[1] != NUM_FILTERS
    ]
    if unfit:
        raise ValueError(
            f"{stage} needs at least {MIN_FRAMES} frames of {NUM_FILTERS} features per "
            f"record; {len(unfit)} differ: {', '.join(unfit[:5])}"
        )
    nonfinite = [utt_id for utt_id, record in records if not np.isfinite(record).all()]
    if nonfinite:
        raise ValueError(
            f"{len(nonfinite)} feature records hold non-finite values: "
            f"{', '.join(nonfinite[:5])}"
        )


# --- stages ---------------------------------------------------------------


def segment_corpus(
    manifest_path: Path,
    alignment_path: Path,
    audio_root: Path,
    transcript: tuple[str, ...],
    silence_labels,
    libdir: Path,
) -> list[str]:
    """Chunk every manifest utterance, keeping the transcript's units only, and save each
    speaker's library before cutting the next one's; returns per-speaker summary lines."""
    manifest = load_manifest(_require(manifest_path, "corpus manifest"))
    if not manifest:
        raise ValueError(f"{manifest_path}: the corpus manifest lists no utterances")
    alignments = group_alignments(load_alignment(_require(alignment_path, "alignment file")))
    units = unique_units(transcript)
    by_speaker: dict[str, list[UtteranceRecord]] = {}
    for rec in manifest:
        by_speaker.setdefault(rec.speaker_id, []).append(rec)
    lines = []
    for speaker in sorted(by_speaker):
        segs = []
        for rec, wav in _records_with_audio(audio_root, by_speaker[speaker]):
            if rec.utterance_id not in alignments:
                raise ValueError(f"no alignment entries for utterance {rec.utterance_id!r}")
            cut = extract_segments(wav, alignments[rec.utterance_id], speaker, silence_labels)
            segs.extend(s for s in cut if s.unit in units)
        lib = build_library(segs, units) if segs else UnitLibrary(speaker, {})
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
    libs = (load_library(libdir / spk) for spk in speakers)
    result = synthesize_corpus(libs, transcript, derive_seed(seed, "synth"), out_dir)
    lines = [
        f"{spk}: {n} utterances" for spk, n in sorted(result.per_speaker_counts.items())
    ]
    for spk, missing in result.skipped:
        lines.append(f"skipped {spk}: missing {' '.join(missing)}")
    lines.append(f"synthesized: {len(result.utterances)}")
    return lines


def _augments(
    noise_dir: str | Path | None, snr_list: tuple[float, ...], rir_dir: str | Path | None
) -> bool:
    """Whether augment_audio writes copies: noise with at least one SNR,
    or reverb."""
    return bool(noise_dir and snr_list) or bool(rir_dir)


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
    if not _augments(noise_dir, snr_list, rir_dir):
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
    specaug: SpecAugmentParams | None,
    seed: int,
    alignment_path: Path | None = None,
    silence_labels: frozenset[str] = DEFAULT_SILENCE_LABELS,
) -> list[str]:
    """Normalized fbank features of every record of each (manifest, audio
    root) source, in the archive out_base. With alignments, only frames
    inside an entry whose unit is not in silence_labels are kept, before
    normalization. With specaug, a masked copy of every record goes to the
    archive "train" beside out_base."""
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
            if all(e.unit in silence_labels for e in alignments.get(rec.utterance_id, ()))
        ]
        if unaligned:
            raise ValueError(
                f"{len(unaligned)} utterance(s) have no alignment entries outside the "
                f"silence labels ({', '.join(sorted(silence_labels))}): "
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
                    entries = alignments[rec.utterance_id]
                    vad = derive_vad(entries, wav.num_samples, wav.sample_rate, silence_labels)
                    feats = apply_vad_filter(feats, vad)
                    if not len(feats):
                        # known only now: the check above reads labels, not audio lengths
                        raise ValueError(
                            f"utterance {rec.utterance_id!r}: no frame of its "
                            f"{wav.duration:.2f} s of audio lies inside a non-silence "
                            "alignment entry"
                        )
                feats = sliding_mean_normalize(feats)
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
    with its speaker from the manifests.

    Training computes in float32: the weights start as init_tdnn's float32
    draw (its float64 draw rounded once), every step's buffers come from
    one float32 Workspace, and save_params widens the trained weights
    exactly, so extract's float32 load reads back the very weights
    trained here."""
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
        raise ValueError(f"feature ids missing from the manifests: {', '.join(missing[:5])}")
    speakers = sorted({speaker_of[u] for u in archive})
    if len(speakers) < 2:
        raise PipelineError(f"training needs at least 2 speakers, found {len(speakers)}")
    firsts = [(utt_id, records[0]) for utt_id, records in archive.items()]
    _refuse_unfit_features("training", firsts)
    class_index = {s: i for i, s in enumerate(speakers)}
    batch = [(record, class_index[speaker_of[utt_id]]) for utt_id, record in firsts]

    # float32 runs the step's GEMMs at about twice the float64 rate
    params = init_tdnn(
        TdnnConfig(num_classes=len(speakers)), derive_seed(seed, "init"), np.float32
    )
    aam = AamParams()
    losses = []
    work = Workspace(np.float32)
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
    float32 forward pass; the embedding archive is written only once they
    all exist.

    The weights are loaded as float32. The records stay archive.Record
    views over one open data file: the shape check reads only the index,
    the non-finite check reads one record at a time, and forward reads
    each record again when its chunk is stacked, so the features are never
    all in memory at once."""
    params = load_params(_require(params_path, "trained parameters"), np.float32)
    _require(features_base.with_suffix(".tsv"), "feature archive")
    with open(features_base.with_suffix(".bin"), "rb") as data:
        records = [
            (utt_id, r) for utt_id, recs in read_index(features_base, data).items() for r in recs
        ]
        _refuse_unfit_features("extraction", records)
        embeddings, _ = forward(params, [record for _, record in records])
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
    with open(scores_path, "w", encoding="utf-8") as out:
        format_scores(trials, score_set, out)
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
    with open(_require(scores_path, "score file"), encoding="utf-8") as lines:
        score_set = parse_scores(lines)
    metrics = compute_det_metrics(score_set, p_target, c_miss, c_fa)
    if roc_path is not None:
        roc_path.parent.mkdir(parents=True, exist_ok=True)
        roc_path.write_text(format_roc(metrics.roc), encoding="utf-8")
    return metrics, [
        f"eer_percent = {100.0 * metrics.eer:.4f}",
        f"eer_threshold = {metrics.eer_threshold:.6f}",
        f"min_dcf = {metrics.min_dcf:.6f}",
        f"dcf_threshold = {metrics.dcf_threshold:.6f}",
    ]


# --- run's stage table: each stage's directory under out_dir and a runner
# that reads other stages' directories under out and writes only under dest


def _segment(cfg: PipelineConfig, out: Path, dest: Path) -> list[str]:
    corpus = Path(cfg.corpus_dir)
    return segment_corpus(
        corpus / "manifest.tsv",
        corpus / "ali.ctm",
        corpus,
        cfg.transcript,
        cfg.silence_labels,
        dest,
    )


def _augment(cfg: PipelineConfig, out: Path, dest: Path) -> list[str]:
    synth = out / "synth"
    return augment_audio(
        synth / "manifest.tsv",
        synth,
        dest,
        cfg.seed,
        cfg.noise_dir,
        cfg.snr_list,
        cfg.rir_dir,
    )


def _corpus_sources(cfg: PipelineConfig, out: Path) -> list[tuple[Path, Path]]:
    """(manifest, audio root) of the synthesized corpus and, when this
    config augments, of the augmented copies, whose manifest must exist.
    Copies that another config's run left are never read."""
    sources = [(out / "synth" / "manifest.tsv", out / "synth")]
    if _augments(cfg.noise_dir, cfg.snr_list, cfg.rir_dir):
        augmented = out / "augmented"
        sources.append((_require(augmented / "manifest.tsv", "augmented manifest"), augmented))
    return sources


def _featurize(cfg: PipelineConfig, out: Path, dest: Path) -> list[str]:
    specaug = SpecAugmentParams() if cfg.spec_augment else None
    return featurize_corpus(_corpus_sources(cfg, out), dest / "features", specaug, cfg.seed)


def _train(cfg: PipelineConfig, out: Path, dest: Path) -> list[str]:
    feats = out / "features" / ("train" if cfg.spec_augment else "features")
    manifests = [manifest for manifest, _ in _corpus_sources(cfg, out)]
    params = dest / "params.bin"
    return train_model(feats, manifests, params, cfg.train_steps, cfg.learn_rate, cfg.seed)


def _eval(cfg: PipelineConfig, out: Path, dest: Path) -> list[str]:
    metrics, summary = evaluate_scores(
        out / "scores" / "scores.txt", cfg.p_target, cfg.c_miss, cfg.c_fa, dest / "roc.tsv"
    )
    (dest / "roc.svg").write_text(roc_svg(metrics.roc), encoding="utf-8")
    (dest / "metrics.txt").write_text(
        "".join(line + "\n" for line in summary), encoding="utf-8"
    )
    return summary


_STAGES = {
    "segment": ("libraries", _segment),
    "synth": ("synth", lambda cfg, out, dest: synthesize_libraries(
        out / "libraries", cfg.transcript, cfg.seed, dest
    )),
    "augment": ("augmented", _augment),
    "featurize": ("features", _featurize),
    "train": ("model", _train),
    "extract": ("embeddings", lambda cfg, out, dest: extract_embeddings(
        out / "model" / "params.bin", out / "features" / "features", dest / "embeddings"
    )),
    "score": ("scores", lambda cfg, out, dest: score_embeddings(
        Path(cfg.corpus_dir) / "trials.tsv", out / "embeddings" / "embeddings", dest / "scores.txt"
    )),
    "eval": ("eval", _eval),
}
STAGES = tuple(_STAGES)


def run_pipeline(cfg: PipelineConfig, stages: tuple[str, ...] = STAGES) -> str:
    if not stages:
        return "config valid; no stages requested\n"
    out = Path(cfg.out_dir)
    (out / "report.txt").unlink(missing_ok=True)  # a failed run leaves no earlier report
    report: list[str] = []
    for stage in stages:
        directory, runner = _STAGES[stage]
        with swapped_in(out / directory) as dest:
            lines = runner(cfg, out, dest)
        report.append(f"[{stage}]")
        report.extend(lines)
        report.append("")
    text = "".join(line + "\n" for line in report)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.txt").write_text(text, encoding="utf-8")
    return text
