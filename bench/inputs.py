"""Seeded input generation for the unitcat benchmark workloads.

Every input a workload feeds to unitcat is written here with numpy and
the standard library (``wave`` for 16-bit PCM, a local writer for the
float32 archive format), never with ``unitcat.toydata``: a change to the
toy corpus or its trial convention must not silently change a workload.
The only unitcat calls are ``synth_utterance_id`` (the ids the trial list
must name) and ``init_tdnn``/``save_params`` for the eval workload's
untrained model.

The seed changes content only. Every size that sets the amount of work
(speakers, per-unit counts, recording and feature lengths, trial and
stream counts) is the same for every seed, so run times of different
seeds are comparable.
"""

from __future__ import annotations

import hashlib
import wave
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SAMPLE_RATE = 16000
UNITS = ("ka", "lo", "mi", "su")
TRANSCRIPT = " ".join(UNITS)
# four 3460-sample units make a 13840-sample utterance: 85 frames of
# 25 ms every 10 ms
UNIT_SAMPLES = 3460
EDGE_SAMPLES = 800
GAP_SAMPLES = 1280
UNITS_PER_RECORDING = 3
# per-unit occurrence counts; their maxima (4, 4, 4, 4, 3) are the
# utterances synthesized per speaker, so any 5 consecutive speakers yield 19
COUNT_PATTERNS = ((4, 2, 3, 1), (2, 4, 1, 3), (1, 3, 4, 2), (3, 1, 2, 4), (3, 3, 2, 1))

SNR_LIST = (0.0, 5.0, 10.0)
NOISE_FILES = 3
NOISE_SAMPLES = 24000
RIR_TAPS = 2000

EVAL_SPEAKERS = 15
EVAL_UTTS_PER_SPEAKER = 19
EVAL_TARGET_TRIALS = 3_000
EVAL_NONTARGET_TRIALS = 27_000
FEAT_DIM = 40
KWS_STREAMS = 30  # per polarity
KWS_FRAMES = 300
KWS_LABELS = ("sil",) + UNITS + tuple(f"x{i:02d}" for i in range(15))
KWS_KEYWORD = ("ka", "lo", "mi")


TRAIN_STEPS = 5
# 0.01 makes the loss of these corpora rise within 5 steps
LEARN_RATE = 0.003


@dataclass
class Workload:
    name: str
    stages: tuple[str, ...]
    speakers: int = 0  # recorded corpus size; 0 for the eval workload's archives
    augment: bool = False  # noise, reverb and SpecAugment
    kws: bool = False


# BENCHMARK.json records why each workload is there
WORKLOADS = {
    "train": Workload(
        "train",
        ("segment", "synth", "augment", "featurize", "train", "extract", "score", "eval"),
        speakers=8,
    ),
    "prep": Workload(
        "prep",
        ("segment", "synth", "augment", "featurize"),
        speakers=25,
        augment=True,
    ),
    "eval": Workload(
        "eval",
        ("extract", "score", "eval"),
        kws=True,
    ),
}


@dataclass
class Inputs:
    """Paths and sizes of one workload's generated inputs."""

    config_path: Path
    sizes: dict[str, int]
    placed: Path | None = None  # eval: tree copied into out_dir before each iteration
    kws_args: list[str] = field(default_factory=list)
    digest: str = ""


def _rng(seed: int, *labels: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64([seed, *labels]))


def _write_wav(path: Path, samples: np.ndarray) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(SAMPLE_RATE)
        w.writeframes(np.asarray(samples, dtype="<i2").tobytes())


def _to_int16(x: np.ndarray) -> np.ndarray:
    return np.clip(np.rint(x), -32768, 32767).astype(np.int16)


def write_archive(base: Path, items) -> None:
    """The float32 archive format: <base>.bin payloads, <base>.tsv index."""
    base.parent.mkdir(parents=True, exist_ok=True)
    offset = 0
    index = []
    with open(base.with_suffix(".bin"), "wb") as fh:
        for utt_id, matrix in items:
            payload = np.ascontiguousarray(matrix, dtype="<f4").tobytes()
            fh.write(payload)
            index.append(f"{utt_id}\t{offset}\t{matrix.shape[0]}\t{matrix.shape[1]}\n")
            offset += len(payload)
    base.with_suffix(".tsv").write_text("".join(index), encoding="utf-8")


def tree_digest(root: Path, skip: tuple[str, ...] = ()) -> str:
    """SHA-256 over every file below root but those named in skip:
    relative path, then contents. Files are read in small chunks, so that
    checking a tree adds little to the peak RSS of the process that runs
    the iterations."""
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        rel = p.relative_to(root).as_posix()
        if p.is_file() and rel not in skip:
            h.update(rel.encode() + b"\0")
            with open(p, "rb") as fh:
                while chunk := fh.read(1 << 16):
                    h.update(chunk)
    return h.hexdigest()


# --- recorded corpus (train, prep) -----------------------------------------


def speaker_patterns(num_speakers: int, seed: int) -> list[tuple[int, ...]]:
    """Per-speaker unit counts: a fixed multiset of patterns, assigned to
    speakers and rotated across units by the seed."""
    rng = _rng(seed, 1)
    pool = [COUNT_PATTERNS[k % len(COUNT_PATTERNS)] for k in range(num_speakers)]
    order = rng.permutation(num_speakers)
    out = []
    for k in order:
        shift = int(rng.integers(len(UNITS)))
        p = pool[k]
        out.append(p[shift:] + p[:shift])
    return out


def _unit_audio(rng: np.random.Generator, f0: float, unit: int) -> np.ndarray:
    t = np.arange(UNIT_SAMPLES) / SAMPLE_RATE
    freq = f0 * (1.0 + 0.25 * unit)
    amp = rng.uniform(3000.0, 7000.0)
    x = sum(
        (amp / h) * np.sin(2.0 * np.pi * h * freq * t + rng.uniform(0, 2 * np.pi))
        for h in (1, 2, 3)
    )
    envelope = np.minimum(1.0, np.minimum(t, t[::-1]) / 0.01)
    return x * envelope + rng.normal(0.0, 150.0, UNIT_SAMPLES)


def write_corpus(corpus: Path, num_speakers: int, seed: int) -> dict[str, int]:
    """Manifest, CTM alignment and recordings; returns the corpus sizes."""
    rng = _rng(seed, 2)
    patterns = speaker_patterns(num_speakers, seed)
    manifest, ctm = [], []
    recordings = units_total = 0
    for s, counts in enumerate(patterns):
        spk = f"s{s:03d}"
        f0 = rng.uniform(90.0, 260.0)
        occurrences = [u for u, c in enumerate(counts) for _ in range(c)]
        occurrences = [occurrences[i] for i in rng.permutation(len(occurrences))]
        units_total += len(occurrences)
        for r in range(0, len(occurrences), UNITS_PER_RECORDING):
            chunk = occurrences[r : r + UNITS_PER_RECORDING]
            utt = f"{spk}-rec{r // UNITS_PER_RECORDING:02d}"
            pieces, cursor = [], 0

            def put(label: str, samples: np.ndarray) -> None:
                nonlocal cursor
                ctm.append(
                    f"{utt} 1 {cursor / SAMPLE_RATE:.7f} {len(samples) / SAMPLE_RATE:.7f} {label}\n"
                )
                pieces.append(samples)
                cursor += len(samples)

            put("sil", rng.normal(0.0, 20.0, EDGE_SAMPLES))
            for i, u in enumerate(chunk):
                if i:
                    put("sil", rng.normal(0.0, 20.0, GAP_SAMPLES))
                put(UNITS[u], _unit_audio(rng, f0, u))
            put("sil", rng.normal(0.0, 20.0, EDGE_SAMPLES))
            _write_wav(corpus / "wav" / f"{utt}.wav", _to_int16(np.concatenate(pieces)))
            words = " ".join(UNITS[u] for u in chunk)
            manifest.append(f"{utt}\t{spk}\t{words}\twav/{utt}.wav\n")
            recordings += 1
    (corpus / "manifest.tsv").write_text("".join(manifest), encoding="utf-8")
    (corpus / "ali.ctm").write_text("".join(ctm), encoding="utf-8")
    synth = sum(max(p) for p in patterns)
    _write_synth_trials(corpus / "trials.tsv", patterns)
    return {
        "speakers": num_speakers,
        "recordings": recordings,
        "unit_segments": units_total,
        "synthesized": synth,
        "synth_frames_each": 1 + (len(UNITS) * UNIT_SAMPLES - 400) // 160,
    }


def _write_synth_trials(path: Path, patterns: list[tuple[int, ...]]) -> None:
    """Every pair of synthesized utterances; same speaker means target."""
    from unitcat.synthesis import synth_utterance_id

    utts = [
        (s, synth_utterance_id(f"s{s:03d}", i))
        for s, p in enumerate(patterns)
        for i in range(max(p))
    ]
    lines = [
        f"{a} {b} {'target' if sa == sb else 'nontarget'}\n"
        for k, (sa, a) in enumerate(utts)
        for sb, b in utts[k + 1 :]
    ]
    path.write_text("".join(lines), encoding="utf-8")


def write_noise_and_rir(noise_dir: Path, rir_dir: Path, seed: int) -> None:
    rng = _rng(seed, 3)
    for k in range(NOISE_FILES):
        white = rng.normal(0.0, 1.0, NOISE_SAMPLES + 8)
        colored = np.convolve(white, np.ones(8 - 2 * k) / (8 - 2 * k), mode="valid")
        _write_wav(noise_dir / f"noise{k}.wav", _to_int16(3000.0 * colored[:NOISE_SAMPLES]))
    t = np.arange(RIR_TAPS) / SAMPLE_RATE
    rir = 0.3 * rng.normal(0.0, 1.0, RIR_TAPS) * np.exp(-t / 0.03)
    rir[0] = 1.0
    _write_wav(rir_dir / "rir0.wav", _to_int16(29000.0 * rir / np.max(np.abs(rir))))


# --- eval inputs ------------------------------------------------------------


def eval_utterances() -> list[tuple[str, int, int]]:
    """(utterance id, speaker index, frames); lengths 70..100 frames."""
    out = []
    for s in range(EVAL_SPEAKERS):
        for k in range(EVAL_UTTS_PER_SPEAKER):
            i = s * EVAL_UTTS_PER_SPEAKER + k
            out.append((f"e{s:03d}-{k:02d}", s, 70 + (i * 7) % 31))
    return out


def write_eval_inputs(root: Path, seed: int) -> tuple[Path, list[str], dict[str, int]]:
    """Feature archive and untrained params to place in out_dir, the trial
    list, and KWS posteriors. Returns (placed tree, kws-eval args, sizes)."""
    from unitcat.tdnn import TdnnConfig, init_tdnn, save_params

    rng = _rng(seed, 4)
    utts = eval_utterances()
    centers = rng.normal(0.0, 1.0, (EVAL_SPEAKERS, FEAT_DIM))
    placed = root / "placed"
    write_archive(
        placed / "features" / "features",
        (
            (utt, centers[s] + 0.8 * rng.normal(0.0, 1.0, (frames, FEAT_DIM)))
            for utt, s, frames in utts
        ),
    )
    save_params(
        placed / "model" / "params.bin",
        init_tdnn(TdnnConfig(num_classes=EVAL_SPEAKERS), int(rng.integers(2**63))),
    )

    n = len(utts)
    per = EVAL_UTTS_PER_SPEAKER
    n_trials = EVAL_TARGET_TRIALS + EVAL_NONTARGET_TRIALS
    is_target = np.zeros(n_trials, dtype=bool)
    is_target[:EVAL_TARGET_TRIALS] = True
    is_target = is_target[rng.permutation(n_trials)]
    enroll = rng.integers(0, n, n_trials)
    spk = enroll // per
    # target: another utterance of the speaker; nontarget: any other speaker's
    same = spk * per + (enroll % per + rng.integers(1, per, n_trials)) % per
    other_spk = (spk + rng.integers(1, EVAL_SPEAKERS, n_trials)) % EVAL_SPEAKERS
    other = other_spk * per + rng.integers(0, per, n_trials)
    test = np.where(is_target, same, other)
    ids = [u for u, _, _ in utts]
    corpus = root / "corpus"
    corpus.mkdir(parents=True, exist_ok=True)
    (corpus / "trials.tsv").write_text(
        "".join(
            f"{ids[a]} {ids[b]} {'target' if t else 'nontarget'}\n"
            for a, b, t in zip(enroll.tolist(), test.tolist(), is_target.tolist())
        ),
        encoding="utf-8",
    )

    kws = root / "kws"
    kws.mkdir(parents=True, exist_ok=True)
    (kws / "labels.txt").write_text("".join(l + "\n" for l in KWS_LABELS), encoding="utf-8")
    keyword_cols = [KWS_LABELS.index(u) for u in KWS_KEYWORD]
    for polarity in ("pos", "neg"):
        streams = []
        for k in range(KWS_STREAMS):
            logits = rng.normal(0.0, 1.0, (KWS_FRAMES, len(KWS_LABELS)))
            start = int(rng.integers(0, KWS_FRAMES - 60))
            cols = keyword_cols if polarity == "pos" else list(
                rng.integers(len(UNITS) + 1, len(KWS_LABELS), len(keyword_cols))
            )
            for j, col in enumerate(cols):
                logits[start + 20 * j : start + 20 * (j + 1), col] += 4.0
            probs = np.exp(logits - logits.max(axis=1, keepdims=True))
            streams.append((f"{polarity}-{k:03d}", probs / probs.sum(axis=1, keepdims=True)))
        write_archive(kws / polarity, streams)
    rel = kws.relative_to(root.parent)
    kws_args = [
        "kws-eval",
        "--pos", str(rel / "pos"),
        "--neg", str(rel / "neg"),
        "--labels", str(rel / "labels.txt"),
        "--keyword", " ".join(KWS_KEYWORD),
        "--out", "out/kws/roc.tsv",
    ]
    sizes = {
        "utterances": n,
        "feature_frames": sum(f for _, _, f in utts),
        "trials": n_trials,
        "target_trials": EVAL_TARGET_TRIALS,
        "kws_streams": 2 * KWS_STREAMS,
        "kws_frames_each": KWS_FRAMES,
    }
    return placed, kws_args, sizes


# --- per workload ----------------------------------------------------------


def config_text(wl: Workload, seed: int) -> str:
    """Paths are relative to the working tree, which is the working
    directory of every process that reads the config."""
    lines = ["[paths]", "corpus_dir = inputs/corpus", "out_dir = out"]
    if wl.augment:
        lines += ["noise_dir = inputs/noise", "rir_dir = inputs/rir"]
    lines += ["[synthesis]", f"transcript = {TRANSCRIPT}", f"seed = {seed}"]
    if wl.augment:
        lines += ["[augment]", "snr_list = " + ", ".join(f"{s:g}" for s in SNR_LIST)]
    lines += ["[features]", f"spec_augment = {'true' if wl.augment else 'false'}"]
    lines += ["[train]", f"steps = {TRAIN_STEPS}", f"learn_rate = {LEARN_RATE:g}"]
    return "\n".join(lines) + "\n"


def generate(wl: Workload, root: Path, seed: int) -> Inputs:
    """Write every input of a workload under root/inputs; the same seed
    gives byte-identical files wherever root is."""
    inputs = root / "inputs"
    corpus = inputs / "corpus"
    kws_args: list[str] = []
    placed = None
    if wl.kws:
        placed, kws_args, sizes = write_eval_inputs(inputs, seed)
    else:
        sizes = write_corpus(corpus, wl.speakers, seed)
        if wl.augment:
            write_noise_and_rir(inputs / "noise", inputs / "rir", seed)
            sizes["augmented"] = sizes["synthesized"] * (len(SNR_LIST) + 1)
        else:
            sizes["augmented"] = 0
        sizes["featurized"] = sizes["synthesized"] + sizes["augmented"]
    config = inputs / "unitcat.cfg"
    config.write_text(config_text(wl, seed % 2**31), encoding="utf-8")
    return Inputs(config, sizes, placed, kws_args, tree_digest(inputs))
