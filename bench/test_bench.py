"""Tests of the benchmark's own code: input generation, output checks and
the tracing wrappers. Run with ``python3 -m pytest bench``."""

import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402


def test_same_seed_same_inputs_other_seed_other_inputs(tmp_path):
    wl = inputs.WORKLOADS["train"]
    a = inputs.generate(wl, tmp_path / "a", 11)
    b = inputs.generate(wl, tmp_path / "b", 11)
    c = inputs.generate(wl, tmp_path / "c", 12)
    assert a.digest == b.digest
    assert a.digest != c.digest
    # the seed changes content, never the amount of work
    assert a.sizes == c.sizes


def _eval_tree(tmp_path, n_utts=6):
    """A small scored trial list written the way unitcat writes one."""
    rng = np.random.default_rng(0)
    ids = [f"u{i}" for i in range(n_utts)]
    inputs.write_archive(
        tmp_path / "emb" / "embeddings", [(u, rng.normal(size=(1, 8))) for u in ids]
    )
    emb = checks.read_archive(tmp_path / "emb" / "embeddings")
    trials, scores = [], []
    for i in range(n_utts):
        for j in range(i + 1, n_utts):
            a, b = emb[ids[i]][0].ravel().astype(float), emb[ids[j]][0].ravel().astype(float)
            label = "target" if (i + j) % 3 == 0 else "nontarget"
            trials.append(f"{ids[i]} {ids[j]} {label}\n")
            cos = a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
            scores.append(f"{ids[i]} {ids[j]} {cos:.17g} {label}\n")
    (tmp_path / "trials.tsv").write_text("".join(trials))
    (tmp_path / "scores.txt").write_text("".join(scores))
    return tmp_path / "trials.tsv", tmp_path / "scores.txt", tmp_path / "emb" / "embeddings"


def test_check_scores_accepts_correct_scores(tmp_path):
    trials, scores, emb = _eval_tree(tmp_path)
    got, labels = checks.check_scores(trials, scores, emb, 6)
    assert len(got) == len(labels) == 15


def test_check_scores_rejects_a_corrupted_score(tmp_path):
    trials, scores, emb = _eval_tree(tmp_path)
    lines = scores.read_text().splitlines(keepends=True)
    enroll, test, score, label = lines[4].split()
    lines[4] = f"{enroll} {test} {float(score) + 1e-6:.17g} {label}\n"
    scores.write_text("".join(lines))
    with pytest.raises(checks.CheckError, match="cosines"):
        checks.check_scores(trials, scores, emb, 6)


def test_check_scores_rejects_reordered_or_missing_lines(tmp_path):
    trials, scores, emb = _eval_tree(tmp_path)
    lines = scores.read_text().splitlines(keepends=True)
    scores.write_text("".join([lines[1], lines[0]] + lines[2:]))
    with pytest.raises(checks.CheckError, match="does not match trial"):
        checks.check_scores(trials, scores, emb, 6)
    scores.write_text("".join(lines[:-1]))
    with pytest.raises(checks.CheckError, match="score lines"):
        checks.check_scores(trials, scores, emb, 6)


def test_check_scores_rejects_a_wrong_utterance_count(tmp_path):
    trials, scores, emb = _eval_tree(tmp_path)
    with pytest.raises(checks.CheckError, match="embeddings for 7 utterances"):
        checks.check_scores(trials, scores, emb, 7)


def test_check_prep_rejects_a_wrong_utterance_count(tmp_path):
    sizes = {"synthesized": 2, "augmented": 8, "featurized": 10}
    feats = tmp_path / "features"
    feats.mkdir()
    for name in ("features", "train"):
        (feats / f"{name}.tsv").write_text("".join(f"u{i}\t0\t1\t1\n" for i in range(10)))
    report = "synthesized: 2\naugmented copies: 8\nutterances: {}\n"
    checks.check_prep(report.format(10), tmp_path, sizes)
    with pytest.raises(checks.CheckError, match="utterances: 9"):
        checks.check_prep(report.format(9), tmp_path, sizes)


def test_det_sweep_matches_unitcat_and_catches_a_changed_eer(tmp_path):
    from unitcat.scoring import ScoreSet, compute_det_metrics, format_roc

    rng = np.random.default_rng(3)
    labels = rng.random(500) < 0.3
    scores = np.round(rng.normal(size=500) + labels, 2)  # ties included
    metrics = compute_det_metrics(ScoreSet(scores, labels))
    roc = tmp_path / "roc.tsv"
    roc.write_text(format_roc(metrics.roc))
    report = f"eer_percent = {100 * metrics.eer:.4f}\nmin_dcf = {metrics.min_dcf:.6f}\n"
    checks.check_det(scores, labels, roc, report)
    wrong = f"eer_percent = {100 * metrics.eer + 0.01:.4f}\nmin_dcf = {metrics.min_dcf:.6f}\n"
    with pytest.raises(checks.CheckError, match="eer_percent"):
        checks.check_det(scores, labels, roc, wrong)


def _bindings():
    import unitcat.archive

    mods = {n: m for n, m in sys.modules.items() if n == "unitcat" or n.startswith("unitcat.")}
    out = {(n, k): v for n, m in mods.items() for k, v in vars(m).items() if callable(v)}
    out.update({("ArchiveWriter", k): v for k, v in vars(unitcat.archive.ArchiveWriter).items()})
    return out


def test_wrappers_patch_every_binding_and_restore_them():
    import unitcat.cli  # noqa: F401  (loads every module the pipeline binds into)
    import unitcat.features
    import unitcat.pipeline
    from unitcat.audio import Waveform

    before = _bindings()
    original = unitcat.features.compute_fbank
    tracer = Tracer()
    tracer.install()
    try:
        # the copy made by `from .features import compute_fbank` is patched too
        assert unitcat.pipeline.compute_fbank is not original
        assert unitcat.pipeline.compute_fbank is unitcat.features.compute_fbank
        wav = Waveform(np.zeros(1600, dtype=np.int16) + 5, 16000)
        unitcat.pipeline.compute_fbank(wav)
    finally:
        tracer.uninstall()
    counts, wrapper_s = tracer.take_counts()
    assert counts["features.compute_fbank.calls"] == 1
    assert 0.0 < wrapper_s < tracer.spans[0].end - tracer.spans[0].start
    assert [s.name for s in tracer.spans] == ["features.compute_fbank"]
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def _traced_iterations(stage_sums):
    return [{**layer_metrics({}, Counter()), "_wrapper_s": 0.01, "_stage_sum": x} for x in stage_sums]


def test_trace_check_fails_when_stage_spans_miss_the_untraced_run():
    untraced = [5.0, 5.1, 4.9]
    ok = worker.trace_metrics("train", untraced, _traced_iterations([5.03, 5.06]))
    assert not [p for p in ok["trace_problems"] if "stage spans" in p]
    assert ok["layers"]["trace.overhead_s"] == 0.01
    # a per-stage split that costs a second more than the whole run
    off = worker.trace_metrics("train", untraced, _traced_iterations([6.03, 6.06]))
    assert [p for p in off["trace_problems"] if "stage spans" in p]
    assert not off["trace_ok"]


def _worker_result(digest, attempted, failed, peak_rss_mb):
    timed = attempted - 1 - failed
    return {
        "attempted": attempted, "failed": failed, "digest": digest, "peak_rss_mb": peak_rss_mb,
        "warmup_s": [2.0], "run_s_samples": [1.5] * timed, "setup_s_samples": [0.15] * 7,
        "sys_s_samples": [0.1] * attempted, "errors": [], "calibration": {}, "checked_tree": "out",
    }


def test_merge_pools_the_workers_and_fails_one_whose_tree_differs():
    res = run.merge([
        _worker_result("a", 5, 0, 70.0),
        _worker_result("a", 5, 1, 71.5),
        _worker_result("b", 5, 0, 69.0),
    ])
    assert res["attempted"] == 15
    assert res["failed"] == 1 + 5  # every iteration of the third worker
    assert len(res["run_s_samples"]) == 4 + 3 + 4
    assert len(res["setup_s_samples"]) == 21
    assert res["peak_rss_mb"] == 71.5
    assert any("differs" in e for e in res["errors"])
