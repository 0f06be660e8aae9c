"""Output checks run after every benchmark iteration.

They test invariants only (counts implied by the generated inputs,
agreement with an independent recomputation, loss going down), never
expected values, so a later correctness change to unitcat does not read
as a benchmark failure. Every check raises CheckError.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np

SCORE_TOL = 1e-9


class CheckError(AssertionError):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def report_value(report: str, key: str) -> str:
    """The value of the first 'key: value' or 'key = value' report line."""
    m = re.search(rf"^{re.escape(key)}\s*[:=]\s*(\S+)\s*$", report, re.M)
    _require(m is not None, f"report has no {key!r} line")
    return m.group(1)


def check_stages(report: str, stages: tuple[str, ...]) -> None:
    for stage in stages:
        _require(f"[{stage}]" in report, f"report does not list stage {stage!r}")


def check_train(report: str) -> None:
    first = float(report_value(report, "first_loss"))
    final = float(report_value(report, "final_loss"))
    _require(math.isfinite(final), f"final_loss {final} is not finite")
    _require(final < first, f"final_loss {final} is not below first_loss {first}")
    eer = float(report_value(report, "eer_percent")) / 100.0
    min_dcf = float(report_value(report, "min_dcf"))
    _require(0.0 <= eer <= 1.0, f"EER {eer} outside [0, 1]")
    _require(0.0 <= min_dcf <= 1.0, f"minDCF {min_dcf} outside [0, 1]")


def _index_lines(path: Path) -> int:
    return sum(1 for line in path.read_text(encoding="utf-8").splitlines() if line.strip())


def check_prep(report: str, out: Path, sizes: dict[str, int]) -> None:
    for key, want in (
        ("synthesized", sizes["synthesized"]),
        ("augmented copies", sizes["augmented"]),
        ("utterances", sizes["featurized"]),
    ):
        got = int(report_value(report, key))
        _require(got == want, f"{key}: {got}, the generated inputs imply {want}")
    for archive in ("features", "train"):
        got = _index_lines(out / "features" / f"{archive}.tsv")
        _require(got == sizes["featurized"], f"{archive} archive has {got} records, want {sizes['featurized']}")


# --- eval -------------------------------------------------------------------


def read_archive(base: Path) -> dict[str, list[np.ndarray]]:
    data = base.with_suffix(".bin").read_bytes()
    out: dict[str, list[np.ndarray]] = {}
    for line in base.with_suffix(".tsv").read_text(encoding="utf-8").splitlines():
        if line.strip():
            utt, offset, rows, cols = line.split("\t")
            n = int(rows) * int(cols)
            arr = np.frombuffer(data, dtype="<f4", count=n, offset=int(offset))
            out.setdefault(utt, []).append(arr.reshape(int(rows), int(cols)))
    return out


def det_sweep(scores: np.ndarray, is_target: np.ndarray):
    """(thresholds, FAR, FRR) at -inf, every distinct score and +inf, with
    accept iff score >= threshold; counted by cumulative sums over the
    sorted scores."""
    order = np.argsort(scores, kind="stable")
    s, t = scores[order], is_target[order]
    uniq, first = np.unique(s, return_index=True)
    below_t = np.concatenate([[0], np.cumsum(t)])
    below_n = np.concatenate([[0], np.cumsum(~t)])
    n_t, n_n = below_t[-1], below_n[-1]
    frr = np.concatenate([[0], below_t[first], [n_t]]) / n_t
    far = (n_n - np.concatenate([[0], below_n[first], [n_n]])) / n_n
    thresholds = np.concatenate([[-np.inf], uniq, [np.inf]])
    return thresholds, far, frr


def eer_and_min_dcf(far, frr, p_target=0.01, c_miss=1.0, c_fa=1.0) -> tuple[float, float]:
    """EER by linear interpolation where FAR - FRR changes sign; minDCF
    normalized by the best uninformed cost."""
    d = far - frr
    k = int(np.flatnonzero((d[:-1] >= 0) & (d[1:] <= 0))[0])
    if d[k] == d[k + 1] == 0:
        eer = frr[k]
    else:
        alpha = d[k] / (d[k] - d[k + 1])
        eer = far[k] + alpha * (far[k + 1] - far[k])
    cost = c_miss * p_target * frr + c_fa * (1 - p_target) * far
    return float(eer), float(cost.min() / min(c_miss * p_target, c_fa * (1 - p_target)))


def _printed_tolerance(text: str) -> float:
    """Half a unit in the last printed digit, plus the score tolerance."""
    decimals = len(text.partition(".")[2])
    return 0.5 * 10.0 ** -decimals + SCORE_TOL


def check_scores(trials_path: Path, scores_path: Path, embeddings_base: Path, n_utts: int):
    """scores.txt: one line per trial, in trial order, each score equal to
    a float64 cosine of the archived embeddings. Returns (scores, labels)."""
    trials = [line.split() for line in trials_path.read_text(encoding="utf-8").splitlines() if line.strip()]
    rows = [line.split() for line in scores_path.read_text(encoding="utf-8").splitlines() if line.strip()]
    _require(len(rows) == len(trials), f"{len(rows)} score lines for {len(trials)} trials")
    for i, (row, trial) in enumerate(zip(rows, trials), start=1):
        _require(
            len(row) == 4 and [row[0], row[1], row[3]] == trial,
            f"score line {i} {row} does not match trial {trial}",
        )
    embeddings = read_archive(embeddings_base)
    _require(len(embeddings) == n_utts, f"{len(embeddings)} embeddings for {n_utts} utterances")
    ids = sorted(embeddings)
    pos = {u: i for i, u in enumerate(ids)}
    mat = np.stack([np.mean([r.reshape(-1).astype(np.float64) for r in embeddings[u]], axis=0) for u in ids])
    unit = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    a = np.fromiter((pos[t[0]] for t in trials), dtype=np.int64, count=len(trials))
    b = np.fromiter((pos[t[1]] for t in trials), dtype=np.int64, count=len(trials))
    want = np.concatenate([
        np.einsum("ij,ij->i", unit[a[k : k + 20000]], unit[b[k : k + 20000]])
        for k in range(0, len(trials), 20000)
    ])
    got = np.array([float(r[2]) for r in rows])
    worst = float(np.max(np.abs(got - np.clip(want, -1.0, 1.0))))
    _require(worst <= SCORE_TOL, f"scores differ from the embeddings' cosines by up to {worst:g}")
    return got, np.array([r[3] == "target" for r in rows])


def check_det(scores: np.ndarray, is_target: np.ndarray, roc_path: Path, report: str) -> None:
    """roc.tsv equals an independent sweep; reported EER and minDCF equal
    the sweep's to the printed precision."""
    thresholds, far, frr = det_sweep(scores, is_target)
    lines = roc_path.read_text(encoding="utf-8").splitlines()[1:]
    _require(len(lines) == len(thresholds), f"roc.tsv has {len(lines)} points, want {len(thresholds)}")
    roc = np.array([[float(x) for x in line.split("\t")] for line in lines])
    for col, want, what in ((0, thresholds, "threshold"), (1, far, "FAR"), (2, frr, "FRR")):
        finite = np.isfinite(want)
        _require(np.array_equal(np.isfinite(roc[:, col]), finite), f"roc.tsv {what} infinities differ")
        worst = float(np.max(np.abs(roc[finite, col] - want[finite]), initial=0.0))
        _require(worst <= SCORE_TOL, f"roc.tsv {what} differs from the sweep by up to {worst:g}")
    eer, min_dcf = eer_and_min_dcf(far, frr)
    for key, want in (("eer_percent", 100.0 * eer), ("min_dcf", min_dcf)):
        text = report_value(report, key)
        _require(
            abs(float(text) - want) <= _printed_tolerance(text),
            f"{key} {text} differs from the independent sweep's {want:.9g}",
        )


def check_eval_tree(out: Path, inputs: Path, n_utts: int) -> None:
    """Scores and DET outputs of the eval workload's output tree out."""
    scores, labels = check_scores(
        inputs / "corpus" / "trials.tsv",
        out / "scores" / "scores.txt",
        out / "embeddings" / "embeddings",
        n_utts,
    )
    metrics = (out / "eval" / "metrics.txt").read_text(encoding="utf-8")
    check_det(scores, labels, out / "eval" / "roc.tsv", metrics)


def check_kws(rc: int, roc_path: Path) -> None:
    _require(rc == 0, f"kws-eval exited {rc}")
    points = _index_lines(roc_path) - 1
    _require(points >= 2, f"kws-eval wrote {points} ROC points")
