"""Verification back-end: cosine trial scoring and detection metrics.

The decision rule is fixed as accept iff score >= threshold, so
FAR(t) = |{nontarget >= t}| / |nontarget| and FRR(t) = |{target < t}| /
|target|. Rates are evaluated at every distinct score plus -inf/+inf
sentinels; the equal-error rate interpolates linearly on that polyline,
and the detection cost is minimized exactly over the same sweep. One
sweep yields threshold, FAR and FRR arrays, and each metric is an array
pass over them.

Trials are scored block-wise: every id is resolved once to a row of one
matrix of averaged embeddings whose row norms are computed once, and the
trials are scored SCORE_BLOCK at a time by gathering their enroll and test
rows. Gathering every trial at once would hold two (trials x dim) copies.
Row dot products go through matmul's vector-vector kernel, the one that
1-D ``a @ b`` and ``np.linalg.norm`` use, so a score is computed as
cosine_score computes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .tdnn import average_embeddings

DEFAULT_P_TARGET = 0.01
SCORE_BLOCK = 1024


class ScoringError(ValueError):
    pass


@dataclass
class Trial:
    enroll_id: str
    test_id: str
    is_target: bool


@dataclass
class ScoreSet:
    scores: np.ndarray
    is_target: np.ndarray

    def __post_init__(self) -> None:
        self.scores = np.asarray(self.scores, dtype=np.float64)
        self.is_target = np.asarray(self.is_target, dtype=bool)
        if self.scores.shape != self.is_target.shape:
            raise ScoringError(
                f"{len(self.scores)} scores but {len(self.is_target)} labels"
            )

    def __len__(self) -> int:
        return len(self.scores)

    def split(self) -> tuple[np.ndarray, np.ndarray]:
        """(target scores, nontarget scores); both must be non-empty."""
        targets = self.scores[self.is_target]
        nontargets = self.scores[~self.is_target]
        if len(targets) == 0 or len(nontargets) == 0:
            raise ScoringError(
                "metrics need at least one target and one nontarget score"
            )
        return targets, nontargets


@dataclass
class DetMetrics:
    eer: float
    eer_threshold: float
    min_dcf: float
    dcf_threshold: float
    roc: list[tuple[float, float, float]]  # (threshold, FAR, FRR)


def cosine_score(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise ScoringError("cosine of a zero-norm vector is undefined")
    return float(np.clip(a @ b / (na * nb), -1.0, 1.0))


def _sweep(s: ScoreSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(thresholds, FAR, FRR) arrays at all distinct scores and both
    sentinels, thresholds ascending."""
    nonfinite = np.count_nonzero(~np.isfinite(s.scores))
    if nonfinite:
        raise ScoringError(f"{nonfinite} of {len(s)} scores are not finite")
    targets, nontargets = s.split()
    t_sorted = np.sort(targets)
    nt_sorted = np.sort(nontargets)
    thresholds = np.concatenate(
        [[-math.inf], np.unique(s.scores), [math.inf]]
    )
    far = (len(nt_sorted) - np.searchsorted(nt_sorted, thresholds, side="left")) / len(
        nt_sorted
    )
    frr = np.searchsorted(t_sorted, thresholds, side="left") / len(t_sorted)
    return thresholds, far, frr


def _points(
    thresholds: np.ndarray, far: np.ndarray, frr: np.ndarray
) -> list[tuple[float, float, float]]:
    return list(zip(thresholds.tolist(), far.tolist(), frr.tolist()))


def sweep_rates(s: ScoreSet) -> list[tuple[float, float, float]]:
    """(threshold, FAR, FRR) at all distinct scores and both sentinels,
    thresholds ascending."""
    return _points(*_sweep(s))


def _eer(thresholds: np.ndarray, far: np.ndarray, frr: np.ndarray) -> tuple[float, float]:
    # d starts at +1 and ends at -1; the first segment with d0 >= 0 >= d1
    # holds the crossing, and there d0 > 0: a zero d0 would need a negative
    # d before it, hence an earlier crossing
    d = far - frr
    crossings = np.flatnonzero((d[:-1] >= 0) & (d[1:] <= 0))
    if len(crossings) == 0:
        raise ScoringError("no FAR/FRR crossing found")  # unreachable for valid sets
    k = int(crossings[0])
    t0, t1 = float(thresholds[k]), float(thresholds[k + 1])
    far0, far1 = float(far[k]), float(far[k + 1])
    d0, d1 = float(d[k]), float(d[k + 1])
    alpha = d0 / (d0 - d1)
    eer = far0 + alpha * (far1 - far0)
    if math.isinf(t0) or math.isinf(t1):
        threshold = t1 if math.isinf(t0) else t0
    else:
        threshold = t0 + alpha * (t1 - t0)
    return float(eer), float(threshold)


def compute_eer(s: ScoreSet) -> tuple[float, float]:
    """Equal-error rate and its threshold, interpolating between sweep
    points where FAR - FRR changes sign."""
    return _eer(*_sweep(s))


def _check_dcf_params(p_target: float, c_miss: float, c_fa: float) -> None:
    if not 0.0 < p_target < 1.0:
        raise ScoringError(f"p_target must be in (0, 1), got {p_target}")
    if c_miss <= 0 or c_fa <= 0:
        raise ScoringError("costs must be positive")


def _min_dcf(
    thresholds: np.ndarray,
    far: np.ndarray,
    frr: np.ndarray,
    p_target: float,
    c_miss: float,
    c_fa: float,
) -> tuple[float, float]:
    cost = c_miss * p_target * frr + c_fa * (1.0 - p_target) * far
    k = int(np.argmin(cost))  # the first minimum: ties keep the lowest threshold
    normalizer = min(c_miss * p_target, c_fa * (1.0 - p_target))
    return float(cost[k] / normalizer), float(thresholds[k])


def compute_min_dcf(
    s: ScoreSet,
    p_target: float = DEFAULT_P_TARGET,
    c_miss: float = 1.0,
    c_fa: float = 1.0,
) -> tuple[float, float]:
    """Minimum normalized detection cost over the sweep thresholds.

    DCF(t) = c_miss*p_target*FRR(t) + c_fa*(1-p_target)*FAR(t), divided by
    the best uninformed-decision cost; ties keep the lowest threshold.
    """
    _check_dcf_params(p_target, c_miss, c_fa)
    return _min_dcf(*_sweep(s), p_target, c_miss, c_fa)


def compute_det_metrics(
    s: ScoreSet,
    p_target: float = DEFAULT_P_TARGET,
    c_miss: float = 1.0,
    c_fa: float = 1.0,
) -> DetMetrics:
    sweep = _sweep(s)
    eer, eer_t = _eer(*sweep)
    _check_dcf_params(p_target, c_miss, c_fa)
    dcf, dcf_t = _min_dcf(*sweep, p_target, c_miss, c_fa)
    return DetMetrics(eer, eer_t, dcf, dcf_t, _points(*sweep))


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[i] @ b[i] for every row i, each by the kernel of a 1-D a @ b."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def score_trials(
    trials: list[Trial], embeddings: dict[str, list[np.ndarray]]
) -> ScoreSet:
    """One cosine score per trial; ids with several records (one per
    channel) are represented by their averaged embedding."""
    row_of: dict[str, int] = {}
    vectors: list[np.ndarray] = []
    pairs = np.empty((len(trials), 2), dtype=np.intp)
    for i, trial in enumerate(trials, start=1):
        for side, utt_id in enumerate((trial.enroll_id, trial.test_id)):
            row = row_of.get(utt_id)
            if row is None:
                records = embeddings.get(utt_id)
                if not records:
                    raise ScoringError(f"trial {i}: no embedding for id {utt_id!r}")
                widths = sorted({r.size for r in records})
                if len(widths) > 1:
                    raise ScoringError(
                        f"trial {i}: id {utt_id!r} has records of different widths "
                        f"({', '.join(map(str, widths))}), which cannot be averaged"
                    )
                vector = average_embeddings([r.reshape(-1) for r in records])
                if vectors and len(vector) != len(vectors[0]):
                    raise ScoringError(
                        f"trial {i}: id {utt_id!r} has a {len(vector)}-dim embedding, "
                        f"others have {len(vectors[0])}"
                    )
                row = row_of[utt_id] = len(vectors)
                vectors.append(vector)
            pairs[i - 1, side] = row
    matrix = np.stack(vectors) if vectors else np.empty((0, 0))
    norms = np.sqrt(_row_dots(matrix, matrix))
    zero = np.flatnonzero(norms == 0.0)
    if len(zero):
        # rows are numbered in order of first use, so zero[0] fails first
        utt_id = list(row_of)[zero[0]]
        lineno = int(np.flatnonzero((pairs == zero[0]).any(axis=1))[0]) + 1
        raise ScoringError(
            f"trial {lineno}: id {utt_id!r} has a zero-norm embedding; "
            "cosine of a zero-norm vector is undefined"
        )
    scores = np.empty(len(trials))
    for lo in range(0, len(trials), SCORE_BLOCK):
        block = slice(lo, lo + SCORE_BLOCK)
        enroll, test = pairs[block, 0], pairs[block, 1]
        dots = _row_dots(matrix[enroll], matrix[test])
        np.clip(dots / (norms[enroll] * norms[test]), -1.0, 1.0, out=scores[block])
    labels = np.fromiter((t.is_target for t in trials), dtype=bool, count=len(trials))
    return ScoreSet(scores, labels)


# --- text formats ---------------------------------------------------------


def parse_trials(text: str) -> list[Trial]:
    """Lines of: enroll_id test_id target|nontarget."""
    trials = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 3:
            raise ScoringError(f"trials line {lineno}: expected 3 fields, got {len(fields)}")
        enroll, test, label = fields
        if label not in ("target", "nontarget"):
            raise ScoringError(
                f"trials line {lineno}: label must be target or nontarget, got {label!r}"
            )
        trials.append(Trial(enroll, test, label == "target"))
    return trials


def load_trials(path: str | Path) -> list[Trial]:
    return parse_trials(Path(path).read_text(encoding="utf-8"))


def format_scores(trials: list[Trial], s: ScoreSet) -> str:
    lines = [
        f"{t.enroll_id} {t.test_id} {score:.17g} "
        f"{'target' if is_target else 'nontarget'}"
        for t, score, is_target in zip(trials, s.scores, s.is_target)
    ]
    return "".join(line + "\n" for line in lines)


def parse_scores(text: str) -> ScoreSet:
    """Lines of: enroll_id test_id score label."""
    scores = []
    labels = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 4:
            raise ScoringError(f"scores line {lineno}: expected 4 fields, got {len(fields)}")
        try:
            score = float(fields[2])
        except ValueError:
            raise ScoringError(f"scores line {lineno}: bad score {fields[2]!r}") from None
        if not math.isfinite(score):
            raise ScoringError(f"scores line {lineno}: non-finite score {fields[2]!r}")
        scores.append(score)
        if fields[3] not in ("target", "nontarget"):
            raise ScoringError(f"scores line {lineno}: bad label {fields[3]!r}")
        labels.append(fields[3] == "target")
    return ScoreSet(np.asarray(scores), np.asarray(labels))


def format_roc(points: list[tuple[float, float, float]]) -> str:
    lines = ["threshold\tfar\tfrr"]
    lines += [f"{t:.17g}\t{fa:.17g}\t{fr:.17g}" for t, fa, fr in points]
    return "".join(line + "\n" for line in lines)


def parse_roc(text: str) -> list[tuple[float, float, float]]:
    """format_roc's TSV back to (threshold, far, frr) points."""
    points = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or (lineno == 1 and line.startswith("threshold")):
            continue
        fields = line.split()
        if len(fields) != 3:
            raise ScoringError(f"roc line {lineno}: expected 3 fields, got {len(fields)}")
        try:
            threshold, far, frr = (float(x) for x in fields)
        except ValueError:
            raise ScoringError(f"roc line {lineno}: bad number in {line!r}") from None
        points.append((threshold, far, frr))
    return points


def roc_svg(points: list[tuple[float, float, float]], title: str = "DET") -> str:
    """A standalone SVG of the FAR/FRR trade-off polyline."""
    size, margin = 400, 45
    span = size - 2 * margin

    def px(far: float) -> float:
        return margin + far * span

    def py(frr: float) -> float:
        return size - margin - frr * span

    coords = sorted((fa, fr) for _, fa, fr in points)
    path = " ".join(f"{px(fa):.2f},{py(fr):.2f}" for fa, fr in coords)
    grid = []
    for i in range(5):
        v = i / 4
        grid.append(
            f'<line x1="{px(v):.1f}" y1="{py(0):.1f}" x2="{px(v):.1f}" '
            f'y2="{py(1):.1f}" stroke="#ddd"/>'
        )
        grid.append(
            f'<line x1="{px(0):.1f}" y1="{py(v):.1f}" x2="{px(1):.1f}" '
            f'y2="{py(v):.1f}" stroke="#ddd"/>'
        )
        grid.append(
            f'<text x="{px(v):.1f}" y="{size - margin + 16}" font-size="10" '
            f'text-anchor="middle">{v:g}</text>'
        )
        grid.append(
            f'<text x="{margin - 8}" y="{py(v) + 3:.1f}" font-size="10" '
            f'text-anchor="end">{v:g}</text>'
        )
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">\n'
        f'<rect width="{size}" height="{size}" fill="white"/>\n'
        + "\n".join(grid)
        + f'\n<polyline points="{path}" fill="none" stroke="#c33" stroke-width="1.5"/>\n'
        f'<text x="{size / 2}" y="18" text-anchor="middle" font-size="13">{title}</text>\n'
        f'<text x="{size / 2}" y="{size - 8}" text-anchor="middle" font-size="11">'
        f"false alarm rate</text>\n"
        f'<text x="12" y="{size / 2}" text-anchor="middle" font-size="11" '
        f'transform="rotate(-90 12 {size / 2})">false reject rate</text>\n'
        "</svg>\n"
    )
