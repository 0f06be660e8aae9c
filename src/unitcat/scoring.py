"""Verification back-end: cosine trial scoring and detection metrics.

The decision rule is fixed as accept iff score >= threshold, so
FAR(t) = |{nontarget >= t}| / |nontarget| and FRR(t) = |{target < t}| /
|target|. sweep_rates evaluates the rates at every distinct score plus
-inf/+inf sentinels, and that (thresholds, far, frr) triple is the DET
curve that format_roc writes, parse_roc reads and roc_svg draws.
compute_det_metrics is the one place that checks the detection-cost
parameters and computes the metrics: it sweeps once, interpolates the
equal-error rate linearly on that polyline and minimizes the detection
cost exactly over the same points. compute_eer and compute_min_dcf read
their pair off its result.

A trial list holds no object per trial: ``ids`` lists every id once, in
order of first use, row i of the (n, 2) array ``pairs`` holds trial i's
enroll and test rows of ``ids``, and ``is_target`` its label.
parse_trials and parse_scores read any iterable of lines, such as an
open file, one line at a time, so a trial or score file is never held
whole as text or as per-line strings; what they return holds 17 and 9
bytes per trial. format_scores and format_roc format FORMAT_BLOCK lines
at a time.

Trials are scored block-wise: every id is resolved once to a row of one
matrix of averaged embeddings whose row norms are computed once, and the
trials are scored SCORE_BLOCK at a time by gathering their enroll and test
rows. Gathering every trial at once would hold two (trials x dim) copies,
and blocks of 1024 trials of 256 dims (two 2 MB gathers) ran 3-4x slower
than blocks of 256, whose gathers stay in cache. Row dot products go through
matmul's vector-vector kernel, the one that 1-D ``a @ b`` and
``np.linalg.norm`` use, so a score is computed as cosine_score computes it.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path
from typing import TextIO

import numpy as np

from .corpus import ascii_number
from .tdnn import average_embeddings

DEFAULT_P_TARGET = 0.01
SCORE_BLOCK = 256
FORMAT_BLOCK = 4096

Roc = tuple[np.ndarray, np.ndarray, np.ndarray]  # (thresholds, FAR, FRR)

_LABELS = {"nontarget": False, "target": True}
_LABEL_NAMES = ("nontarget", "target")


class ScoringError(ValueError):
    pass


@dataclass
class TrialList:
    """Trials as index arrays: ``ids`` in order of first use, ``pairs``
    (n, 2) rows of ``ids`` (enroll, test) and ``is_target`` (n,) labels."""

    ids: list[str]
    pairs: np.ndarray
    is_target: np.ndarray

    def __len__(self) -> int:
        return len(self.pairs)


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


@dataclass
class DetMetrics:
    eer: float
    eer_threshold: float
    min_dcf: float
    dcf_threshold: float
    roc: Roc


def cosine_score(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise ScoringError("cosine of a zero-norm vector is undefined")
    return float(np.clip(a @ b / (na * nb), -1.0, 1.0))


def sweep_rates(s: ScoreSet) -> Roc:
    """(thresholds, FAR, FRR) arrays at all distinct scores and both
    sentinels, thresholds ascending."""
    nonfinite = np.count_nonzero(~np.isfinite(s.scores))
    if nonfinite:
        raise ScoringError(f"{nonfinite} of {len(s)} scores are not finite")
    # boolean indexing copies, so both may be sorted in place
    targets, nontargets = s.scores[s.is_target], s.scores[~s.is_target]
    if len(targets) == 0 or len(nontargets) == 0:
        raise ScoringError("metrics need at least one target and one nontarget score")
    targets.sort()
    nontargets.sort()
    thresholds = np.concatenate(
        [[-math.inf], np.unique(s.scores), [math.inf]]
    )
    far = (len(nontargets) - np.searchsorted(nontargets, thresholds, side="left")) / len(
        nontargets
    )
    frr = np.searchsorted(targets, thresholds, side="left") / len(targets)
    return thresholds, far, frr


def compute_det_metrics(
    s: ScoreSet,
    p_target: float = DEFAULT_P_TARGET,
    c_miss: float = 1.0,
    c_fa: float = 1.0,
) -> DetMetrics:
    """EER and minimum normalized detection cost, both read off one sweep.

    The EER interpolates linearly where FAR - FRR first changes sign.
    DCF(t) = c_miss*p_target*FRR(t) + c_fa*(1-p_target)*FAR(t), divided by
    the best uninformed-decision cost; ties keep the lowest threshold.
    """
    if not 0.0 < p_target < 1.0:
        raise ScoringError(f"p_target must be in (0, 1), got {p_target}")
    if not (0.0 < c_miss < math.inf and 0.0 < c_fa < math.inf):
        raise ScoringError(f"costs must be finite and positive, got c_miss={c_miss}, c_fa={c_fa}")
    sweep = thresholds, far, frr = sweep_rates(s)
    # d starts at +1 and ends at -1, so a first d <= 0 exists and the one
    # before it is positive
    d = far - frr
    k = int(np.argmax(d <= 0)) - 1
    t0, t1 = float(thresholds[k]), float(thresholds[k + 1])
    far0, far1 = float(far[k]), float(far[k + 1])
    d0, d1 = float(d[k]), float(d[k + 1])
    alpha = d0 / (d0 - d1)
    eer = far0 + alpha * (far1 - far0)
    if math.isinf(t0) or math.isinf(t1):
        eer_t = t1 if math.isinf(t0) else t0
    else:
        eer_t = t0 + alpha * (t1 - t0)
    cost = c_miss * p_target * frr + c_fa * (1.0 - p_target) * far
    j = int(np.argmin(cost))  # the first minimum: ties keep the lowest threshold
    normalizer = min(c_miss * p_target, c_fa * (1.0 - p_target))
    return DetMetrics(eer, eer_t, float(cost[j] / normalizer), float(thresholds[j]), sweep)


def compute_eer(s: ScoreSet) -> tuple[float, float]:
    """compute_det_metrics' equal-error rate and its threshold."""
    m = compute_det_metrics(s)
    return m.eer, m.eer_threshold


def compute_min_dcf(
    s: ScoreSet,
    p_target: float = DEFAULT_P_TARGET,
    c_miss: float = 1.0,
    c_fa: float = 1.0,
) -> tuple[float, float]:
    """compute_det_metrics' minimum normalized detection cost and its threshold."""
    m = compute_det_metrics(s, p_target, c_miss, c_fa)
    return m.min_dcf, m.dcf_threshold


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[i] @ b[i] for every row i, each by the kernel of a 1-D a @ b."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def score_trials(trials: TrialList, embeddings: dict[str, list[np.ndarray]]) -> ScoreSet:
    """One cosine score per trial; ids with several records (one per
    channel) are represented by their averaged embedding. A refusal names
    the first trial that uses the offending id."""
    pairs = trials.pairs

    def first_use(row: int) -> int:
        return int(np.argmax(pairs.reshape(-1) == row)) // 2 + 1

    vectors: list[np.ndarray] = []
    # ids are in order of first use, so the first id to fail fails first
    for row, utt_id in enumerate(trials.ids):
        records = embeddings.get(utt_id)
        if not records:
            raise ScoringError(f"trial {first_use(row)}: no embedding for id {utt_id!r}")
        widths = sorted({r.size for r in records})
        if len(widths) > 1:
            raise ScoringError(
                f"trial {first_use(row)}: id {utt_id!r} has records of different widths "
                f"({', '.join(map(str, widths))}), which cannot be averaged"
            )
        vector = average_embeddings([r.reshape(-1) for r in records])
        if vectors and len(vector) != len(vectors[0]):
            raise ScoringError(
                f"trial {first_use(row)}: id {utt_id!r} has a {len(vector)}-dim embedding, "
                f"others have {len(vectors[0])}"
            )
        vectors.append(vector)
    matrix = np.stack(vectors) if vectors else np.empty((0, 0))
    norms = np.sqrt(_row_dots(matrix, matrix))
    zero = np.flatnonzero(norms == 0.0)
    if len(zero):
        raise ScoringError(
            f"trial {first_use(zero[0])}: id {trials.ids[zero[0]]!r} has a zero-norm "
            "embedding; cosine of a zero-norm vector is undefined"
        )
    scores = np.empty(len(trials))
    for lo in range(0, len(trials), SCORE_BLOCK):
        block = slice(lo, lo + SCORE_BLOCK)
        enroll, test = pairs[block, 0], pairs[block, 1]
        dots = _row_dots(matrix[enroll], matrix[test])
        np.clip(dots / (norms[enroll] * norms[test]), -1.0, 1.0, out=scores[block])
    return ScoreSet(scores, trials.is_target)


# --- text formats ---------------------------------------------------------


_number = ascii_number(float)


def parse_trials(lines: Iterable[str]) -> TrialList:
    """Lines of: enroll_id test_id target|nontarget."""
    row_of: dict[str, int] = {}
    pairs: list[int] = []  # each row's int object is the one row_of holds
    labels = bytearray()
    for lineno, line in enumerate(lines, start=1):
        fields = line.split()
        if not fields:
            continue
        if len(fields) != 3:
            raise ScoringError(f"trials line {lineno}: expected 3 fields, got {len(fields)}")
        enroll, test, label = fields
        is_target = _LABELS.get(label)
        if is_target is None:
            raise ScoringError(
                f"trials line {lineno}: label must be target or nontarget, got {label!r}"
            )
        pairs.append(row_of.setdefault(enroll, len(row_of)))
        pairs.append(row_of.setdefault(test, len(row_of)))
        labels.append(is_target)
    return TrialList(
        list(row_of),
        np.array(pairs, dtype=np.intp).reshape(-1, 2),
        np.frombuffer(labels, dtype=bool),
    )


def load_trials(path: str | Path) -> TrialList:
    with open(path, encoding="utf-8") as f:
        return parse_trials(f)


def format_scores(trials: TrialList, s: ScoreSet, out: TextIO) -> None:
    """Write one line per trial to out: enroll_id test_id score label."""
    ids = trials.ids
    for lo in range(0, len(trials), FORMAT_BLOCK):
        block = slice(lo, lo + FORMAT_BLOCK)
        out.write("".join(
            "%s %s %.17g %s\n" % (ids[enroll], ids[test], score, _LABEL_NAMES[is_target])
            for (enroll, test), score, is_target in zip(
                trials.pairs[block].tolist(), s.scores[block].tolist(), s.is_target[block].tolist()
            )
        ))


def parse_scores(lines: Iterable[str]) -> ScoreSet:
    """Lines of: enroll_id test_id score label."""
    scores: list[float] = []
    labels = bytearray()
    for lineno, line in enumerate(lines, start=1):
        fields = line.split()
        if not fields:
            continue
        if len(fields) != 4:
            raise ScoringError(f"scores line {lineno}: expected 4 fields, got {len(fields)}")
        try:
            score = _number(fields[2])
        except ValueError:
            raise ScoringError(f"scores line {lineno}: bad score {fields[2]!r}") from None
        if not math.isfinite(score):
            raise ScoringError(f"scores line {lineno}: non-finite score {fields[2]!r}")
        is_target = _LABELS.get(fields[3])
        if is_target is None:
            raise ScoringError(f"scores line {lineno}: bad label {fields[3]!r}")
        scores.append(score)
        labels.append(is_target)
    return ScoreSet(np.array(scores), np.frombuffer(labels, dtype=bool))


def format_roc(roc: Roc) -> str:
    """A header line, then threshold, far and frr per sweep point, tab-separated."""
    thresholds, far, frr = roc
    blocks = ["threshold\tfar\tfrr\n"]
    for lo in range(0, len(thresholds), FORMAT_BLOCK):
        block = slice(lo, lo + FORMAT_BLOCK)
        blocks.append("".join(
            "%.17g\t%.17g\t%.17g\n" % point
            for point in zip(thresholds[block].tolist(), far[block].tolist(), frr[block].tolist())
        ))
    return "".join(blocks)


def parse_roc(lines: Iterable[str]) -> Roc:
    """format_roc's lines back to (thresholds, far, frr) arrays."""
    values: list[float] = []
    for lineno, line in enumerate(lines, start=1):
        fields = line.split()
        if not fields or (lineno == 1 and fields[0].startswith("threshold")):
            continue
        if len(fields) != 3:
            raise ScoringError(f"roc line {lineno}: expected 3 fields, got {len(fields)}")
        try:
            values.extend([_number(x) for x in fields])
        except ValueError:
            raise ScoringError(f"roc line {lineno}: bad number in {line.strip()!r}") from None
    thresholds, far, frr = np.array(values, dtype=np.float64).reshape(-1, 3).T
    return thresholds, far, frr


def roc_svg(roc: Roc, title: str = "DET") -> str:
    """A standalone SVG of the FAR/FRR trade-off: the DET staircase as a
    polyline through its corners, as printed to 0.01 px."""
    size, margin = 400, 45
    span = size - 2 * margin

    def px(far):
        return margin + far * span

    def py(frr):
        return size - margin - frr * span

    _, far, frr = roc
    order = np.lexsort((-frr, far))  # by FAR ascending, then FRR descending
    x, y = px(far[order]), py(frr[order])
    # a repeated point, or one inside an exactly horizontal or vertical run,
    # stays so once printed, so only the others are formatted
    new = np.ones(len(x), dtype=bool)
    new[1:] = (x[1:] != x[:-1]) | (y[1:] != y[:-1])
    x, y = x[new], y[new]
    ends = np.ones(len(x), dtype=bool)
    ends[1:-1] = ~(
        ((x[:-2] == x[1:-1]) & (x[1:-1] == x[2:])) | ((y[:-2] == y[1:-1]) & (y[1:-1] == y[2:]))
    )
    points = [("%.2f" % a, "%.2f" % b) for a, b in zip(x[ends].tolist(), y[ends].tolist())]
    # the same rule on the printed coordinates, which can tie where the
    # exact ones do not
    points = [p for i, p in enumerate(points) if i == 0 or p != points[i - 1]]
    corners = points[:1] + [
        b
        for a, b, c in zip(points, points[1:], points[2:])
        if not (a[0] == b[0] == c[0] or a[1] == b[1] == c[1])
    ] + points[1:][-1:]
    path = " ".join(",".join(point) for point in corners)
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
