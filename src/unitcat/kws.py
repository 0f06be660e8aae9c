"""Keyword confidence scoring over precomputed per-frame label posteriors.

Posteriors come from an external acoustic model as an archive of (frames x
labels) probability matrices plus a label-list sidecar. A running mean
smooths each label track, and the keyword confidence at frame j is the
geometric mean, over keyword units, of each unit's maximum smoothed
posterior within a trailing search window.

An utterance's confidence is the max over its frames, computed in array
passes: the trailing window max of every keyword column comes from
doubling (after the step with shift s, row j holds the max over rows
j-2s+1 .. j, and rows before s keep their prefix max), then one more
shifted max covers the rest of the window. That is O(T log W) work for T
frames and a W-frame window; confidence_at is the per-frame reference.
Only the best frame's product is raised to the 1/units power.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .archive import read_archive
from .scoring import ScoreSet, sweep_rates

DEFAULT_SMOOTH_WINDOW = 30
DEFAULT_SEARCH_WINDOW = 100

_ROW_SUM_TOL = 1e-6


class KwsError(ValueError):
    pass


@dataclass
class PosteriorStream:
    """Row-stochastic (frames x labels) probability matrix."""

    probs: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        self.probs = np.asarray(self.probs, dtype=np.float64)
        if self.probs.ndim != 2:
            raise KwsError(f"posteriors must be 2-D, got shape {self.probs.shape}")
        if self.probs.shape[1] != len(self.labels):
            raise KwsError(
                f"{self.probs.shape[1]} posterior columns but {len(self.labels)} labels"
            )
        if self.probs.size:
            if np.min(self.probs) < 0.0 or np.max(self.probs) > 1.0:
                raise KwsError("posterior values must lie in [0, 1]")
            sums = self.probs.sum(axis=1)
            worst = float(np.max(np.abs(sums - 1.0)))
            if worst > _ROW_SUM_TOL:
                raise KwsError(f"posterior rows must sum to 1, worst deviation {worst:g}")

    @property
    def num_frames(self) -> int:
        return self.probs.shape[0]


@dataclass
class KeywordSpec:
    """Keyword unit label indices plus the two window sizes, in frames."""

    label_indices: tuple[int, ...]
    smooth_window: int = DEFAULT_SMOOTH_WINDOW
    search_window: int = DEFAULT_SEARCH_WINDOW

    def __post_init__(self) -> None:
        if not self.label_indices:
            raise KwsError("keyword needs at least one unit")
        if self.smooth_window < 1 or self.search_window < 1:
            raise KwsError("windows must be >= 1 frame")

    @classmethod
    def from_labels(
        cls,
        units: tuple[str, ...],
        labels: tuple[str, ...],
        smooth_window: int = DEFAULT_SMOOTH_WINDOW,
        search_window: int = DEFAULT_SEARCH_WINDOW,
    ) -> "KeywordSpec":
        indices = []
        for u in units:
            try:
                indices.append(labels.index(u))
            except ValueError:
                raise KwsError(f"keyword unit {u!r} is not in the label list") from None
        return cls(tuple(indices), smooth_window, search_window)


def smooth_posteriors(p: PosteriorStream, smooth_window: int) -> PosteriorStream:
    """Trailing running mean: p'[j] = mean of rows max(0, j-w+1) .. j."""
    if smooth_window < 1:
        raise KwsError(f"smooth_window must be >= 1, got {smooth_window}")
    probs = p.probs
    num_frames = len(probs)
    csum = np.vstack([np.zeros((1, probs.shape[1])), np.cumsum(probs, axis=0)])
    j = np.arange(num_frames)
    lo = np.maximum(0, j - smooth_window + 1)
    smoothed = (csum[j + 1] - csum[lo]) / (j + 1 - lo)[:, None]
    return PosteriorStream(smoothed, p.labels)


def _keyword_columns(
    smoothed: PosteriorStream, spec: KeywordSpec, exclude_first: bool
) -> tuple[int, ...]:
    indices = spec.label_indices[1:] if exclude_first else spec.label_indices
    if not indices:
        raise KwsError("excluding the first unit leaves no keyword units")
    for k in indices:
        if not 0 <= k < smoothed.probs.shape[1]:
            raise KwsError(f"keyword label index {k} out of range")
    return indices


def confidence_at(
    smoothed: PosteriorStream, spec: KeywordSpec, frame: int, exclude_first: bool = False
) -> float:
    """Keyword confidence at one frame of an already-smoothed stream.

    Geometric mean over keyword units of the unit's max posterior within
    [max(0, frame - search_window + 1), frame]. With exclude_first the
    first keyword unit is left out of both product and exponent.
    """
    if not 0 <= frame < smoothed.num_frames:
        raise KwsError(f"frame {frame} out of range for {smoothed.num_frames} frames")
    indices = _keyword_columns(smoothed, spec, exclude_first)
    lo = max(0, frame - spec.search_window + 1)
    window = smoothed.probs[lo : frame + 1]
    maxima = np.asarray([float(np.max(window[:, k])) for k in indices])
    return float(np.prod(maxima) ** (1.0 / len(indices)))


def _trailing_max(x: np.ndarray, window: int) -> np.ndarray:
    """m[j] = max of rows max(0, j - window + 1) .. j, column-wise."""
    m = x.copy()
    window = min(window, len(x))
    covered = 1
    while 2 * covered <= window:
        m[covered:] = np.maximum(m[covered:], m[:-covered])
        covered *= 2
    rest = window - covered
    if rest:
        m[rest:] = np.maximum(m[rest:], m[:-rest])
    return m


def utterance_confidence(
    p: PosteriorStream, spec: KeywordSpec, exclude_first: bool = False
) -> float:
    """Max per-frame confidence over the whole utterance."""
    if p.num_frames == 0:
        raise KwsError("empty posterior stream")
    smoothed = smooth_posteriors(p, spec.smooth_window)
    indices = _keyword_columns(smoothed, spec, exclude_first)
    maxima = _trailing_max(smoothed.probs[:, list(indices)], spec.search_window)
    # the root is monotone, so the best frame's root is the max of the roots
    return float(np.max(np.prod(maxima, axis=1))) ** (1.0 / len(indices))


def kws_roc(
    positives: list[float], negatives: list[float]
) -> list[tuple[float, float, float]]:
    """(threshold, FAR, FRR) sweep over utterance confidences; positives
    play the target role, negatives the nontarget role."""
    if not positives or not negatives:
        raise KwsError("need at least one positive and one negative score")
    scores = np.asarray(list(positives) + list(negatives), dtype=np.float64)
    labels = np.asarray([True] * len(positives) + [False] * len(negatives))
    return sweep_rates(ScoreSet(scores, labels))


def frr_at_far(points: list[tuple[float, float, float]], far_target: float) -> float:
    """Smallest FRR among sweep points with FAR <= far_target."""
    eligible = [frr for _, far, frr in points if far <= far_target]
    if not eligible:
        return 1.0
    return min(eligible)


# --- posterior files ------------------------------------------------------


def load_labels(path: str | Path) -> tuple[str, ...]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    labels = tuple(line.strip() for line in lines if line.strip())
    if len(set(labels)) != len(labels):
        raise KwsError(f"{path}: duplicate labels")
    return labels


def save_labels(path: str | Path, labels: tuple[str, ...]) -> None:
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text("".join(label + "\n" for label in labels), encoding="utf-8")


def load_posteriors(base: str | Path, labels_path: str | Path) -> dict[str, PosteriorStream]:
    """Archive of per-utterance posterior matrices + label sidecar."""
    labels = load_labels(labels_path)
    streams: dict[str, PosteriorStream] = {}
    for utt_id, records in read_archive(base).items():
        if len(records) != 1:
            raise KwsError(f"utterance {utt_id!r} has {len(records)} posterior records")
        streams[utt_id] = PosteriorStream(records[0].astype(np.float64), labels)
    return streams
