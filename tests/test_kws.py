import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from unitcat.archive import write_archive
from unitcat.kws import (
    KeywordSpec,
    KwsError,
    PosteriorStream,
    confidence_at,
    frr_at_far,
    kws_roc,
    load_labels,
    load_posteriors,
    save_labels,
    smooth_posteriors,
    utterance_confidence,
)

LABELS = ("sil", "ni", "hao", "mi", "ya")


def _stream(cols, labels=LABELS):
    """Column dict -> row-stochastic stream; leftout mass goes to sil."""
    length = len(next(iter(cols.values())))
    probs = np.zeros((length, len(labels)))
    for name, values in cols.items():
        probs[:, labels.index(name)] = values
    probs[:, 0] = 1.0 - probs[:, 1:].sum(axis=1)
    return PosteriorStream(probs, labels)


def test_stream_validation():
    with pytest.raises(KwsError, match="2-D"):
        PosteriorStream(np.zeros(4), LABELS)
    with pytest.raises(KwsError, match="labels"):
        PosteriorStream(np.zeros((3, 4)), LABELS)
    with pytest.raises(KwsError, match="sum to 1"):
        PosteriorStream(np.full((2, 5), 0.5), LABELS)
    with pytest.raises(KwsError, match="0, 1"):
        PosteriorStream(np.array([[1.5, -0.5, 0.0, 0.0, 0.0]]), LABELS)
    ok = PosteriorStream(np.full((3, 5), 0.2), LABELS)
    assert ok.num_frames == 3


def test_keyword_spec_from_labels():
    spec = KeywordSpec.from_labels(("ni", "hao"), LABELS)
    assert spec.label_indices == (1, 2)
    assert spec.smooth_window == 30
    assert spec.search_window == 100
    with pytest.raises(KwsError, match="'zen'"):
        KeywordSpec.from_labels(("zen",), LABELS)
    with pytest.raises(KwsError, match="unit"):
        KeywordSpec(())
    with pytest.raises(KwsError, match="windows"):
        KeywordSpec((1,), smooth_window=0)


# --- smoothing ---------------------------------------------------------------


def test_smoothing_two_frame_example():
    p = _stream({"ni": [0.2, 0.6]})
    out = smooth_posteriors(p, smooth_window=2)
    ni = out.probs[:, 1]
    assert ni[0] == pytest.approx(0.2)
    assert ni[1] == pytest.approx(0.4)


def test_smoothing_window_one_is_identity():
    rng = np.random.default_rng(0)
    raw = rng.uniform(0.0, 0.2, size=(20, 4))
    p = _stream({lab: raw[:, i] for i, lab in enumerate(LABELS[1:])})
    out = smooth_posteriors(p, smooth_window=1)
    # cumsum arithmetic: equal up to accumulation rounding, not bit-equal
    assert np.allclose(out.probs, p.probs, rtol=0, atol=1e-12)


def test_smoothing_trailing_window_oracle():
    rng = np.random.default_rng(1)
    raw = rng.uniform(0.0, 0.2, size=(40, 4))
    p = _stream({lab: raw[:, i] for i, lab in enumerate(LABELS[1:])})
    out = smooth_posteriors(p, smooth_window=7)
    for j in range(40):
        lo = max(0, j - 6)
        assert np.allclose(out.probs[j], p.probs[lo : j + 1].mean(axis=0))


def test_smoothing_preserves_row_stochasticity():
    rng = np.random.default_rng(2)
    raw = rng.uniform(0.0, 0.2, size=(25, 4))
    p = _stream({lab: raw[:, i] for i, lab in enumerate(LABELS[1:])})
    out = smooth_posteriors(p, smooth_window=10)
    assert np.allclose(out.probs.sum(axis=1), 1.0)
    assert np.min(out.probs) >= 0.0


def test_smoothing_constant_fixed_point():
    p = PosteriorStream(np.full((12, 5), 0.2), LABELS)
    out = smooth_posteriors(p, smooth_window=5)
    assert np.allclose(out.probs, 0.2)


# --- confidence ----------------------------------------------------------------


def test_confidence_geometric_mean_example():
    # window maxima 0.6 and 0.5 -> sqrt(0.30)
    p = _stream({"ni": [0.1, 0.6, 0.2], "hao": [0.5, 0.1, 0.3]})
    spec = KeywordSpec((1, 2), smooth_window=1, search_window=3)
    conf = confidence_at(smooth_posteriors(p, 1), spec, frame=2)
    assert conf == pytest.approx(math.sqrt(0.30), abs=1e-9)
    assert conf == pytest.approx(0.5477225575051661, abs=1e-9)


def test_confidence_trailing_window_limits_search():
    p = _stream({"ni": [0.9, 0.0, 0.0, 0.0], "hao": [0.0, 0.0, 0.0, 0.9]})
    spec = KeywordSpec((1, 2), smooth_window=1, search_window=2)
    # at frame 3 the window is frames [2, 3]: ni max is 0
    assert confidence_at(smooth_posteriors(p, 1), spec, 3) == 0.0
    wide = KeywordSpec((1, 2), smooth_window=1, search_window=4)
    assert confidence_at(smooth_posteriors(p, 1), wide, 3) == pytest.approx(0.9)


def test_confidence_single_missing_unit_annihilates():
    p = _stream({"ni": [0.8, 0.8], "hao": [0.0, 0.0]})
    spec = KeywordSpec((1, 2), smooth_window=1, search_window=10)
    assert confidence_at(smooth_posteriors(p, 1), spec, 1) == 0.0


def test_confidence_all_ones_is_one():
    probs = np.zeros((8, 5))
    probs[:, 1] = 1.0
    # alternate full certainty between the two keyword units
    probs[::2, 1], probs[::2, 2] = 0.0, 1.0
    p = PosteriorStream(probs, LABELS)
    spec = KeywordSpec((1, 2), smooth_window=1, search_window=8)
    assert confidence_at(smooth_posteriors(p, 1), spec, 7) == pytest.approx(1.0)


def test_confidence_exclude_first_unit():
    p = _stream({"ni": [0.0, 0.0], "hao": [0.4, 0.4], "mi": [0.1, 0.1]})
    spec = KeywordSpec((1, 2, 3), smooth_window=1, search_window=2)
    smoothed = smooth_posteriors(p, 1)
    with_first = confidence_at(smoothed, spec, 1)
    without = confidence_at(smoothed, spec, 1, exclude_first=True)
    assert with_first == 0.0
    assert without == pytest.approx(math.sqrt(0.4 * 0.1), abs=1e-12)
    single = KeywordSpec((1,), smooth_window=1, search_window=2)
    with pytest.raises(KwsError, match="leaves no"):
        confidence_at(smoothed, single, 1, exclude_first=True)


def test_confidence_frame_bounds():
    p = _stream({"ni": [0.5]})
    spec = KeywordSpec((1,), smooth_window=1, search_window=5)
    smoothed = smooth_posteriors(p, 1)
    with pytest.raises(KwsError, match="frame"):
        confidence_at(smoothed, spec, 1)
    with pytest.raises(KwsError, match="frame"):
        confidence_at(smoothed, spec, -1)


def test_confidence_label_index_bounds():
    p = _stream({"ni": [0.5, 0.5]})
    spec = KeywordSpec((9,), smooth_window=1, search_window=5)
    with pytest.raises(KwsError, match="index"):
        confidence_at(smooth_posteriors(p, 1), spec, 1)


def test_utterance_confidence_is_max_over_frames():
    p = _stream({"ni": [0.1, 0.9, 0.1, 0.1], "hao": [0.1, 0.1, 0.8, 0.1]})
    spec = KeywordSpec((1, 2), smooth_window=1, search_window=4)
    conf = utterance_confidence(p, spec)
    per_frame = [
        confidence_at(smooth_posteriors(p, 1), spec, j) for j in range(4)
    ]
    assert conf == pytest.approx(max(per_frame))
    assert conf == pytest.approx(math.sqrt(0.9 * 0.8))


def test_utterance_confidence_empty_stream():
    p = PosteriorStream(np.zeros((0, 5)), LABELS)
    spec = KeywordSpec((1,))
    with pytest.raises(KwsError, match="empty"):
        utterance_confidence(p, spec)


@pytest.mark.parametrize(
    "frames, smooth, search",
    [(1, 1, 1), (1, 5, 100), (7, 1, 1), (40, 3, 1), (40, 3, 40), (40, 3, 41),
     (40, 50, 7), (40, 50, 1000), (37, 4, 5), (64, 2, 16), (100, 30, 100)],
)
@pytest.mark.parametrize("exclude_first", [False, True])
def test_utterance_confidence_equals_max_of_per_frame_confidences(
    frames, smooth, search, exclude_first
):
    rng = np.random.default_rng(frames * 1000 + smooth * 10 + search)
    p = PosteriorStream(rng.dirichlet(np.full(len(LABELS), 0.3), size=frames), LABELS)
    spec = KeywordSpec((1, 2, 4), smooth_window=smooth, search_window=search)
    smoothed = smooth_posteriors(p, smooth)
    want = max(confidence_at(smoothed, spec, j, exclude_first) for j in range(frames))
    assert abs(utterance_confidence(p, spec, exclude_first) - want) <= 1e-12


def test_utterance_confidence_keeps_the_unit_checks():
    p = _stream({"ni": [0.5, 0.5]})
    with pytest.raises(KwsError, match="index"):
        utterance_confidence(p, KeywordSpec((9,), smooth_window=1, search_window=5))
    with pytest.raises(KwsError, match="leaves no"):
        utterance_confidence(p, KeywordSpec((1,)), exclude_first=True)


@settings(max_examples=50)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(1, 30))
def test_confidence_monotone_under_posterior_boosts(seed, frames):
    # raising any keyword unit's posterior (mass taken from sil) cannot
    # lower the confidence
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.0, 0.15, size=(frames, 4))
    p = _stream({lab: raw[:, i] for i, lab in enumerate(LABELS[1:])})
    spec = KeywordSpec((1, 2), smooth_window=5, search_window=10)
    base = utterance_confidence(p, spec)

    boosted_raw = raw.copy()
    k = int(rng.integers(0, frames))
    unit = int(rng.integers(0, 2))  # ni or hao
    boosted_raw[k, unit] += 0.3
    boosted = _stream({lab: boosted_raw[:, i] for i, lab in enumerate(LABELS[1:])})
    assert utterance_confidence(boosted, spec) >= base - 1e-12


# --- detection curves --------------------------------------------------------------


def test_kws_roc_separable():
    roc = kws_roc([0.9, 0.8, 0.85], [0.1, 0.2, 0.15])
    _, fars, frrs = roc
    assert fars.tolist() == sorted(fars, reverse=True)
    assert frrs.tolist() == sorted(frrs)
    assert any((fars == 0.0) & (frrs == 0.0))
    assert frr_at_far(roc, 0.01) == 0.0
    assert frr_at_far(roc, 0.001) == 0.0


def test_kws_roc_requires_both_sides():
    with pytest.raises(KwsError, match="positive"):
        kws_roc([], [0.1])
    with pytest.raises(KwsError, match="positive"):
        kws_roc([0.9], [])


def _roc(*points):
    return tuple(np.array(column) for column in zip(*points))


def test_frr_at_far_picks_smallest_eligible():
    roc = _roc((0.1, 0.5, 0.0), (0.5, 0.2, 0.1), (0.9, 0.0, 0.4))
    assert frr_at_far(roc, 0.25) == 0.1
    assert frr_at_far(roc, 0.0) == 0.4
    assert frr_at_far(_roc((0.5, 0.7, 0.2)), 0.01) == 1.0


# --- posterior files -----------------------------------------------------------------


def test_labels_roundtrip_and_duplicates(tmp_path):
    path = tmp_path / "labels.txt"
    save_labels(path, LABELS)
    assert load_labels(path) == LABELS
    path.write_text("a\nb\na\n")
    with pytest.raises(KwsError, match="duplicate"):
        load_labels(path)


def test_load_posteriors_archive(tmp_path):
    rng = np.random.default_rng(3)
    raw = rng.uniform(0.0, 0.2, size=(10, 4))
    probs = np.zeros((10, 5))
    probs[:, 1:] = raw
    probs[:, 0] = 1.0 - raw.sum(axis=1)
    base = tmp_path / "post"
    write_archive(base, [("utt1", probs.astype(np.float32))])
    save_labels(tmp_path / "labels.txt", LABELS)
    streams = load_posteriors(base, tmp_path / "labels.txt")
    assert set(streams) == {"utt1"}
    assert streams["utt1"].num_frames == 10
    assert streams["utt1"].labels == LABELS
    assert np.allclose(streams["utt1"].probs, probs, atol=1e-6)


def test_load_posteriors_rejects_duplicate_records(tmp_path):
    probs = np.full((2, 5), 0.2, dtype=np.float32)
    base = tmp_path / "post"
    write_archive(base, [("utt1", probs), ("utt1", probs)])
    save_labels(tmp_path / "labels.txt", LABELS)
    with pytest.raises(KwsError, match="records"):
        load_posteriors(base, tmp_path / "labels.txt")


def test_load_posteriors_refuses_a_nan_naming_the_archive_and_utterance(tmp_path):
    probs = np.full((3, 5), 0.2, dtype=np.float32)
    broken = probs.copy()
    broken[1, 2] = np.nan
    base = tmp_path / "post"
    write_archive(base, [("utt1", probs), ("utt2", broken)])
    save_labels(tmp_path / "labels.txt", LABELS)
    with pytest.raises(KwsError) as exc:
        load_posteriors(base, tmp_path / "labels.txt")
    assert str(exc.value) == f"{base}: utterance 'utt2': posterior values must lie in [0, 1]"
