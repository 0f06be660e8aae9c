import io
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from unitcat.scoring import (
    SCORE_BLOCK,
    ScoreSet,
    ScoringError,
    compute_det_metrics,
    compute_eer,
    compute_min_dcf,
    cosine_score,
    format_roc,
    format_scores,
    parse_roc,
    parse_scores,
    parse_trials,
    roc_svg,
    score_trials,
    sweep_rates,
)
from unitcat.tdnn import average_embeddings

WORKED = ScoreSet(
    np.array([0.9, 0.7, 0.6, 0.2, 0.8, 0.3, 0.1, 0.05]),
    np.array([True, True, True, True, False, False, False, False]),
)


def _points(roc):
    """A (thresholds, far, frr) sweep as (threshold, far, frr) tuples."""
    return list(zip(*(column.tolist() for column in roc)))


def _brute_force_eer(scores, labels):
    """Polyline crossing of directly counted FAR/FRR, plain Python."""
    targets = [s for s, keep in zip(scores, labels) if keep]
    nontargets = [s for s, keep in zip(scores, labels) if not keep]

    def far(t):
        return sum(1 for s in nontargets if s >= t) / len(nontargets)

    def frr(t):
        return sum(1 for s in targets if s < t) / len(targets)

    grid = [-math.inf, *sorted(set(scores)), math.inf]
    for t0, t1 in zip(grid, grid[1:]):
        d0 = far(t0) - frr(t0)
        d1 = far(t1) - frr(t1)
        if d0 >= 0 >= d1:
            if d0 == d1 == 0.0:
                return frr(t0)
            alpha = d0 / (d0 - d1)
            return far(t0) + alpha * (far(t1) - far(t0))
    raise AssertionError("no crossing")


def _brute_force_min_dcf(scores, labels, p_target, c_miss=1.0, c_fa=1.0):
    targets = [s for s, keep in zip(scores, labels) if keep]
    nontargets = [s for s, keep in zip(scores, labels) if not keep]
    best = (math.inf, None)
    for t in [-math.inf, *sorted(set(scores)), math.inf]:
        far = sum(1 for s in nontargets if s >= t) / len(nontargets)
        frr = sum(1 for s in targets if s < t) / len(targets)
        cost = c_miss * p_target * frr + c_fa * (1.0 - p_target) * far
        if cost < best[0]:
            best = (cost, t)
    return best[0] / min(c_miss * p_target, c_fa * (1.0 - p_target)), best[1]


# --- cosine -----------------------------------------------------------------


def test_cosine_examples():
    assert cosine_score(np.array([1.0, 0.0]), np.array([1.0, 1.0])) == pytest.approx(
        0.70710678118654746, abs=1e-12
    )
    assert cosine_score(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0
    assert cosine_score(np.array([2.0, 0.0]), np.array([-5.0, 0.0])) == -1.0
    v = np.array([3.0, -1.0, 2.0])
    assert cosine_score(v, v) == pytest.approx(1.0, abs=1e-15)
    assert cosine_score(v, 7.5 * v) == pytest.approx(1.0, abs=1e-15)


def test_cosine_zero_vector_rejected():
    with pytest.raises(ScoringError, match="zero-norm"):
        cosine_score(np.zeros(3), np.ones(3))


def test_cosine_clipped_to_unit_interval():
    a = np.array([1e-200, 1.0])
    assert -1.0 <= cosine_score(a, a) <= 1.0


# --- sweep ------------------------------------------------------------------


def test_sweep_has_sentinels_and_sorted_thresholds():
    points = _points(sweep_rates(WORKED))
    thresholds = [t for t, _, _ in points]
    assert thresholds[0] == -math.inf
    assert thresholds[-1] == math.inf
    assert thresholds == sorted(thresholds)
    assert len(points) == 8 + 2  # 8 distinct scores
    assert points[0][1:] == (1.0, 0.0)
    assert points[-1][1:] == (0.0, 1.0)


def test_sweep_rates_worked_values():
    rates = {t: (fa, fr) for t, fa, fr in _points(sweep_rates(WORKED))}
    assert rates[0.6] == (0.25, 0.25)
    assert rates[0.9] == (0.0, 0.75)
    assert rates[0.05] == (1.0, 0.0)


def test_sweep_rates_monotone():
    points = _points(sweep_rates(WORKED))
    fars = [fa for _, fa, _ in points]
    frrs = [fr for _, _, fr in points]
    assert fars == sorted(fars, reverse=True)
    assert frrs == sorted(frrs)


def test_sweep_requires_both_classes():
    with pytest.raises(ScoringError, match="nontarget"):
        sweep_rates(ScoreSet(np.array([0.5, 0.6]), np.array([True, True])))


def test_scoreset_shape_mismatch():
    with pytest.raises(ScoringError, match="labels"):
        ScoreSet(np.zeros(3), np.array([True, False]))


# --- EER ----------------------------------------------------------------------


def test_eer_worked_example():
    eer, threshold = compute_eer(WORKED)
    assert eer == pytest.approx(0.25, abs=1e-12)
    # both rates hit 0.25 on [0.3, 0.6]; the sweep lands on its upper end
    assert threshold == pytest.approx(0.6, abs=1e-12)


def test_eer_separable_is_zero():
    s = ScoreSet(
        np.array([0.9, 0.8, 0.7, 0.2, 0.1]),
        np.array([True, True, True, False, False]),
    )
    eer, threshold = compute_eer(s)
    assert eer == 0.0
    assert 0.2 < threshold <= 0.7


def test_eer_all_equal_scores_is_half():
    s = ScoreSet(np.full(6, 0.5), np.array([True, False] * 3))
    eer, threshold = compute_eer(s)
    assert eer == pytest.approx(0.5)
    assert threshold == 0.5


def test_eer_interpolates_between_grid_points():
    # 1 target at 0.4, 3 nontargets above and below force a fractional EER
    s = ScoreSet(
        np.array([0.4, 0.3, 0.5, 0.6]), np.array([True, False, False, False])
    )
    eer, _ = compute_eer(s)
    assert eer == pytest.approx(_brute_force_eer(s.scores.tolist(), s.is_target.tolist()), abs=1e-12)
    assert 0.0 < eer < 1.0


def test_eer_matches_brute_force_on_random_sets():
    rng = np.random.default_rng(7)
    for trial in range(300):
        n = int(rng.integers(2, 60))
        scores = np.round(rng.normal(size=n), 2)  # rounding forces ties
        labels = rng.integers(0, 2, size=n).astype(bool)
        if labels.all() or not labels.any():
            labels[0] = True
            labels[-1] = False
        s = ScoreSet(scores, labels)
        got, _ = compute_eer(s)
        want = _brute_force_eer(scores.tolist(), labels.tolist())
        assert abs(got - want) < 1e-9, (trial, got, want)


# --- minDCF ---------------------------------------------------------------------


def test_min_dcf_worked_example():
    dcf, threshold = compute_min_dcf(WORKED, p_target=0.01)
    assert dcf == pytest.approx(0.75, abs=1e-12)
    assert threshold == 0.9


def test_min_dcf_all_equal_scores_is_one():
    s = ScoreSet(np.full(6, 0.5), np.array([True, False] * 3))
    dcf, _ = compute_min_dcf(s, p_target=0.01)
    assert dcf == pytest.approx(1.0)


def test_min_dcf_separable_is_zero():
    s = ScoreSet(
        np.array([0.9, 0.8, 0.2, 0.1]), np.array([True, True, False, False])
    )
    dcf, threshold = compute_min_dcf(s)
    assert dcf == 0.0
    assert 0.2 < threshold <= 0.8


def test_min_dcf_tie_prefers_lower_threshold():
    # separable with a gap: every threshold in (0.2, 0.8] costs zero; the
    # sweep contains 0.8 only after 0.2, so the first zero wins
    s = ScoreSet(np.array([0.9, 0.8, 0.2, 0.1]), np.array([True, True, False, False]))
    _, threshold = compute_min_dcf(s)
    assert threshold == 0.8


def test_min_dcf_matches_brute_force_exactly():
    rng = np.random.default_rng(8)
    for _ in range(300):
        n = int(rng.integers(2, 60))
        scores = np.round(rng.normal(size=n), 2)
        labels = rng.integers(0, 2, size=n).astype(bool)
        if labels.all() or not labels.any():
            labels[0] = True
            labels[-1] = False
        p_target = float(rng.choice([0.5, 0.1, 0.01]))
        s = ScoreSet(scores, labels)
        got_cost, got_t = compute_min_dcf(s, p_target)
        want_cost, want_t = _brute_force_min_dcf(scores.tolist(), labels.tolist(), p_target)
        assert got_cost == want_cost
        assert got_t == want_t


def test_min_dcf_parameter_gates():
    with pytest.raises(ScoringError, match="p_target"):
        compute_min_dcf(WORKED, p_target=0.0)
    with pytest.raises(ScoringError, match="p_target"):
        compute_min_dcf(WORKED, p_target=1.0)
    with pytest.raises(ScoringError, match="costs"):
        compute_min_dcf(WORKED, c_miss=0.0)


@pytest.mark.parametrize("cost", ["c_miss", "c_fa"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_costs_must_be_finite(cost, value):
    with pytest.raises(ScoringError, match="costs must be finite and positive"):
        compute_det_metrics(WORKED, **{cost: value})
    with pytest.raises(ScoringError, match="costs"):
        compute_min_dcf(WORKED, **{cost: value})


def test_det_metrics_bundle():
    m = compute_det_metrics(WORKED, p_target=0.01)
    assert m.eer == pytest.approx(0.25)
    assert m.min_dcf == pytest.approx(0.75)
    assert _points(m.roc) == _points(sweep_rates(WORKED))


@settings(max_examples=60)
@given(
    st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=20),
    st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=20),
    st.floats(min_value=0.01, max_value=10.0),
    st.floats(min_value=-10.0, max_value=10.0),
)
def test_eer_invariant_under_increasing_affine_maps(targets, nontargets, a, b):
    # scores on a 0.1 grid so the affine map cannot collapse distinct values
    scores = np.array(targets + nontargets) / 10.0
    labels = np.array([True] * len(targets) + [False] * len(nontargets))
    eer1, _ = compute_eer(ScoreSet(scores, labels))
    eer2, _ = compute_eer(ScoreSet(a * scores + b, labels))
    assert eer1 == pytest.approx(eer2, abs=1e-9)
    assert 0.0 <= eer1 <= 1.0


@settings(max_examples=60)
@given(
    st.lists(st.floats(min_value=-5, max_value=5), min_size=1, max_size=15),
    st.lists(st.floats(min_value=-5, max_value=5), min_size=1, max_size=15),
)
def test_min_dcf_stays_in_unit_interval(targets, nontargets):
    scores = np.array(targets + nontargets)
    labels = np.array([True] * len(targets) + [False] * len(nontargets))
    dcf, _ = compute_min_dcf(ScoreSet(scores, labels), p_target=0.01)
    assert 0.0 <= dcf <= 1.0 + 1e-12


# --- trial scoring -----------------------------------------------------------


def test_score_trials_self_trial_is_one():
    emb = {"a": [np.array([1.0, 2.0, 3.0])]}
    s = score_trials(parse_trials(["a a target"]), emb)
    assert s.scores[0] == pytest.approx(1.0, abs=1e-15)
    assert bool(s.is_target[0]) is True


def test_score_trials_multi_record_ids_average():
    emb = {
        "multi": [np.array([1.0, 0.0]), np.array([0.0, 1.0])],
        "probe": [np.array([1.0, 1.0])],
    }
    s = score_trials(parse_trials(["multi probe target"]), emb)
    # averaged enrollment [0.5, 0.5] is parallel to the probe
    assert s.scores[0] == pytest.approx(1.0, abs=1e-12)


def test_score_trials_missing_id_names_trial():
    with pytest.raises(ScoringError, match="trial 2"):
        score_trials(
            parse_trials(["a a target", "a ghost nontarget"]),
            {"a": [np.array([1.0, 0.0])]},
        )


def test_score_trials_empty():
    s = score_trials(parse_trials([]), {})
    assert len(s) == 0



def test_score_trials_matches_cosine_score_across_blocks():
    rng = np.random.default_rng(11)
    emb = {
        f"u{i}": [rng.standard_normal((1, 16)) for _ in range(1 + i % 3)] for i in range(50)
    }
    ids = list(emb)
    n = 2 * SCORE_BLOCK + 37
    lines = [
        f"{ids[rng.integers(50)]} {ids[rng.integers(50)]} {('nontarget', 'target')[rng.integers(2)]}"
        for _ in range(n)
    ]
    s = score_trials(parse_trials(lines), emb)
    averaged = {u: average_embeddings([r.reshape(-1) for r in recs]) for u, recs in emb.items()}
    trials = [line.split() for line in lines]
    want = [cosine_score(averaged[enroll], averaged[test]) for enroll, test, _ in trials]
    assert np.max(np.abs(s.scores - np.asarray(want))) <= 1e-12
    assert s.is_target.tolist() == [label == "target" for _, _, label in trials]


def test_score_trials_missing_id_in_a_later_block_names_its_trial():
    emb = {"a": [np.array([1.0, 0.0])], "b": [np.array([0.0, 1.0])]}
    trials = parse_trials(["a b nontarget"] * (SCORE_BLOCK + 5) + ["b ghost nontarget"])
    with pytest.raises(ScoringError, match=f"trial {SCORE_BLOCK + 6}: no embedding for id 'ghost'"):
        score_trials(trials, emb)


def test_score_trials_zero_norm_names_id_and_first_trial():
    emb = {
        "a": [np.array([1.0, 0.0])],
        "b": [np.array([0.0, 1.0])],
        # two records that cancel: the averaged embedding is zero
        "flat": [np.array([1.0, -1.0]), np.array([-1.0, 1.0])],
    }
    trials = ["a b nontarget", "b a nontarget", "a flat target", "flat b nontarget"]
    with pytest.raises(ScoringError, match="trial 3: id 'flat' has a zero-norm embedding"):
        score_trials(parse_trials(trials), emb)


def test_score_trials_names_an_embedding_of_another_width():
    emb = {"a": [np.ones(4)], "b": [np.ones(4)], "short": [np.ones(3)]}
    message = "trial 2: id 'short' has a 3-dim embedding, others have 4"
    with pytest.raises(ScoringError, match=message):
        score_trials(parse_trials(["a b target", "short a nontarget"]), emb)


def test_score_trials_names_an_id_whose_records_differ_in_width():
    emb = {"b": [np.ones(4)], "a": [np.ones(4), np.ones(3)]}
    message = r"trial 2: id 'a' has records of different widths \(3, 4\)"
    with pytest.raises(ScoringError, match=message):
        score_trials(parse_trials(["b b target", "b a nontarget"]), emb)


def _brute_force_det(scores, labels, p_target):
    """Per-threshold loop over directly counted rates: the sweep, the EER
    with its threshold, and the first minimum-cost threshold."""
    targets = [s for s, keep in zip(scores, labels) if keep]
    nontargets = [s for s, keep in zip(scores, labels) if not keep]
    roc = []
    for t in [-math.inf, *sorted(set(scores)), math.inf]:
        far = sum(1 for s in nontargets if s >= t) / len(nontargets)
        frr = sum(1 for s in targets if s < t) / len(targets)
        roc.append((t, far, frr))
    eer = None
    for (t0, far0, frr0), (t1, far1, frr1) in zip(roc, roc[1:]):
        d0, d1 = far0 - frr0, far1 - frr1
        if d0 >= 0 >= d1:
            if d0 == d1 == 0.0:
                eer = (frr0, t0)
            else:
                alpha = d0 / (d0 - d1)
                if math.isinf(t0) or math.isinf(t1):
                    threshold = t1 if math.isinf(t0) else t0
                else:
                    threshold = t0 + alpha * (t1 - t0)
                eer = (far0 + alpha * (far1 - far0), threshold)
            break
    costs = [p_target * frr + (1.0 - p_target) * far for _, far, frr in roc]
    best = min(costs)
    first = costs.index(best)
    dcf = (best / min(p_target, 1.0 - p_target), roc[first][0])
    return roc, eer, dcf, costs.count(best) > 1


def test_det_arrays_match_brute_force_loop_with_tied_scores_and_costs():
    rng = np.random.default_rng(12)
    tied_costs = 0
    for trial in range(300):
        n = int(rng.integers(2, 40))
        scores = np.round(rng.normal(size=n), 1)  # coarse rounding forces ties
        labels = np.zeros(n, dtype=bool)
        labels[: n // 2] = True
        rng.shuffle(labels)
        if labels.all() or not labels.any():
            labels[0], labels[-1] = True, False
        p_target = 0.5 if trial % 2 else 0.01  # 0.5 weighs FAR and FRR alike: tied costs
        roc, eer, dcf, tied = _brute_force_det(scores.tolist(), labels.tolist(), p_target)
        tied_costs += tied
        s = ScoreSet(scores, labels)
        assert _points(sweep_rates(s)) == roc
        assert compute_eer(s) == pytest.approx(eer, abs=1e-12)
        assert compute_min_dcf(s, p_target) == pytest.approx(dcf, abs=1e-12)
        m = compute_det_metrics(s, p_target)
        assert (m.eer, m.eer_threshold) == compute_eer(s)
        assert (m.min_dcf, m.dcf_threshold) == compute_min_dcf(s, p_target)
        assert _points(m.roc) == roc
    assert tied_costs >= 20

# --- text formats ---------------------------------------------------------------


def test_parse_trials_and_errors():
    trials = parse_trials(io.StringIO("e1 t1 target\n\nt1 e2 nontarget\n"))
    assert len(trials) == 2
    assert trials.ids == ["e1", "t1", "e2"]  # in order of first use
    assert trials.pairs.tolist() == [[0, 1], [1, 2]]
    assert trials.is_target.tolist() == [True, False]
    with pytest.raises(ScoringError, match="line 1"):
        parse_trials(io.StringIO("e1 t1\n"))
    with pytest.raises(ScoringError, match="line 3: label"):
        parse_trials(io.StringIO("e1 t1 target\n\ne1 t1 maybe\n"))


def test_scores_roundtrip():
    trials = parse_trials(["e1 t1 target", "e2 t2 nontarget"])
    s = ScoreSet(np.array([0.123456789012345678, -0.5]), np.array([True, False]))
    out = io.StringIO()
    format_scores(trials, s, out)
    assert out.getvalue() == "e1 t1 0.12345678901234568 target\ne2 t2 -0.5 nontarget\n"
    back = parse_scores(io.StringIO(out.getvalue()))
    assert np.array_equal(back.scores, s.scores)
    assert np.array_equal(back.is_target, s.is_target)


def test_parse_scores_errors():
    with pytest.raises(ScoringError, match="4 fields"):
        parse_scores(["a b 0.5"])
    with pytest.raises(ScoringError, match="bad score"):
        parse_scores(["a b x target"])
    with pytest.raises(ScoringError, match="bad label"):
        parse_scores(["a b 0.5 yes"])


@pytest.mark.parametrize("score", ["nan", "inf", "-inf", "NaN"])
def test_parse_scores_refuses_a_non_finite_score_naming_its_line(score):
    with pytest.raises(ScoringError, match=rf"line 2: non-finite score '{score}'"):
        parse_scores(io.StringIO(f"a b 0.5 target\na c {score} nontarget\nb c 0.1 nontarget\n"))


@pytest.mark.parametrize("number", ["1_0", "0.5_5", "\u0661"])
def test_parsers_refuse_digit_separators_and_non_ascii_digits_naming_the_line(number):
    # float() reads '1_0' as 10.0 and Arabic-Indic '\u0661' as 1.0
    with pytest.raises(ScoringError, match=f"scores line 2: bad score '{number}'"):
        parse_scores(io.StringIO(f"a b 0.5 target\na c {number} nontarget\n"))
    with pytest.raises(ScoringError, match="roc line 3: bad number"):
        parse_roc(io.StringIO(f"threshold\tfar\tfrr\n0.5\t0.1\t0.9\n0.4\t{number}\t0.8\n"))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_det_metrics_refuse_non_finite_scores(bad):
    scores = ScoreSet(np.array([0.9, bad, 0.1, 0.2]), np.array([True, True, False, False]))
    with pytest.raises(ScoringError, match="1 of 4 scores are not finite"):
        compute_det_metrics(scores)


def test_format_roc_header_and_rows():
    text = format_roc(sweep_rates(WORKED))
    lines = text.splitlines()
    assert lines[0] == "threshold\tfar\tfrr"
    assert len(lines) == 1 + 10
    assert lines[1].startswith("-inf\t1\t0")


def test_parse_roc_reads_format_roc_back_exactly():
    rng = np.random.default_rng(4)
    labels = rng.random(200) < 0.4
    roc = sweep_rates(ScoreSet(rng.normal(size=200) + labels, labels))
    assert _points(parse_roc(io.StringIO(format_roc(roc)))) == _points(roc)
    assert _points(parse_roc([])) == []
    assert _points(parse_roc(["0.5\t0.25\t0.75", ""])) == [(0.5, 0.25, 0.75)]  # header optional


def test_parse_roc_errors_name_the_line():
    header = "threshold\tfar\tfrr\n"
    with pytest.raises(ScoringError, match="roc line 3: expected 3 fields, got 2"):
        parse_roc(io.StringIO(header + "0.5\t0.1\t0.9\n0.4\t0.2\n"))
    with pytest.raises(ScoringError, match="roc line 2: bad number"):
        parse_roc(io.StringIO(header + "0.5\tx\t0.9\n"))
    # only a first line may be the header
    with pytest.raises(ScoringError, match="roc line 2: bad number"):
        parse_roc(io.StringIO(header + header))


def test_roc_svg_is_wellformed_xml():
    svg = roc_svg(sweep_rates(WORKED), title="toy det")
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    assert "polyline" in svg
    assert "toy det" in svg
    assert "false alarm rate" in svg


def _polyline_points(svg):
    return ET.fromstring(svg).find("{http://www.w3.org/2000/svg}polyline").get("points")


def test_roc_svg_draws_the_det_staircase_through_its_corners():
    # nontargets 0.1, 0.5 and targets 0.3, 0.7, 0.9: by FAR ascending and FRR
    # descending the sweep runs (0,1) (0,2/3) (0,1/3) (.5,1/3) (.5,0) (1,0) (1,0)
    roc = sweep_rates(ScoreSet([0.1, 0.5, 0.3, 0.7, 0.9], [False, False, True, True, True]))
    assert _polyline_points(roc_svg(roc)) == (
        "45.00,45.00 45.00,251.67 200.00,251.67 200.00,355.00 355.00,355.00"
    )
    # a sweep read back from a file in any line order draws the same
    shuffled = tuple(column[[3, 0, 6, 2, 5, 1, 4]] for column in roc)
    assert roc_svg(shuffled) == roc_svg(roc)
    # points that differ by less than the printed 0.01 px count as one
    far, frr = np.array([0.0, 1e-5, 1e-5, 0.5, 1.0]), np.array([1.0, 1.0, 0.5, 0.0, 0.0])
    assert _polyline_points(roc_svg((np.arange(5.0), far, frr))) == (
        "45.00,45.00 45.00,200.00 200.00,355.00 355.00,355.00"
    )
    # separated scores (EER 0) leave the two axes' corner, however many trials
    separated = ScoreSet(np.arange(2000.0), np.arange(2000) >= 1000)
    assert _polyline_points(roc_svg(sweep_rates(separated))) == (
        "45.00,45.00 45.00,355.00 355.00,355.00"
    )
