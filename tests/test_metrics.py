import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from osruq import metrics as mt


def classes_of(rows):
    """Outcome classes of (true class or None, accepted class or None) rows."""
    return mt.outcome_classes([t is not None for t, _ in rows], [a is not None for _, a in rows],
                              [a == t for t, a in rows])


def hand_outcomes():
    """7 TP, 3 FN (reject / wrong class / reject), 1 FP among 4 non-mated: (classes, probe ids)."""
    rows = [(f"tp{i}", "a", "a") for i in range(7)]
    rows += [("fn0", "a", None), ("fn1", "b", "a"), ("fn2", "a", None), ("fp0", None, "a")]
    rows += [(f"tn{i}", None, None) for i in range(3)]
    return classes_of([r[1:] for r in rows]), [r[0] for r in rows]


def test_outcome_error_semantics():
    classes = classes_of([("a", "a"), ("b", "a"), ("a", None), (None, "a"), (None, None)])
    assert classes.tolist() == [mt.TP, mt.FN, mt.FN, mt.FP, mt.TN]
    assert mt.decision_correct(classes).tolist() == [True, False, False, False, True]


def test_confusion_counts_hand_case():
    classes, _ = hand_outcomes()
    assert mt.class_counts(classes) == (7, 3, 1, 4)


def test_osr_metrics_hand_case():
    fpir, fnir, f1 = mt.osr_metrics(7, 3, 1, 4)
    assert fpir == pytest.approx(0.25, abs=0)
    assert fnir == pytest.approx(0.3, abs=1e-15)
    assert f1 == pytest.approx(7.0 / 9.0, abs=1e-15)


def test_osr_metrics_degenerate_conventions():
    assert mt.osr_metrics(0, 5, 0, 3) == (0.0, 1.0, 0.0)
    fpir, fnir, f1 = mt.osr_metrics(2, 0, 0, 0)
    assert fpir == 0.0
    assert fnir == 0.0
    assert f1 == 1.0
    assert mt.osr_metrics(0, 0, 0, 0) == (0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        mt.osr_metrics(1, -1, 0, 2)
    with pytest.raises(ValueError):
        mt.osr_metrics(1, 0, 3, 2)


def test_threshold_for_fpir_midpoint():
    scores = [0.9, 0.7, 0.5, 0.3]
    assert mt.threshold_for_fpir(scores, 0.25) == pytest.approx(0.8)
    assert mt.threshold_for_fpir(scores, 0.5) == pytest.approx(0.6)
    tau = mt.threshold_for_fpir(scores, 0.0)
    assert tau > 0.9
    tau = mt.threshold_for_fpir(scores, 1.0)
    assert tau < 0.3
    with pytest.raises(ValueError):
        mt.threshold_for_fpir([], 0.1)
    with pytest.raises(ValueError):
        mt.threshold_for_fpir(scores, 1.5)
    with pytest.raises(ValueError):
        mt.threshold_for_fpir([0.1, float("nan")], 0.1)


@given(seed=st.integers(0, 2**31 - 1), target=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=100, deadline=None)
def test_threshold_hits_floor_count(seed, target):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 50))
    scores = rng.standard_normal(n)
    tau = mt.threshold_for_fpir(scores, target)
    assert int(np.sum(scores >= tau)) == math.floor(target * n)


def test_rejection_curve_validation():
    with pytest.raises(ValueError):
        mt.RejectionCurve(fractions=np.array([0.0, 0.5]), values=np.array([1.0]), metric="F1")
    with pytest.raises(ValueError):
        mt.RejectionCurve(fractions=np.zeros(2), values=np.zeros(2), metric="accuracy")
    with pytest.raises(ValueError):
        mt.rejection_curves([], [], [])


def brute_force_value(kept, drop, metric):
    """metric of the (true class, accepted class) rows left after dropping the first drop."""
    tp, fn, fp, n_nonmated = mt.class_counts(classes_of(kept[drop:]))
    fpir, fnir, f1 = mt.osr_metrics(tp, fn, fp, n_nonmated)
    return {"FPIR": fpir, "FNIR": fnir, "F1": f1}[metric]


@pytest.mark.parametrize("metric", ["F1", "FPIR", "FNIR"])
def test_rejection_curve_matches_brute_force(metric):
    rng = np.random.default_rng(13)
    rows, ids, scores = [], [], []
    for i in range(60):
        mated = rng.random() < 0.6
        accepted = rng.random() < 0.7
        cid = "a" if accepted else None
        true = ("a" if rng.random() < 0.8 else "b") if mated else None
        rows.append((true, cid))
        ids.append(f"p{i:03d}")
        scores.append(float(rng.standard_normal()))
    curve = mt.rejection_curves(classes_of(rows), scores, ids, max_fraction=0.5)[metric]
    ordered = [rows[j] for j in sorted(range(60), key=lambda j: (scores[j], ids[j]))]
    for r, v in zip(curve.fractions, curve.values):
        assert v == pytest.approx(brute_force_value(ordered, math.floor(r * 60), metric), abs=1e-12)


def test_rejection_curve_grid():
    classes, ids = hand_outcomes()
    curve = mt.rejection_curves(classes, np.zeros(len(ids)), ids, max_fraction=0.5)["F1"]
    assert curve.fractions.shape == (mt.CURVE_POINTS,) == (101,)
    assert curve.fractions[0] == 0.0
    assert curve.fractions[-1] == 0.5
    np.testing.assert_allclose(np.diff(curve.fractions), 0.005, atol=1e-15)


def test_rejection_curve_ties_break_by_probe_id():
    # b is a TP, a the false positive, c and d true rejections; all tie on score
    classes = classes_of([("a", "a"), (None, "a"), (None, None), (None, None)])
    fpir = mt.rejection_curves(classes, np.ones(4), ["b", "a", "c", "d"], max_fraction=0.5)["FPIR"]
    # at 25%, grid point 50, the probe with the lexicographically smallest id is removed
    assert fpir.fractions[50] == 0.25
    assert fpir.values[0] == fpir.values[49] == pytest.approx(1.0 / 3.0)
    assert fpir.values[50] == pytest.approx(0.0)


def test_curve_truncation_error():
    classes, ids = hand_outcomes()
    with pytest.raises(mt.CurveTruncationError):
        mt.rejection_curves(classes[:2], np.zeros(2), ids[:2], max_fraction=1.0)


def test_reference_curves_oracle_removes_errors_first():
    classes, ids = hand_outcomes()
    n_errors = int(np.sum(~mt.decision_correct(classes)))
    oracle = mt.reference_curve_sets(classes, ids, max_fraction=0.5)[0]["F1"]
    # once every error is rejected the F1 of the remainder is exactly 1
    for r, v in zip(oracle.fractions, oracle.values):
        if math.floor(r * len(ids)) >= n_errors:
            assert v == pytest.approx(1.0)
    assert oracle.values[0] == pytest.approx(7.0 / 9.0, abs=1e-15)


def test_reference_curves_random_is_deterministic():
    classes, ids = hand_outcomes()
    rand_a = mt.reference_curve_sets(classes, ids, seed=4)[1]["F1"]
    rand_b = mt.reference_curve_sets(classes, ids, seed=4)[1]["F1"]
    np.testing.assert_array_equal(rand_a.values, rand_b.values)
    rand_c = mt.reference_curve_sets(classes, ids, seed=5)[1]["F1"]
    assert not np.array_equal(rand_a.values, rand_c.values)


def test_curve_auc_trapezoid():
    curve = mt.RejectionCurve(fractions=np.array([0.0, 0.5]), values=np.array([0.0, 1.0]),
                              metric="F1")
    assert mt.curve_auc(curve) == pytest.approx(0.25)


def f1_references(classes, ids):
    oracle, rand = mt.reference_curve_sets(classes, ids)
    return oracle["F1"], rand["F1"]


def test_prr_endpoints():
    oracle, rand = f1_references(*hand_outcomes())
    assert mt.prr(oracle, rand, oracle) == pytest.approx(1.0)
    assert mt.prr(rand, rand, oracle) == pytest.approx(0.0)


def test_prr_grid_mismatch():
    a = mt.RejectionCurve(fractions=np.array([0.0, 0.5]), values=np.array([0.0, 1.0]), metric="F1")
    b = mt.RejectionCurve(fractions=np.array([0.0, 0.4]), values=np.array([0.0, 1.0]), metric="F1")
    c = mt.RejectionCurve(fractions=np.array([0.0, 0.5]), values=np.array([0.0, 1.0]), metric="FNIR")
    with pytest.raises(ValueError):
        mt.prr(a, b, a)
    with pytest.raises(ValueError):
        mt.prr(a, a, c)


def test_prr_undefined_when_no_errors():
    classes = classes_of([("a", "a")] * 6 + [(None, None)] * 4)
    oracle, rand = f1_references(classes, [f"p{i}" for i in range(6)] + [f"n{i}" for i in range(4)])
    with pytest.raises(mt.UndefinedPrrError):
        mt.prr(oracle, rand, oracle)
