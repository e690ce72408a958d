"""Open-set identification metrics and risk-controlled rejection curves.

A mated probe counts as TP only when it is accepted with the correct class;
everything else mated is FN (misidentifications included). A non-mated probe
counts as FP when accepted. Rejection curves drop the lowest-confidence
fraction of probes at a fixed operating threshold and re-evaluate the metric
on what remains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gallery import Decision

METRIC_NAMES = ("F1", "FPIR", "FNIR")


class UndefinedPrrError(ValueError):
    """Oracle and random references coincide, so the ratio is undefined."""


class CurveTruncationError(ValueError):
    """A requested rejection fraction leaves no probes to evaluate."""


# Outcome classes of a probe under its fixed decision.
TP, FN, FP, TN = range(4)


def outcome_classes(mated, accepted, correct) -> np.ndarray:
    """TP / FN / FP / TN per probe; the one definition of the open-set outcome.

    correct says the accepted class is the probe's own; it only matters for
    mated probes.
    """
    mated, accepted, correct = (np.asarray(a, dtype=bool) for a in (mated, accepted, correct))
    return np.where(mated, np.where(accepted & correct, TP, FN), np.where(accepted, FP, TN))


def decision_correct(classes) -> np.ndarray:
    """True where the decision is right (TP or TN), False where it is an error."""
    return np.isin(classes, (TP, TN))


@dataclass(frozen=True)
class ProbeOutcome:
    """One scored probe: ground truth, fixed decision, per-method confidences."""

    probe_id: str
    true_class: str | None  # None marks a non-mated probe
    decision: Decision
    scores: dict

    @property
    def mated(self) -> bool:
        return self.true_class is not None

    @property
    def error(self) -> bool:
        return not decision_correct(classify([self]))[0]


def classify(outcomes) -> np.ndarray:
    """Outcome classes of a sequence of ProbeOutcome."""
    return outcome_classes([o.mated for o in outcomes], [o.decision.accepted for o in outcomes],
                           [o.decision.class_id == o.true_class for o in outcomes])


def class_counts(classes: np.ndarray) -> tuple[int, int, int, int]:
    """(TP, FN, FP, non-mated) counts of an array of outcome classes."""
    tp, fn, fp, tn = (int(c) for c in np.bincount(classes, minlength=4))
    return tp, fn, fp, fp + tn


def confusion_counts(outcomes) -> tuple[int, int, int]:
    """(TP, FN, FP) over a collection of probe outcomes."""
    return class_counts(classify(list(outcomes)))[:3]


def _rates(tp, fn, fp, n_nonmated):
    """(FPIR, FNIR, F1) from count arrays; degenerate denominators yield 0."""
    tp, fn, fp, nm = (np.asarray(c, dtype=np.float64) for c in (tp, fn, fp, n_nonmated))
    with np.errstate(divide="ignore", invalid="ignore"):
        fpir = np.where(nm > 0, fp / nm, 0.0)
        fnir = np.where(fn + tp > 0, fn / (fn + tp), 0.0)
        precision = tp / (tp + fp)
        recall = tp / (tp + fn)
        f1 = np.where(tp > 0, 2.0 * precision * recall / (precision + recall), 0.0)
    return fpir, fnir, f1


def osr_metrics(tp: int, fn: int, fp: int, n_nonmated: int) -> tuple[float, float, float]:
    """(FPIR, FNIR, F1); degenerate denominators yield 0 by convention."""
    if min(tp, fn, fp, n_nonmated) < 0:
        raise ValueError("counts must be non-negative")
    if fp > n_nonmated:
        raise ValueError("more false positives than non-mated probes")
    return tuple(float(v) for v in _rates(tp, fn, fp, n_nonmated))


def threshold_for_fpir(nonmated_scores, target_fpir: float) -> float:
    """Operating threshold hitting target FPIR up to floor granularity.

    With k = floor(target * N) the threshold is the midpoint between the k-th
    and (k+1)-th largest non-mated scores, so exactly k scores land at or
    above it. target 0 gives a value strictly above the maximum; k == N gives
    a value strictly below the minimum.
    """
    scores = np.sort(np.asarray(nonmated_scores, dtype=np.float64))[::-1]
    n = scores.shape[0]
    if n < 1:
        raise ValueError("need at least one non-mated score")
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    if not 0.0 <= target_fpir <= 1.0:
        raise ValueError(f"target FPIR must be in [0, 1], got {target_fpir!r}")
    k = math.floor(target_fpir * n)
    if k <= 0:
        return float(np.nextafter(scores[0], np.inf))
    if k >= n:
        return float(np.nextafter(scores[-1], -np.inf))
    return float(0.5 * (scores[k - 1] + scores[k]))


@dataclass(frozen=True)
class RejectionCurve:
    """Metric values on a uniform grid of rejected fractions."""

    fractions: np.ndarray
    values: np.ndarray
    metric: str

    def __post_init__(self):
        object.__setattr__(self, "fractions", np.asarray(self.fractions, dtype=np.float64))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        if self.fractions.shape != self.values.shape or self.fractions.ndim != 1:
            raise ValueError("fractions and values must be 1-d arrays of equal length")
        if self.metric not in METRIC_NAMES:
            raise ValueError(f"unknown metric {self.metric!r}")


def _drop_grid(n: int, max_fraction: float, n_points: int) -> tuple[np.ndarray, np.ndarray]:
    """The rejected fractions and how many probes each one removes."""
    if n < 1:
        raise ValueError("need at least one probe outcome")
    if not 0.0 < max_fraction <= 1.0:
        raise ValueError(f"max_fraction must be in (0, 1], got {max_fraction!r}")
    if n_points < 2:
        raise ValueError(f"need at least 2 grid points, got {n_points!r}")
    fractions = np.linspace(0.0, max_fraction, n_points)
    drops = np.floor(fractions * n).astype(np.intp)
    if drops[-1] >= n:
        raise CurveTruncationError(f"fraction {fractions[np.argmax(drops >= n)]} removes every probe")
    return fractions, drops


def _curve_from_order(classes: np.ndarray, order: np.ndarray, drops: np.ndarray) -> dict:
    """Every metric at each drop count of one removal order, from one cumsum of its classes."""
    removed = np.zeros((classes.shape[0] + 1, 4), dtype=np.int64)
    np.cumsum(classes[order][:, None] == np.arange(4), axis=0, out=removed[1:])
    kept = removed[-1] - removed[drops]
    fpir, fnir, f1 = _rates(kept[:, TP], kept[:, FN], kept[:, FP], kept[:, FP] + kept[:, TN])
    return {"F1": f1, "FPIR": fpir, "FNIR": fnir}


def rejection_curves(classes, scores, probe_ids, max_fraction: float = 0.5,
                     n_points: int = 101) -> dict:
    """Curves of every metric, dropping the lowest-score probes first.

    Probes are removed in ascending (score, probe_id) order; at fraction r the
    floor(r*N) lowest are gone and the metric is recomputed on the rest.
    Decisions stay fixed.
    """
    classes = np.asarray(classes)
    fractions, drops = _drop_grid(classes.shape[0], max_fraction, n_points)
    order = np.lexsort((np.asarray(probe_ids), np.asarray(scores, dtype=np.float64)))
    return _curves(fractions, _curve_from_order(classes, order, drops))


def reference_curve_sets(classes, probe_ids, max_fraction: float = 0.5, n_points: int = 101,
                         n_shuffles: int = 100, seed: int = 0) -> tuple[dict, dict]:
    """(oracle, random) reference curves of every metric on the same grid.

    The oracle removes erroneous probes first (ties by probe_id); the random
    reference averages the curve over seeded shuffles of the removal order.
    """
    classes = np.asarray(classes)
    n = classes.shape[0]
    fractions, drops = _drop_grid(n, max_fraction, n_points)
    if n_shuffles < 1:
        raise ValueError("need at least one shuffle")
    errors_first = np.lexsort((np.asarray(probe_ids), decision_correct(classes)))
    oracle = _curve_from_order(classes, errors_first, drops)

    total = {metric: np.zeros(n_points) for metric in METRIC_NAMES}
    for s in range(n_shuffles):
        order = np.random.default_rng([int(seed), s]).permutation(n)
        for metric, values in _curve_from_order(classes, order, drops).items():
            total[metric] += values
    return _curves(fractions, oracle), _curves(fractions, {m: v / n_shuffles for m, v in total.items()})


def _curves(fractions: np.ndarray, values: dict) -> dict:
    return {m: RejectionCurve(fractions=fractions, values=values[m], metric=m) for m in METRIC_NAMES}


def _check_metric(metric: str):
    if metric not in METRIC_NAMES:
        raise ValueError(f"unknown metric {metric!r}")


def rejection_curve(outcomes, method: str, metric: str = "F1",
                    max_fraction: float = 0.5, n_points: int = 101) -> RejectionCurve:
    """One metric's rejection_curves for a list of ProbeOutcome scored by method."""
    outcomes = list(outcomes)
    _check_metric(metric)
    for out in outcomes:
        if method not in out.scores:
            raise ValueError(f"probe {out.probe_id} has no score for method {method!r}")
    return rejection_curves(classify(outcomes), [o.scores[method] for o in outcomes],
                            [o.probe_id for o in outcomes], max_fraction, n_points)[metric]


def reference_curves(outcomes, metric: str = "F1", max_fraction: float = 0.5,
                     n_points: int = 101, n_shuffles: int = 100,
                     seed: int = 0) -> tuple[RejectionCurve, RejectionCurve]:
    """One metric's (oracle, random) reference_curve_sets for a list of ProbeOutcome."""
    outcomes = list(outcomes)
    _check_metric(metric)
    oracle, random_curves = reference_curve_sets(
        classify(outcomes), [o.probe_id for o in outcomes], max_fraction, n_points, n_shuffles, seed)
    return oracle[metric], random_curves[metric]


def curve_auc(curve: RejectionCurve) -> float:
    """Trapezoidal area under a rejection curve."""
    return float(np.trapezoid(curve.values, curve.fractions))


def prr(curve: RejectionCurve, random_curve: RejectionCurve, oracle_curve: RejectionCurve) -> float:
    """Prediction rejection ratio: 1 matches the oracle, 0 matches random."""
    for other in (random_curve, oracle_curve):
        if other.metric != curve.metric or not np.array_equal(other.fractions, curve.fractions):
            raise ValueError("curves must share the same metric and fraction grid")
    auc = curve_auc(curve)
    auc_rand = curve_auc(random_curve)
    auc_oracle = curve_auc(oracle_curve)
    denom = auc_oracle - auc_rand
    if abs(denom) <= 1e-12 * max(1.0, abs(auc_oracle)):
        raise UndefinedPrrError("oracle and random references coincide; ratio undefined")
    return (auc - auc_rand) / denom


@dataclass
class MethodReport:
    """Per-method rejection curves, their areas, and the headline ratio."""

    curves: dict
    auc: dict
    prr: float | None


@dataclass
class EvalReport:
    """Everything produced by one evaluation at one target FPIR."""

    target_fpir: float
    tau: float
    kappa: float
    beta: float
    temperature: float
    base: dict
    counts: dict
    methods: dict = field(default_factory=dict)
    reference_curves: dict = field(default_factory=dict)
    reference_auc: dict = field(default_factory=dict)
    seeds: dict = field(default_factory=dict)
