"""End-to-end evaluation: fit the operating point, score every method,
build rejection curves and prediction rejection ratios.

The operating threshold is fitted on the test split's non-mated acceptance
scores at the requested FPIR, converted to an equivalent gallery
concentration, and then every probe is decided once under that model. All
methods therefore start from the same decisions and the same base metrics;
they differ only in how they order probes for rejection.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

from . import baselines, holistic, metrics, vmf
from .gallery import (GalleryModel, cosines, decision_index, galue_score, kappa_for_threshold,
                      row_blocks, softmax_given, terms_from_cosines)
from .holistic import KlComponents, fit_mlp, fit_stats, kl_from_terms, normalize, self_log_density
from .metrics import EvalReport, MethodReport
from .protocol import OsrProtocol, ProbeTable


class MissingValidationError(ValueError):
    """A validation-fitted method was requested but the validation split is empty."""


@contextmanager
def _stage(name: str):
    """Tag a ValueError raised inside with the evaluation stage it came from."""
    try:
        yield
    except ValueError as exc:
        if getattr(exc, "stage", None) is None:
            exc.stage = name
        raise


def _require(condition: bool, exc_type, message: str):
    if not condition:
        raise exc_type(message)


def _quality(probes: ProbeTable, rows: np.ndarray, field: str, method: str, score=None) -> np.ndarray:
    """One quality column at ``rows``, for a method that needs it; with ``score``,
    that row-wise score of it, applied a block of rows at a time."""
    present = getattr(probes, "has_" + field)[rows]
    if not present.all():
        raise ValueError(f"probe {probes.ids[rows][~present][0]} has no {field} for {method}")
    column = getattr(probes, field)
    if score is None:
        return column[rows]
    # blocks keep the temporaries of a (N, d) column small
    return np.concatenate([score(column[rows[block]]) for block in row_blocks(len(rows), column[0].size)])


def _score(model: GalleryModel, probes: ProbeTable, rows: np.ndarray, temperature: float, components: bool):
    """Best cosine, decided class index (-1 rejects), GalUE and, when asked for,
    KlComponents of the probes at ``rows``, gathered and scored a block of rows at a time."""
    n = len(rows)
    best, galue, kl1, kl2 = (np.empty(n) for _ in range(4))
    decided = np.empty(n, dtype=np.intp)
    if components:
        log_self = self_log_density(model.gallery.d, _quality(probes, rows, "kappa", "HolUE methods"))
    for block in row_blocks(n, model.gallery.k + 1):
        cos = cosines(model.gallery, probes.means[rows[block]])
        terms = terms_from_cosines(model, cos)
        log_marg = vmf.logsumexp(terms, keepdims=True)  # one logsumexp serves the posterior and kl2
        probs = softmax_given(terms, log_marg)
        best[block] = cos.max(axis=1)
        decided[block] = decision_index(probs)
        galue[block] = galue_score(probs)
        if components:
            kl1[block], kl2[block] = kl_from_terms(model, terms, log_marg[:, 0], log_self[block], temperature)
    return best, decided, galue, (KlComponents(kl1, kl2) if components else None)


def check_arguments(target_fpir: float, methods, temperature: float, beta: float,
                    max_reject_fraction: float, seed: int, stats_split: str) -> tuple:
    """Check every argument of run_evaluation that needs no protocol; return the methods as a tuple.

    The CLI runs it for each target before it reads the bundle.
    """
    methods = tuple(methods)
    available = ",".join(baselines.METHOD_NAMES)
    for i, m in enumerate(methods):
        _require(m in baselines.METHOD_NAMES, ValueError, f"unknown method {m!r}; available: {available}")
        _require(m not in methods[:i], ValueError, f"method {m!r} is given twice")
    _require(len(methods) > 0, ValueError, f"no method given; available: {available}")
    _require(0.0 < target_fpir < 1.0, ValueError, f"target_fpir must be in (0, 1), got {target_fpir!r}")
    _require(0.0 < temperature < math.inf, ValueError, f"temperature must be finite and > 0, got {temperature!r}")
    _require(0.0 < beta < 1.0, ValueError, f"beta must be in (0, 1), got {beta!r}")
    _require(0.0 < max_reject_fraction < 1.0, ValueError,
             f"max_reject_fraction must be in (0, 1), got {max_reject_fraction!r}")
    holistic.check_seed(seed)
    _require(stats_split in ("validation", "test"), ValueError,
             f"stats_split must be validation or test, got {stats_split!r}")
    return methods


def run_evaluation(
    protocol: OsrProtocol,
    target_fpir: float,
    methods=baselines.METHOD_NAMES,
    temperature: float = holistic.DEFAULT_TEMPERATURE,
    beta: float = 0.5,
    max_reject_fraction: float = 0.5,
    seed: int = 0,
    stats_split: str = "validation",
) -> EvalReport:
    """Evaluate every requested method on the test split of a protocol.

    A ValueError raised here carries a ``stage`` attribute naming the step
    that failed: arguments, operating point, scoring, calibration or
    training.
    """
    probes = protocol.probes
    validation, test = np.flatnonzero(probes.validation), np.flatnonzero(~probes.validation)
    with _stage("arguments"):  # cheap checks first, so a bad argument fails before any work
        methods = check_arguments(target_fpir, methods, temperature, beta, max_reject_fraction, seed, stats_split)
        if "HolUE" in methods and stats_split == "test" and len(validation):
            raise ValueError("HolUE trains on validation labels; stats_split='test' applies to HolUE-sum only")

    gal = protocol.gallery
    truth = probes.class_index[test]  # -1 for a non-mated probe
    n_mated_test = int((truth >= 0).sum())
    needs_components = "HolUE" in methods or "HolUE-sum" in methods
    with _stage("calibration"):
        if needs_components and stats_split == "validation":
            _require(len(validation) >= 2, MissingValidationError,
                     "validation split is empty but a validation-fitted method was requested")

    # operating point: threshold on test non-mated acceptance scores, then the
    # concentration whose posterior rule matches that threshold
    with _stage("operating point"):
        nonmated_test = test[truth < 0]
        _require(len(nonmated_test) > 0, ValueError, "test split has no non-mated probes")
        _require(n_mated_test > 0, ValueError, "test split has no mated probes")
        best_nonmated = [cosines(gal, probes.means[nonmated_test[block]]).max(axis=1)
                         for block in row_blocks(len(nonmated_test), gal.k + 1)]
        tau = metrics.threshold_for_fpir(np.concatenate(best_nonmated), target_fpir)
        kappa = kappa_for_threshold(tau, beta, gal.k, gal.d)
        model = GalleryModel(gallery=gal, kappa=kappa, beta=beta)

    with _stage("scoring"):
        best, decided, galue, components = _score(model, probes, test, temperature, needs_components)
        classes = metrics.outcome_classes(truth >= 0, decided >= 0, decided == truth)
        scores = {"AccScr": baselines.q_accscr(best, tau), "GalUE": galue}
        for name, field, quality in (("SCF", "kappa", baselines.q_scf),
                                     ("PFE", "pfe_sigma2", baselines.q_pfe),
                                     ("SF", "sf_scale", baselines.q_sf)):
            if name in methods:
                scores[name] = _quality(probes, test, field, name, quality)

    if needs_components:
        with _stage("calibration"):
            if stats_split == "validation":
                _, val_decided, _, val_components = _score(model, probes, validation, temperature, True)
                stats = fit_stats(val_components)
            else:
                stats = fit_stats(components)
            _require("HolUE" not in methods or stats_split == "validation", MissingValidationError,
                     "validation split is empty but HolUE needs labeled validation probes")
            kl1n, kl2n = normalize(components, stats)
            scores["HolUE-sum"] = holistic.holue_sum(kl1n, kl2n)
        if "HolUE" in methods:
            with _stage("training"):
                val_truth = probes.class_index[validation]
                val_classes = metrics.outcome_classes(val_truth >= 0, val_decided >= 0, val_decided == val_truth)
                labels = metrics.decision_correct(val_classes).astype(np.float64)
                features = np.column_stack(normalize(val_components, stats))
                calibrator = fit_mlp(features, labels, seed=seed)
                scores["HolUE"] = holistic.mlp_predict(calibrator, kl1n, kl2n)

    tp, fn, fp, n_nonmated = metrics.class_counts(classes)
    fpir, fnir, f1 = metrics.osr_metrics(tp, fn, fp, n_nonmated)

    ids = probes.ids[test].astype(str)  # sorted as fixed-width text: faster than str objects
    oracle, random_curves = metrics.reference_curve_sets(classes, ids, max_fraction=max_reject_fraction, seed=seed)
    reference_curves = {m: {"oracle": oracle[m], "random": random_curves[m]} for m in metrics.METRIC_NAMES}
    reference_auc = {m: {"oracle": metrics.curve_auc(oracle[m]), "random": metrics.curve_auc(random_curves[m])}
                     for m in metrics.METRIC_NAMES}
    method_reports = {}
    for name in methods:
        curves = metrics.rejection_curves(classes, scores[name], ids, max_fraction=max_reject_fraction)
        method_reports[name] = MethodReport(curves=curves, auc={m: metrics.curve_auc(c) for m, c in curves.items()},
                                            prr=metrics.prr(curves["F1"], random_curves["F1"], oracle["F1"]))

    return EvalReport(
        target_fpir=float(target_fpir),
        tau=float(tau),
        kappa=float(kappa),
        beta=float(beta),
        base={"fpir": fpir, "fnir": fnir, "f1": f1},
        counts={
            "gallery": gal.k,
            "mated_test": n_mated_test,
            "nonmated_test": len(nonmated_test),
            "validation": len(validation),
            "tp": tp, "fn": fn, "fp": fp,
        },
        methods=method_reports,
        reference_curves=reference_curves,
        reference_auc=reference_auc,
    )
