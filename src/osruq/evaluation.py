"""End-to-end evaluation: fit the operating point, score every method,
build rejection curves and prediction rejection ratios.

The operating threshold is fitted on the test split's non-mated acceptance
scores at each requested FPIR and converted to an equivalent gallery
concentration; every probe's cosines are computed once and decided under each
target's model. At a target, all methods start from the same decisions and the
same base metrics; they differ only in how they order probes for rejection.
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
def _stage(name: str | None, target: float | None):
    """Tag a ValueError raised inside with its stage and target FPIR, where no inner block has."""
    try:
        yield
    except ValueError as exc:
        for attr, value in (("stage", name), ("target_fpir", target)):
            if getattr(exc, attr, None) is None:
                setattr(exc, attr, value)
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


def _score(models: dict, probes: ProbeTable, rows: np.ndarray, temperature: float, components: bool):
    """Best cosine of the probes at ``rows`` and, for each target FPIR of ``models`` (target:
    GalleryModel), their decided class index (-1 rejects), GalUE and, when asked for,
    KlComponents. Each block of rows is gathered and its cosines computed once for every model."""
    n, gal = len(rows), next(iter(models.values())).gallery
    best = np.empty(n)
    out = {target: (np.empty(n, dtype=np.intp), np.empty(n), np.empty(n), np.empty(n)) for target in models}
    if components:
        log_self = self_log_density(gal.d, _quality(probes, rows, "kappa", "HolUE methods"))
    for block in row_blocks(n, gal.k + 1):
        cos = cosines(gal, probes.means[rows[block]])
        best[block] = cos.max(axis=1)
        for (target, model), (decided, galue, kl1, kl2) in zip(models.items(), out.values()):
            with _stage(None, target):
                terms = terms_from_cosines(model, cos)
                log_marg = vmf.logsumexp(terms, keepdims=True)  # one logsumexp serves the posterior and kl2
                probs = softmax_given(terms, log_marg)
                decided[block] = decision_index(probs)
                galue[block] = galue_score(probs)
                if components:
                    kl1[block], kl2[block] = kl_from_terms(model, terms, log_marg[:, 0], log_self[block], temperature)
    for target, (decided, galue, kl1, kl2) in out.items():
        with _stage(None, target):
            out[target] = decided, galue, (KlComponents(kl1, kl2) if components else None)
    return best, out


def check_arguments(targets, methods, temperature: float, beta: float,
                    max_reject_fraction: float, seed: int, stats_split: str) -> tuple:
    """Check every argument of run_evaluations that needs no protocol; return the methods as a tuple.

    The CLI runs it before it reads the bundle. A ValueError is tagged with the target
    it concerns, or with the first target for a flag the targets share.
    """
    targets, methods = tuple(targets), tuple(methods)
    with _stage("arguments", targets[0] if targets else None):
        _require(len(targets) > 0, ValueError, "no target FPIR given")
        available = ",".join(baselines.METHOD_NAMES)
        for i, m in enumerate(methods):
            _require(m in baselines.METHOD_NAMES, ValueError, f"unknown method {m!r}; available: {available}")
            _require(m not in methods[:i], ValueError, f"method {m!r} is given twice")
        _require(len(methods) > 0, ValueError, f"no method given; available: {available}")
        _require(0.0 < temperature < math.inf, ValueError, f"temperature must be finite and > 0, got {temperature!r}")
        _require(0.0 < beta < 1.0, ValueError, f"beta must be in (0, 1), got {beta!r}")
        _require(0.0 < max_reject_fraction < 1.0, ValueError,
                 f"max_reject_fraction must be in (0, 1), got {max_reject_fraction!r}")
        holistic.check_seed(seed)
        _require(stats_split in ("validation", "test"), ValueError,
                 f"stats_split must be validation or test, got {stats_split!r}")
    for target_fpir in targets:
        with _stage("arguments", target_fpir):
            _require(0.0 < target_fpir < 1.0, ValueError, f"target_fpir must be in (0, 1), got {target_fpir!r}")
    return methods


def run_evaluation(protocol: OsrProtocol, target_fpir: float, **settings) -> EvalReport:
    """run_evaluations at one target FPIR; ``settings`` are its keyword arguments."""
    return run_evaluations(protocol, (target_fpir,), **settings)[0]


def run_evaluations(
    protocol: OsrProtocol,
    targets,
    methods=baselines.METHOD_NAMES,
    temperature: float = holistic.DEFAULT_TEMPERATURE,
    beta: float = 0.5,
    max_reject_fraction: float = 0.5,
    seed: int = 0,
    stats_split: str = "validation",
) -> list:
    """Evaluate every requested method on the test split of a protocol, one EvalReport per
    target FPIR; the targets share every cosine, and only what their operating points decide differs.

    A ValueError raised here carries a ``stage`` attribute naming the step
    that failed (arguments, operating point, scoring, calibration or
    training) and a ``target_fpir`` attribute naming the target it failed for.
    """
    targets, probes = tuple(targets), protocol.probes
    validation, test = np.flatnonzero(probes.validation), np.flatnonzero(~probes.validation)
    # cheap checks first, so a bad argument fails before any work
    methods = check_arguments(targets, methods, temperature, beta, max_reject_fraction, seed, stats_split)
    with _stage("arguments", targets[0]):
        if "HolUE" in methods and stats_split == "test" and len(validation):
            raise ValueError("HolUE trains on validation labels; stats_split='test' applies to HolUE-sum only")

    gal = protocol.gallery
    truth = probes.class_index[test]  # -1 for a non-mated probe
    n_mated_test = int((truth >= 0).sum())
    needs_components = "HolUE" in methods or "HolUE-sum" in methods
    with _stage("calibration", targets[0]):  # HolUE always fits on validation, HolUE-sum unless told otherwise
        validation_fitted = "HolUE" in methods or "HolUE-sum" in methods and stats_split == "validation"
        _require(len(validation) >= 2 or not validation_fitted, MissingValidationError,
                 "validation split is empty but a validation-fitted method was requested")

    # operating point: threshold on test non-mated acceptance scores, then the
    # concentration whose posterior rule matches that threshold
    with _stage("operating point", targets[0]):
        nonmated_test = test[truth < 0]
        _require(len(nonmated_test) > 0, ValueError, "test split has no non-mated probes")
        _require(n_mated_test > 0, ValueError, "test split has no mated probes")
        best_nonmated = np.concatenate([cosines(gal, probes.means[nonmated_test[block]]).max(axis=1)
                                        for block in row_blocks(len(nonmated_test), gal.k + 1)])
        taus = {target_fpir: metrics.threshold_for_fpir(best_nonmated, target_fpir) for target_fpir in targets}
    models = {}
    for target_fpir, tau in taus.items():
        with _stage("operating point", target_fpir):
            models[target_fpir] = GalleryModel(gallery=gal, kappa=kappa_for_threshold(tau, beta, gal.k, gal.d),
                                               beta=beta)

    with _stage("scoring", targets[0]):
        best, scored = _score(models, probes, test, temperature, needs_components)
        qualities = {}
        for name, field, quality in (("SCF", "kappa", baselines.q_scf),
                                     ("PFE", "pfe_sigma2", baselines.q_pfe),
                                     ("SF", "sf_scale", baselines.q_sf)):
            if name in methods:
                qualities[name] = _quality(probes, test, field, name, quality)
    if needs_components and stats_split == "validation":
        with _stage("calibration", targets[0]):
            val_scored = _score(models, probes, validation, temperature, True)[1]

    ids = probes.ids[test].astype(str)  # sorted as fixed-width text: faster than str objects
    sizes = {"gallery": gal.k, "mated_test": n_mated_test, "nonmated_test": len(nonmated_test),
             "validation": len(validation)}
    reports = []
    for target_fpir in targets:
        tau, (decided, galue, components) = taus[target_fpir], scored[target_fpir]
        classes = metrics.outcome_classes(truth >= 0, decided >= 0, decided == truth)
        scores = {"AccScr": baselines.q_accscr(best, tau), "GalUE": galue, **qualities}
        if needs_components:
            with _stage("calibration", target_fpir):
                stats = fit_stats(val_scored[target_fpir][2] if stats_split == "validation" else components)
                kl1n, kl2n = normalize(components, stats)
                scores["HolUE-sum"] = holistic.holue_sum(kl1n, kl2n)
            if "HolUE" in methods:
                with _stage("training", target_fpir):
                    val_decided, _, val_components = val_scored[target_fpir]
                    val_truth = probes.class_index[validation]
                    val_classes = metrics.outcome_classes(val_truth >= 0, val_decided >= 0, val_decided == val_truth)
                    labels = metrics.decision_correct(val_classes).astype(np.float64)
                    features = np.column_stack(normalize(val_components, stats))
                    calibrator = fit_mlp(features, labels, seed=seed)
                    scores["HolUE"] = holistic.mlp_predict(calibrator, kl1n, kl2n)

        tp, fn, fp, n_nonmated = metrics.class_counts(classes)
        fpir, fnir, f1 = metrics.osr_metrics(tp, fn, fp, n_nonmated)

        oracle, random_curves = metrics.reference_curve_sets(classes, ids, max_fraction=max_reject_fraction,
                                                             seed=seed)
        reference_curves = {m: {"oracle": oracle[m], "random": random_curves[m]} for m in metrics.METRIC_NAMES}
        reference_auc = {m: {"oracle": metrics.curve_auc(oracle[m]), "random": metrics.curve_auc(random_curves[m])}
                         for m in metrics.METRIC_NAMES}
        method_reports = {}
        for name in methods:
            curves = metrics.rejection_curves(classes, scores[name], ids, max_fraction=max_reject_fraction)
            method_reports[name] = MethodReport(curves=curves,
                                                auc={m: metrics.curve_auc(c) for m, c in curves.items()},
                                                prr=metrics.prr(curves["F1"], random_curves["F1"], oracle["F1"]))

        reports.append(EvalReport(
            target_fpir=float(target_fpir),
            tau=float(tau),
            kappa=float(models[target_fpir].kappa),
            beta=float(beta),
            base={"fpir": fpir, "fnir": fnir, "f1": f1},
            counts={**sizes, "tp": tp, "fn": fn, "fp": fp},
            methods=method_reports,
            reference_curves=reference_curves,
            reference_auc=reference_auc,
        ))
    return reports
