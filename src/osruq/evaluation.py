"""End-to-end evaluation: fit the operating point, score every method,
build rejection curves and prediction rejection ratios.

The operating threshold is fitted on the test split's non-mated acceptance
scores at the requested FPIR, converted to an equivalent gallery
concentration, and then every probe is decided once under that model. All
methods therefore start from the same decisions and the same base metrics;
they differ only in how they order probes for rejection.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from . import baselines, holistic, metrics
from .gallery import (GalleryModel, cosines, decision_index, kappa_for_threshold, row_blocks,
                      softmax, terms_from_cosines)
from .holistic import (KlComponents, TrainingConfig, fit_mlp, fit_stats, kl_from_terms,
                       normalize, self_log_density)
from .metrics import EvalReport, MethodReport, UndefinedPrrError
from .protocol import OsrProtocol


class MissingValidationError(ValueError):
    """A validation-fitted method was requested but the validation split is empty."""


class MissingQualityError(ValueError):
    """A method needs per-probe quality fields the bundle does not provide."""


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


def _split(probes, split: str):
    return [p for p in probes if p.split == split]


def _quality(probes, field: str, method: str) -> list:
    """One quality field of every probe, for a method that needs it."""
    values = [getattr(p, field) for p in probes]
    for probe, value in zip(probes, values):
        _require(value is not None, MissingQualityError,
                 f"probe {probe.probe_id} has no {field} for {method}")
    return values


def _score(model: GalleryModel, probes, temperature: float, components: bool):
    """Best cosine, decided class index (-1 rejects), GalUE and, when asked for,
    KlComponents of every probe, scored in row blocks."""
    n = len(probes)
    best, galue, kl1, kl2 = (np.empty(n) for _ in range(4))
    decided = np.empty(n, dtype=np.intp)
    if components:
        kappas = np.array(_quality(probes, "kappa", "HolUE methods"), dtype=np.float64)
        log_self = self_log_density(model.gallery.d, kappas)
    for rows in row_blocks(n, model.gallery.k):
        cos = cosines(model.gallery, [p.mean for p in probes[rows]])
        terms = terms_from_cosines(model, cos)
        probs = softmax(terms)
        best[rows] = cos.max(axis=1)
        decided[rows] = decision_index(probs[:, :-1], probs[:, -1])
        galue[rows] = probs.max(axis=1)  # top of the K+1 posterior
        if components:
            kl1[rows], kl2[rows] = kl_from_terms(model, terms, log_self[rows], temperature)
    return best, decided, galue, (KlComponents(kl1, kl2, temperature) if components else None)


def _outcome_classes(gallery, probes, decided: np.ndarray) -> np.ndarray:
    index = {cid: i for i, cid in enumerate(gallery.class_ids)}
    truth = np.array([index.get(p.class_id, -1) for p in probes], dtype=np.intp)
    return metrics.outcome_classes([p.class_id is not None for p in probes], decided >= 0,
                                   decided == truth)


def run_evaluation(
    protocol: OsrProtocol,
    target_fpir: float,
    methods=baselines.METHOD_NAMES,
    temperature: float = holistic.DEFAULT_TEMPERATURE,
    beta: float = 0.5,
    max_reject_fraction: float = 0.5,
    n_points: int = 101,
    n_shuffles: int = 100,
    seed: int = 0,
    stats_split: str = "validation",
    mlp_config: TrainingConfig = TrainingConfig(),
) -> EvalReport:
    """Evaluate every requested method on the test split of a protocol.

    A ValueError raised here carries a ``stage`` attribute naming the step
    that failed: arguments, operating point, scoring, calibration, training
    or curves.
    """
    validation = _split(protocol.mated_probes, "validation") + _split(protocol.nonmated_probes, "validation")
    with _stage("arguments"):
        methods = tuple(methods)
        for m in methods:
            if m not in baselines.METHOD_NAMES:
                raise ValueError(f"unknown method {m!r}; available: {baselines.METHOD_NAMES}")
        if not 0.0 < target_fpir < 1.0:
            raise ValueError(f"target_fpir must be in (0, 1), got {target_fpir!r}")
        if stats_split not in ("validation", "test"):
            raise ValueError(f"stats_split must be validation or test, got {stats_split!r}")
        if "HolUE" in methods and stats_split == "test" and validation:
            raise ValueError("HolUE trains on validation labels; stats_split='test' applies to HolUE-sum only")

    gal = protocol.gallery
    mated_test = _split(protocol.mated_probes, "test")
    nonmated_test = _split(protocol.nonmated_probes, "test")
    test = mated_test + nonmated_test
    needs_components = "HolUE" in methods or "HolUE-sum" in methods
    with _stage("calibration"):
        if needs_components and stats_split == "validation":
            _require(len(validation) >= 2, MissingValidationError,
                     "validation split is empty but a validation-fitted method was requested")

    # operating point: threshold on test non-mated acceptance scores, then the
    # concentration whose posterior rule matches that threshold
    with _stage("operating point"):
        _require(len(nonmated_test) > 0, ValueError, "test split has no non-mated probes")
        _require(len(mated_test) > 0, ValueError, "test split has no mated probes")
        best_nonmated = [cosines(gal, [p.mean for p in nonmated_test[rows]]).max(axis=1)
                         for rows in row_blocks(len(nonmated_test), gal.k)]
        tau = metrics.threshold_for_fpir(np.concatenate(best_nonmated), target_fpir)
        kappa = kappa_for_threshold(tau, beta, gal.k, gal.d)
        model = GalleryModel(gallery=gal, kappa=kappa, beta=beta)

    with _stage("scoring"):
        best, decided, galue, components = _score(model, test, temperature, needs_components)
        classes = _outcome_classes(gal, test, decided)
        scores = {"AccScr": baselines.q_accscr(best, tau), "GalUE": galue}
        for name, field, quality in (("SCF", "kappa", baselines.q_scf),
                                     ("PFE", "pfe_sigma2", baselines.q_pfe),
                                     ("SF", "sf_scale", baselines.q_sf)):
            if name in methods:
                scores[name] = np.array([quality(v) for v in _quality(test, field, name)])

    if needs_components:
        with _stage("calibration"):
            if stats_split == "validation":
                _, val_decided, _, val_components = _score(model, validation, temperature, True)
                stats = fit_stats(val_components)
            else:
                stats = fit_stats(components)
            _require("HolUE" not in methods or stats_split == "validation", MissingValidationError,
                     "validation split is empty but HolUE needs labeled validation probes")
            kl1n, kl2n = normalize(components, stats)
            scores["HolUE-sum"] = holistic.holue_sum(kl1n, kl2n)
        if "HolUE" in methods:
            with _stage("training"):
                val_classes = _outcome_classes(gal, validation, val_decided)
                labels = metrics.decision_correct(val_classes).astype(np.float64)
                features = np.column_stack(normalize(val_components, stats))
                calibrator = fit_mlp(features, labels, config=mlp_config, seed=seed, stats=stats)
                scores["HolUE"] = holistic.mlp_predict(calibrator, kl1n, kl2n)

    tp, fn, fp, n_nonmated = metrics.class_counts(classes)
    fpir, fnir, f1 = metrics.osr_metrics(tp, fn, fp, n_nonmated)

    with _stage("curves"):
        ids = [p.probe_id for p in test]
        oracle, random_curves = metrics.reference_curve_sets(
            classes, ids, max_fraction=max_reject_fraction, n_points=n_points,
            n_shuffles=n_shuffles, seed=seed)
        reference_curves = {m: {"oracle": oracle[m], "random": random_curves[m]}
                            for m in metrics.METRIC_NAMES}
        reference_auc = {m: {"oracle": metrics.curve_auc(oracle[m]),
                             "random": metrics.curve_auc(random_curves[m])}
                         for m in metrics.METRIC_NAMES}
        method_reports = {}
        for name in methods:
            curves = metrics.rejection_curves(classes, scores[name], ids,
                                              max_fraction=max_reject_fraction, n_points=n_points)
            try:
                ratio = metrics.prr(curves["F1"], random_curves["F1"], oracle["F1"])
            except UndefinedPrrError:
                ratio = None
            method_reports[name] = MethodReport(
                curves=curves, auc={m: metrics.curve_auc(c) for m, c in curves.items()}, prr=ratio)

    return EvalReport(
        target_fpir=float(target_fpir),
        tau=float(tau),
        kappa=float(kappa),
        beta=float(beta),
        temperature=float(temperature),
        base={"fpir": fpir, "fnir": fnir, "f1": f1},
        counts={
            "gallery": gal.k,
            "mated_test": len(mated_test),
            "nonmated_test": len(nonmated_test),
            "validation": len(validation),
            "tp": tp, "fn": fn, "fp": fp,
        },
        methods=method_reports,
        reference_curves=reference_curves,
        reference_auc=reference_auc,
        seeds={"shuffle_seed": int(seed), "mlp_seed": int(seed), **{
            k: v for k, v in protocol.meta.items()
        }},
    )
