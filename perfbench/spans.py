"""In-memory span recorder and the per-layer metrics computed from its spans.

A traced pass wraps each public function named in TARGETS in every osruq
module namespace that binds it, so that calls through `from .x import f` and
through `x.f` are both seen. Each call becomes one span (name, start, end,
parent). `dumps_canonical` is deliberately not wrapped: it recurses once per
float, and timing it would swamp the bundle layer.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

from workloads import VERIFY_SCOPES

# span name -> (module, attribute)
TARGETS = {
    "protocol.gen_synthetic": ("osruq.protocol", "gen_synthetic"),
    "protocol.build_protocol": ("osruq.protocol", "build_protocol"),
    "vmf.sample_vmf": ("osruq.vmf", "sample_vmf"),
    "vmf.log_c_d": ("osruq.vmf", "log_c_d"),
    "vmf.log_alpha": ("osruq.vmf", "log_alpha"),
    "vmf.log_bessel_i": ("osruq.vmf", "log_bessel_i"),
    "bundle.write_bundle": ("osruq.bundle", "write_bundle"),
    "bundle.read_bundle": ("osruq.bundle", "read_bundle"),
    "gallery.log_joint_terms": ("osruq.gallery", "log_joint_terms"),
    "gallery.posterior": ("osruq.gallery", "posterior"),
    "gallery.decide": ("osruq.gallery", "decide"),
    "gallery.log_marginal": ("osruq.gallery", "log_marginal"),
    "gallery.kappa_for_threshold": ("osruq.gallery", "kappa_for_threshold"),
    "baselines.acc_score": ("osruq.baselines", "acc_score"),
    "holistic.kl_components": ("osruq.holistic", "kl_components"),
    "holistic.fit_stats": ("osruq.holistic", "fit_stats"),
    "holistic.fit_mlp": ("osruq.holistic", "fit_mlp"),
    "holistic.mlp_predict": ("osruq.holistic", "mlp_predict"),
    "metrics.rejection_curve": ("osruq.metrics", "rejection_curve"),
    "metrics.reference_curves": ("osruq.metrics", "reference_curves"),
    "metrics.threshold_for_fpir": ("osruq.metrics", "threshold_for_fpir"),
    "metrics.confusion_counts": ("osruq.metrics", "confusion_counts"),
    # one curve pass = one removal order turned into a curve; a private helper
    # today, so a refactor that removes it reads 0 passes
    "metrics.curve_passes": ("osruq.metrics", "_curve_from_order"),
    "evaluation.run_evaluation": ("osruq.evaluation", "run_evaluation"),
    # named per call from its scope argument: oracle.<scope>
    "oracle": ("osruq.oracle", "run_verification"),
}

# span name -> which figures of it are reported: calls (count), s (inclusive
# seconds), self_s (seconds minus the time child spans cover)
REPORTED = {
    "cli.gen": ("s",), "cli.eval": ("s", "self_s"), "cli.verify": ("s",),
    "protocol.gen_synthetic": ("s",), "protocol.build_protocol": ("s",),
    "vmf.sample_vmf": ("calls", "s"), "vmf.log_c_d": ("calls", "s"),
    "vmf.log_alpha": ("calls", "s"), "vmf.log_bessel_i": ("calls", "s"),
    "bundle.write_bundle": ("s",), "bundle.read_bundle": ("s",),
    "gallery.log_joint_terms": ("calls", "s"), "gallery.posterior": ("calls", "s"),
    "gallery.decide": ("calls", "s"), "gallery.log_marginal": ("calls", "s"),
    "gallery.kappa_for_threshold": ("s",),
    "baselines.acc_score": ("calls", "s"),
    "holistic.kl_components": ("calls", "s"), "holistic.fit_stats": ("s",),
    "holistic.fit_mlp": ("s",), "holistic.mlp_predict": ("calls", "s"),
    "metrics.rejection_curve": ("calls", "s"), "metrics.reference_curves": ("calls", "s"),
    "metrics.threshold_for_fpir": ("s",), "metrics.confusion_counts": ("s",),
    "evaluation.run_evaluation": ("s", "self_s"),
    **{f"oracle.{scope}": ("s",) for scope in VERIFY_SCOPES},
}
UNITS = {"calls": "count", "s": "s", "self_s": "s"}


def per_layer_names() -> list:
    """Every per-layer metric a traced run prints, with its unit, in order."""
    out = [(f"{span}.{fig}", UNITS[fig]) for span, figs in REPORTED.items() for fig in figs]
    out += [("vmf.log_c_d.calls_per_probe", "calls/probe"), ("metrics.curve_passes", "count"),
            ("evaluation.probes", "count"), ("bundle.mb", "MB"), ("trace.overhead_s", "s")]
    return out


class Recorder:
    """Spans kept in flat arrays: name id, parent index (-1 for a root), start, end."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        i = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self._open(self._intern(name))
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, fn, name):
        """A timing wrapper around fn; name is a string or a function of (args, kwargs)."""
        fixed = None if callable(name) else self._intern(name)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            i = self._open(fixed if fixed is not None else self._intern(name(args, kwargs)))
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)
        return timed

    def save(self, path: str, pass_bounds) -> None:
        np.savez(path, names=np.array(self.names), name=np.asarray(self.name),
                 parent=np.asarray(self.parent), start=np.asarray(self.start),
                 end=np.asarray(self.end), pass_bounds=np.asarray(pass_bounds, dtype=np.int64))


def _oracle_name(args, kwargs) -> str:
    scope = kwargs.get("scope", args[0] if args else "all")
    return f"oracle.{scope}"


@contextmanager
def instrumented(recorder: Recorder):
    """Wrap every TARGETS function in all osruq namespaces for the duration.

    Yields the span names whose function does not exist in this version of
    the program; their metrics read 0.
    """
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "osruq" or n.startswith("osruq."))]
    patched, missing = [], []
    for span_name, (module_name, attr) in TARGETS.items():
        fn = getattr(sys.modules.get(module_name), attr, None)
        if fn is None:
            missing.append(span_name)
            continue
        wrapper = recorder.wrap(fn, _oracle_name if span_name == "oracle" else span_name)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, wrapper)
                    patched.append((module, key, fn))
    try:
        yield missing
    finally:
        for module, key, fn in patched:
            setattr(module, key, fn)


def pass_figures(recorder: Recorder, lo: int, hi: int) -> dict:
    """calls / s / self_s of every span name within spans [lo, hi) of one pass."""
    name = np.asarray(recorder.name)[lo:hi]
    parent = np.asarray(recorder.parent)[lo:hi] - lo
    dur = np.asarray(recorder.end)[lo:hi] - np.asarray(recorder.start)[lo:hi]
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    figures = {}
    for nid, span_name in enumerate(recorder.names):
        sel = name == nid
        figures[span_name] = {"calls": int(np.sum(sel)), "s": float(np.sum(dur[sel])),
                              "self_s": float(np.sum(dur[sel] - child[sel]))}
    # log_c_d calls made while an evaluation runs (evaluations never nest)
    start = np.asarray(recorder.start)[lo:hi]
    ids = {n: i for i, n in enumerate(recorder.names)}
    evals = name == ids.get("evaluation.run_evaluation", -1)
    ev_start, ev_end = start[evals], start[evals] + dur[evals]
    calls = start[name == ids.get("vmf.log_c_d", -1)]
    j = np.searchsorted(ev_start, calls, side="right") - 1
    inside = (j >= 0) & (calls < ev_end[np.maximum(j, 0)]) if ev_start.size else np.zeros(0, bool)
    figures["vmf.log_c_d.in_evaluation"] = {"calls": int(np.sum(inside)), "s": 0.0, "self_s": 0.0}
    return figures


def layer_metrics(passes: list, probes: int, bundle_mb: float, overhead_s: float) -> dict:
    """Per-layer metrics from the figures of each traced pass.

    Counts come from one pass (every traced pass must give the same counts);
    times are medians over the traced passes.
    """
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0}
    out = {}
    for span_name, figs in REPORTED.items():
        for fig in figs:
            values = [p.get(span_name, empty)[fig] for p in passes]
            out[f"{span_name}.{fig}"] = values[0] if fig == "calls" else float(np.median(values))
    first = passes[0]
    log_c_d_calls = first["vmf.log_c_d.in_evaluation"]["calls"]
    out["vmf.log_c_d.calls_per_probe"] = log_c_d_calls / probes if probes else 0.0
    out["metrics.curve_passes"] = first.get("metrics.curve_passes", empty)["calls"]
    out["evaluation.probes"] = probes
    out["bundle.mb"] = bundle_mb
    out["trace.overhead_s"] = overhead_s
    return out


def counts_of(figures: dict) -> dict:
    return {name: f["calls"] for name, f in figures.items()}
