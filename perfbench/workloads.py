"""The benchmark's workloads: generated inputs and the CLI commands of one pass.

Standard library only, so that the set-up probe can import it in a fresh
interpreter without paying for anything but ``import osruq.cli``.
"""

from __future__ import annotations

import json
import os

WORKLOADS = ("eval-presets", "gen-eval-d128", "verify-all")

PRESETS = ("ambiguous", "degraded", "mixed")
ALL_METHODS = "AccScr,SCF,PFE,SF,GalUE,HolUE,HolUE-sum"
VERIFY_SCOPES = ("bessel", "quadrature", "marginal", "posterior", "equivalence")

# The presets keep their own generator seed (7): on other generator seeds the
# degraded preset cannot reach FPIR 0.1 on about one seed in fifteen (see
# CHANGES.md), so the workload seed drives `eval --seed` (the reference
# shuffles and the calibrator's initialisation) instead.
PRESET_FPIRS = ("0.05", "0.1")

# Mixed-style protocol at d=128. A vMF sample's expected cosine to its mean
# is about 1 - (d-1)/(2 kappa) for large kappa, so keeping kappa/d fixed keeps
# the geometry of the d=16 mixed preset: class_kappa 150 -> 1200 and quality
# 2..500 -> 16..4000 (both x 128/16). Overriding only d leaves the preset's
# concentrations far too low and almost every mated probe is misidentified.
D128_CONFIG = {
    "d": 128, "n_identities": 1500, "oog_fraction": 0.3, "samples_per_identity": [4, 8],
    "class_kappa": 1200.0, "quality_kappa_range": [16.0, 4000.0], "ambiguity": 0.3,
}
D128_FPIR = "0.1"

# `osruq verify` is a set of seeded statistical checks; its 3-sigma Monte-Carlo
# marginal check fails on about 0.35% of seeds by design (see CHANGES.md), so
# the workload runs the command's default seed whatever the workload seed.
VERIFY_SEED = "0"


def prepare(scratch: str, workload: str, seed: int) -> None:
    """Create the run's scratch directory and write the workload's inputs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; available: {WORKLOADS}")
    os.makedirs(scratch, exist_ok=True)
    configs = {}
    if workload == "eval-presets":
        configs = {f"{p}.json": {"preset": p} for p in PRESETS}
    elif workload == "gen-eval-d128":
        configs = {"d128.json": dict(D128_CONFIG, seed=seed)}
    for name, config in configs.items():
        with open(os.path.join(scratch, name), "w", encoding="ascii") as fh:
            json.dump(config, fh, sort_keys=True)


def commands(workload: str, scratch: str, seed: int, per_scope: bool = False) -> list:
    """One pass: a list of (command, argv) pairs, run in order.

    ``per_scope`` splits `verify --scope all` into its five scopes, which run
    the same checks in the same order; the traced run uses it to time each
    scope on its own.
    """
    path = lambda *parts: os.path.join(scratch, *parts)
    if workload == "eval-presets":
        ops = []
        for p in PRESETS:
            ops.append(("gen", ["gen", "--config", path(f"{p}.json"), "--out", path(f"bundle-{p}")]))
            fpirs = [arg for t in PRESET_FPIRS for arg in ("--fpir", t)]
            ops.append(("eval", ["eval", "--bundle", path(f"bundle-{p}"), "--out", path(f"eval-{p}"),
                                 *fpirs, "--methods", ALL_METHODS, "--seed", str(seed)]))
        return ops
    if workload == "gen-eval-d128":
        return [
            ("gen", ["gen", "--config", path("d128.json"), "--out", path("bundle-d128")]),
            ("eval", ["eval", "--bundle", path("bundle-d128"), "--out", path("eval-d128"),
                      "--fpir", D128_FPIR, "--methods", ALL_METHODS, "--seed", str(seed)]),
        ]
    if workload == "verify-all":
        scopes = VERIFY_SCOPES if per_scope else ("all",)
        return [("verify", ["verify", "--scope", s, "--seed", VERIFY_SEED, "--out", path(f"verify-{s}")])
                for s in scopes]
    raise ValueError(f"unknown workload {workload!r}; available: {WORKLOADS}")
