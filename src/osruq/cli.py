"""Command line interface: gen | eval | verify.

Exit codes: 0 success, 2 config or bundle schema error, 3 validation split
missing for a validation-fitted method, 4 undefined prediction rejection
ratio, 5 verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .baselines import METHOD_NAMES
from .bundle import BundleError, dumps_canonical, read_bundle, write_bundle
from .evaluation import MissingValidationError, run_evaluation
from .holistic import DEFAULT_TEMPERATURE
from .metrics import METRIC_NAMES
from .oracle import SCOPES, run_verification
from .protocol import DEFAULT_VAL_FRACTION, SynthConfig, generate_protocol, preset_config

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_VALIDATION = 3
EXIT_UNDEFINED_PRR = 4
EXIT_VERIFY_FAILED = 5

DEFAULT_FPIRS = (0.05, 0.1, 0.2)

_CONFIG_KEYS = {
    "preset", "d", "n_identities", "oog_fraction", "samples_per_identity",
    "class_kappa", "quality_kappa_range", "ambiguity", "seed",
    "val_fraction", "protocol_seed",
}


class ConfigError(ValueError):
    pass


def _load_config(path: str) -> tuple[SynthConfig, float, int | None]:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    val_fraction = raw.pop("val_fraction", DEFAULT_VAL_FRACTION)
    protocol_seed = raw.pop("protocol_seed", None)
    preset = raw.pop("preset", None)
    if "class_kappa" in raw and raw["class_kappa"] is None:
        raw["class_kappa"] = float("inf")  # null disables intra-class drift
    for key in ("samples_per_identity", "quality_kappa_range"):
        if key in raw:
            value = raw[key]
            if not isinstance(value, list) or len(value) != 2:
                raise ConfigError(f"{key} must be a two-element array")
            raw[key] = tuple(value)
    try:
        if preset is not None:
            config = preset_config(preset, **raw)
        else:
            config = SynthConfig(**raw)
    except (TypeError, ValueError, KeyError) as exc:
        raise ConfigError(f"invalid config: {exc}") from exc
    if not isinstance(val_fraction, (int, float)) or not 0.0 <= val_fraction < 1.0:
        raise ConfigError(f"val_fraction must be in [0, 1), got {val_fraction!r}")
    if protocol_seed is not None and not isinstance(protocol_seed, int):
        raise ConfigError(f"protocol_seed must be an integer, got {protocol_seed!r}")
    return config, float(val_fraction), protocol_seed


def cmd_gen(args) -> int:
    try:
        config, val_fraction, protocol_seed = _load_config(args.config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    protocol = generate_protocol(config, val_fraction=val_fraction, protocol_seed=protocol_seed)
    write_bundle(protocol, args.out)
    print(f"wrote bundle to {args.out}: d={protocol.gallery.d} "
          f"gallery={protocol.gallery.k} mated={len(protocol.mated_probes)} "
          f"nonmated={len(protocol.nonmated_probes)}")
    return EXIT_OK


def _curve_rows(curve) -> str:
    lines = ["fraction,value"]
    for f, v in zip(curve.fractions, curve.values):
        lines.append(f"{format(float(f), '.17g')},{format(float(v), '.17g')}")
    return "\n".join(lines) + "\n"


def _write_curves(out_dir: str, tag: str, report) -> dict:
    """Write per-method and reference curve CSVs; return their relative paths."""
    base = os.path.join("curves", tag)
    os.makedirs(os.path.join(out_dir, base), exist_ok=True)
    paths = {"methods": {}, "reference": {}}
    for name, mrep in report.methods.items():
        paths["methods"][name] = {}
        for metric, curve in mrep.curves.items():
            rel = os.path.join(base, f"{name}_{metric}.csv")
            with open(os.path.join(out_dir, rel), "w", encoding="ascii") as fh:
                fh.write(_curve_rows(curve))
            paths["methods"][name][metric] = rel
    for metric, pair in report.reference_curves.items():
        paths["reference"][metric] = {}
        for kind, curve in pair.items():
            rel = os.path.join(base, f"{kind}_{metric}.csv")
            with open(os.path.join(out_dir, rel), "w", encoding="ascii") as fh:
                fh.write(_curve_rows(curve))
            paths["reference"][metric][kind] = rel
    return paths


def cmd_eval(args) -> int:
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    for m in methods:
        if m not in METHOD_NAMES:
            print(f"error: unknown method {m!r}; available: {','.join(METHOD_NAMES)}",
                  file=sys.stderr)
            return EXIT_CONFIG
    targets = tuple(args.fpir) if args.fpir else DEFAULT_FPIRS
    try:
        protocol = read_bundle(args.bundle)
    except BundleError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    # every target is evaluated before anything is written, so a failing
    # target leaves no partial output behind
    reports = []
    for target in targets:
        try:
            reports.append(run_evaluation(
                protocol, target, methods=methods, temperature=args.temperature,
                beta=args.beta, max_reject_fraction=args.max_reject_fraction,
                seed=args.seed, stats_split=args.stats_split))
        except ValueError as exc:
            print(f"error: fpir={target:g}: {getattr(exc, 'stage', 'evaluation')}: {exc}",
                  file=sys.stderr)
            return EXIT_NO_VALIDATION if isinstance(exc, MissingValidationError) else EXIT_CONFIG

    os.makedirs(args.out, exist_ok=True)
    evaluations = []
    any_undefined = False
    for target, report in zip(targets, reports):
        tag = f"fpir_{target:g}"
        curve_paths = _write_curves(args.out, tag, report)
        method_block = {}
        for name, mrep in report.methods.items():
            if mrep.prr is None:
                any_undefined = True
            method_block[name] = {
                "prr": mrep.prr,
                "auc": mrep.auc,
                "curves": curve_paths["methods"][name],
            }
        evaluations.append({
            "target_fpir": report.target_fpir,
            "tau": report.tau,
            "kappa": report.kappa,
            "base": report.base,
            "counts": report.counts,
            "methods": method_block,
            "reference_auc": report.reference_auc,
            "reference_curves": curve_paths["reference"],
        })
        summary = " ".join(
            f"{name}={mrep.prr:.4f}" if mrep.prr is not None else f"{name}=undefined"
            for name, mrep in report.methods.items())
        print(f"fpir={target:g} tau={report.tau:.6f} kappa={report.kappa:.4f} "
              f"f1={report.base['f1']:.4f} prr: {summary}")

    payload = {
        "tool": "osruq",
        "version": __version__,
        "beta": args.beta,
        "temperature": args.temperature,
        "max_reject_fraction": args.max_reject_fraction,
        "methods": list(methods),
        "metrics": list(METRIC_NAMES),
        "stats_split": args.stats_split,
        "seeds": {"cli_seed": args.seed, **protocol.meta},
        "evaluations": evaluations,
    }
    report_path = os.path.join(args.out, "report.json")
    with open(report_path, "w", encoding="ascii") as fh:
        fh.write(dumps_canonical(payload) + "\n")
    print(f"wrote {report_path}")
    if any_undefined:
        print("error: prediction rejection ratio undefined (no errors to reject)",
              file=sys.stderr)
        return EXIT_UNDEFINED_PRR
    return EXIT_OK


def cmd_verify(args) -> int:
    report = run_verification(scope=args.scope, seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "verify.json")
    with open(out_path, "w", encoding="ascii") as fh:
        fh.write(dumps_canonical(report) + "\n")
    for check in report["checks"]:
        print(f"{check['status']:4s} {check['name']}: max deviation "
              f"{check['max_deviation']:.3g} (tolerance {check['tolerance']:g})")
    print(f"wrote {out_path}")
    return EXIT_OK if report["passed"] else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="osruq",
                                     description="Open-set recognition uncertainty toolkit")
    parser.add_argument("--version", action="version", version=f"osruq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a synthetic protocol bundle")
    p_gen.add_argument("--config", required=True, help="JSON config (fields or preset)")
    p_gen.add_argument("--out", required=True, help="output bundle directory")
    p_gen.set_defaults(func=cmd_gen)

    p_eval = sub.add_parser("eval", help="evaluate uncertainty methods on a bundle")
    p_eval.add_argument("--bundle", required=True, help="bundle directory")
    p_eval.add_argument("--fpir", action="append", type=float,
                        help=f"target FPIR, repeatable (default {list(DEFAULT_FPIRS)})")
    p_eval.add_argument("--methods", default=",".join(METHOD_NAMES),
                        help="comma-separated method names")
    p_eval.add_argument("--temperature", type=float, default=DEFAULT_TEMPERATURE)
    p_eval.add_argument("--beta", type=float, default=0.5)
    p_eval.add_argument("--max-reject-fraction", type=float, default=0.5)
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--stats-split", choices=("validation", "test"), default="validation")
    p_eval.add_argument("--out", required=True, help="output directory")
    p_eval.set_defaults(func=cmd_eval)

    p_verify = sub.add_parser("verify", help="run independent verification checks")
    p_verify.add_argument("--scope", choices=sorted(SCOPES), default="all")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--out", default=".", help="directory for verify.json")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
