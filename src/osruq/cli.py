"""Command line interface: gen | eval | verify.

Exit codes: 0 success, 2 config or bundle schema error, 3 validation split
missing for a validation-fitted method, 4 undefined prediction rejection
ratio, 5 verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import __version__
from .baselines import METHOD_NAMES
from .bundle import BundleError, dumps_canonical, read_bundle, write_bundle
from .evaluation import MissingValidationError, check_arguments, run_evaluation
from .holistic import DEFAULT_TEMPERATURE
from .metrics import METRIC_NAMES
from .oracle import SCOPES, run_verification
from .protocol import SynthConfig, generate_protocol, preset_config

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_VALIDATION = 3
EXIT_UNDEFINED_PRR = 4
EXIT_VERIFY_FAILED = 5

DEFAULT_FPIRS = (0.05, 0.1, 0.2)

_CONFIG_KEYS = {f.name for f in dataclasses.fields(SynthConfig)} | {"preset"}


class ConfigError(ValueError):
    pass


def _load_config(path: str) -> SynthConfig:
    """The SynthConfig a JSON config names; SynthConfig checks every value."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    except ValueError as exc:  # an integer literal past the interpreter's int-from-text digit limit
        raise ConfigError(f"config {path} holds an integer longer than {sys.get_int_max_str_digits()} digits") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    preset = raw.pop("preset", None)
    if "class_kappa" in raw and raw["class_kappa"] is None:
        raw["class_kappa"] = float("inf")  # null disables intra-class drift
    try:
        return preset_config(preset, **raw) if preset is not None else SynthConfig(**raw)
    except (TypeError, ValueError, KeyError) as exc:
        raise ConfigError(f"invalid config: {exc}") from exc


def _out_error(path: str, reason) -> int:
    print(f"error [io]: cannot write to {path}: {reason}", file=sys.stderr)
    return EXIT_CONFIG


def _unwritable(out: str) -> str | None:
    """Why ``out`` cannot be written, judged from its nearest existing ancestor."""
    path = os.path.abspath(out)
    ancestor = path
    while not os.path.exists(ancestor):
        ancestor = os.path.dirname(ancestor)
    if not os.path.isdir(ancestor):
        return "not a directory" if ancestor == path else f"{ancestor} is not a directory"
    if not os.access(ancestor, os.W_OK | os.X_OK):
        return f"no write permission in {ancestor}"
    return None


def cmd_gen(args) -> int:
    try:
        protocol = generate_protocol(_load_config(args.config))
    except ValueError as exc:  # a ConfigError, or a config that leaves the gallery empty
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        write_bundle(protocol, args.out)
    except OSError as exc:
        return _out_error(args.out, exc)
    mated = int(protocol.probes.mated.sum())
    print(f"wrote bundle to {args.out}: d={protocol.gallery.d} "
          f"gallery={protocol.gallery.k} mated={mated} nonmated={len(protocol.probes.ids) - mated}")
    return EXIT_OK


def _write_target(out_dir: str, tag: str, report) -> dict:
    """Write one target's curve CSVs under curves/<tag>; return its report.json block."""
    base = os.path.join("curves", tag)
    os.makedirs(os.path.join(out_dir, base), exist_ok=True)

    def write(label: str, metric: str, curve) -> str:
        rel = os.path.join(base, f"{label}_{metric}.csv")
        with open(os.path.join(out_dir, rel), "w", encoding="ascii") as fh:
            fh.write("fraction,value\n" + "".join(
                "%.17g,%.17g\n" % row for row in zip(curve.fractions.tolist(), curve.values.tolist())))
        return rel

    block = {key: getattr(report, key) for key in ("target_fpir", "tau", "kappa", "base", "counts", "reference_auc")}
    block["methods"] = {name: {"prr": m.prr, "auc": m.auc,
                               "curves": {metric: write(name, metric, c) for metric, c in m.curves.items()}}
                        for name, m in report.methods.items()}
    block["reference_curves"] = {metric: {kind: write(kind, metric, c) for kind, c in pair.items()}
                                 for metric, pair in report.reference_curves.items()}
    return block


def _target_error(target: float, stage: str, exc: ValueError) -> int:
    print(f"error: fpir={target:g}: {stage}: {exc}", file=sys.stderr)
    return EXIT_NO_VALIDATION if isinstance(exc, MissingValidationError) else EXIT_CONFIG


def cmd_eval(args) -> int:
    settings = dict(methods=tuple(m.strip() for m in args.methods.split(",") if m.strip()),
                    temperature=args.temperature, beta=args.beta, max_reject_fraction=args.max_reject_fraction,
                    seed=args.seed, stats_split=args.stats_split)
    targets = tuple(args.fpir) if args.fpir else DEFAULT_FPIRS
    tags = [f"fpir_{t:g}" for t in targets]  # each target's curve directory
    for i, target in enumerate(targets):
        first = tags.index(tags[i])
        try:
            check_arguments(target, **settings)
            if first < i:
                raise ValueError(f"targets {targets[first]!r} and {target!r} share the curve directory "
                                 f"curves/{tags[i]}")
        except ValueError as exc:
            return _target_error(target, "arguments", exc)
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
            reports.append(run_evaluation(protocol, target, **settings))
        except ValueError as exc:
            return _target_error(target, getattr(exc, "stage", "evaluation"), exc)

    report_path = os.path.join(args.out, "report.json")
    payload = {"tool": "osruq", "version": __version__, "beta": args.beta, "temperature": args.temperature,
               "max_reject_fraction": args.max_reject_fraction, "methods": list(settings["methods"]),
               "metrics": list(METRIC_NAMES), "stats_split": args.stats_split,
               "seeds": {**protocol.meta, "cli_seed": args.seed}}
    try:
        os.makedirs(args.out, exist_ok=True)
        payload["evaluations"] = [_write_target(args.out, tag, r) for tag, r in zip(tags, reports)]
        with open(report_path, "w", encoding="ascii") as fh:
            fh.write(dumps_canonical(payload) + "\n")
    except OSError as exc:
        return _out_error(args.out, exc)
    for report in reports:
        summary = " ".join(f"{name}={m.prr:.4f}" if m.prr is not None else f"{name}=undefined"
                           for name, m in report.methods.items())
        print(f"fpir={report.target_fpir:g} tau={report.tau:.6f} kappa={report.kappa:.4f} "
              f"f1={report.base['f1']:.4f} prr: {summary}")
    print(f"wrote {report_path}")
    if any(m.prr is None for report in reports for m in report.methods.values()):
        print("error: prediction rejection ratio undefined (no errors to reject)", file=sys.stderr)
        return EXIT_UNDEFINED_PRR
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        report = run_verification(scope=args.scope, seed=args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out_path = os.path.join(args.out, "verify.json")
    try:
        os.makedirs(args.out, exist_ok=True)
        with open(out_path, "w", encoding="ascii") as fh:
            fh.write(dumps_canonical(report) + "\n")
    except OSError as exc:
        return _out_error(args.out, exc)
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
    reason = _unwritable(args.out)
    if reason is not None:  # fail before any work
        return _out_error(args.out, reason)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
