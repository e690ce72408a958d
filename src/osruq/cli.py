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
from .evaluation import MissingValidationError, check_arguments, run_evaluations
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


def _load_config(path: str) -> SynthConfig:
    """The SynthConfig a JSON config names; SynthConfig checks every value."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ValueError(f"config {path} is not valid JSON: {exc}") from exc
    except ValueError as exc:  # an integer literal past the interpreter's int-from-text digit limit
        raise ValueError(f"config {path} holds an integer longer than {sys.get_int_max_str_digits()} digits") from exc
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")

    preset = raw.pop("preset", None)
    if "class_kappa" in raw and raw["class_kappa"] is None:
        raw["class_kappa"] = float("inf")  # null disables intra-class drift
    try:
        return preset_config(preset, **raw) if preset is not None else SynthConfig(**raw)
    except (TypeError, ValueError, KeyError) as exc:
        raise ValueError(f"invalid config: {exc}") from exc


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
    except ValueError as exc:  # a bad config, or one that leaves the gallery empty
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


def _target_files(tag: str, report, files: dict) -> dict:
    """Add one target's curve CSVs under curves/<tag> to ``files`` (path under --out: text);
    return its report.json block."""
    base = os.path.join("curves", tag)

    def csv(label: str, metric: str, curve) -> str:
        rel = os.path.join(base, f"{label}_{metric}.csv")
        files[rel] = "fraction,value\n" + "".join(
            "%.17g,%.17g\n" % row for row in zip(curve.fractions.tolist(), curve.values.tolist()))
        return rel

    block = {key: getattr(report, key) for key in ("target_fpir", "tau", "kappa", "base", "counts", "reference_auc")}
    block["methods"] = {name: {"prr": m.prr, "auc": m.auc,
                               "curves": {metric: csv(name, metric, c) for metric, c in m.curves.items()}}
                        for name, m in report.methods.items()}
    block["reference_curves"] = {metric: {kind: csv(kind, metric, c) for kind, c in pair.items()}
                                 for metric, pair in report.reference_curves.items()}
    return block


def _write_files(out: str, files: dict) -> int | None:
    """Write each text of ``files`` to its path under ``out``, in order; an exit code on failure."""
    try:
        for rel, text in files.items():
            path = os.path.join(out, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="ascii") as fh:
                fh.write(text)
    except OSError as exc:
        return _out_error(out, exc)
    return None


def _undefined_prr_cause(counts: dict, max_reject_fraction: float) -> str:
    """Why an evaluation's oracle and random F1 areas coincide, read from its counts."""
    n_test = counts["mated_test"] + counts["nonmated_test"]
    if counts["fn"] + counts["fp"] == 0:
        return "no errors to reject"
    if counts["tp"] == 0:
        return "no true positives, so F1 is 0 at every rejected fraction"
    if max_reject_fraction * n_test < 1:
        return f"--max-reject-fraction {max_reject_fraction:g} is below 1/{n_test} test probes: none is rejected"
    return "the oracle and random F1 areas coincide"


def cmd_eval(args) -> int:
    settings = dict(methods=tuple(m.strip() for m in args.methods.split(",") if m.strip()),
                    temperature=args.temperature, beta=args.beta, max_reject_fraction=args.max_reject_fraction,
                    seed=args.seed, stats_split=args.stats_split)
    targets = tuple(args.fpir) if args.fpir else DEFAULT_FPIRS
    tags = [f"fpir_{t:g}" for t in targets]  # each target's curve directory
    # every target is evaluated before anything is written, so a failing
    # target leaves no partial output behind
    try:
        check_arguments(targets, **settings)
        clash = next((i for i, tag in enumerate(tags) if tag in tags[:i]), None)
        if clash is not None:
            error = ValueError(f"targets {targets[tags.index(tags[clash])]!r} and {targets[clash]!r} share the "
                               f"curve directory curves/{tags[clash]}")
            error.stage, error.target_fpir = "arguments", targets[clash]
            raise error
        protocol = read_bundle(args.bundle)
        reports = run_evaluations(protocol, targets, **settings)
    except BundleError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"error: fpir={exc.target_fpir:g}: {exc.stage}: {exc}", file=sys.stderr)
        return EXIT_NO_VALIDATION if isinstance(exc, MissingValidationError) else EXIT_CONFIG

    # every output text is built before the first write; report.json is written last
    files = {}
    payload = {"tool": "osruq", "version": __version__, "beta": args.beta, "temperature": args.temperature,
               "max_reject_fraction": args.max_reject_fraction, "methods": list(settings["methods"]),
               "metrics": list(METRIC_NAMES), "stats_split": args.stats_split,
               "seeds": {**protocol.meta, "cli_seed": args.seed},
               "evaluations": [_target_files(tag, r, files) for tag, r in zip(tags, reports)]}
    files["report.json"] = dumps_canonical(payload) + "\n"
    failed = _write_files(args.out, files)
    if failed is not None:
        return failed
    for report in reports:
        summary = " ".join(f"{name}={m.prr:.4f}" if m.prr is not None else f"{name}=undefined"
                           for name, m in report.methods.items())
        print(f"fpir={report.target_fpir:g} tau={report.tau:.6f} kappa={report.kappa:.4f} "
              f"f1={report.base['f1']:.4f} prr: {summary}")
    print(f"wrote {os.path.join(args.out, 'report.json')}")
    undefined = [r for r in reports if any(m.prr is None for m in r.methods.values())]
    for report in undefined:
        print(f"error: fpir={report.target_fpir:g}: prediction rejection ratio undefined "
              f"({_undefined_prr_cause(report.counts, args.max_reject_fraction)})", file=sys.stderr)
    return EXIT_UNDEFINED_PRR if undefined else EXIT_OK


def cmd_verify(args) -> int:
    try:
        report = run_verification(scope=args.scope, seed=args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    failed = _write_files(args.out, {"verify.json": dumps_canonical(report) + "\n"})
    if failed is not None:
        return failed
    for check in report["checks"]:
        print(f"{check['status']:4s} {check['name']}: max deviation "
              f"{check['max_deviation']:.3g} (tolerance {check['tolerance']:g})")
    print(f"wrote {os.path.join(args.out, 'verify.json')}")
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
