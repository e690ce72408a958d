"""osruq benchmark: `gen` / `eval` / `verify` end to end, and traced by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the program is imported from the
checkout's `src/`. One process, one caller, closed loop: each operation is one
CLI command run in-process through `osruq.cli.main`, and a pass is the
workload's commands in order. Passes repeat until the next one would end past
`--seconds` (at least one pass; three when traced). Every command's outputs
are checked by `checks.py` after its pass, outside the timed region.

The host's speed drifts in phases, so every pass runs with the sampler of
`reference.py`, which times a tiny fixed kernel every 25 ms, and the pass time
is scaled to the kernel's reference speed.

`--trace 0` reports the end-to-end metrics: `setup_s` (median of fresh
interpreters importing osruq and preparing a scratch directory, at reference
speed), `wall_norm_s` (median pass time at reference speed) and
`peak_rss_mb` (peak resident memory of this process when the first pass's
commands end, before any output check runs). `--trace 1` runs an untraced warm-up pass, then alternates
traced and untraced passes (at least one of each), and reports the per-layer
metrics of `spans.py`, including `trace.overhead_s` (median traced pass minus
median untraced pass after the warm-up, both at reference speed). The last
line of standard output is one JSON object.
"""

from __future__ import annotations

import os

# One BLAS thread: the load is a single caller on a shared 2-core machine, and
# a second BLAS thread mostly adds contention noise to small matrix products.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / "runs"

SETUP_SAMPLES = 5
# an untraced run needs one pass; a traced run needs its warm-up pass, then
# a traced and an untraced one
MIN_PASSES = {0: 1, 1: 3}

sys.path.insert(0, str(BENCH))
import checks  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

_SETUP_CHILD = ("import sys; sys.path[:0] = sys.argv[1:3]; import osruq.cli, workloads; "
                "workloads.prepare(sys.argv[3], sys.argv[4], int(sys.argv[5]))")


class ProgramMissing(RuntimeError):
    pass


def load_cli():
    """Import osruq.cli from this checkout's src/, and from nowhere else."""
    if not (SRC / "osruq" / "__init__.py").is_file():
        raise ProgramMissing(f"no osruq package under {SRC}")
    sys.path.insert(0, str(SRC))
    import osruq
    import osruq.cli
    if Path(osruq.__file__).resolve().parent != SRC / "osruq":
        raise ProgramMissing(f"imported osruq from {osruq.__file__}, not from {SRC}")
    return osruq.cli


def measure_setup(run_dir: Path, workload: str, seed: int) -> float:
    """Median seconds from a fresh interpreter to osruq imported and inputs
    written, at reference speed."""
    times, ticks = [], []
    for i in range(SETUP_SAMPLES):
        target = run_dir / f"setup-{i}"
        ticks += reference.ticks(reference.SETUP_TICKS)
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", _SETUP_CHILD, str(SRC), str(BENCH), str(target),
                        workload, str(seed)], cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
        shutil.rmtree(target)
    ticks += reference.ticks(reference.SETUP_TICKS)
    setup_s = reference.at_reference_speed(statistics.median(times), ticks)
    print(f"setup: {statistics.median(times):.3f} s, tick {statistics.harmonic_mean(ticks) * 1e3:.4f} ms, "
          f"{setup_s:.3f} s at reference speed", flush=True)
    return setup_s


def run_command(cli, argv) -> tuple:
    """(exit code, captured stderr) of one in-process CLI command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed operation, not a failed benchmark
            traceback.print_exc()
            code = -1
    return code, err.getvalue()


def _arg(argv, flag):
    return argv[argv.index(flag) + 1]


def round_trip(bundle: str) -> list:
    """checks.round_trip_problems, with a crash of the program reported as a problem."""
    try:
        return checks.round_trip_problems(bundle)
    except Exception as exc:  # a crash is a failed check, not a failed benchmark
        return [f"bundle round-trip check crashed: {type(exc).__name__}: {exc}"]


class OutputChecker:
    """Runs checks.py on each command's outputs and compares bytes across passes."""

    def __init__(self):
        self.digests = {}
        self.round_trips = {}  # bundle dir -> problems found on the first pass
        self.probes = {}  # bundle dir -> number of probes in it

    def _same_as_first_pass(self, key, paths) -> list:
        digest = checks.file_digest(paths)
        first = self.digests.setdefault(key, digest)
        return [] if digest == first else [f"{key}: bytes differ from the first pass"]

    def check(self, kind: str, argv, code: int, err: str) -> list:
        if code != 0:
            return [f"exit code {code}: {err.strip()[-2000:]}"]
        out = _arg(argv, "--out")
        try:
            if kind == "gen":
                problems = self._same_as_first_pass(out, [os.path.join(out, f) for f in checks.BUNDLE_FILES])
                # Later passes must write the first pass's bytes, so the round
                # trip checked on the first pass holds for them too.
                if out not in self.round_trips:
                    self.round_trips[out] = round_trip(out)
                return problems + self.round_trips[out]
            if kind == "eval":
                report = os.path.join(out, "report.json")
                bundle = _arg(argv, "--bundle")
                parsed = checks.parse_bundle(bundle)
                self.probes[bundle] = len(parsed.probe_ids)
                targets = [argv[i + 1] for i, a in enumerate(argv) if a == "--fpir"]
                return self._same_as_first_pass(report, [report]) + checks.check_report(report, parsed, targets)
            verify = os.path.join(out, "verify.json")
            return self._same_as_first_pass(verify, [verify]) + checks.check_verify(verify)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [f"outputs unreadable: {type(exc).__name__}: {exc}"]


def scored_probes(argv, checker: OutputChecker) -> int:
    """Probes one checked eval command scores: every probe of the bundle, once per target."""
    return argv.count("--fpir") * checker.probes[_arg(argv, "--bundle")]


def bundle_megabytes(ops) -> float:
    return sum(os.path.getsize(os.path.join(_arg(argv, "--out"), f))
               for kind, argv in ops if kind == "gen" for f in checks.BUNDLE_FILES) / 1e6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    try:
        cli = load_cli()
    except (ProgramMissing, ImportError) as exc:
        print(f"error: cannot load the program: {exc}", file=sys.stderr)
        return 2
    run_dir = RUNS / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        return _run(cli, args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _run(cli, args, run_dir: Path) -> int:
    reference.ticks(reference.SETUP_TICKS)  # warm-up
    setup_s = None if args.trace else measure_setup(run_dir, args.workload, args.seed)
    workloads.prepare(str(run_dir), args.workload, args.seed)

    recorder = spans.Recorder()
    checker = OutputChecker()
    walls = {False: [], True: []}  # traced -> seconds per pass at reference speed
    peak_rss_mb = None
    traced_figures, bounds = [], []
    attempted = failed = probes = 0
    bundle_mb = 0.0
    missing = []
    iterations = []
    t_start = time.perf_counter()
    while True:
        t_iter = time.perf_counter()
        traced = bool(args.trace) and len(iterations) % 2 == 1
        ops = workloads.commands(args.workload, str(run_dir), args.seed, per_scope=traced)
        for _, argv in ops:
            shutil.rmtree(_arg(argv, "--out"), ignore_errors=True)

        lo = len(recorder.name)
        with spans.instrumented(recorder) if traced else contextlib.nullcontext() as absent:
            missing = absent if traced else missing
            results = []
            with reference.Sampler() as sampler:
                t0 = time.perf_counter()
                for kind, argv in ops:
                    with recorder.span(f"cli.{kind}") if traced else contextlib.nullcontext():
                        results.append(run_command(cli, argv))
                wall = time.perf_counter() - t0
        wall -= sampler.handler_s
        walls[traced].append(reference.at_reference_speed(wall, sampler.tick_times))
        if peak_rss_mb is None:
            # read before the checks, which parse bundles in this process
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

        pass_failed = 0
        for (kind, argv), (code, err) in zip(ops, results):
            problems = checker.check(kind, argv, code, err)
            if problems:
                pass_failed += 1
                print(f"FAILED {' '.join(argv)}:\n  " + "\n  ".join(problems), file=sys.stderr)
        attempted += len(ops)
        failed += pass_failed
        if traced:
            traced_figures.append(spans.pass_figures(recorder, lo, len(recorder.name)))
            bounds.append((lo, len(recorder.name)))
            if not pass_failed:
                probes = sum(scored_probes(argv, checker) for kind, argv in ops if kind == "eval")
                bundle_mb = bundle_megabytes(ops)
        print(f"pass {len(iterations) + 1} ({'traced' if traced else 'untraced'}): "
              f"{wall:.3f} s, tick {statistics.harmonic_mean(sampler.tick_times) * 1e3:.4f} ms, "
              f"{walls[traced][-1]:.3f} s at reference speed, {len(ops)} commands, {pass_failed} failed",
              flush=True)

        iterations.append(time.perf_counter() - t_iter)
        elapsed = time.perf_counter() - t_start
        if len(iterations) >= MIN_PASSES[args.trace] and elapsed + min(iterations) > args.seconds:
            break

    correct = failed == 0
    if args.trace:
        counts = [spans.counts_of(f) for f in traced_figures]
        if any(c != counts[0] for c in counts[1:]):
            print("error: call counts differ between traced passes", file=sys.stderr)
            correct = False
        if missing:
            print(f"note: not in this version, reads 0: {', '.join(missing)}", file=sys.stderr)
        RUNS.mkdir(parents=True, exist_ok=True)
        recorder.save(str(RUNS / f"trace-{args.workload}-seed{args.seed}.npz"), bounds)
        # the first pass warms the process up; it is left out of the comparison
        overhead = statistics.median(walls[True]) - statistics.median(walls[False][1:])
        values = spans.layer_metrics(traced_figures, probes, bundle_mb, overhead)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in spans.per_layer_names()}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_norm_s": {"value": statistics.median(walls[False]), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
