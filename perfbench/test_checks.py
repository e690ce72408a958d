"""Each output check passes on real CLI outputs and fails on a corrupted one;
the span arithmetic and the machine-speed sampler do what they say.

    python3 -m pytest perfbench
"""

import json
import os
import shutil
import signal
import time

import numpy as np
import pytest

import checks
import reference
import run
import spans

cli = run.load_cli()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("outputs")
    config = root / "degraded.json"
    config.write_text(json.dumps({"preset": "degraded"}))
    bundle, evals, verify = str(root / "bundle"), str(root / "eval"), str(root / "verify")
    assert cli.main(["gen", "--config", str(config), "--out", bundle]) == 0
    assert cli.main(["eval", "--bundle", bundle, "--out", evals, "--fpir", "0.05", "--fpir", "0.1"]) == 0
    assert cli.main(["verify", "--scope", "bessel", "--out", verify]) == 0
    return {"bundle": bundle, "report": os.path.join(evals, "report.json"),
            "verify": os.path.join(verify, "verify.json")}


@pytest.fixture
def copy(outputs, tmp_path):
    """A private copy of the outputs that a test may corrupt."""
    bundle = str(tmp_path / "bundle")
    shutil.copytree(outputs["bundle"], bundle)
    report, verify = str(tmp_path / "report.json"), str(tmp_path / "verify.json")
    shutil.copy(outputs["report"], report)
    shutil.copy(outputs["verify"], verify)
    return {"bundle": bundle, "report": report, "verify": verify, "tmp": tmp_path}


def edit_json(path, change):
    with open(path) as fh:
        doc = json.load(fh)
    change(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)


def test_clean_outputs_pass(copy):
    parsed = checks.parse_bundle(copy["bundle"])
    assert checks.check_bundle_round_trip(copy["bundle"], str(copy["tmp"] / "rw"), parsed) == []
    assert run.round_trip(copy["bundle"]) == []
    assert checks.check_report(copy["report"], parsed, ["0.05", "0.1"]) == []
    assert checks.check_verify(copy["verify"]) == []


@pytest.mark.parametrize("corrupt", [
    lambda doc: doc["evaluations"][1]["counts"].update(tp=doc["evaluations"][1]["counts"]["tp"] + 1),
    lambda doc: doc["evaluations"][0]["counts"].update(fp=doc["evaluations"][0]["counts"]["fp"] - 1),
    lambda doc: doc["evaluations"][0]["base"].update(fpir=doc["evaluations"][0]["base"]["fpir"] + 1e-9),
    lambda doc: doc["evaluations"][1]["base"].update(f1=doc["evaluations"][1]["base"]["f1"] * (1 + 1e-9)),
    lambda doc: doc["evaluations"][1].update(tau=doc["evaluations"][1]["tau"] - 0.05),
    lambda doc: doc["evaluations"][0]["methods"]["HolUE"].update(prr=None),
    lambda doc: doc["evaluations"].pop(),
], ids=["tp", "fp", "fpir", "f1", "tau", "prr-null", "missing-target"])
def test_report_check_fails_on_corruption(copy, corrupt):
    edit_json(copy["report"], corrupt)
    problems = checks.check_report(copy["report"], checks.parse_bundle(copy["bundle"]), ["0.05", "0.1"])
    assert problems


def test_flipped_vector_bit_fails(copy):
    written = checks.parse_bundle(copy["bundle"])
    path = os.path.join(copy["bundle"], "records.jsonl")
    lines = open(path).read().splitlines(keepends=True)
    rec = json.loads(lines[-1])
    bits = np.array(rec["vector"][0]).view(np.uint64) ^ np.uint64(1)
    old, new = format(rec["vector"][0], ".17g"), format(float(bits.view(np.float64)), ".17g")
    assert old != new and old in lines[-1]
    lines[-1] = lines[-1].replace(old, new, 1)
    open(path, "w").write("".join(lines))
    problems = checks.check_bundle_round_trip(copy["bundle"], str(copy["tmp"] / "rw"), written)
    assert any("bit-exact" in p for p in problems)


def test_non_canonical_bundle_bytes_fail(copy):
    path = os.path.join(copy["bundle"], "records.jsonl")
    text = open(path).read()
    open(path, "w").write(text.replace('"role":', '"role": ', 1))
    parsed = checks.parse_bundle(copy["bundle"])
    problems = checks.check_bundle_round_trip(copy["bundle"], str(copy["tmp"] / "rw"), parsed)
    assert any("records.jsonl changed" in p for p in problems)


@pytest.mark.parametrize("corrupt", [
    lambda doc: doc.update(passed=False),
    lambda doc: doc["checks"][0].update(status="fail"),
    lambda doc: doc.update(checks=[]),
], ids=["passed", "status", "empty"])
def test_verify_check_fails_on_corruption(copy, corrupt):
    edit_json(copy["verify"], corrupt)
    assert checks.check_verify(copy["verify"])


def test_pass_outputs_must_repeat_bytes(copy):
    checker = run.OutputChecker()
    argv = ["eval", "--bundle", copy["bundle"], "--out", str(copy["tmp"]), "--fpir", "0.05", "--fpir", "0.1"]
    assert checker.check("eval", argv, 0, "") == []
    with open(copy["report"], "a") as fh:
        fh.write(" ")
    assert any("differ from the first pass" in p for p in checker.check("eval", argv, 0, ""))


def test_nonzero_exit_fails():
    assert run.OutputChecker().check("verify", ["verify", "--out", "x"], 2, "error: boom")


def test_every_traced_function_exists():
    with spans.instrumented(spans.Recorder()) as missing:
        assert missing == []


def test_instrumented_wraps_every_binding_and_restores_it():
    import osruq
    import osruq.evaluation
    import osruq.gallery

    original = osruq.gallery.posterior
    recorder = spans.Recorder()
    with spans.instrumented(recorder):
        assert osruq.evaluation.posterior is osruq.gallery.posterior is osruq.posterior
        assert osruq.gallery.posterior is not original
        osruq.run_verification(scope="bessel")
    assert osruq.gallery.posterior is original and osruq.evaluation.posterior is original
    assert "oracle.bessel" in recorder.names


def test_self_time_subtracts_child_spans():
    recorder = spans.Recorder()
    for name, parent, start, end in [("a", -1, 0.0, 10.0), ("b", 0, 1.0, 4.0), ("b", 0, 5.0, 6.0),
                                     ("c", 1, 2.0, 3.0)]:
        recorder.name.append(recorder._intern(name))
        recorder.parent.append(parent)
        recorder.start.append(start)
        recorder.end.append(end)
    figures = spans.pass_figures(recorder, 0, 4)
    assert figures["a"] == {"calls": 1, "s": 10.0, "self_s": 6.0}
    assert figures["b"] == {"calls": 2, "s": 4.0, "self_s": 3.0}


def test_benchmark_json_lists_the_printed_metrics():
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == spans.per_layer_names()
    assert {m["name"] for m in bench["end_to_end"]} == {"wall_norm_s", "setup_s", "peak_rss_mb"}
    assert [w["name"] for w in bench["workloads"]] == list(run.workloads.WORKLOADS)


def test_sampler_ticks_during_work_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with reference.Sampler() as sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            sum(range(1000))
    assert len(sampler.tick_times) >= 4
    assert sum(sampler.tick_times) <= sampler.handler_s < 0.2
    assert signal.getsignal(signal.SIGALRM) is previous
    assert reference.at_reference_speed(3.0, [reference.REF_TICK_S] * 4) == pytest.approx(3.0)
    # twice as slow for half the ticks: harmonic mean 4/3 of the reference tick
    assert reference.at_reference_speed(4.0, [reference.REF_TICK_S, 2 * reference.REF_TICK_S]) == pytest.approx(3.0)
