"""Several target FPIRs in one evaluation: the same reports as one target at a time,
one cosine pass over the probes, and a failing target named before any scoring."""

import json
import os

import numpy as np
import pytest

from osruq import baselines, cli, evaluation as ev
from osruq.bundle import write_bundle
from osruq.protocol import generate_protocol, preset_config

TARGETS = (0.05, 0.1, 0.2)


@pytest.fixture(scope="module")
def ambiguous():
    return generate_protocol(preset_config("ambiguous"))


def assert_same_report(a, b):
    assert (a.target_fpir, a.tau, a.kappa, a.beta) == (b.target_fpir, b.tau, b.kappa, b.beta)
    assert a.base == b.base and a.counts == b.counts and a.reference_auc == b.reference_auc
    assert list(a.methods) == list(b.methods)
    for name, m in a.methods.items():
        assert m.prr == b.methods[name].prr and m.auc == b.methods[name].auc, name
        for metric, curve in m.curves.items():
            assert np.array_equal(curve.fractions, b.methods[name].curves[metric].fractions)
            assert np.array_equal(curve.values, b.methods[name].curves[metric].values), (name, metric)
    for metric, pair in a.reference_curves.items():
        for kind, curve in pair.items():
            assert np.array_equal(curve.values, b.reference_curves[metric][kind].values), (metric, kind)


@pytest.mark.parametrize("stats_split", ["validation", "test"])
def test_many_targets_give_the_reports_of_one_target_each(ambiguous, stats_split):
    # HolUE trains on validation labels, so the test split serves the other six methods
    methods = tuple(m for m in baselines.METHOD_NAMES if stats_split == "validation" or m != "HolUE")
    reports = ev.run_evaluations(ambiguous, TARGETS, methods=methods, stats_split=stats_split, seed=1)
    assert [r.target_fpir for r in reports] == list(TARGETS)
    for target, report in zip(TARGETS, reports):
        assert_same_report(report, ev.run_evaluation(ambiguous, target, methods=methods,
                                                     stats_split=stats_split, seed=1))


def test_targets_share_every_cosine(ambiguous, monkeypatch):
    rows = []
    cosines = ev.cosines

    def counted(gallery, z):
        rows.append(len(z))
        return cosines(gallery, z)

    monkeypatch.setattr(ev, "cosines", counted)
    ev.run_evaluations(ambiguous, (0.1,))
    one = sum(rows)
    rows.clear()
    ev.run_evaluations(ambiguous, TARGETS)
    assert sum(rows) == one > 0


def test_a_failing_target_is_named_before_any_scoring(ambiguous, monkeypatch):
    monkeypatch.setattr(ev, "_score", lambda *args: pytest.fail("scored before every operating point was fitted"))
    with pytest.raises(ValueError) as info:
        ev.run_evaluations(ambiguous, (0.1, 0.999))
    assert info.value.stage == "operating point"
    assert info.value.target_fpir == 0.999


def test_exit_4_names_a_reject_fraction_too_small_to_reject_a_probe(ambiguous, tmp_path, capsys):
    # 0.0005 x 1,180 test probes < 1, so no grid point removes a probe, though the run has errors
    bundle, out = str(tmp_path / "bundle"), str(tmp_path / "eval")
    write_bundle(ambiguous, bundle)
    assert cli.main(["eval", "--bundle", bundle, "--fpir", "0.1", "--max-reject-fraction", "0.0005",
                     "--methods", "AccScr,GalUE", "--out", out]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: fpir=0.1: prediction rejection ratio undefined (--max-reject-fraction 0.0005 "
                          "is below 1/1180 test probes"), err
    assert "no errors" not in err and err.count("\n") == 1
    with open(os.path.join(out, "report.json")) as fh:
        counts = json.load(fh)["evaluations"][0]["counts"]
    assert counts["fn"] + counts["fp"] > 0 and counts["tp"] > 0


@pytest.mark.parametrize("counts, cause", [
    ({"tp": 5, "fn": 0, "fp": 0}, "no errors to reject"),
    ({"tp": 0, "fn": 3, "fp": 2}, "no true positives"),
    ({"tp": 5, "fn": 3, "fp": 2}, "the oracle and random F1 areas coincide"),
])
def test_undefined_prr_cause_reads_the_counts(counts, cause):
    counts = dict(counts, mated_test=100, nonmated_test=100)
    assert cli._undefined_prr_cause(counts, 0.5).startswith(cause)
