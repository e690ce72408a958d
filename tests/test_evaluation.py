import dataclasses
import math
import os

import numpy as np
import pytest

from osruq import baselines, cli, evaluation as ev, gallery as ga, metrics as mt, protocol as pr
from osruq.bundle import write_bundle
from osruq.gallery import GalleryModel, equivalent_threshold


def small_protocol(val_fraction=0.3, **overrides):
    base = dict(d=8, n_identities=30, oog_fraction=0.3, samples_per_identity=(3, 5),
                class_kappa=100.0, quality_kappa_range=(5.0, 200.0), ambiguity=0.2, seed=5)
    base.update(overrides)
    return pr.generate_protocol(pr.SynthConfig(**base, val_fraction=val_fraction))


def test_report_structure_and_operating_point():
    proto = small_protocol()
    report = ev.run_evaluation(proto, 0.2)

    assert report.target_fpir == 0.2
    n_nonmated = report.counts["nonmated_test"]
    expected_fpir = math.floor(0.2 * n_nonmated) / n_nonmated
    # the threshold construction pins the realized FPIR to floor granularity
    assert report.base["fpir"] == pytest.approx(expected_fpir, abs=0)
    assert report.counts["tp"] + report.counts["fn"] == report.counts["mated_test"]

    model = GalleryModel(gallery=proto.gallery, kappa=report.kappa, beta=report.beta)
    assert equivalent_threshold(model) == pytest.approx(report.tau, abs=1e-8)

    assert set(report.methods) == set(baselines.METHOD_NAMES)
    for name, mr in report.methods.items():
        assert set(mr.curves) == {"FPIR", "FNIR", "F1"}
        for metric, curve in mr.curves.items():
            assert curve.metric == metric
            assert curve.fractions.shape == (101,)
            assert curve.fractions[-1] == 0.5
        assert mr.prr is None or math.isfinite(mr.prr)
    assert set(report.reference_curves) == {"FPIR", "FNIR", "F1"}


def test_determinism():
    proto = small_protocol()
    a = ev.run_evaluation(proto, 0.1, seed=3)
    b = ev.run_evaluation(proto, 0.1, seed=3)
    for name in baselines.METHOD_NAMES:
        assert a.methods[name].prr == b.methods[name].prr
        np.testing.assert_array_equal(a.methods[name].curves["F1"].values,
                                      b.methods[name].curves["F1"].values)
    assert a.tau == b.tau
    assert a.kappa == b.kappa


def test_method_subset_skips_calibration():
    proto = small_protocol(val_fraction=0.0)
    report = ev.run_evaluation(proto, 0.1, methods=("AccScr", "GalUE", "SCF"))
    assert set(report.methods) == {"AccScr", "GalUE", "SCF"}


def test_argument_validation():
    proto = small_protocol()
    with pytest.raises(ValueError):
        ev.run_evaluation(proto, 0.1, methods=("AccScr", "Unknown"))
    with pytest.raises(ValueError):
        ev.run_evaluation(proto, 0.0)
    with pytest.raises(ValueError):
        ev.run_evaluation(proto, 1.0)
    with pytest.raises(ValueError):
        ev.run_evaluation(proto, 0.1, stats_split="train")


def test_missing_validation_split():
    proto = small_protocol(val_fraction=0.0)
    with pytest.raises(ev.MissingValidationError):
        ev.run_evaluation(proto, 0.1, methods=("HolUE-sum",))
    with pytest.raises(ev.MissingValidationError):
        ev.run_evaluation(proto, 0.1, methods=("HolUE",), stats_split="test")
    # the sum variant can fall back to test-split statistics
    report = ev.run_evaluation(proto, 0.1, methods=("HolUE-sum",), stats_split="test")
    assert report.methods["HolUE-sum"].prr is not None


def test_missing_quality_fields():
    proto = small_protocol()
    absent = np.zeros(len(proto.probes.ids), dtype=bool)
    stripped = dataclasses.replace(proto, probes=dataclasses.replace(
        proto.probes, has_kappa=absent, has_pfe_sigma2=absent, has_sf_scale=absent))
    with pytest.raises(ValueError, match="has no kappa for SCF"):
        ev.run_evaluation(stripped, 0.1, methods=("SCF",))
    with pytest.raises(ValueError, match="has no pfe_sigma2 for PFE"):
        ev.run_evaluation(stripped, 0.1, methods=("PFE",))
    with pytest.raises(ValueError, match="has no sf_scale for SF"):
        ev.run_evaluation(stripped, 0.1, methods=("SF",))
    # geometry-only methods still run
    report = ev.run_evaluation(stripped, 0.1, methods=("AccScr", "GalUE"))
    assert set(report.methods) == {"AccScr", "GalUE"}


def test_prr_matches_manual_recomputation():
    proto = small_protocol()
    report = ev.run_evaluation(proto, 0.2, methods=("GalUE",))
    mr = report.methods["GalUE"]
    oracle = report.reference_curves["F1"]["oracle"]
    rand = report.reference_curves["F1"]["random"]
    expected = mt.prr(mr.curves["F1"], rand, oracle)
    assert mr.prr == pytest.approx(expected, abs=0)
    assert report.reference_auc["F1"]["oracle"] == pytest.approx(mt.curve_auc(oracle), abs=0)


def test_stats_split_changes_scores():
    proto = small_protocol()
    a = ev.run_evaluation(proto, 0.1, methods=("HolUE-sum",), stats_split="validation")
    b = ev.run_evaluation(proto, 0.1, methods=("HolUE-sum",), stats_split="test")
    assert a.methods["HolUE-sum"].auc["F1"] != b.methods["HolUE-sum"].auc["F1"]


def with_validation(proto, rows, ids=None):
    """The protocol with its validation split replaced by copies of the given table rows,
    renamed to ``ids`` when given."""
    t = proto.probes
    keep = np.concatenate([np.flatnonzero(~t.validation), rows])
    columns = {f.name: getattr(t, f.name)[keep] for f in dataclasses.fields(t)}
    columns["validation"] = np.arange(len(keep)) >= len(keep) - len(rows)
    if ids is not None:
        columns["ids"][len(keep) - len(rows):] = ids
    return dataclasses.replace(proto, probes=pr.ProbeTable(**columns))


def stage_of(call):
    with pytest.raises(ValueError) as info:
        call()
    return info.value.stage


def test_failures_name_their_stage(tmp_path, capsys):
    proto = small_protocol()
    assert stage_of(lambda: ev.run_evaluation(proto, 1.0)) == "arguments"
    assert stage_of(lambda: ev.run_evaluation(proto, 0.999)) == "operating point"
    assert stage_of(lambda: ev.run_evaluation(proto, 0.1, methods=("AccScr",),
                                              max_reject_fraction=1.0)) == "arguments"

    t = proto.probes
    mated_val = np.flatnonzero(t.mated & t.validation)
    twins = with_validation(proto, mated_val[[0, 0]], ids=[t.ids[mated_val[0]], "twin"])
    assert stage_of(lambda: ev.run_evaluation(twins, 0.1, methods=("HolUE-sum",))) == "calibration"

    report = ev.run_evaluation(proto, 0.1, methods=("AccScr",))
    model = GalleryModel(gallery=proto.gallery, kappa=report.kappa, beta=report.beta)
    decided = ga.decision_index(ga.posterior(model, t.means[mated_val]))
    correct = mated_val[decided == t.class_index[mated_val]]
    assert len(correct) >= 2
    assert stage_of(lambda: ev.run_evaluation(with_validation(proto, correct), 0.1,
                                              methods=("HolUE",))) == "training"

    # d=512, with the concentrations x64 so that kappa/d stays as above: twin validation probes and
    # an unreachable target name their stage, and through the CLI each exits 2 with that stage,
    # not as an arguments or a bundle error
    big = small_protocol(d=512, class_kappa=6400.0, quality_kappa_range=(320.0, 12800.0))
    t = big.probes
    mated_val = np.flatnonzero(t.mated & t.validation)
    twins = with_validation(big, mated_val[[0, 0]], ids=[t.ids[mated_val[0]], "twin"])
    for case, target, method, stage in ((twins, 0.1, "HolUE-sum", "calibration"),
                                        (big, 0.999, "AccScr", "operating point")):
        assert stage_of(lambda: ev.run_evaluation(case, target, methods=(method,))) == stage
        bundle, out = str(tmp_path / f"{method}_bundle"), str(tmp_path / f"{method}_eval")
        write_bundle(case, bundle)
        assert cli.main(["eval", "--bundle", bundle, "--fpir", str(target), "--methods", method, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: fpir={target:g}: {stage}: ") and err.count("\n") == 1, err
        assert not os.path.exists(out)


@pytest.mark.parametrize("temperature", [math.inf, math.nan])
def test_temperature_must_be_finite_and_positive(monkeypatch, temperature):
    # report.json cannot hold a non-finite temperature, so the arguments stage rejects it before any scoring
    monkeypatch.setattr(ev, "_score", lambda *args: pytest.fail("scored before the arguments were checked"))
    with pytest.raises(ValueError, match="temperature must be finite and > 0") as info:
        ev.run_evaluation(small_protocol(), 0.1, methods=("AccScr", "GalUE"), temperature=temperature)
    assert info.value.stage == "arguments"


@pytest.mark.parametrize("seed", [1.5, True], ids=["float", "bool"])
def test_seed_must_be_a_non_negative_integer(monkeypatch, seed):
    # a float seed reached numpy's SeedSequence without a stage, and True ran as seed 1
    proto = small_protocol()
    monkeypatch.setattr(ev, "_score", lambda *args: pytest.fail("scored before the arguments were checked"))
    with pytest.raises(ValueError, match="seed must be a non-negative integer") as info:
        ev.run_evaluation(proto, 0.1, methods=("AccScr", "HolUE"), seed=seed)
    assert info.value.stage == "arguments"


def test_a_numpy_integer_seed_is_accepted():
    proto = small_protocol()
    a = ev.run_evaluation(proto, 0.1, methods=("AccScr",), seed=np.int64(2))
    b = ev.run_evaluation(proto, 0.1, methods=("AccScr",), seed=2)
    np.testing.assert_array_equal(a.reference_curves["F1"]["random"].values, b.reference_curves["F1"]["random"].values)


def test_holue_with_test_stats_split_fails_in_arguments_stage(monkeypatch):
    proto = small_protocol()

    def no_scoring(*args, **kwargs):
        raise AssertionError("scoring ran before the arguments were checked")

    monkeypatch.setattr(ev, "_score", no_scoring)
    with pytest.raises(ValueError) as info:
        ev.run_evaluation(proto, 0.1, methods=("HolUE",), stats_split="test")
    assert not isinstance(info.value, ev.MissingValidationError)
    assert info.value.stage == "arguments"
    assert "HolUE-sum only" in str(info.value)
    monkeypatch.undo()
    # without a validation split the missing split stays the reported cause
    with pytest.raises(ev.MissingValidationError):
        ev.run_evaluation(small_protocol(val_fraction=0.0), 0.1, methods=("HolUE",),
                          stats_split="test")


def test_degraded_preset_at_d512_evaluates():
    # kl2 once underflowed to 0 for every probe at d=512, and calibration
    # failed with "component variance is zero"
    report = ev.run_evaluation(pr.generate_protocol(pr.preset_config("degraded", d=512)), 0.1)
    assert set(report.methods) == set(baselines.METHOD_NAMES)
    assert all(m.prr is not None and math.isfinite(m.prr) for m in report.methods.values())


def test_a_table_built_from_shuffled_rows_is_the_sorted_table():
    # the table sorts its rows once, so the order rows arrive in cannot move a report
    proto = small_protocol()
    t = proto.probes
    perm = np.random.default_rng(1).permutation(len(t.ids))
    shuffled = pr.ProbeTable(**{f.name: getattr(t, f.name)[perm] for f in dataclasses.fields(t)})
    for f in dataclasses.fields(t):
        a, b = getattr(t, f.name), getattr(shuffled, f.name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tolist() == b.tolist(), f.name
    a = ev.run_evaluation(proto, 0.1, seed=2)
    b = ev.run_evaluation(dataclasses.replace(proto, probes=shuffled), 0.1, seed=2)
    assert a.tau == b.tau and a.kappa == b.kappa and a.counts == b.counts and a.base == b.base
    for name in a.methods:
        assert a.methods[name].prr == b.methods[name].prr
        for metric, curve in a.methods[name].curves.items():
            assert curve.values.tobytes() == b.methods[name].curves[metric].values.tobytes()
    for metric, pair in a.reference_curves.items():
        for kind, curve in pair.items():
            assert curve.values.tobytes() == b.reference_curves[metric][kind].values.tobytes()
