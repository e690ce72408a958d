import math

import numpy as np
import pytest

from osruq import baselines, evaluation as ev, gallery as ga, metrics as mt, protocol as pr
from osruq.gallery import GalleryModel, equivalent_threshold
from osruq.holistic import TrainingConfig


def small_protocol(val_fraction=0.3, **overrides):
    base = dict(d=8, n_identities=30, oog_fraction=0.3, samples_per_identity=(3, 5),
                class_kappa=100.0, quality_kappa_range=(5.0, 200.0), ambiguity=0.2, seed=5)
    base.update(overrides)
    return pr.generate_protocol(pr.SynthConfig(**base), val_fraction=val_fraction)


FAST_MLP = TrainingConfig(epochs=150)


def test_report_structure_and_operating_point():
    proto = small_protocol()
    report = ev.run_evaluation(proto, 0.2, mlp_config=FAST_MLP)

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
    assert report.seeds["shuffle_seed"] == 0
    assert report.seeds["generator_seed"] == 5


def test_determinism():
    proto = small_protocol()
    a = ev.run_evaluation(proto, 0.1, mlp_config=FAST_MLP, seed=3)
    b = ev.run_evaluation(proto, 0.1, mlp_config=FAST_MLP, seed=3)
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
    stripped = pr.OsrProtocol(
        gallery=proto.gallery,
        mated_probes=tuple(
            pr.ProbeRecord(probe_id=p.probe_id, class_id=p.class_id, mean=p.mean,
                           kappa=None, pfe_sigma2=None, sf_scale=None, split=p.split)
            for p in proto.mated_probes),
        nonmated_probes=tuple(
            pr.ProbeRecord(probe_id=p.probe_id, class_id=p.class_id, mean=p.mean,
                           kappa=None, pfe_sigma2=None, sf_scale=None, split=p.split)
            for p in proto.nonmated_probes),
        gallery_members=proto.gallery_members,
        meta=proto.meta,
    )
    with pytest.raises(ev.MissingQualityError):
        ev.run_evaluation(stripped, 0.1, methods=("SCF",))
    with pytest.raises(ev.MissingQualityError):
        ev.run_evaluation(stripped, 0.1, methods=("PFE",))
    with pytest.raises(ev.MissingQualityError):
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


def with_validation(proto, validation):
    """The protocol with its validation split replaced by the given probes."""
    def retag(p, split):
        return pr.ProbeRecord(probe_id=p.probe_id, class_id=p.class_id, mean=p.mean,
                              kappa=p.kappa, pfe_sigma2=p.pfe_sigma2, sf_scale=p.sf_scale,
                              split=split)
    test = [retag(p, "test") for p in proto.mated_probes + proto.nonmated_probes
            if p.split == "test"]
    val = [retag(p, "validation") for p in validation]
    probes = test + val
    return pr.OsrProtocol(
        gallery=proto.gallery,
        mated_probes=tuple(p for p in probes if p.class_id is not None),
        nonmated_probes=tuple(p for p in probes if p.class_id is None),
        gallery_members=proto.gallery_members, meta=proto.meta)


def stage_of(call):
    with pytest.raises(ValueError) as info:
        call()
    return info.value.stage


def test_failures_name_their_stage():
    proto = small_protocol()
    assert stage_of(lambda: ev.run_evaluation(proto, 1.0)) == "arguments"
    assert stage_of(lambda: ev.run_evaluation(proto, 0.999)) == "operating point"
    assert stage_of(lambda: ev.run_evaluation(proto, 0.1, methods=("AccScr",),
                                              max_reject_fraction=1.0)) == "curves"

    mated_val = [p for p in proto.mated_probes if p.split == "validation"]
    twins = [mated_val[0], pr.ProbeRecord(
        probe_id="twin", class_id=mated_val[0].class_id, mean=mated_val[0].mean,
        kappa=mated_val[0].kappa, pfe_sigma2=None, sf_scale=None, split="validation")]
    assert stage_of(lambda: ev.run_evaluation(with_validation(proto, twins), 0.1,
                                              methods=("HolUE-sum",))) == "calibration"

    report = ev.run_evaluation(proto, 0.1, methods=("AccScr",))
    model = GalleryModel(gallery=proto.gallery, kappa=report.kappa, beta=report.beta)
    decided = ga.decision_index(ga.posterior(model, np.array([p.mean for p in mated_val])))
    correct = [p for p, i in zip(mated_val, decided) if i >= 0 and proto.gallery.class_ids[i] == p.class_id]
    assert len(correct) >= 2
    assert stage_of(lambda: ev.run_evaluation(with_validation(proto, correct), 0.1,
                                              methods=("HolUE",), mlp_config=FAST_MLP)) == "training"


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
