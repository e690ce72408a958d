import dataclasses
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from osruq import bundle as bd
from osruq import cli
from osruq import protocol as pr
from osruq.gallery import Gallery


def test_dumps_canonical_scalars():
    assert bd.dumps_canonical(None) == "null"
    assert bd.dumps_canonical(True) == "true"
    assert bd.dumps_canonical(False) == "false"
    assert bd.dumps_canonical(7) == "7"
    assert bd.dumps_canonical(-0.0) == "0"
    assert bd.dumps_canonical(0.1) == "0.10000000000000001"
    assert bd.dumps_canonical("aé") == '"a\\u00e9"'


def test_dumps_canonical_containers():
    assert bd.dumps_canonical({"b": 1, "a": [None, 2.5]}) == '{"a":[null,2.5],"b":1}'
    assert bd.dumps_canonical(np.array([1.0, 2.0])) == "[1,2]"
    with pytest.raises(ValueError):
        bd.dumps_canonical(float("nan"))
    with pytest.raises(ValueError):
        bd.dumps_canonical({1: "x"})
    with pytest.raises(ValueError):
        bd.dumps_canonical(object())


@given(st.floats(allow_nan=False, allow_infinity=False))
@settings(max_examples=300, deadline=None)
def test_float_serialization_round_trips_exactly(x):
    text = bd.dumps_canonical(x)
    back = float(json.loads(text))
    if x == 0.0:
        assert back == 0.0
    else:
        assert back == x


def small_protocol():
    cfg = pr.SynthConfig(d=5, n_identities=20, oog_fraction=0.3, samples_per_identity=(2, 4),
                         class_kappa=60.0, quality_kappa_range=(10.0, 100.0), ambiguity=0.1,
                         seed=12)
    return pr.generate_protocol(cfg, val_fraction=0.25)


def test_write_read_round_trip(tmp_path):
    proto = small_protocol()
    path = os.path.join(tmp_path, "bundle")
    bd.write_bundle(proto, path)
    back = bd.read_bundle(path)

    assert back.gallery.class_ids == proto.gallery.class_ids
    np.testing.assert_array_equal(back.gallery.means, proto.gallery.means)
    assert back.meta == proto.meta
    assert back.gallery_members == {k: tuple(v) for k, v in proto.gallery_members.items()}

    for mine, theirs in ((proto.mated_probes, back.mated_probes),
                         (proto.nonmated_probes, back.nonmated_probes)):
        assert len(mine) == len(theirs)
        for a, b in zip(mine, theirs):
            assert a.probe_id == b.probe_id
            assert a.class_id == b.class_id
            assert a.split == b.split
            np.testing.assert_array_equal(a.mean, b.mean)
            assert a.kappa == b.kappa
            np.testing.assert_array_equal(a.pfe_sigma2, b.pfe_sigma2)
            assert a.sf_scale == b.sf_scale


def test_write_is_byte_deterministic(tmp_path):
    proto = small_protocol()
    first = os.path.join(tmp_path, "a")
    second = os.path.join(tmp_path, "b")
    bd.write_bundle(proto, first)
    bd.write_bundle(bd.read_bundle(first), second)
    for name in (bd.MANIFEST_NAME, bd.RECORDS_NAME):
        with open(os.path.join(first, name), "rb") as fh:
            blob_a = fh.read()
        with open(os.path.join(second, name), "rb") as fh:
            blob_b = fh.read()
        assert blob_a == blob_b


def reference_records(proto):
    """records.jsonl as one dumps_canonical(record) per line."""
    def record(template_id, subject_id, role, split, vector, kappa, pfe_sigma2, sf_scale):
        return bd.dumps_canonical({
            "template_id": template_id, "subject_id": subject_id, "role": role, "split": split,
            "vector": np.asarray(vector, dtype=np.float64).tolist(),
            "kappa": None if kappa is None else float(kappa),
            "pfe_sigma2": None if pfe_sigma2 is None else np.asarray(pfe_sigma2, dtype=np.float64).tolist(),
            "sf_scale": None if sf_scale is None else float(sf_scale),
        }) + "\n"

    gal = proto.gallery
    lines = [record(c, c, "gallery", None, m, None, None, None)
             for c, m in sorted(zip(gal.class_ids, gal.means), key=lambda t: t[0])]
    probes = sorted(proto.mated_probes + proto.nonmated_probes, key=lambda p: p.probe_id)
    lines += [record(p.probe_id, p.class_id, "probe", p.split, p.mean, p.kappa, p.pfe_sigma2,
                     p.sf_scale) for p in probes]
    return "".join(lines)


EDGE_FLOATS = [-0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, 1.0 / 3.0, 2.0**-1074 * 3,
               0.30000000000000004, 123456789.12345679, 1e-7, 2.0, -1.5e-300]


def test_write_matches_canonical_records(tmp_path):
    # more probes than one row block, edge-case floats, None optionals, and
    # ids that need JSON escapes
    rng = np.random.default_rng(4)
    d = len(EDGE_FLOATS)
    means = rng.standard_normal((3, d))
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    gallery = Gallery(class_ids=('q"uote', "é", "z\\back"), means=means)
    probes = []
    for i in range(600):
        vector = np.array(EDGE_FLOATS) if i % 7 == 0 else rng.standard_normal(d) * 10.0 ** rng.integers(-300, 300)
        sigma2 = None if i % 3 == 0 else np.roll(EDGE_FLOATS, i)
        probes.append(pr.ProbeRecord(
            probe_id=f"p{i:04d}" + ('"' if i % 11 == 0 else "") + ("ü" if i % 13 == 0 else ""),
            class_id=gallery.class_ids[i % 3] if i % 2 else None, mean=vector,
            kappa=None if i % 5 == 0 else EDGE_FLOATS[i % d] + (0.0 if i % 4 else 1.0),
            pfe_sigma2=sigma2, sf_scale=None if i % 6 == 0 else EDGE_FLOATS[(i + 3) % d],
            split="validation" if i % 4 else "test"))
    proto = pr.OsrProtocol(gallery=gallery,
                           mated_probes=tuple(p for p in probes if p.class_id is not None),
                           nonmated_probes=tuple(p for p in probes if p.class_id is None))
    path = os.path.join(tmp_path, "bundle")
    bd.write_bundle(proto, path)
    with open(os.path.join(path, bd.RECORDS_NAME), encoding="ascii") as fh:
        assert fh.read() == reference_records(proto)


@pytest.mark.parametrize("field", ["vector", "pfe_sigma2", "kappa", "sf_scale"])
def test_failed_write_leaves_no_bundle_files(tmp_path, field):
    proto = small_protocol()
    last = proto.mated_probes[-1]
    bad = {"vector": {"mean": np.where(np.arange(last.mean.size) == 2, np.nan, last.mean)},
           "pfe_sigma2": {"pfe_sigma2": np.full(last.mean.size, np.inf)},
           "kappa": {"kappa": float("nan")},
           "sf_scale": {"sf_scale": float("nan")}}[field]
    proto = dataclasses.replace(proto, mated_probes=proto.mated_probes[:-1]
                                + (dataclasses.replace(last, **bad),))
    path = os.path.join(tmp_path, "bundle")
    with pytest.raises(ValueError):
        bd.write_bundle(proto, path)
    for name in (bd.MANIFEST_NAME, bd.RECORDS_NAME):
        assert not os.path.exists(os.path.join(path, name))


def gallery_row(template_id="g0", subject_id="g0", vector=(1.0, 0.0)):
    return {"template_id": template_id, "subject_id": subject_id, "role": "gallery",
            "split": None, "vector": list(vector), "kappa": None, "pfe_sigma2": None,
            "sf_scale": None}


def probe_row(template_id="p0", subject_id="g0", split="test", vector=(0.0, 1.0),
              kappa=5.0, pfe_sigma2=(0.2, 0.2), sf_scale=1.6):
    return {"template_id": template_id, "subject_id": subject_id, "role": "probe",
            "split": split, "vector": list(vector), "kappa": kappa,
            "pfe_sigma2": None if pfe_sigma2 is None else list(pfe_sigma2),
            "sf_scale": sf_scale}


def write_raw(path, manifest, records):
    os.makedirs(path, exist_ok=True)
    with open(os.path.join(path, bd.MANIFEST_NAME), "w") as fh:
        fh.write(json.dumps(manifest) + "\n")
    with open(os.path.join(path, bd.RECORDS_NAME), "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def base_manifest():
    return {"schema_version": "1", "d": 2, "seeds": {}, "gallery_members": {}}


def base_records():
    return [gallery_row(), probe_row(), probe_row("n0", None)]


def expect_code(tmp_path, code, manifest=None, records=None):
    path = os.path.join(tmp_path, "case")
    write_raw(path, manifest or base_manifest(), base_records() if records is None else records)
    with pytest.raises(bd.BundleError) as exc:
        bd.read_bundle(path)
    assert exc.value.code == code


def test_read_accepts_minimal_bundle(tmp_path):
    path = os.path.join(tmp_path, "ok")
    write_raw(path, base_manifest(), base_records())
    proto = bd.read_bundle(path)
    assert proto.gallery.class_ids == ("g0",)
    assert len(proto.mated_probes) == 1
    assert len(proto.nonmated_probes) == 1


def test_missing_files_are_io_errors(tmp_path):
    with pytest.raises(bd.BundleError) as exc:
        bd.read_bundle(os.path.join(tmp_path, "nowhere"))
    assert exc.value.code == "io"
    path = os.path.join(tmp_path, "half")
    os.makedirs(path)
    with open(os.path.join(path, bd.MANIFEST_NAME), "w") as fh:
        fh.write("{}\n")
    with pytest.raises(bd.BundleError) as exc:
        bd.read_bundle(path)
    assert exc.value.code == "io"


def test_manifest_schema_errors(tmp_path):
    path = os.path.join(tmp_path, "badjson")
    os.makedirs(path)
    with open(os.path.join(path, bd.MANIFEST_NAME), "w") as fh:
        fh.write("{not json\n")
    with open(os.path.join(path, bd.RECORDS_NAME), "w") as fh:
        fh.write("\n")
    with pytest.raises(bd.BundleError) as exc:
        bd.read_bundle(path)
    assert exc.value.code == "schema"

    expect_code(tmp_path, "schema", manifest={**base_manifest(), "schema_version": "2"})
    expect_code(tmp_path, "schema", manifest={**base_manifest(), "d": "2"})
    expect_code(tmp_path, "schema", manifest={**base_manifest(), "d": 1})


def test_record_key_set_is_exact(tmp_path):
    row = gallery_row()
    del row["kappa"]
    expect_code(tmp_path, "schema", records=[row, probe_row(), probe_row("n0", None)])
    row = gallery_row()
    row["extra"] = 1
    expect_code(tmp_path, "schema", records=[row, probe_row(), probe_row("n0", None)])


def test_vector_validation_codes(tmp_path):
    expect_code(tmp_path, "schema",
                records=[gallery_row(vector=[True, False]), probe_row(), probe_row("n0", None)])
    expect_code(tmp_path, "dimension_mismatch",
                records=[gallery_row(vector=[1.0, 0.0, 0.0]), probe_row(), probe_row("n0", None)])
    expect_code(tmp_path, "schema",
                records=[gallery_row(vector=[1.0, float("inf")]), probe_row(), probe_row("n0", None)])


def test_norm_tiers(tmp_path):
    # within 1e-6 of unit: accepted bit for bit
    eps_vec = [1.0 + 5e-7, 0.0]
    path = os.path.join(tmp_path, "accept")
    write_raw(path, base_manifest(),
              [gallery_row(vector=eps_vec), probe_row(), probe_row("n0", None)])
    proto = bd.read_bundle(path)
    assert proto.gallery.means[0, 0] == eps_vec[0]

    # within 1e-3: renormalized with a warning
    off_vec = [1.0 + 5e-4, 0.0]
    path = os.path.join(tmp_path, "repair")
    write_raw(path, base_manifest(),
              [gallery_row(vector=off_vec), probe_row(), probe_row("n0", None)])
    with pytest.warns(UserWarning):
        proto = bd.read_bundle(path)
    assert proto.gallery.means[0, 0] == pytest.approx(1.0, abs=1e-12)

    # beyond 1e-3: rejected
    expect_code(tmp_path, "non_unit_vector",
                records=[gallery_row(vector=[1.01, 0.0]), probe_row(), probe_row("n0", None)])


def test_optional_field_validation(tmp_path):
    expect_code(tmp_path, "schema",
                records=[gallery_row(), probe_row(kappa=0.0), probe_row("n0", None)])
    expect_code(tmp_path, "schema",
                records=[gallery_row(), probe_row(kappa=True), probe_row("n0", None)])
    expect_code(tmp_path, "dimension_mismatch",
                records=[gallery_row(), probe_row(pfe_sigma2=[0.1]), probe_row("n0", None)])
    expect_code(tmp_path, "schema",
                records=[gallery_row(), probe_row(pfe_sigma2=[0.1, -0.2]), probe_row("n0", None)])
    expect_code(tmp_path, "schema",
                records=[gallery_row(), probe_row(sf_scale=float("nan")), probe_row("n0", None)])


@pytest.mark.parametrize("sigma2", [["0.2", "0.2"], [True, True], [[0.2], [0.2]]],
                         ids=["strings", "bools", "nested"])
def test_pfe_sigma2_entries_must_be_numbers(tmp_path, sigma2):
    expect_code(tmp_path, "schema",
                records=[gallery_row(), probe_row(pfe_sigma2=sigma2), probe_row("n0", None)])


def test_eval_reports_bad_pfe_sigma2_as_schema_error(tmp_path, capsys):
    path = os.path.join(tmp_path, "bundle")
    write_raw(path, base_manifest(),
              [gallery_row(), probe_row(pfe_sigma2=["0.2", "0.2"]), probe_row("n0", None)])
    assert cli.main(["eval", "--bundle", path, "--out", os.path.join(tmp_path, "out")]) == 2
    assert "error [schema]: line 2: pfe_sigma2" in capsys.readouterr().err


def test_role_specific_rules(tmp_path):
    row = gallery_row()
    row["split"] = "test"
    expect_code(tmp_path, "schema", records=[row, probe_row(), probe_row("n0", None)])
    row = gallery_row(subject_id=None)
    expect_code(tmp_path, "schema", records=[row, probe_row(), probe_row("n0", None)])
    expect_code(tmp_path, "schema",
                records=[gallery_row(), probe_row(split="train"), probe_row("n0", None)])
    row = gallery_row()
    row["role"] = "query"
    expect_code(tmp_path, "schema", records=[row, probe_row(), probe_row("n0", None)])
    expect_code(tmp_path, "schema", records=[probe_row(), probe_row("n0", None)])


def test_duplicate_ids(tmp_path):
    expect_code(tmp_path, "duplicate_id",
                records=[gallery_row(), gallery_row(), probe_row(), probe_row("n0", None)])
    expect_code(tmp_path, "duplicate_id",
                records=[gallery_row(), probe_row(), probe_row(), probe_row("n0", None)])
    expect_code(tmp_path, "duplicate_id",
                records=[gallery_row("g0", "s"), gallery_row("g1", "s", vector=(0.0, 1.0)),
                         probe_row(subject_id="s"), probe_row("n0", None)])


def test_count_mismatch_is_schema_error(tmp_path):
    manifest = base_manifest()
    manifest["counts"] = {"gallery": 2}
    expect_code(tmp_path, "schema", manifest=manifest)


@pytest.mark.parametrize("key", ["validation_probes", "test_probes"])
def test_split_count_mismatch_is_schema_error(tmp_path, key):
    manifest = base_manifest()
    manifest["counts"] = {key: 999}
    expect_code(tmp_path, "schema", manifest=manifest)


@pytest.mark.parametrize("key,value", [("counts", 5), ("counts", ["gallery"]), ("gallery_members", [1]),
                                       ("seeds", 7), ("seeds", [["seed", 1]])])
def test_manifest_sections_must_be_objects(tmp_path, key, value):
    manifest = {**base_manifest(), key: value}
    expect_code(tmp_path, "schema", manifest=manifest)
    with pytest.raises(bd.BundleError, match=f"manifest {key} must be a JSON object"):
        bd.read_bundle(os.path.join(tmp_path, "case"))


@pytest.mark.parametrize("members", [{"g0": "abc"}, {"g0": [1]}, {"g0": ["t0", None]}, {"g0": [["t0"]]}])
def test_gallery_members_must_be_string_lists(tmp_path, members):
    expect_code(tmp_path, "schema", manifest={**base_manifest(), "gallery_members": members})


def test_eval_reports_bad_manifest_section_as_schema_error(tmp_path, capsys):
    path = os.path.join(tmp_path, "bundle")
    write_raw(path, {**base_manifest(), "gallery_members": [1]}, base_records())
    assert cli.main(["eval", "--bundle", path, "--out", os.path.join(tmp_path, "out")]) == 2
    assert "error [schema]: manifest gallery_members must be a JSON object" in capsys.readouterr().err


def test_probes_come_back_sorted(tmp_path):
    records = [gallery_row(),
               probe_row("p9"), probe_row("p1"),
               probe_row("n5", None), probe_row("n2", None)]
    path = os.path.join(tmp_path, "sorted")
    write_raw(path, base_manifest(), records)
    proto = bd.read_bundle(path)
    assert [p.probe_id for p in proto.mated_probes] == ["p1", "p9"]
    assert [p.probe_id for p in proto.nonmated_probes] == ["n2", "n5"]


def test_bundle_error_rejects_unknown_code():
    with pytest.raises(ValueError):
        bd.BundleError("weird", "nope")
