import argparse
import dataclasses
import json
import math
import os

import numpy as np
import pytest

from osruq import cli, vmf
from osruq.bundle import read_bundle, write_bundle
from osruq.protocol import SynthConfig, generate_protocol, preset_config


def write_config(tmp_path, name="config.json", **fields):
    path = os.path.join(tmp_path, name)
    with open(path, "w") as fh:
        json.dump(fields, fh)
    return path


def small_config(tmp_path, **overrides):
    fields = dict(d=8, n_identities=25, oog_fraction=0.3, samples_per_identity=[3, 5],
                  class_kappa=100.0, quality_kappa_range=[5.0, 200.0], ambiguity=0.2,
                  seed=5, val_fraction=0.3)
    fields.update(overrides)
    return write_config(tmp_path, **fields)


def test_gen_writes_bundle(tmp_path):
    config = small_config(tmp_path)
    out = os.path.join(tmp_path, "bundle")
    assert cli.main(["gen", "--config", config, "--out", out]) == 0
    proto = read_bundle(out)
    assert proto.gallery.d == 8
    assert proto.probes.mated.any()
    assert not proto.probes.mated.all()


def test_gen_accepts_presets(tmp_path):
    config = write_config(tmp_path, preset="degraded", n_identities=12, seed=2)
    out = os.path.join(tmp_path, "bundle")
    assert cli.main(["gen", "--config", config, "--out", out]) == 0
    proto = read_bundle(out)
    assert proto.meta["generator_seed"] == 2


def test_gen_is_deterministic(tmp_path):
    config = small_config(tmp_path)
    out_a = os.path.join(tmp_path, "a")
    out_b = os.path.join(tmp_path, "b")
    assert cli.main(["gen", "--config", config, "--out", out_a]) == 0
    assert cli.main(["gen", "--config", config, "--out", out_b]) == 0
    for name in ("manifest.json", "records.jsonl"):
        with open(os.path.join(out_a, name), "rb") as fh:
            blob_a = fh.read()
        with open(os.path.join(out_b, name), "rb") as fh:
            blob_b = fh.read()
        assert blob_a == blob_b


def test_gen_config_errors(tmp_path, capsys):
    out = os.path.join(tmp_path, "bundle")
    missing = os.path.join(tmp_path, "nope.json")
    assert cli.main(["gen", "--config", missing, "--out", out]) == 2

    bad_json = os.path.join(tmp_path, "bad.json")
    with open(bad_json, "w") as fh:
        fh.write("{oops")
    assert cli.main(["gen", "--config", bad_json, "--out", out]) == 2

    unknown = small_config(tmp_path, name="unknown.json", banana=1)
    assert cli.main(["gen", "--config", unknown, "--out", out]) == 2

    invalid = small_config(tmp_path, name="invalid.json", oog_fraction=2.0)
    assert cli.main(["gen", "--config", invalid, "--out", out]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("fields", [
    {"preset": "degraded", "seed": -1}, {"protocol_seed": -3}, {"protocol_seed": True},
    {"seed": 7.9}, {"seed": True}, {"d": 8.5}, {"n_identities": True},
    {"samples_per_identity": [2.5, 4]}, {"samples_per_identity": [True, 4]},
    # orjson reads an integer above 2**64 - 1 back as a float, so seeds stay below 2**63
    {"preset": "degraded", "seed": 2**64}, {"seed": 2**64 - 1}, {"seed": 2**63}, {"protocol_seed": 2**64},
])
def test_gen_rejects_bad_integer_fields(tmp_path, capsys, fields):
    config = small_config(tmp_path, **fields)
    out = os.path.join(tmp_path, "bundle")
    assert cli.main(["gen", "--config", config, "--out", out]) == 2
    assert "error:" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("fields", [
    {"class_kappa": True}, {"oog_fraction": True}, {"ambiguity": False}, {"ambiguity": True},
    {"quality_kappa_range": [True, 5.0]}, {"quality_kappa_range": [1.0, True]},
    {"val_fraction": False}, {"val_fraction": True},
])
def test_gen_rejects_bools_in_number_fields(tmp_path, capsys, fields):
    # isinstance(True, int) holds, so each of these used to generate with 1 or 0
    config = write_config(tmp_path, preset="degraded", **fields)
    out = os.path.join(tmp_path, "bundle")
    assert cli.main(["gen", "--config", config, "--out", out]) == 2
    assert next(iter(fields)) in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("text", ['{"preset": "degraded", "class_kappa": 1' + "0" * 5000 + "}",
                                  '{"preset": ' + "[" * 100000 + "]" * 100000 + "}"], ids=["long-integer", "deep"])
def test_gen_names_a_config_the_json_module_cannot_read(tmp_path, capsys, text):
    # json.load raises a plain ValueError past the int-from-text digit limit (4300 by default)
    # and a RecursionError past its nesting depth
    config = os.path.join(tmp_path, "config.json")
    with open(config, "w") as fh:
        fh.write(text)
    out = os.path.join(tmp_path, "bundle")
    assert cli.main(["gen", "--config", config, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {config} ") and err.count("\n") == 1, err
    assert "set_int_max_str_digits" not in err
    assert not os.path.exists(out)


def test_config_may_set_every_synth_config_field(tmp_path):
    # integral floats are stored as ints
    fields = dict(d=8.0, n_identities=25, oog_fraction=0.3, samples_per_identity=[3.0, 5],
                  class_kappa=100.0, quality_kappa_range=[5.0, 200.0], ambiguity=0.2, seed=5,
                  val_fraction=0.25, protocol_seed=4.0)
    assert set(fields) == {f.name for f in dataclasses.fields(SynthConfig)}
    assert cli._CONFIG_KEYS == set(fields) | {"preset"}
    config = cli._load_config(write_config(tmp_path, **fields))
    assert config == SynthConfig(**dict(fields, samples_per_identity=(3, 5),
                                        quality_kappa_range=(5.0, 200.0)))
    assert type(config.d) is type(config.samples_per_identity[0]) is type(config.protocol_seed) is int
    out = os.path.join(tmp_path, "bundle")
    assert cli.main(["gen", "--config", write_config(tmp_path, **fields), "--out", out]) == 0
    assert read_bundle(out).gallery.d == 8


def test_one_config_gives_one_bundle(tmp_path):
    # the CLI and the library build the same SynthConfig, so they write the same bytes
    fields = dict(val_fraction=0.25, protocol_seed=11)
    cli_out, lib_out = os.path.join(tmp_path, "cli"), os.path.join(tmp_path, "lib")
    assert cli.main(["gen", "--config", write_config(tmp_path, preset="degraded", **fields),
                     "--out", cli_out]) == 0
    write_bundle(generate_protocol(preset_config("degraded", **fields)), lib_out)
    assert sorted(os.listdir(cli_out)) == sorted(os.listdir(lib_out)) == ["manifest.json", "records.jsonl"]
    for name in os.listdir(cli_out):
        with open(os.path.join(cli_out, name), "rb") as a, open(os.path.join(lib_out, name), "rb") as b:
            assert a.read() == b.read()
    assert read_bundle(cli_out).meta["protocol_seed"] == 11


@pytest.mark.parametrize("field", [
    {"samples_per_identity": [2, 3, 4]}, {"quality_kappa_range": 5.0}, {"val_fraction": None},
    {"val_fraction": "0.3"}, {"oog_fraction": None},
])
def test_gen_names_a_malformed_field(tmp_path, capsys, field):
    config = write_config(tmp_path, preset="degraded", **field)
    out = os.path.join(tmp_path, "bundle")
    assert cli.main(["gen", "--config", config, "--out", out]) == 2
    assert next(iter(field)) in capsys.readouterr().err
    assert not os.path.exists(out)


def test_gen_with_one_sample_per_identity_is_a_config_error(tmp_path, capsys):
    # no identity can enter the gallery, whatever oog_fraction says
    config = write_config(tmp_path, preset="degraded", samples_per_identity=[1, 1])
    out = os.path.join(tmp_path, "bundle")
    assert cli.main(["gen", "--config", config, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "a single sample cannot enter the gallery" in err
    assert not os.path.exists(out)


def make_bundle(tmp_path, **overrides):
    config = small_config(tmp_path, **overrides)
    out = os.path.join(tmp_path, "bundle")
    assert cli.main(["gen", "--config", config, "--out", out]) == 0
    return out


def test_eval_outputs(tmp_path, capsys):
    bundle = make_bundle(tmp_path)
    out = os.path.join(tmp_path, "eval")
    code = cli.main(["eval", "--bundle", bundle, "--out", out,
                     "--fpir", "0.2", "--methods", "AccScr,GalUE,SCF"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "prr:" in printed

    with open(os.path.join(out, "report.json")) as fh:
        payload = json.load(fh)
    assert payload["tool"] == "osruq"
    assert payload["methods"] == ["AccScr", "GalUE", "SCF"]
    assert payload["metrics"] == ["F1", "FPIR", "FNIR"]
    assert len(payload["evaluations"]) == 1
    block = payload["evaluations"][0]
    assert block["target_fpir"] == 0.2
    for name in ("AccScr", "GalUE", "SCF"):
        assert isinstance(block["methods"][name]["prr"], float)

    for name in ("AccScr", "GalUE", "SCF"):
        for metric in ("FPIR", "FNIR", "F1"):
            rel = block["methods"][name]["curves"][metric]
            assert rel == os.path.join("curves", "fpir_0.2", f"{name}_{metric}.csv")
            with open(os.path.join(out, rel)) as fh:
                lines = fh.read().splitlines()
            assert lines[0] == "fraction,value"
            assert len(lines) == 102
    for metric in ("FPIR", "FNIR", "F1"):
        for kind in ("oracle", "random"):
            rel = block["reference_curves"][metric][kind]
            assert os.path.isfile(os.path.join(out, rel))


def test_eval_repairs_a_gallery_row_just_past_the_unit_norm_tolerance(tmp_path):
    # the reader measures a norm as Gallery does, so a row Gallery would reject
    # is renormalized on reading rather than accepted as it is
    w = np.random.default_rng(0).standard_normal((31, 16))[30]
    v = w / vmf.row_norms(w[None])[0] * (1.0 + 1e-6 + 2.2e-16)
    # a 1-d np.linalg.norm puts v inside the tolerance, row_norms outside
    assert np.linalg.norm(v) - 1.0 <= vmf.UNIT_NORM_ATOL < vmf.row_norms(v[None])[0] - 1.0
    bundle = os.path.join(tmp_path, "bundle")
    assert cli.main(["gen", "--config", write_config(tmp_path, preset="degraded"), "--out", bundle]) == 0
    records = os.path.join(bundle, "records.jsonl")
    with open(records) as fh:
        lines = fh.read().splitlines(keepends=True)
    first = json.loads(lines[0])
    assert first["role"] == "gallery"
    lines[0] = json.dumps(dict(first, vector=v.tolist())) + "\n"
    with open(records, "w") as fh:
        fh.writelines(lines)
    with pytest.warns(UserWarning, match="renormalizing"):
        code = cli.main(["eval", "--bundle", bundle, "--out", os.path.join(tmp_path, "eval"),
                         "--fpir", "0.1", "--methods", "AccScr,GalUE"])
    assert code == 0


def test_eval_defaults_to_three_targets(tmp_path):
    bundle = make_bundle(tmp_path)
    out = os.path.join(tmp_path, "eval")
    assert cli.main(["eval", "--bundle", bundle, "--out", out,
                     "--methods", "AccScr,GalUE"]) == 0
    with open(os.path.join(out, "report.json")) as fh:
        payload = json.load(fh)
    assert [e["target_fpir"] for e in payload["evaluations"]] == [0.05, 0.1, 0.2]
    assert os.path.isdir(os.path.join(out, "curves", "fpir_0.05"))
    assert os.path.isdir(os.path.join(out, "curves", "fpir_0.1"))
    assert os.path.isdir(os.path.join(out, "curves", "fpir_0.2"))


def test_eval_report_is_byte_deterministic(tmp_path):
    bundle = make_bundle(tmp_path)
    out_a = os.path.join(tmp_path, "ea")
    out_b = os.path.join(tmp_path, "eb")
    args = ["--fpir", "0.2", "--methods", "AccScr,GalUE,HolUE-sum"]
    assert cli.main(["eval", "--bundle", bundle, "--out", out_a] + args) == 0
    assert cli.main(["eval", "--bundle", bundle, "--out", out_b] + args) == 0
    with open(os.path.join(out_a, "report.json"), "rb") as fh:
        blob_a = fh.read()
    with open(os.path.join(out_b, "report.json"), "rb") as fh:
        blob_b = fh.read()
    assert blob_a == blob_b


def test_mixed_preset_at_d512_runs_end_to_end(tmp_path):
    # mixed's concentrations times 512/16: a fixed kappa/d keeps the d=16 geometry
    config = write_config(tmp_path, preset="mixed", d=512, n_identities=80, class_kappa=4800.0,
                          quality_kappa_range=[64.0, 16000.0])
    bundle = os.path.join(tmp_path, "bundle")
    assert cli.main(["gen", "--config", config, "--out", bundle]) == 0
    blobs = []
    for name in ("ea", "eb"):
        out = os.path.join(tmp_path, name)
        assert cli.main(["eval", "--bundle", bundle, "--out", out, "--fpir", "0.1"]) == 0
        with open(os.path.join(out, "report.json"), "rb") as fh:
            blobs.append(fh.read())
    assert blobs[0] == blobs[1]
    (evaluation,) = json.loads(blobs[0])["evaluations"]
    assert all(m["prr"] is not None and math.isfinite(m["prr"]) for m in evaluation["methods"].values())
    assert evaluation["counts"]["tp"] >= evaluation["counts"]["mated_test"] / 2


def test_eval_bundle_and_method_errors(tmp_path, capsys):
    out = os.path.join(tmp_path, "eval")
    assert cli.main(["eval", "--bundle", os.path.join(tmp_path, "nowhere"),
                     "--out", out, "--fpir", "0.2"]) == 2
    assert "[io]" in capsys.readouterr().err

    bundle = make_bundle(tmp_path)
    assert cli.main(["eval", "--bundle", bundle, "--out", out,
                     "--methods", "AccScr,Bogus", "--fpir", "0.2"]) == 2

    with open(os.path.join(bundle, "records.jsonl"), "a") as fh:
        fh.write("not json\n")
    assert cli.main(["eval", "--bundle", bundle, "--out", out, "--fpir", "0.2"]) == 2


def test_eval_exit_3_without_validation_split(tmp_path):
    bundle = make_bundle(tmp_path, val_fraction=0.0)
    out = os.path.join(tmp_path, "eval")
    code = cli.main(["eval", "--bundle", bundle, "--out", out,
                     "--fpir", "0.2", "--methods", "HolUE"])
    assert code == 3
    # the sum variant can be rescued by test-split statistics
    code = cli.main(["eval", "--bundle", bundle, "--out", out, "--fpir", "0.2",
                     "--methods", "HolUE-sum", "--stats-split", "test"])
    assert code == 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_eval_scores_a_subnormal_pfe_variance_without_a_warning(tmp_path):
    # 1 / 5e-324 overflows; PFE scores that probe -0.0, the limit of its harmonic mean
    proto = generate_protocol(preset_config("degraded"))
    i = np.flatnonzero(proto.probes.mated & ~proto.probes.validation)[0]
    sigma2 = proto.probes.pfe_sigma2.copy()
    sigma2[i, 0] = 5e-324
    proto = dataclasses.replace(proto, probes=dataclasses.replace(proto.probes, pfe_sigma2=sigma2))
    bundle, out = os.path.join(tmp_path, "bundle"), os.path.join(tmp_path, "eval")
    write_bundle(proto, bundle)
    assert read_bundle(bundle).probes.pfe_sigma2[i, 0] == 5e-324
    assert cli.main(["eval", "--bundle", bundle, "--out", out, "--fpir", "0.1"]) == 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("temperature, stage", [("1e-200", "calibration"), ("1e-310", "scoring")])
def test_eval_with_a_tiny_temperature_fails_in_its_stage_without_a_warning(tmp_path, capsys, temperature, stage):
    # 1/T times a joint term overflows: at 1e-200 the components' sum of squares, at 1e-310 1/T itself
    bundle = make_bundle(tmp_path)
    out = os.path.join(tmp_path, "eval")
    assert cli.main(["eval", "--bundle", bundle, "--out", out, "--fpir", "0.2",
                     "--temperature", temperature]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: fpir=0.2: {stage}: ") and err.count("\n") == 1, err
    assert not os.path.exists(out)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("fields, name", [
    ({"preset": "mixed", "class_kappa": 1e20}, "class_kappa"),
    ({"preset": "degraded", "quality_kappa_range": [2, 1e20]}, "quality_kappa_range[1]"),
])
def test_gen_rejects_a_concentration_the_sampler_cannot_draw(tmp_path, capsys, fields, name):
    out = os.path.join(tmp_path, "bundle")
    assert cli.main(["gen", "--config", write_config(tmp_path, **fields), "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: invalid config: {name} ") and err.count("\n") == 1, err
    assert not os.path.exists(out)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("fields, name", [
    ({"preset": "mixed", "class_kappa": 10**400}, "class_kappa"),
    ({"preset": "degraded", "quality_kappa_range": [2, 10**400]}, "quality_kappa_range[1]"),
])
def test_gen_rejects_an_integer_beyond_the_float_range(tmp_path, capsys, fields, name):
    # JSON integers are exact, so 1 followed by 400 zeros reaches SynthConfig as an int
    out = os.path.join(tmp_path, "bundle")
    assert cli.main(["gen", "--config", write_config(tmp_path, **fields), "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: invalid config: {name} must be a number") and err.count("\n") == 1, err
    assert not os.path.exists(out)


def pristine_bundle(tmp_path):
    """Every decision comes out correct: mated probes sit exactly on their
    class means and non-mated probes stay below any reachable threshold."""
    d = 16

    def unit(*pairs):
        v = [0.0] * d
        for idx, val in pairs:
            v[idx] = val
        return v

    def row(template_id, subject_id, role, split, vector):
        return {"template_id": template_id, "subject_id": subject_id, "role": role,
                "split": split, "vector": vector, "kappa": None, "pfe_sigma2": None,
                "sf_scale": None}

    records = []
    for i in range(4):
        records.append(row(f"g{i}", f"g{i}", "gallery", None, unit((i, 1.0))))
        records.append(row(f"p{i}", f"g{i}", "probe", "test", unit((i, 1.0))))
    records.append(row("n0", None, "probe", "test", unit((0, 0.6), (4, 0.8))))
    records.append(row("n1", None, "probe", "test", unit((1, 0.5), (5, math.sqrt(0.75)))))

    path = os.path.join(tmp_path, "pristine")
    os.makedirs(path)
    with open(os.path.join(path, "manifest.json"), "w") as fh:
        json.dump({"schema_version": "1", "d": d, "seeds": {}, "gallery_members": {}}, fh)
    with open(os.path.join(path, "records.jsonl"), "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    return path


def test_eval_exit_4_when_prr_undefined(tmp_path):
    # with zero errors the oracle and random references coincide and the
    # ratio cannot be formed
    bundle = pristine_bundle(tmp_path)
    out = os.path.join(tmp_path, "eval")
    code = cli.main(["eval", "--bundle", bundle, "--out", out,
                     "--fpir", "0.1", "--methods", "AccScr,GalUE"])
    assert code == 4
    # the report is still written, with null ratios
    with open(os.path.join(out, "report.json")) as fh:
        payload = json.load(fh)
    block = payload["evaluations"][0]
    assert block["methods"]["AccScr"]["prr"] is None
    assert block["counts"]["fp"] == 0
    assert block["counts"]["fn"] == 0


def test_verify_passes_clean(tmp_path, capsys):
    out = os.path.join(tmp_path, "verify")
    assert cli.main(["verify", "--scope", "bessel", "--out", out]) == 0
    with open(os.path.join(out, "verify.json")) as fh:
        payload = json.load(fh)
    assert payload["passed"] is True
    assert payload["scope"] == "bessel"
    printed = capsys.readouterr().out
    assert "pass" in printed


def test_verify_exit_5_on_injected_fault(tmp_path, monkeypatch):
    original = vmf.log_c_d
    monkeypatch.setattr(vmf, "log_c_d", lambda d, kappa: original(d, kappa) + 1e-3)
    out = os.path.join(tmp_path, "verify")
    assert cli.main(["verify", "--scope", "quadrature", "--out", out]) == 5
    with open(os.path.join(out, "verify.json")) as fh:
        payload = json.load(fh)
    assert payload["passed"] is False
    assert any(c["status"] == "fail" for c in payload["checks"])


@pytest.mark.parametrize("scope", ["bessel", "marginal"])
def test_verify_rejects_negative_seed(tmp_path, capsys, scope):
    out = os.path.join(tmp_path, "verify")
    assert cli.main(["verify", "--scope", scope, "--seed", "-1", "--out", out]) == 2
    assert "error: seed must be a non-negative integer" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0


def test_eval_failing_target_writes_nothing(tmp_path, capsys):
    # the default FPIR 0.2 needs a threshold below every one the mixed
    # preset's gallery can reach; 0.05 and 0.1 succeed before it fails
    config = write_config(tmp_path, preset="mixed")
    bundle = os.path.join(tmp_path, "bundle")
    assert cli.main(["gen", "--config", config, "--out", bundle]) == 0
    out = os.path.join(tmp_path, "eval")
    assert cli.main(["eval", "--bundle", bundle, "--out", out]) == 2
    assert not os.path.exists(os.path.join(out, "curves"))
    assert not os.path.exists(os.path.join(out, "report.json"))
    assert "error: fpir=0.2: operating point: threshold " in capsys.readouterr().err


def test_eval_holue_with_test_stats_split_names_the_cause(tmp_path, capsys):
    bundle = make_bundle(tmp_path)
    out = os.path.join(tmp_path, "eval")
    code = cli.main(["eval", "--bundle", bundle, "--out", out, "--fpir", "0.2",
                     "--methods", "HolUE,HolUE-sum", "--stats-split", "test"])
    assert code == 2
    err = capsys.readouterr().err
    assert "error: fpir=0.2: arguments: HolUE trains on validation labels" in err
    assert "HolUE-sum only" in err
    assert not os.path.exists(os.path.join(out, "report.json"))


def readme_command_lines() -> dict:
    """{subcommand: argv words} of the README's command-line block, brackets and '...' dropped."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        block = fh.read().split("## Command line", 1)[1].split("```", 2)[1]
    commands = {}
    for line in block.splitlines():
        words = [w for w in line.replace("[", " ").replace("]", " ").split() if w != "..."]
        if words[:1] == ["osruq"]:
            command, words = words[1], words[2:]
            commands[command] = [command]
        if words:
            commands[command].extend(words)
    return commands


def test_readme_command_line_matches_parser():
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    commands = readme_command_lines()
    assert sorted(commands) == sorted(subparsers.choices)
    for command, words in commands.items():
        # every a|b choice in the block, one at a time, the others at their first choice
        base = [w.split("|")[0] for w in words]
        for i, word in enumerate(words):
            for choice in word.split("|"):
                parser.parse_args(base[:i] + [choice] + base[i + 1:])  # exits 2 on a rejected word
        documented = {w for w in words if w.startswith("--")}
        options = {s for a in subparsers.choices[command]._actions for s in a.option_strings}
        assert documented == options - {"-h", "--help"}, command
        if command == "eval":
            assert parser.parse_args(base).fpir == [0.05, 0.1]


def a_file(path):
    with open(path, "w") as fh:
        fh.write("not a directory\n")
    return path


def test_gen_unwritable_out_is_an_io_error(tmp_path, capsys, monkeypatch):
    config = small_config(tmp_path)
    taken = a_file(os.path.join(tmp_path, "taken"))
    assert cli.main(["gen", "--config", config, "--out", taken]) == 2
    assert f"error [io]: cannot write to {taken}: not a directory" in capsys.readouterr().err

    def denied(path, exist_ok=False):
        raise PermissionError(13, "Permission denied", path)

    out = os.path.join(tmp_path, "bundle")
    monkeypatch.setattr(os, "makedirs", denied)
    assert cli.main(["gen", "--config", config, "--out", out]) == 2
    err = capsys.readouterr().err
    assert f"error [io]: cannot write to {out}: " in err and "Permission denied" in err
    assert not os.path.exists(out)


def test_eval_rejects_unwritable_out_before_reading_the_bundle(tmp_path, capsys, monkeypatch):
    bundle = make_bundle(tmp_path)
    taken = a_file(os.path.join(tmp_path, "taken"))
    monkeypatch.setattr(cli, "read_bundle", lambda path: pytest.fail("read the bundle"))
    assert cli.main(["eval", "--bundle", bundle, "--out", taken, "--fpir", "0.2"]) == 2
    assert f"error [io]: cannot write to {taken}: not a directory" in capsys.readouterr().err


def test_eval_unwritable_out_writes_nothing(tmp_path, capsys):
    bundle = make_bundle(tmp_path)
    out = os.path.join(tmp_path, "eval")
    os.makedirs(os.path.join(out, "curves"))
    a_file(os.path.join(out, "curves", "fpir_0.2"))  # --out is a directory, but not writable inside
    assert cli.main(["eval", "--bundle", bundle, "--out", out, "--fpir", "0.2",
                     "--methods", "AccScr"]) == 2
    assert f"error [io]: cannot write to {out}: " in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "report.json"))


def test_a_failed_serialization_writes_nothing(tmp_path, monkeypatch):
    # every output text is built before the first write, so nothing under --out exists
    bundle = make_bundle(tmp_path)

    def broken(value):
        raise ValueError("cannot serialize")

    monkeypatch.setattr(cli, "dumps_canonical", broken)
    out = os.path.join(tmp_path, "eval")
    with pytest.raises(ValueError, match="cannot serialize"):
        cli.main(["eval", "--bundle", bundle, "--out", out, "--fpir", "0.2", "--methods", "AccScr"])
    assert not os.path.exists(out)
    out = os.path.join(tmp_path, "verify")
    with pytest.raises(ValueError, match="cannot serialize"):
        cli.main(["verify", "--scope", "bessel", "--out", out])
    assert not os.path.exists(out)


def test_verify_unwritable_out_is_an_io_error(tmp_path, capsys):
    taken = a_file(os.path.join(tmp_path, "taken"))
    assert cli.main(["verify", "--scope", "bessel", "--out", taken]) == 2
    assert f"error [io]: cannot write to {taken}: not a directory" in capsys.readouterr().err
    below = os.path.join(taken, "verify")
    assert cli.main(["verify", "--scope", "bessel", "--out", below]) == 2
    assert f"error [io]: cannot write to {below}: " in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--temperature", "0"],
    ["--temperature", "0", "--methods", "AccScr"],
    ["--temperature", "inf", "--methods", "AccScr,GalUE"],
    ["--beta", "1.5"],
    ["--max-reject-fraction", "2"],
    ["--max-reject-fraction", "1"],
    ["--seed", "-1"],
    ["--fpir", "1"],
    ["--methods", "AccScr,AccScr"],
], ids=["temperature", "temperature-AccScr", "temperature-inf", "beta", "max-reject-fraction",
        "max-reject-fraction-1", "seed", "fpir", "repeated-method"])
def test_eval_flag_errors_fail_in_the_arguments_stage(tmp_path, capsys, monkeypatch, flags):
    bundle = make_bundle(tmp_path)
    out = os.path.join(tmp_path, "eval")
    monkeypatch.setattr(cli, "read_bundle", lambda path: pytest.fail("read the bundle"))
    assert cli.main(["eval", "--bundle", bundle, "--out", out, "--fpir", "0.2"] + flags) == 2
    target = flags[1] if flags[0] == "--fpir" else "0.2"
    assert f"error: fpir={target}: arguments: " in capsys.readouterr().err
    assert not os.path.exists(out)


def test_eval_rejects_an_empty_method_list(tmp_path, capsys):
    bundle = make_bundle(tmp_path)
    out = os.path.join(tmp_path, "eval")
    assert cli.main(["eval", "--bundle", bundle, "--out", out, "--fpir", "0.2", "--methods", ","]) == 2
    assert "error: fpir=0.2: arguments: no method given; available: AccScr," in capsys.readouterr().err
    assert not os.path.exists(out)


def test_eval_checks_a_huge_manifest_dimension_before_allocating_by_it(tmp_path, capsys):
    # nothing is sized by the manifest's d before a record's vector confirms it; here that would be 7.28 TiB
    bundle = make_bundle(tmp_path)
    manifest_path = os.path.join(bundle, "manifest.json")
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    manifest["d"] = 10**12
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh)
    out = os.path.join(tmp_path, "eval")
    assert cli.main(["eval", "--bundle", bundle, "--out", out, "--fpir", "0.2"]) == 2
    err = capsys.readouterr().err
    assert err == f"error [dimension_mismatch]: line 1: vector has dimension 8, manifest says {10**12}\n"
    assert not os.path.exists(out)


def test_run_seeds_override_the_bundles_seeds(tmp_path):
    bundle = make_bundle(tmp_path)
    manifest_path = os.path.join(bundle, "manifest.json")
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    manifest["seeds"].update(cli_seed=99, shuffle_seed=77, mlp_seed=77)
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh)
    out = os.path.join(tmp_path, "eval")
    assert cli.main(["eval", "--bundle", bundle, "--out", out, "--fpir", "0.2", "--methods", "AccScr",
                     "--seed", "3"]) == 0
    with open(os.path.join(out, "report.json")) as fh:
        assert json.load(fh)["seeds"]["cli_seed"] == 3


def test_eval_accepts_a_probe_beyond_scipys_bessel_range(tmp_path):
    # scipy's ive is NaN at kappa = 1e10, where the power series cannot converge either
    bundle = make_bundle(tmp_path)
    path = os.path.join(bundle, "records.jsonl")
    with open(path) as fh:
        records = [json.loads(line) for line in fh]
    probe = next(r for r in records if r["role"] == "probe" and r["split"] == "test")
    probe["kappa"] = 1e10
    with open(path, "w") as fh:
        fh.writelines(json.dumps(r) + "\n" for r in records)
    out = os.path.join(tmp_path, "eval")
    assert cli.main(["eval", "--bundle", bundle, "--out", out, "--fpir", "0.2"]) == 0


@pytest.mark.parametrize("second", ["0.1000001", "0.1"], ids=["same-tag", "repeat"])
def test_eval_rejects_targets_that_share_a_curve_directory(tmp_path, capsys, monkeypatch, second):
    bundle = make_bundle(tmp_path)
    out = os.path.join(tmp_path, "eval")
    monkeypatch.setattr(cli, "read_bundle", lambda path: pytest.fail("read the bundle"))
    assert cli.main(["eval", "--bundle", bundle, "--out", out, "--fpir", "0.1", "--fpir", second]) == 2
    err = capsys.readouterr().err
    assert f"targets 0.1 and {second} share the curve directory curves/fpir_0.1" in err
    assert "arguments" in err
    assert not os.path.exists(out)


def test_out_below_a_file_fails_before_any_work(tmp_path, capsys, monkeypatch):
    taken = a_file(os.path.join(tmp_path, "taken"))
    below = os.path.join(taken, "x", "y")
    monkeypatch.setattr(cli, "run_verification", lambda **kw: pytest.fail("ran the checks"))
    monkeypatch.setattr(cli, "read_bundle", lambda path: pytest.fail("read the bundle"))
    assert cli.main(["verify", "--scope", "bessel", "--out", below]) == 2
    assert f"error [io]: cannot write to {below}: {taken} is not a directory" in capsys.readouterr().err
    bundle = os.path.join(tmp_path, "bundle")
    assert cli.main(["eval", "--bundle", bundle, "--out", below, "--fpir", "0.1"]) == 2
    assert f"error [io]: cannot write to {below}: " in capsys.readouterr().err


def test_out_without_write_permission_fails_before_any_work(tmp_path, capsys, monkeypatch):
    # the tests may run as root, which may write anywhere: deny through os.access
    asked = []

    def access(path, mode):
        asked.append((path, mode))
        return False

    monkeypatch.setattr(os, "access", access)
    monkeypatch.setattr(cli, "run_verification", lambda **kw: pytest.fail("ran the checks"))
    out = os.path.join(tmp_path, "new", "verify")
    assert cli.main(["verify", "--scope", "bessel", "--out", out]) == 2
    assert f"error [io]: cannot write to {out}: no write permission in {tmp_path}" in capsys.readouterr().err
    assert asked == [(str(tmp_path), os.W_OK | os.X_OK)]
    assert not os.path.exists(os.path.join(tmp_path, "new"))
