import argparse
import json
import math
import os

import pytest

from osruq import cli, vmf
from osruq.bundle import read_bundle


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
    assert len(proto.mated_probes) > 0
    assert len(proto.nonmated_probes) > 0


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
    ["--beta", "1.5"],
    ["--max-reject-fraction", "2"],
    ["--seed", "-1"],
], ids=["temperature", "temperature-AccScr", "beta", "max-reject-fraction", "seed"])
def test_eval_flag_errors_fail_in_the_arguments_stage(tmp_path, capsys, flags):
    bundle = make_bundle(tmp_path)
    out = os.path.join(tmp_path, "eval")
    assert cli.main(["eval", "--bundle", bundle, "--out", out, "--fpir", "0.2"] + flags) == 2
    assert "error: fpir=0.2: arguments: " in capsys.readouterr().err
    assert not os.path.exists(out)


def test_eval_rejects_an_empty_method_list(tmp_path, capsys):
    bundle = make_bundle(tmp_path)
    out = os.path.join(tmp_path, "eval")
    assert cli.main(["eval", "--bundle", bundle, "--out", out, "--fpir", "0.2", "--methods", ","]) == 2
    assert "error: no method given; available: AccScr," in capsys.readouterr().err
    assert not os.path.exists(out)


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
