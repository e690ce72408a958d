"""Which scipy modules each command loads: gen, --version and a config error load none,
eval loads scipy.special, and only verify's quadrature check loads scipy.integrate.

The checks run in a fresh interpreter, where no other test's imports can hide a
module that osruq itself pulls in.
"""

import os
import subprocess
import sys
import textwrap

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

SCRIPT = textwrap.dedent("""
    import json, os, sys

    def loaded(module):
        return module in sys.modules

    def no_scipy_special(step):
        assert not loaded("scipy.special"), step

    import osruq
    no_scipy_special("import osruq")
    import osruq.cli
    no_scipy_special("import osruq.cli")
    try:
        osruq.cli.main(["--version"])
    except SystemExit as exc:
        assert exc.code == 0, exc.code
    no_scipy_special("--version")

    out = sys.argv[1]
    config = os.path.join(out, "config.json")
    bundle = os.path.join(out, "bundle")
    with open(config, "w") as fh:
        json.dump({"preset": "degraded", "n_identities": 0}, fh)
    assert osruq.cli.main(["gen", "--config", config, "--out", bundle]) == 2
    no_scipy_special("gen with a bad config")
    with open(config, "w") as fh:
        json.dump({"preset": "degraded", "n_identities": 12, "seed": 2}, fh)
    assert osruq.cli.main(["gen", "--config", config, "--out", bundle]) == 0
    no_scipy_special("gen")

    assert osruq.cli.main(["eval", "--bundle", bundle, "--fpir", "0.2", "--out",
                           os.path.join(out, "eval")]) == 0
    assert loaded("scipy.special"), "eval"
    assert not loaded("scipy.integrate"), "gen and eval"

    assert osruq.cli.main(["verify", "--scope", "quadrature", "--out", os.path.join(out, "v")]) == 0
    assert loaded("scipy.integrate"), "verify --scope quadrature"
""")


def test_scipy_loads_only_in_the_commands_that_compute_with_it(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
