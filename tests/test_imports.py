"""Which scipy modules each command loads: gen, eval, --version and a config error load
none (vmf's special functions are numpy and math), verify loads scipy.special as its
Bessel reference, and no command loads scipy.integrate (verify's quadrature oracle is
numpy's Gauss-Legendre rule).

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

    def no_scipy(step):
        scipy = [name for name in sys.modules if name.startswith("scipy")]
        assert not scipy, (step, scipy[:5])

    import osruq
    no_scipy("import osruq")
    import osruq.cli
    no_scipy("import osruq.cli")
    try:
        osruq.cli.main(["--version"])
    except SystemExit as exc:
        assert exc.code == 0, exc.code
    no_scipy("--version")

    out = sys.argv[1]
    config = os.path.join(out, "config.json")
    bundle = os.path.join(out, "bundle")
    with open(config, "w") as fh:
        json.dump({"preset": "degraded", "n_identities": 0}, fh)
    assert osruq.cli.main(["gen", "--config", config, "--out", bundle]) == 2
    no_scipy("gen with a bad config")
    with open(config, "w") as fh:
        json.dump({"preset": "degraded", "n_identities": 12, "seed": 2}, fh)
    assert osruq.cli.main(["gen", "--config", config, "--out", bundle]) == 0
    no_scipy("gen")

    assert osruq.cli.main(["eval", "--bundle", bundle, "--fpir", "0.2", "--out",
                           os.path.join(out, "eval")]) == 0
    no_scipy("eval")
""")

# in an interpreter of its own, so that no other command's imports can stand in for verify's
VERIFY_SCRIPT = textwrap.dedent("""
    import sys
    import osruq.cli

    assert osruq.cli.main(["verify", "--scope", "all", "--out", sys.argv[1]]) == 0
    assert "scipy.special" in sys.modules, "verify --scope all"
    assert "scipy.integrate" not in sys.modules, "verify --scope all"
""")


def run_fresh(script, out):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", script, str(out)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr


def test_scipy_loads_only_in_the_commands_that_compute_with_it(tmp_path):
    run_fresh(SCRIPT, tmp_path)


def test_verify_loads_scipy_special_and_never_scipy_integrate(tmp_path):
    run_fresh(VERIFY_SCRIPT, tmp_path)
