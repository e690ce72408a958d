"""No command loads scipy: import, --version, a config error, gen, eval and verify --scope all
leave no scipy module behind. vmf's special functions are numpy and math, and verify's
references are numpy's Gauss-Legendre quadrature of one angular integral and a power series.

The check runs in a fresh interpreter, where no other test's imports can hide a
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

    assert osruq.cli.main(["verify", "--scope", "all", "--out", os.path.join(out, "verify")]) == 0
    no_scipy("verify --scope all")
""")


def test_scipy_loads_only_in_the_commands_that_compute_with_it(tmp_path):
    # since no command computes with scipy, none may load it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
