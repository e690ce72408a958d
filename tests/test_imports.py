"""gen and eval stay clear of scipy.integrate; only verify's quadrature check loads it.

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

    def loaded():
        return "scipy.integrate" in sys.modules

    import osruq
    assert not loaded(), "import osruq"
    import osruq.cli
    assert not loaded(), "import osruq.cli"

    out = sys.argv[1]
    config = os.path.join(out, "config.json")
    with open(config, "w") as fh:
        json.dump({"preset": "degraded", "n_identities": 12, "seed": 2}, fh)
    bundle = os.path.join(out, "bundle")
    assert osruq.cli.main(["gen", "--config", config, "--out", bundle]) == 0
    assert osruq.cli.main(["eval", "--bundle", bundle, "--fpir", "0.2", "--out",
                           os.path.join(out, "eval")]) == 0
    assert not loaded(), "gen and eval"

    assert osruq.cli.main(["verify", "--scope", "quadrature", "--out", os.path.join(out, "v")]) == 0
    assert loaded(), "verify --scope quadrature"
""")


def test_gen_and_eval_never_import_scipy_integrate(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
