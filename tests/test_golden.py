"""Golden bytes: the SHA-256 of every preset's bundle and report.

Same-process determinism tests cannot catch a byte change that is stable from
run to run; these hashes can. The report hashes equal the table in
``perfbench/README.md``; ``verify.json`` is pinned too. Reports and
``verify.json`` depend on the last bits of numpy's ``exp``, ``log``, row sums
and matrix products (through the BLAS its wheel bundles), as well as on this
code. Neither depends on scipy's bits: vmf's special functions and the
oracle's references are numpy and ``math``. So CI pins the numpy version. The
``records.jsonl`` hashes also depend on orjson's float text (shortest round
trip), so CI pins orjson too.

The d=128 config also carries the paper's headline as a check: there HolUE
ranks recognition errors better than every baseline.
"""

import hashlib
import json
import os

import pytest

from osruq import cli
from osruq.bundle import MANIFEST_NAME, RECORDS_NAME
from osruq.evaluation import run_evaluation
from osruq.protocol import SynthConfig, generate_protocol

GOLDEN = {
    "ambiguous": {
        MANIFEST_NAME: "b55ef3df976b45851f2eaa207ec15396166d228bf114501b6b7164b2f707f45c",
        RECORDS_NAME: "36c3df55a1dbd2b716786743c70308a1eb3e109c7cc22463951127dc05b1a3d7",
        "report.json": "7f3813a5e7585c71de6719c6f04e9683bb95f0f0c9155ad3dc4a67e39632e6ec",
    },
    "degraded": {
        MANIFEST_NAME: "c54ed116ba333111e26eabe540d16b195ab71b685460dece836da06cfc13e759",
        RECORDS_NAME: "1bcba0894430c7b2f09adc6b746763e4f8d302a6b1e07cae1551bda331a58544",
        "report.json": "d7e450c1b75946741c27500a519b64615a5977d1889c237c3afb0b379fd0155f",
    },
    "mixed": {
        MANIFEST_NAME: "a8b89dc2ec2cb2aacfae259e993e5d40acb2773c1e74a478cbd3ccd7572041ec",
        RECORDS_NAME: "69597b7b8ed5c3b0f43f9127d49fce2f26fbb00f1692edddde1547a8b9c94e3f",
        "report.json": "047960da180a134c1b489f01c525be9a94ed55c3bd4eaa3f51087fba06b8d99d",
    },
}
# every pin above is d=16; this one is a d=128 bundle with the concentrations
# scaled to d: the benchmark's d=128 generator config at 200 identities, seed 7
D128_CONFIG = {
    "d": 128, "n_identities": 200, "oog_fraction": 0.3, "samples_per_identity": [4, 8],
    "class_kappa": 1200.0, "quality_kappa_range": [16.0, 4000.0], "ambiguity": 0.3, "seed": 7,
}
D128_GOLDEN = {
    MANIFEST_NAME: "bdc8579e08a1e415afd31705d52bf07d62b80b303887efd3f9a642b4addec1f7",
    RECORDS_NAME: "2c222f2148cad492feecbf207e26c87958b8cd1c3336773ee560cc1a9ad145e5",
}
# verify.json of `osruq verify --scope all --seed 0`; the plain max-shifted vmf.logsumexp
# moved its bessel_series_consistency deviation from 2.138e-14 to 2.155e-14, and the numpy
# Gauss-Legendre quadrature oracle, in place of scipy.integrate.quad, moved its
# normalizer_quadrature deviation from 3.51e-16 to 8.25e-16; drawing the random cases by column
# and grouped by (d, K) gave posterior_linear and kl_t1_linear new cases, which moved their
# deviations from 5.77e-15 to 6.11e-15 and from 2.58e-14 to 1.73e-14; computing vmf's Bessel function
# in numpy (series, Hankel and Debye expansions) in place of scipy's ive replaced the check
# bessel_series_consistency (2.155e-14) with bessel_scipy_reference (2.66e-14) and moved
# bessel_half_integer 7.144e-13 -> 7.138e-13, normalizer_quadrature 8.25e-16 -> 4.95e-16,
# marginal_mc's last digits, posterior_linear 6.11e-15 -> 1.89e-15 and kl_t1_linear 1.73e-14 -> 1.24e-14;
# the Bessel reference by quadrature of the angular integral in place of scipy's ive replaced
# bessel_scipy_reference (2.66e-14) with bessel_quadrature_reference (1.54e-15); normalizer_quadrature's
# grid up to d = 512 and kappa = 1e5, with log_alpha checked against -log S^{d-1} - log C_d, moved it
# 4.95e-16 -> 1.14e-13 (log_alpha at d = 512, kappa = 25.1: 0.615 from two terms near 867 that cancel, an
# ulp of 867); and the linear twins' I_nu by its power series in place of scipy's iv moved posterior_linear
# 1.89e-15 -> 2.16e-15 and kl_t1_linear 1.24e-14 -> 1.42e-14
VERIFY_GOLDEN = "708c6122d8d43858a4fda4818a3fe78d10212ce17548a16250ee21f8c21e2f53"


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("preset", sorted(GOLDEN))
def test_preset_bundle_and_report_bytes(tmp_path, preset):
    config = os.path.join(tmp_path, "config.json")
    with open(config, "w") as fh:
        json.dump({"preset": preset}, fh)
    bundle = os.path.join(tmp_path, "bundle")
    out = os.path.join(tmp_path, "eval")
    assert cli.main(["gen", "--config", config, "--out", bundle]) == 0
    assert cli.main(["eval", "--bundle", bundle, "--out", out, "--fpir", "0.1"]) == 0
    got = {name: sha256(os.path.join(bundle, name)) for name in (MANIFEST_NAME, RECORDS_NAME)}
    got["report.json"] = sha256(os.path.join(out, "report.json"))
    assert got == GOLDEN[preset]


def test_d128_bundle_bytes(tmp_path):
    config = os.path.join(tmp_path, "config.json")
    with open(config, "w") as fh:
        json.dump(D128_CONFIG, fh)
    bundle = os.path.join(tmp_path, "bundle")
    assert cli.main(["gen", "--config", config, "--out", bundle]) == 0
    assert {name: sha256(os.path.join(bundle, name)) for name in D128_GOLDEN} == D128_GOLDEN


def test_holue_beats_every_baseline_at_d128():
    # the paper's claim that HolUE identifies recognition errors better than the quality-only
    # and gallery-only scores; it holds on this d=128 config, not on the d=16 presets (README)
    baselines = ("AccScr", "SCF", "PFE", "SF", "GalUE")
    report = run_evaluation(generate_protocol(SynthConfig(**D128_CONFIG)), 0.1, methods=baselines + ("HolUE",))
    prr = {name: method.prr for name, method in report.methods.items()}
    for name in baselines:
        margin = prr["HolUE"] - prr[name]
        assert margin > 0.0, f"HolUE PRR {prr['HolUE']:.3f} trails {name} {prr[name]:.3f} by {-margin:.3f}"


def test_verify_bytes(tmp_path):
    assert cli.main(["verify", "--scope", "all", "--seed", "0", "--out", str(tmp_path)]) == 0
    assert sha256(os.path.join(tmp_path, "verify.json")) == VERIFY_GOLDEN
