"""Golden bytes: the SHA-256 of every preset's bundle and report.

Same-process determinism tests cannot catch a byte change that is stable from
run to run; these hashes can. The report hashes equal the table in
``perfbench/README.md``; ``verify.json`` is pinned too. They no longer depend
on scipy's ``logsumexp`` (``vmf.logsumexp`` repeats its arithmetic), but they
still depend on the last bits of numpy's ``log`` and row sums and of scipy's
``ive`` and ``gammaln``, as well as on this code, so CI pins the numpy and
scipy versions.
"""

import hashlib
import json
import os

import pytest

from osruq import cli
from osruq.bundle import MANIFEST_NAME, RECORDS_NAME

GOLDEN = {
    "ambiguous": {
        MANIFEST_NAME: "b55ef3df976b45851f2eaa207ec15396166d228bf114501b6b7164b2f707f45c",
        RECORDS_NAME: "4c24574af6f1371b06150d9543d6732b2bbe7141aa5bab238bf3aaff23b0f03b",
        "report.json": "7f3813a5e7585c71de6719c6f04e9683bb95f0f0c9155ad3dc4a67e39632e6ec",
    },
    "degraded": {
        MANIFEST_NAME: "c54ed116ba333111e26eabe540d16b195ab71b685460dece836da06cfc13e759",
        RECORDS_NAME: "08f17bf0657cab7f93a153d2ac88e6a6c872b3ba45e7574c9c9ccc79acf4101d",
        "report.json": "d7e450c1b75946741c27500a519b64615a5977d1889c237c3afb0b379fd0155f",
    },
    "mixed": {
        MANIFEST_NAME: "a8b89dc2ec2cb2aacfae259e993e5d40acb2773c1e74a478cbd3ccd7572041ec",
        RECORDS_NAME: "83ecf8cbc28e62eff12df7a57239d976f3126105d91b5349728cc30b8c52e40c",
        "report.json": "047960da180a134c1b489f01c525be9a94ed55c3bd4eaa3f51087fba06b8d99d",
    },
}
# verify.json of `osruq verify --scope all --seed 0`
VERIFY_GOLDEN = "570c6f2f7e2dbb2c5fbd27be836c490dc0ba2175f3013c863e149eb8795032fd"


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


def test_verify_bytes(tmp_path):
    assert cli.main(["verify", "--scope", "all", "--seed", "0", "--out", str(tmp_path)]) == 0
    assert sha256(os.path.join(tmp_path, "verify.json")) == VERIFY_GOLDEN
