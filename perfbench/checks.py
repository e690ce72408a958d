"""Correctness checks on the CLI's outputs, computed apart from the program.

Each check returns a list of problems; an empty list means the output passed.
The bundle is parsed with the stdlib json module, decisions are recomputed
with plain numpy from best gallery cosines, and the report's counts and base
metrics are compared against them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
from dataclasses import dataclass

import numpy as np

BUNDLE_FILES = ("manifest.json", "records.jsonl")


@dataclass(frozen=True)
class ParsedBundle:
    gallery_ids: np.ndarray    # (K,) subject ids, file order
    gallery: np.ndarray        # (K, d)
    probe_ids: np.ndarray      # (N,)
    probe_classes: np.ndarray  # (N,) subject id, or None for non-mated probes
    probe_splits: np.ndarray   # (N,) "validation" | "test"
    probes: np.ndarray         # (N, d)
    pfe_sigma2: dict           # probe id -> (d,) array, for probes that carry one


def parse_bundle(path: str) -> ParsedBundle:
    """Read records.jsonl line by line with the stdlib json parser."""
    gal_ids, gal_rows, ids, classes, splits, rows, sigma2 = [], [], [], [], [], [], {}
    with open(os.path.join(path, "records.jsonl"), encoding="ascii") as fh:
        for line in fh:
            rec = json.loads(line)
            vec = np.array(rec["vector"], dtype=np.float64)
            if rec["role"] == "gallery":
                gal_ids.append(rec["subject_id"])
                gal_rows.append(vec)
            else:
                ids.append(rec["template_id"])
                classes.append(rec["subject_id"])
                splits.append(rec["split"])
                rows.append(vec)
                if rec["pfe_sigma2"] is not None:
                    sigma2[rec["template_id"]] = np.array(rec["pfe_sigma2"], dtype=np.float64)
    return ParsedBundle(
        gallery_ids=np.array(gal_ids, dtype=object), gallery=np.vstack(gal_rows),
        probe_ids=np.array(ids, dtype=object), probe_classes=np.array(classes, dtype=object),
        probe_splits=np.array(splits, dtype=object), probes=np.vstack(rows), pfe_sigma2=sigma2)


def file_digest(paths) -> str:
    """SHA-256 over the bytes of the given files, in order."""
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _bits_equal(a, b) -> bool:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def check_bundle_round_trip(bundle: str, rewrite_dir: str, parsed: ParsedBundle) -> list:
    """write -> read -> write gives identical bytes; vectors read back bit-exact."""
    from osruq.bundle import read_bundle, write_bundle

    problems = []
    protocol = read_bundle(bundle)
    write_bundle(protocol, rewrite_dir)
    for name in BUNDLE_FILES:
        with open(os.path.join(bundle, name), "rb") as a, open(os.path.join(rewrite_dir, name), "rb") as b:
            if a.read() != b.read():
                problems.append(f"bundle {name} changed on write -> read -> write")

    gal_row = {cid: i for i, cid in enumerate(parsed.gallery_ids)}
    if sorted(gal_row) != sorted(protocol.gallery.class_ids):
        problems.append("gallery ids read back differ from the records")
    else:
        order = [gal_row[c] for c in protocol.gallery.class_ids]
        if not _bits_equal(protocol.gallery.means, parsed.gallery[order]):
            problems.append("gallery vectors did not read back bit-exact")
    read_probes = {p.probe_id: p for p in protocol.mated_probes + protocol.nonmated_probes}
    if sorted(read_probes) != sorted(parsed.probe_ids):
        problems.append("probe ids read back differ from the records")
    else:
        for pid, vec in zip(parsed.probe_ids, parsed.probes):
            probe = read_probes[pid]
            sigma2 = parsed.pfe_sigma2.get(pid)
            if not _bits_equal(probe.mean, vec) or (
                    sigma2 is not None and not _bits_equal(probe.pfe_sigma2, sigma2)):
                problems.append(f"probe {pid} vectors did not read back bit-exact")
                break
    return problems


def round_trip_problems(bundle: str) -> list:
    """check_bundle_round_trip against a fresh parse, in a scratch directory beside the bundle."""
    rewrite = bundle.rstrip(os.sep) + "-rewrite"
    try:
        return check_bundle_round_trip(bundle, rewrite, parse_bundle(bundle))
    finally:
        shutil.rmtree(rewrite, ignore_errors=True)


def check_evaluation(evaluation: dict, parsed: ParsedBundle) -> list:
    """Recompute one evaluation's decisions, counts and base metrics.

    A test probe is accepted when its best gallery cosine is at least the
    report's tau and is assigned the argmax class.
    """
    problems = []
    tau = evaluation["tau"]
    test = parsed.probe_splits == "test"
    cos = parsed.probes[test] @ parsed.gallery.T
    accepted = cos.max(axis=1) >= tau
    assigned = parsed.gallery_ids[cos.argmax(axis=1)]
    classes = parsed.probe_classes[test]
    mated = np.array([c is not None for c in classes], dtype=bool)
    tp = int(np.sum(mated & accepted & (assigned == classes)))
    fn = int(np.sum(mated)) - tp
    fp = int(np.sum(~mated & accepted))
    n_nonmated = int(np.sum(~mated))

    counts = evaluation["counts"]
    expected = {"tp": tp, "fn": fn, "fp": fp, "gallery": len(parsed.gallery_ids),
                "mated_test": int(np.sum(mated)), "nonmated_test": n_nonmated}
    for key, value in expected.items():
        if counts.get(key) != value:
            problems.append(f"fpir {evaluation['target_fpir']}: counts[{key}] is "
                            f"{counts.get(key)}, recomputed {value}")

    base = evaluation["base"]
    want_fpir = math.floor(evaluation["target_fpir"] * n_nonmated) / n_nonmated
    if base["fpir"] != want_fpir:
        problems.append(f"base fpir {base['fpir']} != floor(target * N) / N = {want_fpir}")
    want_f1 = 2.0 * tp / (2.0 * tp + fp + fn) if tp else 0.0
    want_fnir = fn / (fn + tp) if fn + tp else 0.0
    for key, want in (("f1", want_f1), ("fnir", want_fnir)):
        if not math.isclose(base[key], want, rel_tol=1e-12, abs_tol=1e-15):
            problems.append(f"base {key} {base[key]} != {want} from the recomputed counts")

    for name, method in evaluation["methods"].items():
        prr = method["prr"]
        if not isinstance(prr, (int, float)) or isinstance(prr, bool) or not math.isfinite(prr):
            problems.append(f"fpir {evaluation['target_fpir']}: {name} prr is {prr!r}, not finite")
    return problems


def check_report(report_path: str, parsed: ParsedBundle, targets) -> list:
    """Every requested target is evaluated and passes check_evaluation."""
    with open(report_path, encoding="ascii") as fh:
        report = json.load(fh)
    got = [ev["target_fpir"] for ev in report["evaluations"]]
    problems = [] if got == [float(t) for t in targets] else [
        f"report evaluates targets {got}, asked for {list(targets)}"]
    for evaluation in report["evaluations"]:
        problems += check_evaluation(evaluation, parsed)
    return problems


def check_verify(verify_path: str) -> list:
    """verify.json says passed, and so does every check in it."""
    with open(verify_path, encoding="ascii") as fh:
        report = json.load(fh)
    problems = [] if report.get("passed") is True else ["verify.json does not say passed"]
    problems += [f"verify check {c['name']} has status {c['status']}"
                 for c in report.get("checks", []) if c.get("status") != "pass"]
    return problems if report.get("checks") else problems + ["verify.json lists no checks"]
