"""On-disk protocol bundles: manifest.json plus records.jsonl.

Records are one JSON object per line with sorted keys; floats are written
with 17 significant digits (and -0 normalized to 0) so write -> read -> write
is byte-identical and every vector survives bit-exactly. The manifest carries
the schema version, the embedding dimension, record counts, the seeds that
produced the protocol, and the gallery template membership map.

The writer checks every value before it opens a file, formats the stacked
vectors and pfe_sigma2 rows in blocks of 256 rows (one % call per block), and
streams each record line to the file from a fixed template.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import warnings

import numpy as np

from .gallery import Gallery
from .protocol import OsrProtocol, ProbeRecord

SCHEMA_VERSION = "1"

MANIFEST_NAME = "manifest.json"
RECORDS_NAME = "records.jsonl"

# a vector this close to unit norm is accepted as-is; within the repair
# tolerance it is renormalized with a warning; beyond that it is rejected
NORM_ACCEPT = 1e-6
NORM_REPAIR = 1e-3


class BundleError(ValueError):
    """Malformed bundle; ``code`` identifies the specific violation."""

    CODES = ("schema", "non_unit_vector", "duplicate_id", "dimension_mismatch", "io")

    def __init__(self, code: str, message: str):
        if code not in self.CODES:
            raise ValueError(f"unknown bundle error code {code!r}")
        super().__init__(message)
        self.code = code


def _format_float(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"cannot serialize non-finite float {value!r}")
    if value == 0.0:
        value = 0.0  # collapse -0.0 so round trips stay byte-stable
    return format(value, ".17g")


def dumps_canonical(value) -> str:
    """Deterministic JSON: sorted keys, 17-significant-digit floats."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _format_float(float(value))
    if isinstance(value, str):
        return json.dumps(value, ensure_ascii=True)
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(dumps_canonical(v) for v in value) + "]"
    if isinstance(value, dict):
        items = []
        for key in sorted(value):
            if not isinstance(key, str):
                raise ValueError(f"object keys must be strings, got {key!r}")
            items.append(json.dumps(key, ensure_ascii=True) + ":" + dumps_canonical(value[key]))
        return "{" + ",".join(items) + "}"
    raise ValueError(f"cannot serialize value of type {type(value).__name__}")


# one record line; the keys are in sorted order, as dumps_canonical writes them
_RECORD_LINE = ('{"kappa":%s,"pfe_sigma2":%s,"role":%s,"sf_scale":%s,"split":%s,'
                '"subject_id":%s,"template_id":%s,"vector":%s}\n')


def _row_texts(rows: list, d: int, what: str):
    """Check every entry now; return the rows' texts, formatted 256 rows per % call as read."""
    matrix = np.vstack(rows, dtype=np.float64) if rows else np.empty((0, d))
    if not np.isfinite(matrix).all():
        raise ValueError(f"cannot serialize non-finite float in a {what}")
    row = "[" + ",".join(["%.17g"] * matrix.shape[1]) + "]"
    blocks = (matrix[i:i + 256] + 0.0 for i in range(0, len(matrix), 256))  # + 0.0 folds -0 to 0
    return itertools.chain.from_iterable(
        ("\n".join([row] * len(block)) % tuple(block.ravel().tolist())).split("\n") for block in blocks)


def write_bundle(protocol: OsrProtocol, path: str) -> None:
    """Write a protocol to ``path`` (a directory, created if needed); a failed write writes no file."""
    gal = protocol.gallery
    order = sorted(range(gal.k), key=gal.class_ids.__getitem__)
    probes = sorted(list(protocol.mated_probes) + list(protocol.nonmated_probes),
                    key=lambda p: p.probe_id)
    scalars = [tuple(dumps_canonical(None if v is None else float(v)) for v in (p.kappa, p.sf_scale))
               for p in probes]
    vectors = _row_texts([gal.means[order]] + [p.mean for p in probes], gal.d, "vector")
    sigma2 = _row_texts([p.pfe_sigma2 for p in probes if p.pfe_sigma2 is not None], gal.d, "pfe_sigma2")
    manifest = dumps_canonical({
        "schema_version": SCHEMA_VERSION,
        "d": int(gal.d),
        "counts": {
            "gallery": gal.k,
            "mated_probes": len(protocol.mated_probes),
            "nonmated_probes": len(protocol.nonmated_probes),
            "validation_probes": sum(p.split == "validation" for p in probes),
            "test_probes": sum(p.split == "test" for p in probes),
        },
        "seeds": {k: v for k, v in protocol.meta.items()},
        "gallery_members": {k: list(v) for k, v in sorted(protocol.gallery_members.items())},
    }) + "\n"
    os.makedirs(path, exist_ok=True)
    with open(os.path.join(path, MANIFEST_NAME), "w", encoding="ascii") as fh:
        fh.write(manifest)
    with open(os.path.join(path, RECORDS_NAME), "w", encoding="ascii") as fh:
        for i in order:
            c = dumps_canonical(gal.class_ids[i])
            fh.write(_RECORD_LINE % ("null", "null", '"gallery"', "null", "null", c, c, next(vectors)))
        for p, (kappa, sf_scale) in zip(probes, scalars):
            fh.write(_RECORD_LINE % (
                kappa, "null" if p.pfe_sigma2 is None else next(sigma2), '"probe"', sf_scale,
                dumps_canonical(p.split), dumps_canonical(p.class_id), dumps_canonical(p.probe_id),
                next(vectors)))


_REQUIRED_KEYS = frozenset(("template_id", "subject_id", "role", "split", "vector", "kappa", "pfe_sigma2", "sf_scale"))


def _is_number_list(raw) -> bool:
    # json.loads yields exact types, so this rejects bools, strings and nested lists
    return isinstance(raw, list) and set(map(type, raw)) <= {int, float}


def _parse_vector(raw, d: int, line_no: int, template_id: str) -> np.ndarray:
    if not _is_number_list(raw):
        raise BundleError("schema", f"line {line_no}: vector must be an array of numbers")
    vec = np.asarray(raw, dtype=np.float64)
    if vec.shape[0] != d:
        raise BundleError("dimension_mismatch",
                          f"line {line_no}: vector has dimension {vec.shape[0]}, manifest says {d}")
    if not np.isfinite(vec).all():
        raise BundleError("schema", f"line {line_no}: vector has non-finite entries")
    norm = float(np.linalg.norm(vec))
    if abs(norm - 1.0) <= NORM_ACCEPT:
        return vec
    if abs(norm - 1.0) <= NORM_REPAIR:
        warnings.warn(f"renormalizing template {template_id!r}: norm was {norm:.8f}",
                      stacklevel=2)
        return vec / norm
    raise BundleError("non_unit_vector",
                      f"line {line_no}: vector norm {norm:.6f} is beyond repair tolerance {NORM_REPAIR}")


def _parse_optional_number(raw, name: str, line_no: int, positive: bool = False) -> float | None:
    if raw is None:
        return None
    if isinstance(raw, bool) or not isinstance(raw, (int, float)) or not math.isfinite(float(raw)):
        raise BundleError("schema", f"line {line_no}: {name} must be a finite number or null")
    value = float(raw)
    if positive and value <= 0.0:
        raise BundleError("schema", f"line {line_no}: {name} must be > 0")
    return value


def read_bundle(path: str) -> OsrProtocol:
    """Read a bundle directory back into an OsrProtocol (sorted, validated)."""
    manifest_path = os.path.join(path, MANIFEST_NAME)
    records_path = os.path.join(path, RECORDS_NAME)
    for p in (manifest_path, records_path):
        if not os.path.isfile(p):
            raise BundleError("io", f"missing bundle file {p}")
    try:
        with open(manifest_path, encoding="ascii") as fh:
            manifest = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise BundleError("schema", f"manifest is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("schema_version") != SCHEMA_VERSION:
        raise BundleError("schema",
                          f"unsupported schema_version {manifest.get('schema_version')!r}")
    d = manifest.get("d")
    if not isinstance(d, int) or d < 2:
        raise BundleError("schema", f"manifest d must be an integer >= 2, got {d!r}")
    sections = {key: manifest.get(key, {}) for key in ("counts", "gallery_members", "seeds")}
    for key, value in sections.items():
        if not isinstance(value, dict):
            raise BundleError("schema", f"manifest {key} must be a JSON object, got {value!r}")
    if not all(isinstance(v, list) and set(map(type, v)) <= {str} for v in sections["gallery_members"].values()):
        raise BundleError("schema", "manifest gallery_members values must be lists of strings")

    gallery_rows = {}
    probe_rows = {}
    with open(records_path, encoding="ascii") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise BundleError("schema", f"line {line_no}: not valid JSON") from exc
            if not isinstance(rec, dict) or rec.keys() != _REQUIRED_KEYS:
                raise BundleError("schema",
                                  f"line {line_no}: expected exactly keys {sorted(_REQUIRED_KEYS)}")
            template_id = rec["template_id"]
            subject_id = rec["subject_id"]
            role = rec["role"]
            split = rec["split"]
            if not isinstance(template_id, str) or not template_id:
                raise BundleError("schema", f"line {line_no}: template_id must be a non-empty string")
            if subject_id is not None and not isinstance(subject_id, str):
                raise BundleError("schema", f"line {line_no}: subject_id must be a string or null")
            if role not in ("gallery", "probe"):
                raise BundleError("schema", f"line {line_no}: role must be gallery or probe")
            vec = _parse_vector(rec["vector"], d, line_no, template_id)
            kappa = _parse_optional_number(rec["kappa"], "kappa", line_no, positive=True)
            sf_scale = _parse_optional_number(rec["sf_scale"], "sf_scale", line_no)
            sigma2 = rec["pfe_sigma2"]
            if sigma2 is not None:
                if not isinstance(sigma2, list) or len(sigma2) != d:
                    raise BundleError("dimension_mismatch",
                                      f"line {line_no}: pfe_sigma2 must be an array of length {d}")
                if not _is_number_list(sigma2):
                    raise BundleError("schema", f"line {line_no}: pfe_sigma2 must be an array of numbers")
                sigma2 = np.asarray(sigma2, dtype=np.float64)
                if not np.isfinite(sigma2).all() or (sigma2 <= 0.0).any():
                    raise BundleError("schema", f"line {line_no}: pfe_sigma2 must be > 0")
            if role == "gallery":
                if subject_id is None:
                    raise BundleError("schema", f"line {line_no}: gallery records need a subject_id")
                if split is not None:
                    raise BundleError("schema", f"line {line_no}: gallery records take split null")
                if template_id in gallery_rows:
                    raise BundleError("duplicate_id",
                                      f"line {line_no}: duplicate gallery template_id {template_id!r}")
                gallery_rows[template_id] = (subject_id, vec)
            else:
                if split not in ("validation", "test"):
                    raise BundleError("schema",
                                      f"line {line_no}: probe split must be validation or test")
                if template_id in probe_rows:
                    raise BundleError("duplicate_id",
                                      f"line {line_no}: duplicate probe template_id {template_id!r}")
                probe_rows[template_id] = ProbeRecord(
                    probe_id=template_id, class_id=subject_id, mean=vec, kappa=kappa,
                    pfe_sigma2=sigma2, sf_scale=sf_scale, split=split)

    if not gallery_rows:
        raise BundleError("schema", "bundle contains no gallery records")
    ordered = sorted(gallery_rows)
    subjects = [gallery_rows[t][0] for t in ordered]
    if len(set(subjects)) != len(subjects):
        raise BundleError("duplicate_id", "two gallery templates share a subject_id")
    gallery = Gallery(class_ids=tuple(subjects),
                      means=np.vstack([gallery_rows[t][1] for t in ordered]))

    counts = sections["counts"]
    mated = tuple(p for _, p in sorted(probe_rows.items()) if p.class_id is not None)
    nonmated = tuple(p for _, p in sorted(probe_rows.items()) if p.class_id is None)
    splits = [p.split for p in probe_rows.values()]
    expected = {"gallery": gallery.k, "mated_probes": len(mated), "nonmated_probes": len(nonmated),
                "validation_probes": splits.count("validation"), "test_probes": splits.count("test")}
    for key, value in expected.items():
        if key in counts and counts[key] != value:
            raise BundleError("schema",
                              f"manifest counts[{key!r}]={counts[key]} but records contain {value}")

    return OsrProtocol(
        gallery=gallery,
        mated_probes=mated,
        nonmated_probes=nonmated,
        gallery_members={k: tuple(v) for k, v in sections["gallery_members"].items()},
        meta=dict(sections["seeds"]),
    )
