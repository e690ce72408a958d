"""On-disk protocol bundles: manifest.json plus records.jsonl.

Records are one JSON object per line with sorted keys. Their floats are the
shortest round-trip text, written by orjson (-0 as 0), so write -> read ->
write is byte-identical and any JSON parser reads every vector back
bit-exactly; the manifest keeps 17 significant digits. The manifest carries
the schema version, the embedding dimension, record counts, the seeds that
produced the protocol, and the gallery template membership map.

The writer checks every value before it opens a file. The reader parses with
orjson, which rejects NaN, Infinity, overflowing numbers and lone surrogates.
"""

from __future__ import annotations

import json
import math
import os
import warnings

import numpy as np
import orjson

from . import vmf
from .gallery import Gallery
from .protocol import OsrProtocol, ProbeTable

SCHEMA_VERSION = "1"

MANIFEST_NAME = "manifest.json"
RECORDS_NAME = "records.jsonl"

# a vector within vmf.UNIT_NORM_ATOL of unit norm is accepted as-is; within
# the repair tolerance it is renormalized with a warning; beyond that it is rejected
NORM_REPAIR = 1e-3


class BundleError(ValueError):
    """Malformed bundle; ``code`` identifies the specific violation."""

    CODES = ("schema", "non_unit_vector", "duplicate_id", "dimension_mismatch", "io")

    def __init__(self, code: str, message: str):
        if code not in self.CODES:
            raise ValueError(f"unknown bundle error code {code!r}")
        super().__init__(message)
        self.code = code


def dumps_canonical(value) -> str:
    """Deterministic JSON: sorted keys, 17-significant-digit floats."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            raise ValueError(f"cannot serialize non-finite float {value!r}")
        return format(float(value) + 0.0, ".17g")  # + 0.0 folds -0 to 0, so round trips stay byte-stable
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


def _row_texts(column: np.ndarray, rows, what: str):
    """Check a column's rows now; return each one's shortest round-trip text, -0 as 0, formatted as read.

    Each row is copied on its own: a copy of the column would add a bundle-sized peak.
    """
    if not np.isfinite(column).all(axis=tuple(range(1, column.ndim)))[rows].all():  # per row, 1-d or 2-d
        raise ValueError(f"cannot serialize non-finite float in a {what}")
    return (orjson.dumps(column[i] + 0.0, option=orjson.OPT_SERIALIZE_NUMPY).decode("ascii") for i in rows)


_OPTIONAL = ("kappa", "pfe_sigma2", "sf_scale")  # in the order of the record line


def _counts(gallery: Gallery, probes: ProbeTable) -> dict:
    """The manifest's record counts: write_bundle writes them and read_bundle checks the records against them."""
    return {"gallery": gallery.k, "mated_probes": int(probes.mated.sum()),
            "nonmated_probes": int((~probes.mated).sum()), "validation_probes": int(probes.validation.sum()),
            "test_probes": int((~probes.validation).sum())}


def write_bundle(protocol: OsrProtocol, path: str) -> None:
    """Write a protocol to ``path`` (a directory, created if needed).

    A bad value fails before any file opens; an OSError while records.jsonl is written leaves manifest.json behind.
    """
    gal, t = protocol.gallery, protocol.probes
    order = sorted(range(gal.k), key=gal.class_ids.__getitem__)
    by_id = np.argsort(t.ids, kind="stable")  # the file lists probes by id
    present = [getattr(t, "has_" + name)[by_id] for name in _OPTIONAL]
    optional = [_row_texts(getattr(t, name), by_id[has], name) for name, has in zip(_OPTIONAL, present)]
    gallery_vectors = _row_texts(gal.means, order, "vector")
    vectors = _row_texts(t.means, by_id, "vector")
    manifest = dumps_canonical({
        "schema_version": SCHEMA_VERSION,
        "d": int(gal.d),
        "counts": _counts(gal, t),
        "seeds": {k: v for k, v in protocol.meta.items()},
        "gallery_members": {k: list(v) for k, v in sorted(protocol.gallery_members.items())},
    }) + "\n"
    os.makedirs(path, exist_ok=True)
    with open(os.path.join(path, MANIFEST_NAME), "w", encoding="ascii") as fh:
        fh.write(manifest)
    with open(os.path.join(path, RECORDS_NAME), "w", encoding="ascii") as fh:
        for i in order:
            c = dumps_canonical(gal.class_ids[i])
            fh.write(_RECORD_LINE % ("null", "null", '"gallery"', "null", "null", c, c, next(gallery_vectors)))
        for probe_id, c, validation, *has in zip(t.ids[by_id].tolist(), t.class_index[by_id].tolist(),
                                                 t.validation[by_id].tolist(), *(p.tolist() for p in present)):
            kappa, sigma2, sf_scale = (next(texts) if h else "null" for texts, h in zip(optional, has))
            fh.write(_RECORD_LINE % (
                kappa, sigma2, '"probe"', sf_scale, '"validation"' if validation else '"test"',
                dumps_canonical(gal.class_ids[c] if c >= 0 else None), dumps_canonical(probe_id), next(vectors)))


_REQUIRED_KEYS = frozenset(("template_id", "subject_id", "role", "split", "vector", "kappa", "pfe_sigma2", "sf_scale"))


def _is_number_list(raw) -> bool:
    # orjson.loads yields exact types and only finite floats: this rejects bools, strings, nested lists
    return isinstance(raw, list) and set(map(type, raw)) <= {int, float}


def _parse_vector(raw, d: int, line_no: int, template_id: str) -> np.ndarray:
    if not _is_number_list(raw):
        raise BundleError("schema", f"line {line_no}: vector must be an array of numbers")
    vec = np.asarray(raw, dtype=np.float64)
    if vec.shape[0] != d:
        raise BundleError("dimension_mismatch",
                          f"line {line_no}: vector has dimension {vec.shape[0]}, manifest says {d}")
    norm = float(vmf.row_norms(vec))  # the measure Gallery and cosines check
    if abs(norm - 1.0) <= vmf.UNIT_NORM_ATOL:
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
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise BundleError("schema", f"line {line_no}: {name} must be a finite number or null")
    value = float(raw)
    if positive and value <= 0.0:
        raise BundleError("schema", f"line {line_no}: {name} must be > 0")
    return value


def _lines(path: str):
    """The lines of a text file; an OSError while opening or reading it is an io BundleError."""
    try:
        with open(path, encoding="ascii", errors="surrogateescape") as fh:
            yield from fh
    except OSError as exc:
        raise BundleError("io", f"cannot read {path}: {exc}") from exc


def _shown(value) -> str:
    """A manifest value as a message names it: a scalar's repr, an array's or object's JSON type."""
    return "an array" if isinstance(value, list) else "an object" if isinstance(value, dict) else repr(value)


def read_bundle(path: str) -> OsrProtocol:
    """Read a bundle directory back into an OsrProtocol (validated)."""
    manifest_path = os.path.join(path, MANIFEST_NAME)
    records_path = os.path.join(path, RECORDS_NAME)
    for p in (manifest_path, records_path):
        if not os.path.isfile(p):
            raise BundleError("io", f"missing bundle file {p}")
    try:
        with open(manifest_path, encoding="ascii") as fh:
            manifest = orjson.loads(fh.read())
    except OSError as exc:
        raise BundleError("io", f"cannot read {manifest_path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise BundleError("schema", f"manifest is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise BundleError("schema", "manifest must be a JSON object")
    if manifest.get("schema_version") != SCHEMA_VERSION:
        raise BundleError("schema", f"unsupported schema_version {_shown(manifest.get('schema_version'))}")
    d = manifest.get("d")
    if not isinstance(d, int) or d < 2:
        raise BundleError("schema", f"manifest d must be an integer >= 2, got {_shown(d)}")
    sections = {key: manifest.get(key, {}) for key in ("counts", "gallery_members", "seeds")}
    for key, value in sections.items():
        if not isinstance(value, dict):
            raise BundleError("schema", f"manifest {key} must be a JSON object, got {_shown(value)}")
    if not all(isinstance(v, list) and set(map(type, v)) <= {str} for v in sections["gallery_members"].values()):
        raise BundleError("schema", "manifest gallery_members values must be lists of strings")
    if not set(map(type, sections["seeds"].values())) <= {str, int, float, bool, type(None)}:
        raise BundleError("schema", "manifest seeds values must be JSON scalars")  # the report copies them

    # probe columns in ProbeTable's field order, with subject ids for class_index and
    # zeros for an absent field. Mated probes are kept apart and go first, as the table
    # orders them, so the table of a file written in id order makes no copy.
    gallery_rows, seen = {}, set()
    groups = {mated: tuple([] for _ in range(10)) for mated in (True, False)}
    no_sigma2 = None  # the zero row of a probe without pfe_sigma2, made once a vector has confirmed d
    for line_no, line in enumerate(_lines(records_path), start=1):
        if not line.isascii():  # a non-ASCII byte reads as a lone surrogate
            raise BundleError("schema", f"line {line_no}: not ASCII text")
        line = line.strip()
        if not line:
            continue
        try:
            rec = orjson.loads(line)
        except json.JSONDecodeError as exc:
            raise BundleError("schema", f"line {line_no}: not valid JSON") from exc
        if not isinstance(rec, dict) or rec.keys() != _REQUIRED_KEYS:
            raise BundleError("schema", f"line {line_no}: expected exactly keys {sorted(_REQUIRED_KEYS)}")
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
                raise BundleError("dimension_mismatch", f"line {line_no}: pfe_sigma2 must be an array of length {d}")
            if not _is_number_list(sigma2):
                raise BundleError("schema", f"line {line_no}: pfe_sigma2 must be an array of numbers")
            sigma2 = np.asarray(sigma2, dtype=np.float64)
            if (sigma2 <= 0.0).any():
                raise BundleError("schema", f"line {line_no}: pfe_sigma2 must be > 0")
        if role == "gallery":
            if subject_id is None:
                raise BundleError("schema", f"line {line_no}: gallery records need a subject_id")
            for key in ("split", "kappa", "pfe_sigma2", "sf_scale"):
                if rec[key] is not None:
                    raise BundleError("schema", f"line {line_no}: gallery records take {key} null")
            if template_id in gallery_rows:
                raise BundleError("duplicate_id", f"line {line_no}: duplicate gallery template_id {template_id!r}")
            gallery_rows[template_id] = (subject_id, vec)
        else:
            if split not in ("validation", "test"):
                raise BundleError("schema", f"line {line_no}: probe split must be validation or test")
            if template_id in seen:
                raise BundleError("duplicate_id", f"line {line_no}: duplicate probe template_id {template_id!r}")
            seen.add(template_id)
            if sigma2 is None and no_sigma2 is None:
                no_sigma2 = np.zeros(d)
            row = (template_id, subject_id, vec, 0.0 if kappa is None else kappa, kappa is not None,
                   0.0 if sf_scale is None else sf_scale, sf_scale is not None,
                   no_sigma2 if sigma2 is None else sigma2, sigma2 is not None, split == "validation")
            for column, value in zip(groups[subject_id is not None], row):
                column.append(value)

    if not gallery_rows:
        raise BundleError("schema", "bundle contains no gallery records")
    ids, subjects, means, *quality, pfe_sigma2, has_pfe_sigma2, validation = (
        mated + nonmated for mated, nonmated in zip(groups[True], groups[False]))
    ordered = sorted(gallery_rows)
    subject_of = [gallery_rows[t][0] for t in ordered]
    index = {s: c for c, s in enumerate(subject_of)}
    if len(index) != len(subject_of):
        raise BundleError("duplicate_id", "two gallery templates share a subject_id")
    gallery = Gallery(class_ids=tuple(subject_of),
                      means=np.vstack([gallery_rows[t][1] for t in ordered]))

    stray = sorted((t, s) for t, s in zip(ids, subjects) if s is not None and s not in index)
    if stray:
        raise BundleError("schema", f"probe {stray[0][0]!r}: subject_id {stray[0][1]!r} "
                                    "names no gallery subject; a non-mated probe takes subject_id null")
    probes = ProbeTable(ids, [-1 if s is None else index[s] for s in subjects], np.reshape(means, (-1, d)),
                        *quality, np.reshape(pfe_sigma2, (-1, d)), has_pfe_sigma2, validation)

    counts = sections["counts"]
    for key, value in _counts(gallery, probes).items():
        if key in counts and (type(counts[key]) is not int or counts[key] != value):  # true and 1.0 are not 1
            raise BundleError("schema", f"manifest counts[{key!r}]={_shown(counts[key])} but records contain {value}")
    return OsrProtocol(
        gallery=gallery,
        probes=probes,
        gallery_members={k: tuple(v) for k, v in sections["gallery_members"].items()},
        meta=dict(sections["seeds"]),
    )
