"""Synthetic identity corpora and open-set identification protocols.

Generation is two-stage: each identity gets a latent mean on the sphere, each
sample first drifts within its identity cluster (class_kappa) and is then
observed under its own quality concentration kappa(x) drawn log-uniformly
from quality_kappa_range. Auxiliary per-sample qualities (a variance vector
and a log-scale) are derived monotonically from kappa(x) with seeded noise so
every baseline has something to read. All draws come from one seeded stream,
so identical seeds give identical corpora.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import vmf
from .gallery import Gallery, aggregate_template


@dataclass(frozen=True)
class SynthConfig:
    d: int = 16
    n_identities: int = 100
    oog_fraction: float = 0.3
    samples_per_identity: tuple[int, int] = (2, 5)
    class_kappa: float = 150.0
    quality_kappa_range: tuple[float, float] = (50.0, 50.0)
    ambiguity: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if int(self.d) != self.d or self.d < 2:
            raise ValueError(f"d must be an integer >= 2, got {self.d!r}")
        if int(self.n_identities) != self.n_identities or self.n_identities < 1:
            raise ValueError("n_identities must be a positive integer")
        if not 0.0 < self.oog_fraction < 1.0:
            raise ValueError(f"oog_fraction must be in (0, 1), got {self.oog_fraction!r}")
        lo, hi = self.samples_per_identity
        if int(lo) != lo or int(hi) != hi or lo < 1 or hi < lo:
            raise ValueError(f"invalid samples_per_identity {self.samples_per_identity!r}")
        if not self.class_kappa > 0.0:  # inf allowed: no intra-class drift
            raise ValueError(f"class_kappa must be > 0, got {self.class_kappa!r}")
        qlo, qhi = self.quality_kappa_range
        if not (np.isfinite(qlo) and np.isfinite(qhi) and 0.0 < qlo <= qhi):
            raise ValueError(f"invalid quality_kappa_range {self.quality_kappa_range!r}")
        if not 0.0 <= self.ambiguity <= 1.0:
            raise ValueError(f"ambiguity must be in [0, 1], got {self.ambiguity!r}")
        object.__setattr__(self, "samples_per_identity", (int(lo), int(hi)))
        object.__setattr__(self, "quality_kappa_range", (float(qlo), float(qhi)))
        object.__setattr__(self, "seed", int(self.seed))


@dataclass(frozen=True)
class SyntheticSample:
    sample_id: str
    identity_id: str
    vector: np.ndarray
    kappa: float
    pfe_sigma2: np.ndarray
    sf_scale: float


@dataclass(frozen=True)
class SampleStore:
    config: SynthConfig
    identity_ids: tuple
    identity_means: np.ndarray
    samples: dict  # identity_id -> tuple of SyntheticSample


@dataclass(frozen=True)
class ProbeRecord:
    probe_id: str
    class_id: str | None  # None marks a non-mated probe
    mean: np.ndarray
    kappa: float | None
    pfe_sigma2: np.ndarray | None
    sf_scale: float | None
    split: str  # "validation" or "test"

    def __post_init__(self):
        if self.split not in ("validation", "test"):
            raise ValueError(f"split must be validation or test, got {self.split!r}")


@dataclass(frozen=True)
class OsrProtocol:
    gallery: Gallery
    mated_probes: tuple
    nonmated_probes: tuple
    gallery_members: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)


def _planted_pair_count(ambiguity: float, n_identities: int) -> int:
    return math.floor(ambiguity * n_identities / 2.0)


def gen_synthetic(config: SynthConfig) -> SampleStore:
    """Draw an identity/sample corpus; deterministic per config.seed."""
    rng = np.random.default_rng(config.seed)
    d = config.d
    n = config.n_identities

    means = vmf._unit_rows(rng.standard_normal((n, d)), rng)

    n_pairs = _planted_pair_count(config.ambiguity, n)
    if n_pairs > 0:
        chosen = rng.permutation(n)[: 2 * n_pairs]
        for a, b in zip(chosen[0::2], chosen[1::2]):
            # re-place identity b close to identity a
            target_cos = rng.uniform(0.92, 0.98)
            tangent = rng.standard_normal(d)
            tangent -= (tangent @ means[a]) * means[a]
            tangent /= np.linalg.norm(tangent)
            means[b] = target_cos * means[a] + math.sqrt(1.0 - target_cos**2) * tangent

    identity_ids = tuple(f"id{i:04d}" for i in range(n))
    lo, hi = config.samples_per_identity
    qlo, qhi = config.quality_kappa_range
    class_kappa = float(config.class_kappa)
    samples = {}
    for i, identity in enumerate(identity_ids):
        n_samples = int(rng.integers(lo, hi + 1))
        mean = vmf.as_unit_vector(means[i])
        records = []
        for j in range(n_samples):
            kappa_x = float(np.exp(rng.uniform(np.log(qlo), np.log(qhi))))
            # one-draw path: the means are unit and both concentrations are > 0
            latent = vmf._draw_one(rng, mean, class_kappa) if np.isfinite(class_kappa) else mean
            observed = vmf._draw_one(rng, latent, kappa_x)
            sigma2 = (1.0 / kappa_x) * (1.0 + rng.uniform(-0.1, 0.1, size=d))
            records.append(SyntheticSample(
                sample_id=f"{identity}_s{j:02d}",
                identity_id=identity,
                vector=observed,
                kappa=kappa_x,
                pfe_sigma2=sigma2,
                sf_scale=float(np.log(kappa_x)),
            ))
        samples[identity] = tuple(records)
    return SampleStore(config=config, identity_ids=identity_ids, identity_means=means, samples=samples)


def build_protocol(store: SampleStore, oog_fraction: float, val_fraction: float, seed: int) -> OsrProtocol:
    """Partition a corpus into gallery, mated and non-mated probes.

    Identities with a single sample cannot give both a gallery template and a
    probe, so they are always treated as out-of-gallery. Remaining identities
    are assigned per oog_fraction; in-gallery samples split into a gallery
    template half and probe samples; probes are then tagged validation/test
    per val_fraction, separately for mated and non-mated.
    """
    if not 0.0 < oog_fraction < 1.0:
        raise ValueError(f"oog_fraction must be in (0, 1), got {oog_fraction!r}")
    if not 0.0 <= val_fraction < 1.0:
        raise ValueError(f"val_fraction must be in [0, 1), got {val_fraction!r}")
    rng = np.random.default_rng(seed)
    ids = list(store.identity_ids)
    n = len(ids)

    singletons = [i for i in ids if len(store.samples[i]) < 2]
    eligible = [i for i in ids if len(store.samples[i]) >= 2]
    n_oog = max(math.floor(oog_fraction * n), len(singletons))
    extra = n_oog - len(singletons)
    shuffled = [eligible[int(j)] for j in rng.permutation(len(eligible))]
    oog_ids = set(singletons) | set(shuffled[:extra])
    gallery_ids = sorted(set(ids) - oog_ids)
    if not gallery_ids:
        raise ValueError("no identities left for the gallery; lower oog_fraction")

    gallery_means = []
    gallery_members = {}
    mated = []
    for identity in gallery_ids:
        records = store.samples[identity]
        perm = rng.permutation(len(records))
        n_gal = max(1, len(records) // 2)
        members = sorted(records[j].sample_id for j in perm[:n_gal])
        gallery_means.append(aggregate_template([records[j].vector for j in perm[:n_gal]]))
        gallery_members[identity] = tuple(members)
        for j in sorted(perm[n_gal:]):
            rec = records[j]
            mated.append((rec, identity))

    nonmated = []
    for identity in sorted(oog_ids):
        for rec in store.samples[identity]:
            nonmated.append((rec, None))

    def tag_splits(entries):
        n_val = math.floor(val_fraction * len(entries))
        perm = rng.permutation(len(entries))
        val_idx = set(int(j) for j in perm[:n_val])
        probes = []
        for j, (rec, class_id) in enumerate(entries):
            probes.append(ProbeRecord(
                probe_id=rec.sample_id,
                class_id=class_id,
                mean=rec.vector,
                kappa=rec.kappa,
                pfe_sigma2=rec.pfe_sigma2,
                sf_scale=rec.sf_scale,
                split="validation" if j in val_idx else "test",
            ))
        return tuple(sorted(probes, key=lambda p: p.probe_id))

    mated_probes = tag_splits(mated)
    nonmated_probes = tag_splits(nonmated)

    gallery = Gallery(class_ids=tuple(gallery_ids), means=np.vstack(gallery_means))
    meta = {
        "generator_seed": store.config.seed,
        "protocol_seed": int(seed),
        "oog_fraction": float(oog_fraction),
        "val_fraction": float(val_fraction),
    }
    return OsrProtocol(gallery=gallery, mated_probes=mated_probes,
                       nonmated_probes=nonmated_probes,
                       gallery_members=gallery_members, meta=meta)


# Scenario presets. "ambiguous" plants near-duplicate identity pairs under
# uniformly high sample quality, so errors trace back to gallery geometry.
# "degraded" spreads sample quality over two orders of magnitude with no
# planted pairs, so errors trace back to bad probes. "mixed" has both.
PRESETS = {
    "ambiguous": SynthConfig(
        d=16, n_identities=500, oog_fraction=0.4, samples_per_identity=(3, 6),
        class_kappa=150.0, quality_kappa_range=(1000.0, 1000.0), ambiguity=0.3, seed=7,
    ),
    "degraded": SynthConfig(
        d=16, n_identities=30, oog_fraction=0.35, samples_per_identity=(8, 14),
        class_kappa=float("inf"), quality_kappa_range=(2.0, 500.0), ambiguity=0.0, seed=7,
    ),
    "mixed": SynthConfig(
        d=16, n_identities=300, oog_fraction=0.3, samples_per_identity=(4, 8),
        class_kappa=150.0, quality_kappa_range=(2.0, 500.0), ambiguity=0.3, seed=7,
    ),
}

DEFAULT_VAL_FRACTION = 0.3


def preset_config(name: str, **overrides) -> SynthConfig:
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    config = PRESETS[name]
    return replace(config, **overrides) if overrides else config


def generate_protocol(config: SynthConfig, val_fraction: float = DEFAULT_VAL_FRACTION,
                      protocol_seed: int | None = None) -> OsrProtocol:
    """Convenience wrapper: corpus generation plus protocol assembly."""
    store = gen_synthetic(config)
    if protocol_seed is None:
        protocol_seed = config.seed + 1
    return build_protocol(store, config.oog_fraction, val_fraction, protocol_seed)
