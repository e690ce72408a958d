"""Synthetic identity corpora and open-set identification protocols.

Generation is two-stage: each identity gets a latent mean on the sphere, each
sample first drifts within its identity cluster (class_kappa) and is then
observed under its own quality concentration kappa(x) drawn log-uniformly
from quality_kappa_range. Auxiliary per-sample qualities (a variance vector
and a log-scale) are derived monotonically from kappa(x) with seeded noise so
every baseline has something to read. All draws come from one seeded stream,
so identical seeds give identical corpora.

The generator works one block of identities at a time. It makes the block's
RNG calls in stream order, then computes the block's vMF geometry (the radial
acceptance test included) on stacked rows, bit-equal to drawing each sample
in turn with ``vmf.sample_vmf(VmfParams(mean, kappa), rng, 1)``. Where that
call would take more from the stream (after a round of radial candidates
that accepts none, or for a degenerate tangent), the block is replayed from
its saved stream state through that call, one draw at a time, so the corpus
never depends on the block size.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import vmf
from .gallery import Gallery, aggregate_template


# orjson reads an integer above 2**64 - 1 back as a float; below this, a seed and seed + 1 survive the bundle
_INTEGER_LIMIT = 2**63


def _integer(name: str, value, minimum: int) -> int:
    """value as an int in [minimum, _INTEGER_LIMIT); a bool or a non-integral number is an error."""
    integral = isinstance(value, (int, np.integer)) or (
        isinstance(value, (float, np.floating)) and float(value).is_integer())
    if isinstance(value, bool) or not integral or not minimum <= value < _INTEGER_LIMIT:
        raise ValueError(f"{name} must be an integer in [{minimum}, 2**63), got {value!r}")
    return int(value)


@dataclass(frozen=True)
class SynthConfig:
    """Every input of the generator and of the protocol partition, each checked here."""
    d: int = 16
    n_identities: int = 100
    oog_fraction: float = 0.3
    samples_per_identity: tuple[int, int] = (2, 5)
    class_kappa: float = 150.0
    quality_kappa_range: tuple[float, float] = (50.0, 50.0)
    ambiguity: float = 0.0
    seed: int = 0
    val_fraction: float = 0.3
    protocol_seed: int | None = None  # None: seed + 1

    def __post_init__(self):
        for name, minimum in (("d", 2), ("n_identities", 1), ("seed", 0)):
            object.__setattr__(self, name, _integer(name, getattr(self, name), minimum))
        if self.protocol_seed is not None:
            object.__setattr__(self, "protocol_seed", _integer("protocol_seed", self.protocol_seed, 0))
        try:
            (lo, hi), (qlo, qhi) = self.samples_per_identity, self.quality_kappa_range
        except (TypeError, ValueError):
            raise ValueError("samples_per_identity and quality_kappa_range must be two-element arrays, got "
                             f"{self.samples_per_identity!r} and {self.quality_kappa_range!r}") from None
        for name, value in (("oog_fraction", self.oog_fraction), ("val_fraction", self.val_fraction),
                            ("class_kappa", self.class_kappa), ("ambiguity", self.ambiguity),
                            ("quality_kappa_range[0]", qlo), ("quality_kappa_range[1]", qhi)):
            if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
                raise ValueError(f"{name} must be a number, got {value!r}")
            if isinstance(value, int) and abs(value) > sys.float_info.max:  # float(value) would overflow
                raise ValueError(f"{name} must be a number in the float range, got a {value.bit_length()}-bit integer")
        if not 0.0 < self.oog_fraction < 1.0:
            raise ValueError(f"oog_fraction must be in (0, 1), got {self.oog_fraction!r}")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError(f"val_fraction must be in [0, 1), got {self.val_fraction!r}")
        lo = _integer("samples_per_identity[0]", lo, 1)
        hi = _integer("samples_per_identity[1]", hi, lo)
        if not self.class_kappa > 0.0:  # inf allowed: no intra-class drift
            raise ValueError(f"class_kappa must be > 0, got {self.class_kappa!r}")
        if not (np.isfinite(qlo) and np.isfinite(qhi) and 0.0 < qlo <= qhi):
            raise ValueError(f"invalid quality_kappa_range {self.quality_kappa_range!r}")
        for name, kappa in (("class_kappa", self.class_kappa), ("quality_kappa_range[1]", qhi)):
            if np.isfinite(kappa) and not vmf.samplable(kappa, self.d):
                raise ValueError(f"{name} is too large for the vMF sampler at d={self.d}, got {kappa!r}")
        if not 0.0 <= self.ambiguity <= 1.0:
            raise ValueError(f"ambiguity must be in [0, 1], got {self.ambiguity!r}")
        object.__setattr__(self, "samples_per_identity", (lo, hi))
        object.__setattr__(self, "quality_kappa_range", (float(qlo), float(qhi)))


@dataclass(frozen=True)
class SampleStore:
    config: SynthConfig
    identity_ids: tuple
    identity_means: np.ndarray
    # identity_id -> (vectors (m, d), kappa(x) (m,), pfe_sigma2 (m, d)): views into
    # its block's arrays; sample j is named f"{identity_id}_s{j:02d}"
    samples: dict


@dataclass(frozen=True)
class ProbeRecord:
    """The id, mean and pfe_sigma2 (None where absent) of one ProbeTable row, as
    OsrProtocol.mated_probes and nonmated_probes give it."""
    probe_id: str
    mean: np.ndarray
    pfe_sigma2: np.ndarray | None


_COLUMN_TYPES = {"ids": object, "class_index": np.intp, "has_kappa": bool, "has_sf_scale": bool,
                 "has_pfe_sigma2": bool, "validation": bool}  # the other columns are float64


@dataclass(frozen=True)
class ProbeTable:
    """Every probe of a protocol as row-aligned arrays, sorted here, once: mated rows by id, then
    non-mated rows by id. class_index indexes the gallery's class_ids, -1 for a non-mated probe.
    The optional kappa, sf_scale and pfe_sigma2 hold a value only where their has_ mask is True.
    """
    ids: np.ndarray  # (N,) str objects
    class_index: np.ndarray
    means: np.ndarray  # (N, d)
    kappa: np.ndarray
    has_kappa: np.ndarray
    sf_scale: np.ndarray
    has_sf_scale: np.ndarray
    pfe_sigma2: np.ndarray  # (N, d)
    has_pfe_sigma2: np.ndarray
    validation: np.ndarray  # the validation split; the other rows are the test split

    def __post_init__(self):
        columns = {f.name: np.asarray(getattr(self, f.name), dtype=_COLUMN_TYPES.get(f.name, np.float64))
                   for f in fields(self)}
        ids, n = columns["ids"], len(columns["ids"])
        if {len(column) for column in columns.values()} != {n}:
            raise ValueError(f"every probe table column must have one row per probe ({n})")
        if len(set(ids.tolist())) != n:
            raise ValueError("probe ids must be unique")
        if n and columns["class_index"].min() < -1:
            raise ValueError("class_index must be -1 for a non-mated probe or a gallery class index")
        order = np.lexsort((ids, columns["class_index"] < 0))
        moved = not np.array_equal(order, np.arange(n))  # a table built in order is not copied
        for name, column in columns.items():
            column = column[order] if moved else column
            column.flags.writeable = False  # frozen: no reader, the record view included, can write a row back
            object.__setattr__(self, name, column)

    @property
    def mated(self) -> np.ndarray:
        return self.class_index >= 0


@dataclass(frozen=True)
class OsrProtocol:
    gallery: Gallery
    probes: ProbeTable
    gallery_members: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.probes.ids) and self.probes.class_index.max() >= self.gallery.k:
            raise ValueError(f"class_index must be below the gallery's {self.gallery.k} classes")

    def _records(self, mated: bool) -> tuple:
        t = self.probes
        return tuple(ProbeRecord(t.ids[i], t.means[i], t.pfe_sigma2[i] if t.has_pfe_sigma2[i] else None)
                     for i in np.flatnonzero(t.mated == mated))

    @property
    def mated_probes(self) -> tuple:
        """The mated rows as read-only ProbeRecords, by id; perfbench/checks.py is its one reader outside tests."""
        return self._records(True)

    @property
    def nonmated_probes(self) -> tuple:
        """The non-mated rows as read-only ProbeRecords, by id; perfbench/checks.py is its one reader outside tests."""
        return self._records(False)


def _planted_pair_count(ambiguity: float, n_identities: int) -> int:
    return math.floor(ambiguity * n_identities / 2.0)


# Identities are drawn a block at a time. A block's (samples, d) arrays hold
# about this many float64 elements (256 KB), so the blocked temporaries stay
# small whatever the corpus size.
_BLOCK_ELEMENTS = 1 << 15


def _draw_block(rng: np.random.Generator, means: np.ndarray, config: SynthConfig, replay: bool = False):
    """Draw the samples of the identities whose unit means are the rows of ``means``.

    Returns (samples per identity, kappa(x) per sample, observed rows, sigma2
    rows), or None when a draw would take more from the stream than one round
    of radial candidates and one normal row. The RNG calls go in stream order,
    per identity then per sample: n_samples, kappa(x), the latent draw (radial
    candidates then normal row; only for a finite class_kappa), the observed
    draw, the sigma2 noise. ``replay`` makes each draw through ``sample_vmf``.
    """
    d = config.d
    lo, hi = config.samples_per_identity
    log_qlo, log_qhi = (np.log(q) for q in config.quality_kappa_range)
    class_kappa = float(config.class_kappa)
    drift = math.isfinite(class_kappa)
    rows = len(means) * hi
    m = vmf._RADIAL_CANDIDATES
    counts, kappas = [], []
    # index 0 holds the latent draws, index 1 the observed ones
    z, u, g = np.empty((2, rows, m)), np.empty((2, rows, m)), np.empty((2, rows, d))
    envelope = np.empty((3, rows, 1))  # each observed draw's (b, x0, c)
    observed = np.empty((rows, d)) if replay else None
    noise = np.empty((rows, d))
    r = 0
    for mean in means:
        n_samples = int(rng.integers(lo, hi + 1))
        counts.append(n_samples)
        for _ in range(n_samples):
            kappa_x = float(np.exp(rng.uniform(log_qlo, log_qhi)))
            kappas.append(kappa_x)
            if replay:
                latent = vmf.sample_vmf(vmf.VmfParams(mean, class_kappa), rng, 1)[0] if drift else mean
                observed[r] = vmf.sample_vmf(vmf.VmfParams(latent, kappa_x), rng, 1)[0]
            else:
                if drift:
                    z[0, r], u[0, r] = vmf._radial_proposals(rng, d, m)
                    g[0, r] = rng.standard_normal(d)
                z[1, r], u[1, r] = vmf._radial_proposals(rng, d, m)
                g[1, r] = rng.standard_normal(d)
                envelope[:, r, 0] = vmf._radial_envelope(kappa_x, d)
            noise[r] = rng.uniform(-0.1, 0.1, size=d)
            r += 1
    kappa = np.array(kappas)
    if replay:
        observed = observed[:r]
    else:
        latents = np.repeat(means, counts, axis=0)
        if drift:
            latents = vmf._draw_rows(latents, z[0, :r], u[0, :r], class_kappa,
                                     vmf._radial_envelope(class_kappa, d), g[0, :r])
        observed = None if latents is None else vmf._draw_rows(
            latents, z[1, :r], u[1, :r], kappa[:, None], envelope[:, :r], g[1, :r])
        if observed is None:
            return None
    sigma2 = (1.0 / kappa)[:, None] * (1.0 + noise[:r])
    return counts, kappa, observed, sigma2


def gen_synthetic(config: SynthConfig) -> SampleStore:
    """Draw an identity/sample corpus, one block of identities at a time; deterministic per config.seed."""
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
    step = max(1, _BLOCK_ELEMENTS // (d * config.samples_per_identity[1]))
    samples = {}
    for start in range(0, n, step):
        block = means[start:start + step]
        state = rng.bit_generator.state
        drawn = _draw_block(rng, block, config)
        if drawn is None:  # a draw needs more of the stream: redo the block one draw at a time
            rng.bit_generator.state = state
            drawn = _draw_block(rng, block, config, replay=True)
        counts, kappa, observed, sigma2 = drawn
        r = 0
        for identity, n_samples in zip(identity_ids[start:start + step], counts):
            rows = slice(r, r + n_samples)
            samples[identity] = (observed[rows], kappa[rows], sigma2[rows])
            r += n_samples
    return SampleStore(config=config, identity_ids=identity_ids, identity_means=means, samples=samples)


def build_protocol(store: SampleStore) -> OsrProtocol:
    """Partition a corpus into a gallery and a table of mated and non-mated probes.

    It reads three fields of ``store.config``: oog_fraction, val_fraction and
    protocol_seed (seed + 1 when None), which seeds the partition's stream.
    Identities with a single sample cannot give both a gallery template and a
    probe, so they are always out-of-gallery. Remaining identities are
    assigned per oog_fraction; in-gallery samples split into a gallery
    template half and probe samples; probes are then tagged validation/test
    per val_fraction, separately for mated and non-mated. The table holds
    copies, so the store can be freed once the protocol is built.
    """
    config = store.config
    seed = config.seed + 1 if config.protocol_seed is None else config.protocol_seed
    rng = np.random.default_rng(seed)
    ids = list(store.identity_ids)
    n = len(ids)

    singletons = [i for i in ids if len(store.samples[i][1]) < 2]
    eligible = [i for i in ids if len(store.samples[i][1]) >= 2]
    n_oog = max(math.floor(config.oog_fraction * n), len(singletons))
    extra = n_oog - len(singletons)
    shuffled = [eligible[int(j)] for j in rng.permutation(len(eligible))]
    oog_ids = set(singletons) | set(shuffled[:extra])
    gallery_ids = sorted(set(ids) - oog_ids)
    if not gallery_ids:  # only when no identity has two samples
        raise ValueError("every identity has a single sample, and an identity with a single "
                         "sample cannot enter the gallery; raise samples_per_identity")

    gallery_means = []
    gallery_members = {}
    rows = []  # (identity, its probe samples' indices, class index), mated identities first
    for c, identity in enumerate(gallery_ids):
        vectors = store.samples[identity][0]
        perm = rng.permutation(len(vectors))
        n_gal = max(1, len(vectors) // 2)
        gallery_members[identity] = tuple(sorted(f"{identity}_s{j:02d}" for j in perm[:n_gal]))
        gallery_means.append(aggregate_template(vectors[perm[:n_gal]]))
        rows.append((identity, np.sort(perm[n_gal:]), c))
    rows += [(identity, np.arange(len(store.samples[identity][1])), -1) for identity in sorted(oog_ids)]

    n = sum(len(js) for _, js, _ in rows)
    means, kappa, sigma2 = np.empty((n, config.d)), np.empty(n), np.empty((n, config.d))
    r = 0
    for identity, js, _ in rows:
        for column, values in zip((means, kappa, sigma2), store.samples[identity]):
            column[r:r + len(js)] = values[js]
        r += len(js)
    class_index = np.concatenate([np.full(len(js), c) for _, js, c in rows])
    validation = np.zeros(n, dtype=bool)
    for part in (np.flatnonzero(class_index >= 0), np.flatnonzero(class_index < 0)):
        validation[part[rng.permutation(len(part))[:math.floor(config.val_fraction * len(part))]]] = True

    ids, present = [f"{identity}_s{j:02d}" for identity, js, _ in rows for j in js], np.ones(n, dtype=bool)
    probes = ProbeTable(ids, class_index, means, kappa, present, np.log(kappa), present, sigma2, present, validation)
    gallery = Gallery(class_ids=tuple(gallery_ids), means=np.vstack(gallery_means))
    meta = {
        "generator_seed": config.seed,
        "protocol_seed": seed,
        "oog_fraction": float(config.oog_fraction),
        "val_fraction": float(config.val_fraction),
    }
    return OsrProtocol(gallery=gallery, probes=probes, gallery_members=gallery_members, meta=meta)


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


def preset_config(name: str, **overrides) -> SynthConfig:
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    config = PRESETS[name]
    return replace(config, **overrides) if overrides else config


def generate_protocol(config: SynthConfig) -> OsrProtocol:
    """gen_synthetic then build_protocol; the partition reads oog_fraction, val_fraction, protocol_seed."""
    return build_protocol(gen_synthetic(config))
