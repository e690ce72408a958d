import dataclasses
import math
import re

import numpy as np
import pytest

from osruq import protocol as pr, vmf


def small_config(**overrides):
    base = dict(d=6, n_identities=40, oog_fraction=0.3, samples_per_identity=(2, 5),
                class_kappa=80.0, quality_kappa_range=(5.0, 200.0), ambiguity=0.2, seed=3)
    base.update(overrides)
    return pr.SynthConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(d=1)
    with pytest.raises(ValueError):
        small_config(oog_fraction=0.0)
    with pytest.raises(ValueError):
        small_config(samples_per_identity=(5, 2))
    with pytest.raises(ValueError):
        small_config(samples_per_identity=(0, 2))
    with pytest.raises(ValueError):
        small_config(quality_kappa_range=(0.0, 10.0))
    with pytest.raises(ValueError):
        small_config(ambiguity=1.5)
    with pytest.raises(ValueError):
        small_config(class_kappa=0.0)
    # an infinite class concentration (no within-identity drift) is allowed
    small_config(class_kappa=float("inf"))


# each number field, and the field its error names, at an integer that float() cannot hold
BEYOND_FLOATS = {"oog_fraction": {"oog_fraction": 10**400}, "val_fraction": {"val_fraction": -10**400},
                 "class_kappa": {"class_kappa": 10**400}, "ambiguity": {"ambiguity": 10**400},
                 "quality_kappa_range[0]": {"quality_kappa_range": (10**400, 10**401)},
                 "quality_kappa_range[1]": {"quality_kappa_range": (2, 10**400)}}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name, fields", BEYOND_FLOATS.items(), ids=list(BEYOND_FLOATS))
def test_an_integer_beyond_the_float_range_is_a_config_error(name, fields):
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be a number in the float range"):
        small_config(**fields)


@pytest.mark.parametrize("d, log10_limit", [(2, 15.65), (16, 16.83), (512, 18.36)])
def test_a_concentration_the_sampler_cannot_draw_is_a_config_error(d, log10_limit):
    def holds(kappa):  # the radial envelope's 1 - x0**2 has not rounded to 0
        with np.errstate(divide="ignore"):
            x0 = vmf._radial_envelope(kappa, d)[1]
        return 1.0 - x0 * x0 > 0.0

    lo, hi = 1e10, 1e25  # bisect down to adjacent floats: the envelope holds at lo, not at hi
    while hi > np.nextafter(lo, np.inf):
        mid = max(np.nextafter(lo, np.inf), min(np.sqrt(lo) * np.sqrt(hi), np.nextafter(hi, 0.0)))
        lo, hi = (mid, hi) if holds(mid) else (lo, mid)
    assert math.log10(hi) == pytest.approx(log10_limit, abs=0.01)
    with np.errstate(all="ignore"), pytest.raises(RuntimeError, match="failed to converge"):
        vmf._sample_radial(np.random.default_rng(0), hi, d, 1)
    for fields in ({"class_kappa": lo}, {"quality_kappa_range": (2.0, lo)}):
        pr.generate_protocol(small_config(d=d, n_identities=6, **fields))
    for fields, name in (({"class_kappa": hi}, "class_kappa"),
                         ({"quality_kappa_range": (2.0, hi)}, r"quality_kappa_range\[1\]")):
        with pytest.raises(ValueError, match=f"^{name} is too large for the vMF sampler at d={d}"):
            small_config(d=d, **fields)


def test_gen_synthetic_shapes_and_determinism():
    cfg = small_config()
    store = pr.gen_synthetic(cfg)
    assert len(store.identity_ids) == 40
    assert store.identity_means.shape == (40, 6)
    np.testing.assert_allclose(np.linalg.norm(store.identity_means, axis=1), 1.0, atol=1e-9)
    lo, hi = cfg.samples_per_identity
    assert set(store.samples) == set(store.identity_ids)
    for identity in store.identity_ids:
        vectors, kappa, sigma2 = store.samples[identity]
        m = len(kappa)
        assert lo <= m <= hi
        assert vectors.shape == (m, 6) and kappa.shape == (m,) and sigma2.shape == (m, 6)
        np.testing.assert_allclose(np.linalg.norm(vectors, axis=1), 1.0, atol=1e-9)
        assert np.all((5.0 <= kappa) & (kappa <= 200.0))
        assert np.all(sigma2 > 0)
        # variances scatter within 10% of the reciprocal concentration
        np.testing.assert_allclose(sigma2 * kappa[:, None], 1.0, atol=0.1 + 1e-12)
    # an identity's arrays are views into its block's arrays, not copies
    first, second = store.samples["id0000"], store.samples["id0001"]
    assert all(a.base is not None and a.base is b.base for a, b in zip(first, second))
    again = pr.gen_synthetic(cfg)
    for identity in store.identity_ids:
        for a, b in zip(store.samples[identity], again.samples[identity]):
            np.testing.assert_array_equal(a, b)


def test_gen_synthetic_plants_ambiguous_pairs():
    cfg = small_config(ambiguity=0.3, n_identities=40)
    store = pr.gen_synthetic(cfg)
    cosines = store.identity_means @ store.identity_means.T
    np.fill_diagonal(cosines, -1.0)
    n_pairs = math.floor(0.3 * 40 / 2.0)
    close = np.argwhere(cosines >= 0.92 - 1e-12)
    # each planted pair shows up twice in the symmetric cosine matrix
    assert len(close) >= 2 * n_pairs
    paired = {int(i) for i in close.ravel()}
    assert len(paired) >= 2 * n_pairs


def test_gen_synthetic_no_pairs_without_ambiguity():
    store = pr.gen_synthetic(small_config(ambiguity=0.0, d=16, n_identities=60))
    cosines = store.identity_means @ store.identity_means.T
    np.fill_diagonal(cosines, -1.0)
    assert float(cosines.max()) < 0.92


def test_infinite_class_kappa_centers_on_identity_mean():
    cfg = small_config(class_kappa=float("inf"), quality_kappa_range=(1e5, 1e5),
                       samples_per_identity=(4, 4))
    store = pr.gen_synthetic(cfg)
    for identity in store.identity_ids[:5]:
        idx = store.identity_ids.index(identity)
        assert np.all(store.samples[identity][0] @ store.identity_means[idx] > 0.999)


def table(ids, class_index, **columns):
    """A ProbeTable of unit 2-d probes with every quality field present."""
    n = len(ids)
    fields = dict(ids=ids, class_index=class_index, means=np.tile([1.0, 0.0], (n, 1)), kappa=np.ones(n),
                  has_kappa=np.ones(n, bool), sf_scale=np.zeros(n), has_sf_scale=np.ones(n, bool),
                  pfe_sigma2=np.ones((n, 2)), has_pfe_sigma2=np.ones(n, bool), validation=np.zeros(n, bool))
    return pr.ProbeTable(**{**fields, **columns})


def test_probe_table_invariants():
    t = table(["b", "n2", "a", "n1"], [0, -1, 1, -1], kappa=[1.0, 2.0, 3.0, 4.0])
    # mated rows by id, then non-mated rows by id; every column moves with its row
    assert t.ids.tolist() == ["a", "b", "n1", "n2"]
    assert t.class_index.tolist() == [1, 0, -1, -1] and t.kappa.tolist() == [3.0, 1.0, 4.0, 2.0]
    with pytest.raises(ValueError, match="read-only"):
        t.means[0, 0] = 0.5
    with pytest.raises(ValueError, match="one row per probe"):
        table(["a", "b"], [0, 0], kappa=np.ones(3))
    with pytest.raises(ValueError, match="one row per probe"):
        table(["a", "b"], [0, 0], has_pfe_sigma2=np.ones(1, bool))
    with pytest.raises(ValueError, match="unique"):
        table(["a", "a"], [0, -1])
    with pytest.raises(ValueError, match="class_index"):
        table(["a", "b"], [0, -2])
    gallery = pr.Gallery(class_ids=("g0", "g1"), means=np.eye(2))
    pr.OsrProtocol(gallery=gallery, probes=table(["a", "b"], [1, -1]))
    with pytest.raises(ValueError, match="below the gallery's 2 classes"):
        pr.OsrProtocol(gallery=gallery, probes=table(["a", "b"], [2, -1]))


def test_record_view_gives_what_the_benchmark_check_reads():
    # perfbench/checks.py::check_bundle_round_trip reads mated_probes + nonmated_probes
    # and each record's probe_id, mean and pfe_sigma2
    gallery = pr.Gallery(class_ids=("g0", "g1"), means=np.eye(2))
    means = np.array([[0.6, 0.8], [0.0, 1.0], [1.0, 0.0], [0.8, 0.6]])
    t = table(["p9", "n5", "p1", "n2"], [1, -1, 0, -1], means=means, pfe_sigma2=np.full((4, 2), 0.5),
              has_pfe_sigma2=[True, False, True, True], has_kappa=[False, True, True, True],
              validation=[True, False, False, True])
    proto = pr.OsrProtocol(gallery=gallery, probes=t)
    records = proto.mated_probes + proto.nonmated_probes
    assert isinstance(proto.mated_probes, tuple)
    assert [p.probe_id for p in records] == ["p1", "p9", "n2", "n5"]
    for p, row in zip(records, ([1.0, 0.0], [0.6, 0.8], [0.8, 0.6], [0.0, 1.0])):
        assert p.mean.tobytes() == np.array(row).tobytes()
    assert [p.pfe_sigma2 is None for p in records] == [False, False, False, True]
    assert records[0].pfe_sigma2.tobytes() == np.full(2, 0.5).tobytes()
    assert not records[0].mean.flags.writeable and not records[0].pfe_sigma2.flags.writeable


def test_build_protocol_partition():
    store = pr.gen_synthetic(small_config(val_fraction=0.25, protocol_seed=9))
    proto = pr.build_protocol(store)

    gallery_ids = set(proto.gallery.class_ids)
    oog_ids = set(store.identity_ids) - gallery_ids
    assert len(oog_ids) >= math.floor(0.3 * 40)
    # singleton identities can never field both a template and a probe
    for identity in store.identity_ids:
        if len(store.samples[identity][1]) < 2:
            assert identity not in gallery_ids

    def sample(probe_id):
        identity, j = probe_id.split("_s")
        return [a[int(j)] for a in store.samples[identity]]

    t = proto.probes
    assert t.has_kappa.all() and t.has_sf_scale.all() and t.has_pfe_sigma2.all()
    for i, probe_id in enumerate(t.ids):
        vector, kappa, sigma2 = sample(probe_id)
        assert t.means[i].tobytes() == vector.tobytes() and t.pfe_sigma2[i].tobytes() == sigma2.tobytes()
        assert t.kappa[i] == kappa and t.sf_scale[i] == float(np.log(kappa))
        owner = probe_id.split("_")[0]
        if t.class_index[i] >= 0:
            assert proto.gallery.class_ids[t.class_index[i]] == owner
            assert probe_id not in proto.gallery_members[owner]
        else:
            assert owner in oog_ids
    # the table holds copies: none of its arrays is a view into the store
    assert all(getattr(t, f.name).base is None for f in dataclasses.fields(t) if f.name != "ids")

    # gallery templates aggregate roughly half of each identity's samples
    for identity in gallery_ids:
        n = len(store.samples[identity][1])
        assert len(proto.gallery_members[identity]) == max(1, n // 2)

    # mated probes come first, each group sorted by id
    mated = t.mated.tolist()
    assert mated == sorted(mated, reverse=True)
    for group in (t.ids[t.mated].tolist(), t.ids[~t.mated].tolist()):
        assert group == sorted(group)


def test_build_protocol_split_fractions():
    store = pr.gen_synthetic(small_config(n_identities=80, val_fraction=0.25, protocol_seed=1))
    proto = pr.build_protocol(store)
    for group in (proto.probes.mated, ~proto.probes.mated):
        assert proto.probes.validation[group].sum() == math.floor(0.25 * group.sum())


@pytest.mark.parametrize("make", [
    lambda **field: small_config(**field),
    lambda **field: pr.preset_config("degraded", **field),
    lambda **field: dataclasses.replace(small_config(), **field),
], ids=["SynthConfig", "preset_config", "replace"])
@pytest.mark.parametrize("name, value", [
    ("protocol_seed", 2**64), ("protocol_seed", True), ("protocol_seed", -1),
    ("val_fraction", True), ("val_fraction", 1.0), ("val_fraction", None), ("oog_fraction", 1.0),
])
def test_partition_fields_are_checked_on_every_library_path(make, name, value):
    # SynthConfig is the one place that checks them; build_protocol takes them as checked
    with pytest.raises(ValueError, match=name):
        make(**{name: value})


def test_generate_protocol_seed_convention():
    cfg = small_config()
    proto = pr.generate_protocol(cfg)
    assert proto.meta["generator_seed"] == cfg.seed
    assert proto.meta["protocol_seed"] == cfg.seed + 1
    assert proto.meta["val_fraction"] == 0.3
    explicit = pr.generate_protocol(small_config(protocol_seed=cfg.seed + 1))
    assert explicit.probes.ids.tolist() == proto.probes.ids.tolist()
    assert np.array_equal(explicit.probes.validation, proto.probes.validation)


def test_presets_exist_and_build():
    assert set(pr.PRESETS) == {"ambiguous", "degraded", "mixed"}
    amb = pr.preset_config("ambiguous")
    assert amb.ambiguity > 0.0
    assert amb.quality_kappa_range[0] == amb.quality_kappa_range[1]
    deg = pr.preset_config("degraded")
    assert deg.ambiguity == 0.0
    assert deg.quality_kappa_range[0] < deg.quality_kappa_range[1]
    mix = pr.preset_config("mixed")
    assert mix.ambiguity > 0.0
    assert mix.quality_kappa_range[0] < mix.quality_kappa_range[1]
    with pytest.raises(KeyError):
        pr.preset_config("nope")
    # overrides replace preset fields
    assert pr.preset_config("mixed", seed=99).seed == 99


def test_meta_types_are_plain_python():
    proto = pr.generate_protocol(small_config())
    for key, value in proto.meta.items():
        assert isinstance(key, str)
        assert type(value) in (int, float)


# --- the blocked generator against the one-draw-at-a-time loop it replaced ---

def draw_one(rng, mean, kappa):
    return vmf.sample_vmf(vmf.VmfParams(mean, kappa), rng, 1)[0]


def per_draw_reference(config, rng):
    """gen_synthetic's per-draw loop, every vMF draw through sample_vmf in
    turn: (identity means, samples as bytes, the stream's final state)."""
    d, n = config.d, config.n_identities
    means = vmf._unit_rows(rng.standard_normal((n, d)), rng)
    n_pairs = pr._planted_pair_count(config.ambiguity, n)
    if n_pairs > 0:
        chosen = rng.permutation(n)[: 2 * n_pairs]
        for a, b in zip(chosen[0::2], chosen[1::2]):
            target_cos = rng.uniform(0.92, 0.98)
            tangent = rng.standard_normal(d)
            tangent -= (tangent @ means[a]) * means[a]
            tangent /= np.linalg.norm(tangent)
            means[b] = target_cos * means[a] + math.sqrt(1.0 - target_cos**2) * tangent
    lo, hi = config.samples_per_identity
    qlo, qhi = config.quality_kappa_range
    samples = {}
    for i in range(n):
        records = []
        for _ in range(int(rng.integers(lo, hi + 1))):
            kappa_x = float(np.exp(rng.uniform(np.log(qlo), np.log(qhi))))
            latent = (draw_one(rng, means[i], config.class_kappa)
                      if np.isfinite(config.class_kappa) else means[i])
            observed = draw_one(rng, latent, kappa_x)
            sigma2 = (1.0 / kappa_x) * (1.0 + rng.uniform(-0.1, 0.1, size=d))
            records.append((observed.tobytes(), kappa_x, sigma2.tobytes()))
        samples[f"id{i:04d}"] = records
    return means.tobytes(), samples, rng.bit_generator.state


def blocked(config, monkeypatch, make_rng=np.random.default_rng):
    """gen_synthetic's output in per_draw_reference's form."""
    made = []

    def default_rng(seed):
        if isinstance(seed, np.random.Generator):  # sample_vmf on a replayed block's stream
            return seed
        made.append(make_rng(seed))
        return made[-1]

    with monkeypatch.context() as m:
        m.setattr(np.random, "default_rng", default_rng)
        store = pr.gen_synthetic(config)
    samples = {identity: [(v.tobytes(), float(k), s.tobytes()) for v, k, s in zip(*arrays)]
               for identity, arrays in store.samples.items()}
    assert len(made) == 1
    return store.identity_means.tobytes(), samples, made[0].bit_generator.state


@pytest.mark.parametrize("block_elements", [pr._BLOCK_ELEMENTS, 64], ids=["default-blocks", "small-blocks"])
@pytest.mark.parametrize("class_kappa", [300.0, float("inf")])
@pytest.mark.parametrize("d", [2, 3, 16, 128, 512])
def test_blocked_generator_equals_the_per_draw_loop(monkeypatch, d, class_kappa, block_elements):
    config = small_config(d=d, n_identities=30, class_kappa=class_kappa,
                          quality_kappa_range=(2.0, 4000.0), samples_per_identity=(1, 6))
    expected = per_draw_reference(config, np.random.default_rng(config.seed))
    monkeypatch.setattr(pr, "_BLOCK_ELEMENTS", block_elements)
    monkeypatch.setattr(vmf, "sample_vmf", lambda *args: pytest.fail("replayed a block"))
    assert blocked(config, monkeypatch) == expected


class _SpoiledAt(np.random.Generator):
    """A Generator that spoils the draw at one stream position, so that the
    one-draw path must take more from the stream there: a "tangent" spoils a
    one-row standard_normal to zeros (the tangent is degenerate), a "radial"
    spoils a round of radial uniforms to +inf (no candidate is accepted). The
    position is the PCG64 state, so a block replayed from its saved state meets
    the same spoiled draw."""

    def __init__(self, seed, kind, at=None):
        super().__init__(np.random.PCG64(seed))
        self.kind, self.at, self.positions = kind, at, []

    def _spoil(self, kind, out, position, spoiled):
        if self.kind == kind:
            self.positions.append(position)
            if position == self.at:
                return spoiled
        return out

    def standard_normal(self, size=None):
        position = self.bit_generator.state["state"]["state"]
        row = super().standard_normal(size)
        if row.size != row.shape[-1]:
            return row
        return self._spoil("tangent", row, position, np.zeros(size))

    def uniform(self, low=0.0, high=1.0, size=None):
        position = self.bit_generator.state["state"]["state"]
        out = super().uniform(low, high, size)
        if size != vmf._RADIAL_CANDIDATES:
            return out
        return self._spoil("radial", out, position, np.full(size, np.inf))


@pytest.mark.parametrize("kind", ["tangent", "radial"])
@pytest.mark.parametrize("class_kappa", [300.0, float("inf")])
def test_a_draw_that_needs_more_of_the_stream_replays_its_block(monkeypatch, class_kappa, kind):
    config = small_config(d=5, n_identities=24, class_kappa=class_kappa, samples_per_identity=(2, 4))
    monkeypatch.setattr(pr, "_BLOCK_ELEMENTS", 60)  # three identities a block
    stream = _SpoiledAt(config.seed, kind)
    per_draw_reference(config, stream)
    at = stream.positions[len(stream.positions) // 2]  # a draw in a middle block
    expected = per_draw_reference(config, _SpoiledAt(config.seed, kind, at))
    assert expected != per_draw_reference(config, _SpoiledAt(config.seed, kind))

    calls = []
    sample_vmf = vmf.sample_vmf
    monkeypatch.setattr(vmf, "sample_vmf", lambda *args: calls.append(args) or sample_vmf(*args))
    assert blocked(config, monkeypatch, lambda seed: _SpoiledAt(seed, kind, at)) == expected
    # only the replayed block went through sample_vmf: at most three identities
    # of four samples, two draws each
    assert 0 < len(calls) <= 24
