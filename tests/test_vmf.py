import ast
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import gammaln, ive, logsumexp as scipy_logsumexp

from osruq import vmf

# reference values computed with mpmath at 40 decimal digits
LOG_I_REFERENCE = {
    (0.5, 1.0): -0.06435199107353180,
    (1.0, 2.0): 0.4641344735461597,
    (100.0, 0.001): -1123.829621507296,
    (255.0, 10.0): -751.2077957423228,
    (512.0, 1.0): -3040.951340743837,
    (512.0, 100.0): -678.2542142166611,
    (512.0, 1e5): 99992.01387629402,
}
LOG_C_REFERENCE = {
    (3, 1.0): -2.692463608540486,
    (2, 2.0): -2.661870607892302,
}
LOG_SURFACE = {2: 1.837877066409345, 3: 2.531024246969291}
# mean resultant length A_d(kappa) = I_{d/2}(kappa) / I_{d/2-1}(kappa)
RESULTANT = {(3, 2.0): 0.5373147207275481, (8, 50.0): 0.9317844343897470,
             (16, 150.0): 0.9510900265992502}


def test_log_surface_area_reference_values():
    assert vmf.log_surface_area(2) == pytest.approx(LOG_SURFACE[2], abs=1e-14)
    assert vmf.log_surface_area(3) == pytest.approx(LOG_SURFACE[3], abs=1e-14)
    # circle circumference and sphere area directly
    assert vmf.log_surface_area(2) == pytest.approx(math.log(2 * math.pi), abs=1e-14)
    assert vmf.log_surface_area(3) == pytest.approx(math.log(4 * math.pi), abs=1e-14)


def test_log_surface_area_rejects_bad_dimension():
    with pytest.raises(ValueError):
        vmf.log_surface_area(1)


@pytest.mark.parametrize("order,x", sorted(LOG_I_REFERENCE))
def test_log_bessel_i_reference_values(order, x):
    expected = LOG_I_REFERENCE[(order, x)]
    got = vmf.log_bessel_i(order, x)
    assert math.isfinite(got)
    assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_log_bessel_i_array_matches_scalar():
    orders = 7.0
    xs = np.array([0.01, 1.0, 10.0, 500.0])
    arr = vmf.log_bessel_i(orders, xs)
    scalars = [vmf.log_bessel_i(orders, float(x)) for x in xs]
    np.testing.assert_allclose(arr, scalars, rtol=0, atol=0)


def test_log_bessel_i_deep_underflow_stays_finite():
    # ive underflows to 0 here; the series fallback must pick it up
    for order, x in [(200.0, 0.5), (50.0, 1e-3), (512.0, 1.0)]:
        val = vmf.log_bessel_i(order, x)
        assert math.isfinite(val)
        assert val < -100.0


def test_log_bessel_i_beyond_scipys_range_matches_mpmath():
    # scipy's ive is NaN from x = 2**30 (about 1.07e9); those rows take the large-x expansion
    mp = pytest.importorskip("mpmath").mp
    xs = np.array([1e8, 1e9, 1e10, 1e12, 1e20, 1e100, 1e300])
    for order in (0.0, 0.5, 7.0, 63.0, 127.5, 255.0):
        got = vmf.log_bessel_i(order, xs)
        assert got[0] == vmf.log_bessel_i(order, 1e8)  # where ive is finite it keeps its path
        for x, g in zip(xs, got):
            with mp.workdps(50):
                exact = mp.log(mp.besseli(order, mp.mpf(float(x))))
                assert abs(mp.mpf(float(g)) - exact) <= 4e-16 * abs(exact), (order, x)


def test_log_c_d_reference_values():
    for (d, kappa), expected in LOG_C_REFERENCE.items():
        assert vmf.log_c_d(d, kappa) == pytest.approx(expected, rel=1e-12)


def test_log_c_d_kappa_zero_is_uniform():
    for d in (2, 3, 16, 128):
        assert vmf.log_c_d(d, 0.0) == pytest.approx(-vmf.log_surface_area(d), abs=1e-14)


def test_log_c_d_large_arguments_finite():
    assert math.isfinite(vmf.log_c_d(512, 1e5))


@pytest.mark.parametrize("d", [2, 16, 128, 512])
def test_float_kappa_has_the_bits_of_a_one_element_array(d):
    # a float kappa and its one-element array give the same bits, so no float-only path is needed
    for kappa in np.logspace(-3, 5, 81).tolist():
        for fn in (vmf.log_c_d, vmf.log_alpha):
            got = fn(d, kappa)
            assert type(got) is float
            assert same_bits(got, fn(d, np.array([kappa]))[0]), (fn.__name__, kappa)


@given(d=st.integers(min_value=2, max_value=256),
       log_kappa=st.floats(min_value=-4.0, max_value=5.0))
@settings(max_examples=200, deadline=None)
def test_alpha_surface_normalizer_identity(d, log_kappa):
    # alpha(d, kappa) * S_{d-1} * C_d(kappa) = 1 for every kappa > 0
    kappa = 10.0 ** log_kappa
    total = vmf.log_alpha(d, kappa) + vmf.log_surface_area(d) + vmf.log_c_d(d, kappa)
    assert abs(total) < 1e-10


def test_log_alpha_at_zero_is_zero():
    for d in (2, 3, 16):
        assert vmf.log_alpha(d, 0.0) == 0.0


def test_vmf_log_pdf_at_mean():
    mean = np.zeros(5)
    mean[0] = 1.0
    params = vmf.VmfParams(mean=mean, kappa=3.0)
    assert vmf.vmf_log_pdf(params, mean) == pytest.approx(vmf.log_c_d(5, 3.0) + 3.0, abs=1e-12)


def test_vmf_log_pdf_uniform_when_kappa_zero(rng):
    mean = np.zeros(4)
    mean[0] = 1.0
    params = vmf.VmfParams(mean=mean, kappa=0.0)
    for _ in range(5):
        z = rng.standard_normal(4)
        z /= np.linalg.norm(z)
        assert vmf.vmf_log_pdf(params, z) == pytest.approx(-vmf.log_surface_area(4), abs=1e-12)


def test_vmf_params_validation():
    mean = np.zeros(3)
    mean[0] = 1.0
    with pytest.raises(ValueError):
        vmf.VmfParams(mean=mean, kappa=-1.0)
    with pytest.raises(ValueError):
        vmf.VmfParams(mean=mean * 2.0, kappa=1.0)
    # as_unit_rows takes a stack too, but a mean and a density's argument are one vector
    with pytest.raises(ValueError, match="one vector"):
        vmf.VmfParams(mean=mean[None], kappa=1.0)
    with pytest.raises(ValueError, match="one vector"):
        vmf.vmf_log_pdf(vmf.VmfParams(mean=mean, kappa=1.0), mean[None])


def test_as_unit_rows_tolerance():
    v = np.array([1.0, 0.0, 0.0])
    out = vmf.as_unit_rows(v * (1.0 + 1e-12))
    np.testing.assert_allclose(out, v, atol=1e-10)
    with pytest.raises(ValueError):
        vmf.as_unit_rows(v * 1.001)
    with pytest.raises(ValueError):
        vmf.as_unit_rows(np.zeros(3))
    # one measure for a vector and a stack: this one is just past the tolerance
    # on row_norms and inside it on a 1-d np.linalg.norm
    w = np.random.default_rng(0).standard_normal((31, 16))[30]
    edge = w / vmf.row_norms(w[None])[0] * (1.0 + 1e-6 + 2.2e-16)
    assert np.linalg.norm(edge) - 1.0 <= vmf.UNIT_NORM_ATOL
    for check in (vmf.as_unit_rows, lambda v: vmf.as_unit_rows(v[None])):
        with pytest.raises(ValueError):
            check(edge)


def test_sample_vmf_rows_are_unit(rng):
    mean = random_mean(6)
    draws = vmf.sample_vmf(vmf.VmfParams(mean=mean, kappa=20.0), seed=5, n=200)
    assert draws.shape == (200, 6)
    np.testing.assert_allclose(np.linalg.norm(draws, axis=1), 1.0, atol=1e-9)


def test_sample_vmf_deterministic():
    mean = random_mean(8)
    params = vmf.VmfParams(mean=mean, kappa=7.0)
    a = vmf.sample_vmf(params, seed=11, n=64)
    b = vmf.sample_vmf(params, seed=11, n=64)
    np.testing.assert_array_equal(a, b)
    c = vmf.sample_vmf(params, seed=12, n=64)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("d,kappa", sorted(RESULTANT))
def test_sample_vmf_mean_resultant_length(d, kappa):
    # E[mu . z] = I_{d/2}(kappa) / I_{d/2-1}(kappa); fixed seed, so the
    # tolerance only needs to absorb one draw's Monte-Carlo error
    mean = random_mean(d)
    draws = vmf.sample_vmf(vmf.VmfParams(mean=mean, kappa=kappa), seed=3, n=20000)
    cosines = draws @ mean
    assert abs(float(np.mean(cosines)) - RESULTANT[(d, kappa)]) < 0.01


def test_sample_vmf_kappa_zero_is_isotropic():
    mean = random_mean(3)
    draws = vmf.sample_vmf(vmf.VmfParams(mean=mean, kappa=0.0), seed=9, n=40000)
    # all three axes should have near-zero mean under uniformity
    assert np.all(np.abs(draws.mean(axis=0)) < 0.02)


def test_sample_vmf_accepts_generator_stream():
    mean = random_mean(5)
    params = vmf.VmfParams(mean=mean, kappa=4.0)
    stream = np.random.default_rng(21)
    a = vmf.sample_vmf(params, seed=stream, n=10)
    b = vmf.sample_vmf(params, seed=stream, n=10)
    # a shared stream advances; separate seeds reproduce the concatenation
    stream2 = np.random.default_rng(21)
    both = np.vstack([vmf.sample_vmf(params, seed=stream2, n=10),
                      vmf.sample_vmf(params, seed=stream2, n=10)])
    np.testing.assert_array_equal(np.vstack([a, b]), both)
    assert not np.array_equal(a, b)


def random_mean(d: int) -> np.ndarray:
    rng = np.random.default_rng(d)
    v = rng.standard_normal(d)
    return v / np.linalg.norm(v)


@pytest.mark.parametrize("d", [2, 3, 16, 128, 512])
@pytest.mark.parametrize("kappa", [1e-3, 1.0, 150.0, 1e5])
def test_one_draw_path_matches_sample_vmf(d, kappa):
    # the generator's stacked path on one draw, given the radial candidates and
    # the normal row it takes from a stream, must give the same bits and leave
    # the stream in the same state as the public sampler
    mean = random_mean(d)
    a = np.random.default_rng(d + 7)
    b = np.random.default_rng(d + 7)
    for _ in range(25):
        expected = vmf.sample_vmf(vmf.VmfParams(mean, kappa), a, 1)[0]
        z, u = vmf._radial_proposals(b, d, vmf._RADIAL_CANDIDATES)
        g = b.standard_normal((1, d))
        got = vmf._draw_rows(mean[None], z[None], u[None], kappa, vmf._radial_envelope(kappa, d), g)[0]
        assert got.tobytes() == expected.tobytes()
        assert b.bit_generator.state == a.bit_generator.state
        mean = got  # chain draws, as the generator does with its latent means


@pytest.mark.parametrize("d", [2, 3, 5, 7, 16, 33, 64, 127, 128, 129, 256, 512, 1024])
def test_stacked_row_products_and_norms_equal_per_row_bits(d):
    # the blocked generator's geometry rests on these two identities
    rng = np.random.default_rng(d)
    for rows in (1, 2, 7, 64, 300):
        g, means = rng.standard_normal((2, rows, d))
        per_row = np.concatenate([g[r:r + 1] @ means[r] for r in range(rows)])
        assert np.vecdot(g, means).tobytes() == per_row.tobytes()
        per_row = np.array([vmf.row_norms(g[r:r + 1])[0] for r in range(rows)])
        assert vmf.row_norms(g).tobytes() == per_row.tobytes()
        per_vector = np.array([vmf.row_norms(g[r]) for r in range(rows)])
        assert per_vector.tobytes() == per_row.tobytes()


def stacked_draws(d, kappas, seeds):
    """The candidates and normal row each sample_vmf(..., seed, 1) takes."""
    m = vmf._RADIAL_CANDIDATES
    z, u, g = np.empty((len(seeds), m)), np.empty((len(seeds), m)), np.empty((len(seeds), d))
    for r, seed in enumerate(seeds):
        stream = np.random.default_rng(seed)
        z[r], u[r] = vmf._radial_proposals(stream, d, m)
        g[r] = stream.standard_normal(d)
    return z, u, g


@pytest.mark.parametrize("d", [2, 3, 16, 128, 512])
@pytest.mark.parametrize("kappa", [1e-3, 1.0, 150.0, 1e5])
def test_stacked_draws_match_the_one_draw_path(d, kappa):
    # row r of _draw_rows, given the radial candidates and the normal row that
    # a one-draw sample_vmf takes from a stream, is that call's draw bit for
    # bit, with one concentration for every row and with one per row
    means = np.random.default_rng(d).standard_normal((9, d))
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    expected = [vmf.sample_vmf(vmf.VmfParams(means[r], kappa), r, 1)[0] for r in range(9)]
    z, u, g = stacked_draws(d, [kappa] * 9, range(9))
    got = vmf._draw_rows(means, z, u, kappa, vmf._radial_envelope(kappa, d), g)
    assert got.tobytes() == np.array(expected).tobytes()

    kappas = [kappa * (1.0 + 0.5 * r) for r in range(9)]
    expected = [vmf.sample_vmf(vmf.VmfParams(means[r], k), r, 1)[0] for r, k in enumerate(kappas)]
    z, u, g = stacked_draws(d, kappas, range(9))
    envelope = np.array([vmf._radial_envelope(k, d) for k in kappas]).T[:, :, None]
    got = vmf._draw_rows(means, z, u, np.array(kappas)[:, None], envelope, g)
    assert got.tobytes() == np.array(expected).tobytes()


def test_stacked_draws_refuse_what_the_one_draw_path_would_draw_again():
    means = np.array([[0.6, 0.8, 0.0], [0.0, 0.0, 1.0]])
    envelope = vmf._radial_envelope(5.0, 3)
    z = np.full((2, vmf._RADIAL_CANDIDATES), 0.5)
    u = np.full((2, vmf._RADIAL_CANDIDATES), 1e-300)  # every candidate accepted
    g = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert vmf._draw_rows(means, z, u, 5.0, envelope, g.copy()) is not None
    parallel = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 2.0]])  # the second tangent projects to zero
    assert vmf._draw_rows(means, z, u, 5.0, envelope, parallel) is None
    u[1] = np.inf  # the second draw accepts no candidate
    assert vmf._draw_rows(means, z, u, 5.0, envelope, g.copy()) is None


def radial_reference(rng, kappa, d, n):
    """_sample_radial before its envelope, proposals and test were split out."""
    dim = d - 1.0
    b = dim / (np.sqrt(4.0 * kappa * kappa + dim * dim) + 2.0 * kappa)
    x0 = (1.0 - b) / (1.0 + b)
    c = kappa * x0 + dim * np.log(1.0 - x0 * x0)
    out = np.empty(n)
    filled = 0
    while filled < n:
        want = n - filled
        m = max(2 * want, 16)
        z = rng.beta(0.5 * dim, 0.5 * dim, size=m)
        w = (1.0 - (1.0 + b) * z) / (1.0 - (1.0 - b) * z)
        u = rng.uniform(size=m)
        accept = kappa * w + dim * np.log1p(-x0 * w) - c >= np.log(u)
        good = w[accept][:want]
        out[filled:filled + good.size] = good
        filled += good.size
    return out


@pytest.mark.parametrize("d", [2, 3, 16, 128, 512])
def test_radial_sampler_keeps_its_bits(d):
    for kappa in (1e-3, 1.0, 16.0, 300.0, 4000.0, 1e5):
        for n in (1, 5, 1000):
            a, b = np.random.default_rng(n), np.random.default_rng(n)
            for _ in range(5):
                assert vmf._sample_radial(a, kappa, d, n).tobytes() == radial_reference(b, kappa, d, n).tobytes()
            assert a.bit_generator.state == b.bit_generator.state


class _FirstNormalIsMean(np.random.Generator):
    """A Generator whose first standard_normal draw is the mean direction,
    so the tangent row projects to zero and the resampling branch runs."""

    def __init__(self, seed, mean):
        super().__init__(np.random.PCG64(seed))
        self.first = mean

    def standard_normal(self, size=None):
        if self.first is not None:
            first, self.first = self.first, None
            return 3.0 * first.reshape(size)
        return super().standard_normal(size)


def test_one_draw_path_resamples_a_degenerate_tangent_like_sample_vmf():
    # _draw_rows refuses a tangent that projects to zero (see below), so the
    # generator replays it through sample_vmf, which draws one more normal row
    mean = np.array([0.6, 0.8, 0.0])
    stream = _FirstNormalIsMean(3, mean)
    got = vmf.sample_vmf(vmf.VmfParams(mean, 5.0), stream, 1)[0]
    reference = np.random.Generator(np.random.PCG64(3))
    w = vmf._sample_radial(reference, 5.0, 3, 1)[0]
    fresh = reference.standard_normal(3)
    assert stream.bit_generator.state == reference.bit_generator.state
    assert abs(float(np.linalg.norm(got)) - 1.0) < 1e-12
    tangent = fresh - (fresh @ mean) * mean
    expected = w * mean + np.sqrt(1.0 - w * w) * tangent / np.linalg.norm(tangent)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


# --- vmf.logsumexp: within a few ulps of the exact value; scipy's bits on rows with inf, NaN or only -inf ---

def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def lse_cases():
    rng = np.random.default_rng(7)
    cases = [np.array([3.0]), np.array([-np.inf]), np.array([np.inf, 1.0]),
             np.array([-np.inf, -np.inf, -np.inf]), np.array([np.nan, 1.0, 2.0]),
             np.array([1.0, -np.inf, 1.0]), np.array([np.inf, np.inf]), np.array([-np.inf, 2.0, np.inf]),
             np.array([[1.0, 1.0, 0.5], [-np.inf, -np.inf, -np.inf], [np.inf, 0.0, 1.0]])]
    for i in range(600):
        k = int(rng.integers(1, 30))
        shape = (k,) if i % 2 else (int(rng.integers(1, 5)), k)
        a = rng.normal(0.0, 10.0 ** rng.uniform(-3, 3), shape)
        if i % 3 == 0:  # tied maxima
            a = np.round(a)
            a.flat[rng.integers(0, a.size, size=2)] = a.max()
        cases.append(a)
    return cases


@pytest.mark.parametrize("keepdims", [False, True])
def test_logsumexp_is_bit_equal_to_scipy(keepdims):
    # scipy's bits on the rows whose maximum is inf, NaN or -inf; scipy's type and shape everywhere.
    # No np.errstate around vmf.logsumexp: an overflow inside it is a RuntimeWarning, which fails the test
    for a in lse_cases() + [np.array([np.inf, 800.0])]:
        with np.errstate(all="ignore"):
            want = scipy_logsumexp(a, -1, keepdims=keepdims)
        got = vmf.logsumexp(a, keepdims=keepdims)
        assert type(got) is type(want) and np.shape(got) == np.shape(want)
        special = ~np.isfinite(np.max(a, axis=-1, keepdims=keepdims))
        assert same_bits(np.asarray(got)[special], np.asarray(want)[special]), a


def test_logsumexp_is_bit_equal_to_scipy_on_a_scoring_block():
    # special rows among finite ones keep scipy's bits: the shift falls back to 0 row by row
    terms = np.random.default_rng(3).normal(0.0, 30.0, (300, 211))
    terms[::7, ::5] = -np.inf
    special = [10, 20, 30, 40, 50]
    terms[10] = -np.inf
    terms[20, 3], terms[30, 9], terms[40, :2], terms[50, :2] = np.inf, np.nan, [np.inf, -np.inf], [np.inf, 800.0]
    with np.errstate(all="ignore"):
        want = scipy_logsumexp(terms, -1, keepdims=True)
    got = vmf.logsumexp(terms, keepdims=True)
    assert same_bits(got[special], want[special])
    assert same_bits(vmf.logsumexp(terms), got[:, 0])
    assert np.isfinite(np.delete(got, special)).all()


def test_logsumexp_is_accurate():
    # no np.errstate around vmf.logsumexp: an overflow inside it is a RuntimeWarning, which fails the test
    mp = pytest.importorskip("mpmath").mp
    tolerance = 4 * np.finfo(np.float64).eps  # times max(1, |exact|), fixed before the first run
    scoring_block = np.random.default_rng(3).normal(0.0, 30.0, (300, 211))
    for a in lse_cases() + [scoring_block]:
        got = vmf.logsumexp(a)
        assert same_bits(vmf.logsumexp(a, keepdims=True), np.expand_dims(got, -1))
        for row, g in zip(np.atleast_2d(a), np.ravel(got)):
            if np.isfinite(row.max()):  # the other rows are checked against scipy's bits above
                with mp.workdps(60):
                    exact = mp.log(mp.fsum(mp.exp(x) for x in row if x != -np.inf))
                    assert abs(mp.mpf(float(g)) - exact) <= tolerance * max(1, abs(exact)), row


def test_no_module_imports_scipy_logsumexp():
    for path in pathlib.Path(vmf.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy"):
                assert "logsumexp" not in [alias.name for alias in node.names], path.name
            if isinstance(node, ast.Attribute) and node.attr == "logsumexp":
                assert ast.unparse(node.value).split(".")[-1] != "special", path.name


# --- a float takes the scalar path of the normalizers and gets the array path's bits ---

NORMALIZER_DS = (2, 3, 16, 128, 512)
NORMALIZER_KAPPAS = (1e-3, 1.0, 37.5, 1e3, 1e5)


@pytest.mark.parametrize("d", NORMALIZER_DS)
def test_normalizers_float_path_matches_array_path(d):
    order = 0.5 * d - 1.0
    for kappa in NORMALIZER_KAPPAS:
        one = np.array([kappa])
        for f in (vmf.log_c_d, vmf.log_alpha):
            got = f(d, kappa)
            assert type(got) is float
            assert same_bits(got, f(d, one)[0]) and same_bits(got, f(d, np.asarray(kappa)))
        got = vmf.log_bessel_i(order, kappa)
        assert type(got) is float
        assert same_bits(got, vmf.log_bessel_i(order, one)[0])


@pytest.mark.parametrize("order,x", [(200.0, 0.5), (100.0, 1e-3), (512.0, 1.0), (255.0, 1e-3)])
def test_power_series_branch_float_matches_array(order, x):
    assert ive(order, x) == 0.0  # the scaled Bessel underflows: series branch
    assert same_bits(vmf.log_bessel_i(order, x), vmf.log_bessel_i(order, np.array([x]))[0])
    d = int(2 * order + 2)
    for f in (vmf.log_c_d, vmf.log_alpha):
        assert same_bits(f(d, x), f(d, np.array([x]))[0])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
def test_invalid_float_inputs_raise_as_arrays_do(bad):
    for f in (vmf.log_c_d, vmf.log_alpha):
        with pytest.raises(ValueError, match=r"^kappa must be finite and >= 0$"):
            f(16, bad)
    with pytest.raises(ValueError, match=r"^x must be finite and >= 0$"):
        vmf.log_bessel_i(7.0, bad)


def test_zero_float_inputs_return_the_limits():
    for d in NORMALIZER_DS:
        assert vmf.log_c_d(d, 0.0) == -vmf.log_surface_area(d)
        assert vmf.log_alpha(d, 0.0) == 0.0
    assert vmf.log_bessel_i(7.0, 0.0) == -np.inf
    assert vmf.log_bessel_i(0.0, 0.0) == 0.0


# --- one Bessel evaluation gives both normalizers with the bits of the two functions ---

def pair_cases():
    rng = np.random.default_rng(11)
    for d in (2, 3, 5, 8, 16, 128, 512):
        for kappa in np.exp(rng.uniform(np.log(1e-3), np.log(1e5), 300)):
            yield d, float(kappa)
    for kappa in (1e-2, 1e-3, 1e-6, 1e-12):  # d=512: the power-series Bessel branch
        yield 512, kappa


def test_normalizer_pair_is_bit_equal_to_the_two_functions():
    for d, kappa in pair_cases():
        log_c, log_a = vmf._log_normalizers(d, kappa)
        assert same_bits(float(log_c), vmf.log_c_d(d, kappa)), (d, kappa)
        assert same_bits(float(log_a), vmf.log_alpha(d, kappa)), (d, kappa)
        # the formulas as the two functions first wrote them, each with its own Bessel call
        n = 0.5 * d
        order = n - 1.0
        ref_c = order * np.log(kappa) - 0.5 * d * vmf.LOG_2PI - vmf.log_bessel_i(order, kappa)
        ref_a = (gammaln(n) + order * np.log(2.0) - order * np.log(kappa)
                 + vmf.log_bessel_i(order, kappa))
        assert same_bits(log_c, ref_c) and same_bits(log_a, ref_a), (d, kappa)


def test_row_norms_and_unit_rows_match_linalg_norm():
    rng = np.random.default_rng(5)
    for n, d in ((1, 2), (7, 3), (100, 16), (33, 128), (4, 512)):
        rows = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-3, 3, (n, 1))
        want = rows / np.linalg.norm(rows, axis=1)[:, None]
        assert same_bits(vmf.row_norms(rows), np.linalg.norm(rows, axis=1))
        assert same_bits(vmf._unit_rows(rows.copy(), np.random.default_rng(0)), want)
        assert same_bits(np.sqrt(np.dot(rows[0], rows[0])), np.linalg.norm(rows[0]))
