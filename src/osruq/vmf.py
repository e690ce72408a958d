"""von Mises-Fisher kernels on the unit hypersphere, kept in log domain throughout."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# Tolerance for vectors that claim to be unit norm already, on row_norms'
# measure: the bundle reader's accept tier and Gallery's and cosines' check.
UNIT_NORM_ATOL = 1e-6

LOG_2 = math.log(2.0)
LOG_2PI = math.log(2.0 * math.pi)


def as_unit_rows(v) -> np.ndarray:
    """Validate and return one unit vector (d,) or a stack of them (N, d) as float64, d >= 2.

    Rejects every row whose norm, on row_norms' measure, deviates from 1 by more
    than UNIT_NORM_ATOL; callers that want renormalization must do it explicitly.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim not in (1, 2) or v.shape[-1] < 2:
        raise ValueError(f"expected a vector (d,) or a stack (N, d) with d >= 2, got shape {v.shape}")
    ok = abs(row_norms(v) - 1.0) <= UNIT_NORM_ATOL  # a NaN norm is not
    if not ok.all():
        raise ValueError(f"rows {np.flatnonzero(~ok)[:5].tolist()} of {v.shape} are not unit vectors "
                         f"within {UNIT_NORM_ATOL}")
    return v


def row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of (N, d), or of one vector (d,), with the same bits per row:
    linalg.norm(axis=1)'s own formula, without its wrapper."""
    return np.sqrt(np.add.reduce(rows * rows, axis=-1))


@dataclass(frozen=True)
class VmfParams:
    """Mean direction and concentration; kappa == 0 is the uniform sphere."""

    mean: np.ndarray
    kappa: float

    def __post_init__(self):
        mean = as_unit_rows(self.mean)
        if mean.ndim != 1:
            raise ValueError(f"the mean must be one vector, got shape {mean.shape}")
        object.__setattr__(self, "mean", mean)
        kappa = float(self.kappa)
        if not np.isfinite(kappa) or kappa < 0.0:
            raise ValueError(f"kappa must be finite and >= 0, got {self.kappa!r}")
        object.__setattr__(self, "kappa", kappa)

    @property
    def d(self) -> int:
        return self.mean.shape[0]


def _check_dimension(d: int) -> int:
    if int(d) != d or d < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {d!r}")
    return int(d)


def log_surface_area(d: int) -> float:
    """log of the surface area of the unit sphere in R^d."""
    d = _check_dimension(d)
    return LOG_2 + 0.5 * d * math.log(math.pi) - math.lgamma(0.5 * d)


def logsumexp(a, keepdims: bool = False):
    """log(sum(exp(a))) over the last axis, shifted by each row's maximum (0 where it is not finite).

    Callers use it as an absolute log-domain offset, which this form gets within an ulp; a row
    holding inf, NaN or only -inf gets scipy.special.logsumexp's value, with no RuntimeWarning.
    """
    a = np.asarray(a, dtype=np.float64)
    a_max = a.max(axis=-1, keepdims=True)
    shift = np.where(np.isfinite(a_max), a_max, 0.0)
    with np.errstate(over="ignore", divide="ignore"):  # exp(800) -> inf, log(0) -> -inf on those rows
        out = np.log(np.exp(a - shift).sum(axis=-1, keepdims=True)) + shift
    out = out if keepdims else out[..., 0]
    return out[()] if out.ndim == 0 else out


# log I_order(x) takes one of three expansions: the power series (DLMF 10.25.2) for x up to the
# order's series limit, and above it Hankel's large-x expansion (DLMF 10.40.1) for orders below
# _DEBYE_ORDER and Debye's uniform expansion for large order (DLMF 10.41.3) from it on. Each is
# truncated where its first dropped term falls below _TRUNCATION of the sum. The limits come from
# each branch's error against mpmath: Hankel's leading terms exceed 1 and cancel below x = order**2 / 2
# (6.9e-13 at order 19, x = 25.1); from x = 25 the e**(-2x) part it drops is below 2e-22; Debye's needs
# at most 15 terms from order 20, and its series limit of 10 keeps that series at 17 terms or fewer.
_TRUNCATION = 2.0 ** -56
_DEBYE_ORDER = 20.0
_HANKEL_FROM = 25.0
_DEBYE_SERIES_LIMIT = 10.0
# max over 0 < p <= 1 of |U_k(p)|, Debye's k-th coefficient polynomial, for k = 0..16 (rounded up from
# 60-digit values on a grid of 4001 points); the first k with _DEBYE_PEAKS[k] / order**k below
# _TRUNCATION is the first term dropped
_DEBYE_PEAKS = (1.0, 0.0834, 0.0327, 0.0164, 0.0202, 0.0208, 0.0404, 0.0654, 0.171, 0.382, 1.24, 3.56,
                13.8, 48.2, 218.0, 899.0, 4631.0)


@functools.cache
def _debye_polynomials() -> tuple:
    """Coefficients of u_k(p), k = 0..15, lowest power first, by DLMF 10.41.10:
    u_{k+1}(p) = p**2 (1 - p**2) u_k'(p) / 2 + integral_0^p (1 - 5 t**2) u_k(t) dt / 8.
    In floats, every coefficient lands within 5e-16 of its exact fraction."""
    polys = [[1.0]]
    for _ in range(len(_DEBYE_PEAKS) - 2):
        u = polys[-1]
        nxt = [0.0] * (len(u) + 3)
        for i, c in enumerate(u):
            nxt[i + 1] += c * i / 2 + c / (8 * (i + 1))
            nxt[i + 3] -= c * i / 2 + 5 * c / (8 * (i + 3))
        polys.append(nxt)
    return tuple(map(tuple, polys))


def _series_terms(order: float, limit: float) -> tuple:
    # the power series' terms (x/2)**(2m) / (m! (order+1)_m), m >= 1, at x = limit: its coefficients in
    # (x / limit)**2, up to the last one whose tail can reach _TRUNCATION of the sum
    q = 0.25 * limit * limit
    terms, term, total, m = [], 1.0, 1.0, 0
    while True:
        m += 1
        term *= q / (m * (m + order))
        terms.append(term)
        total += term
        ratio = q / ((m + 1) * (m + 1 + order))  # of the next term to this one; it falls with m
        if ratio < 0.5 and term * ratio / (1.0 - ratio) < _TRUNCATION * total:
            return tuple(terms)


def _hankel_terms(order: float, limit: float) -> tuple:
    # Hankel's terms (-1)**k prod_{j <= k} (4 order**2 - (2j - 1)**2) / (k! (8 x)**k) at x = limit: its
    # coefficients in limit / x, up to the last one before a term below _TRUNCATION that falls from there on
    mu = 4.0 * order * order
    terms, term = [], 1.0
    for k in range(1, 64):
        term *= -(mu - (2 * k - 1) ** 2) / (8 * k * limit)
        terms.append(term)
        ratio = abs(mu - (2 * k + 1) ** 2) / (8 * (k + 1) * limit)
        if ratio < 1.0 and abs(term) * ratio < _TRUNCATION:
            return tuple(terms)
    raise RuntimeError(f"Hankel's expansion of order {order} does not converge at x = {limit}")


def _debye_terms(order: float) -> tuple:
    # sum_{k=1}^{K} u_k(p) / order**k as a polynomial in p, coefficients of p**1.. p**(3K), K the last
    # term kept (at least one)
    last = max(1, next(k for k, peak in enumerate(_DEBYE_PEAKS) if peak / order ** k < _TRUNCATION) - 1)
    coeffs = [0.0] * (3 * last + 1)
    for k, u in enumerate(_debye_polynomials()[1:last + 1], start=1):
        for j, c in enumerate(u):
            coeffs[j] += c / order ** k
    return tuple(coeffs[1:])


@functools.lru_cache(maxsize=256)
def _bessel_plan(order: float) -> tuple:
    """(series limit, series terms, lgamma(order + 1), the expansion above the limit, its terms) of one
    order, built on its first use."""
    if order < _DEBYE_ORDER:
        limit = max(_HANKEL_FROM, 0.5 * order * order)
        above, terms = _log_bessel_hankel, _hankel_terms(order, limit)
    else:
        limit = _DEBYE_SERIES_LIMIT
        above, terms = _log_bessel_debye, _debye_terms(order)
    return limit, _series_terms(order, limit), math.lgamma(order + 1.0), above, terms


def _power_sum(coeffs: tuple, t):
    # sum_k coeffs[k - 1] t**k, k >= 1, by Horner's rule, on one float or elementwise on an array, with
    # the same roundings either way
    if isinstance(t, float):
        t, acc = float(t), coeffs[-1]
        for c in coeffs[-2::-1]:
            acc = acc * t + c
        return acc * t
    acc = np.full(t.shape, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc *= t
        acc += c
    return acc * t


def _log_bessel_series(order: float, limit: float, terms: tuple, lgamma_1: float, x):
    lead = order * (np.log(x) - LOG_2) - lgamma_1 if order > 0.0 else 0.0
    t = x / limit
    return lead + np.log1p(_power_sum(terms, t * t))


def _log_bessel_hankel(order: float, limit: float, terms: tuple, x):
    return x - 0.5 * (LOG_2PI + np.log(x)) + np.log1p(_power_sum(terms, limit / x))


def _log_bessel_debye(order: float, limit: float, terms: tuple, x):
    # order * eta(x / order) - log(2 pi order sqrt(1 + (x / order)**2)) / 2, written with s = hypot(order, x)
    s = np.hypot(order, x)
    return (s - order * np.log((order + s) / x) - 0.5 * (LOG_2PI + np.log(s))
            + np.log1p(_power_sum(terms, order / s)))


def log_bessel_i(order: float, x) -> float | np.ndarray:
    """log I_order(x) for order >= 0, x >= 0, in numpy and math only; stable for large order and x.

    x up to the order's series limit takes the power series; above it, orders below 20 take Hankel's
    large-x expansion and larger orders Debye's uniform expansion (see _bessel_plan). Against mpmath
    at 50 digits, every d = 2..512 (order d/2 - 1) is within 2e-14 relative, floored at 1, on the grid
    of tests/test_vmf.py. One point is computed on floats, and numpy's calls on a float give the bits
    of its calls on an array, so a float x gets the bits it has inside any array.
    """
    order = float(order)
    if not math.isfinite(order) or order < 0.0:
        raise ValueError(f"order must be finite and >= 0, got {order!r}")
    x_in = np.asarray(x, dtype=np.float64)
    limit, series, lgamma_1, above, terms = _bessel_plan(order)
    if x_in.size == 1:
        point = float(x_in.flat[0])
        if not 0.0 <= point < math.inf:
            raise ValueError("x must be finite and >= 0")
        if point == 0.0:  # the series' log(0): I_0(0) = 1, and I_order(0) = 0 for order > 0
            out = 0.0 if order == 0.0 else -math.inf
        else:
            out = (_log_bessel_series(order, limit, series, lgamma_1, point) if point <= limit
                   else above(order, limit, terms, point))
        return float(out) if x_in.ndim == 0 else np.full(x_in.shape, out)
    if not ((x_in >= 0.0) & (x_in < np.inf)).all():
        raise ValueError("x must be finite and >= 0")
    small = x_in <= limit
    with np.errstate(divide="ignore"):  # the series' log(0) = -inf where x == 0, as above
        if small.all():
            return _log_bessel_series(order, limit, series, lgamma_1, x_in)
        if not small.any():
            return above(order, limit, terms, x_in)
        out = np.empty(x_in.shape)
        out[small] = _log_bessel_series(order, limit, series, lgamma_1, x_in[small])
    out[~small] = above(order, limit, terms, x_in[~small])
    return out


def _log_normalizers(d: int, k):
    # (log_c_d(d, k), log_alpha(d, k)) unchecked, for k > 0 (a float or an array), from one Bessel evaluation;
    # the shared (order * log k) product makes log_alpha + log_surface_area + log_c_d cancel cleanly
    n = 0.5 * d
    order = n - 1.0
    order_log_k = order * np.log(k)
    log_i = log_bessel_i(order, k)
    return (order_log_k - n * LOG_2PI - log_i,
            math.lgamma(n) + order * LOG_2 - order_log_k + log_i)


def _normalizer(d: int, kappa, which: int, at_zero: float) -> float | np.ndarray:
    # _log_normalizers(d, kappa)[which] on a validated kappa, and at_zero where kappa == 0; like
    # log_bessel_i, one point is computed on floats, and an array's positive entries get the same bits
    kappa_in = np.asarray(kappa, dtype=np.float64)
    if kappa_in.ndim == 0:
        point = float(kappa_in)
        if not 0.0 <= point < math.inf:
            raise ValueError("kappa must be finite and >= 0")
        return at_zero if point == 0.0 else float(_log_normalizers(d, point)[which])
    if not ((kappa_in >= 0.0) & (kappa_in < np.inf)).all():
        raise ValueError("kappa must be finite and >= 0")
    with np.errstate(divide="ignore", invalid="ignore"):  # log(0) where kappa == 0, which takes at_zero
        return np.where(kappa_in == 0.0, at_zero, _log_normalizers(d, kappa_in)[which])


def log_c_d(d: int, kappa) -> float | np.ndarray:
    """log normalizing constant of the vMF density in R^d.

    kappa == 0 returns the analytic uniform limit -log_surface_area(d); a
    scalar kappa gives a float, an array kappa an array of its shape.
    """
    return _normalizer(_check_dimension(d), kappa, 0, -log_surface_area(d))


def log_alpha(d: int, kappa) -> float | np.ndarray:
    """log of the uniform-to-vMF density ratio at the mode.

    alpha(kappa) = 1 / (surface_area * C_d(kappa)); equals Gamma(d/2) times
    (2/kappa)^(d/2-1) I_{d/2-1}(kappa), and 1 at kappa == 0 (shapes as log_c_d).
    """
    return _normalizer(_check_dimension(d), kappa, 1, 0.0)


def vmf_log_pdf(params: VmfParams, z) -> float:
    """Log density of the vMF distribution at unit vector z."""
    z = as_unit_rows(z)
    if z.shape != (params.d,):
        raise ValueError(f"dimension mismatch: params d={params.d}, z must be one vector, got shape {z.shape}")
    return float(log_c_d(params.d, params.kappa) + params.kappa * float(params.mean @ z))


def _unit_rows(rows: np.ndarray, rng: np.random.Generator, orthogonal_to: np.ndarray | None = None) -> np.ndarray:
    # Normalize rows, resampling the measure-zero degenerate ones; when a mean
    # direction is given the resampled rows are re-projected into its tangent.
    norms = row_norms(rows)
    bad = norms < 1e-12
    while bad.any():
        fresh = rng.standard_normal((int(bad.sum()), rows.shape[1]))
        if orthogonal_to is not None:
            fresh -= np.outer(fresh @ orthogonal_to, orthogonal_to)
        rows[bad] = fresh
        norms = row_norms(rows)
        bad = norms < 1e-12
    return rows / norms[:, None]


# Candidates a one-draw call proposes at once; n draws propose max(2n, this).
_RADIAL_CANDIDATES = 16


def _radial_envelope(kappa: float, d: int):
    # Wood's envelope for the cosine w between a draw and its mean: (b, x0, c).
    dim = d - 1.0
    b = dim / (np.sqrt(4.0 * kappa * kappa + dim * dim) + 2.0 * kappa)
    x0 = (1.0 - b) / (1.0 + b)
    return b, x0, kappa * x0 + dim * np.log(1.0 - x0 * x0)


def samplable(kappa: float, d: int) -> bool:
    """Whether sample_vmf can draw at a finite kappa in R^d: the envelope needs 1 - x0**2 > 0,
    which rounds to 0 from about kappa = 1e15.7 at d=2, 1e16.8 at d=16 and 1e18.4 at d=512."""
    with np.errstate(divide="ignore"):  # log(0) in the envelope's constant, where it collapses
        _, x0, _ = _radial_envelope(kappa, d)
    return bool(1.0 - x0 * x0 > 0.0)


def _radial_proposals(rng: np.random.Generator, d: int, m: int):
    # The sampler's RNG calls for m candidates: m beta draws, then m uniforms.
    half = 0.5 * (d - 1.0)
    return rng.beta(half, half, size=m), rng.uniform(size=m)


def _radial_accept(z, u, kappa, d: int, b, x0, c):
    # Candidate cosines and Wood's acceptance test. Every operation is
    # elementwise, so kappa, b, x0 and c may be scalars, or (N, 1) columns
    # against N stacked rows of candidates, with the same bits per element.
    dim = d - 1.0
    w = (1.0 - (1.0 + b) * z) / (1.0 - (1.0 - b) * z)
    return w, kappa * w + dim * np.log1p(-x0 * w) - c >= np.log(u)


def _sample_radial(rng: np.random.Generator, kappa: float, d: int, n: int) -> np.ndarray:
    # Rejection sampler for the cosine w between a draw and the mean direction
    # (Ulrich's tangent-normal decomposition with Wood's envelope). The only one:
    # _draw_rows runs the same envelope and test on stacked one-draw rounds of sample_vmf.
    envelope = _radial_envelope(kappa, d)
    out = np.empty(n)
    filled = 0
    for _ in range(1000):
        if filled >= n:
            break
        want = n - filled
        z, u = _radial_proposals(rng, d, max(2 * want, _RADIAL_CANDIDATES))
        w, accept = _radial_accept(z, u, kappa, d, *envelope)
        good = w[accept][:want]
        out[filled:filled + good.size] = good
        filled += good.size
    if filled < n:
        raise RuntimeError("vMF radial rejection sampler failed to converge")
    return out


def _draw_rows(means: np.ndarray, z: np.ndarray, u: np.ndarray, kappa, envelope, g: np.ndarray):
    # sample_vmf's float operations on N stacked one-draw calls. Draw r took the
    # radial candidates z[r], u[r] (one _radial_proposals call) and then the
    # normal row g[r] from the stream; kappa and the envelope's (b, x0, c) are
    # scalars or (N, 1) columns. Row r is then bit-equal to
    # sample_vmf(VmfParams(means[r], kappa), rng, 1)[0]: the acceptance test is
    # elementwise, np.vecdot is the per-row (1, d) @ (d,) product and row_norms
    # sums each row of a stack as it sums one row (a 1-d linalg.norm, a dot
    # product, would change last bits). Returns None when a draw accepted no
    # candidate or has a degenerate tangent, where sample_vmf would take more
    # from the stream.
    w, accept = _radial_accept(z, u, kappa, means.shape[1], *envelope)
    rows = np.arange(len(means))
    first = accept.argmax(axis=1)
    if not accept[rows, first].all():
        return None
    w = w[rows, first]
    g -= np.vecdot(g, means)[:, None] * means
    norms = row_norms(g)
    if not (norms >= 1e-12).all():
        return None
    out = w[:, None] * means + np.sqrt(np.maximum(1.0 - w * w, 0.0))[:, None] * (g / norms[:, None])
    return out / row_norms(out)[:, None]


def sample_vmf(params: VmfParams, seed, n: int) -> np.ndarray:
    """Draw n unit vectors from the vMF distribution; deterministic per seed."""
    if int(n) != n or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    n = int(n)
    rng = np.random.default_rng(seed)
    d = params.d
    if params.kappa == 0.0:
        return _unit_rows(rng.standard_normal((n, d)), rng)
    w = _sample_radial(rng, params.kappa, d, n)
    g = rng.standard_normal((n, d))
    g -= np.outer(g @ params.mean, params.mean)
    v = _unit_rows(g, rng, orthogonal_to=params.mean)
    out = w[:, None] * params.mean[None, :] + np.sqrt(np.clip(1.0 - w * w, 0.0, None))[:, None] * v
    return out / np.linalg.norm(out, axis=1)[:, None]
