"""von Mises-Fisher kernels on the unit hypersphere, kept in log domain throughout."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

# Tolerance for vectors that claim to be unit norm already, on row_norms'
# measure: the bundle reader's accept tier and Gallery's and cosines' check.
UNIT_NORM_ATOL = 1e-6

LOG_2PI = np.log(2.0 * np.pi)

# Power series length for the small-x / large-order Bessel branch. The series
# peaks near m = (sqrt(order^2 + x^2) - order) / 2, which stays below ~220 for
# every order/x pair that can reach this branch, so 1024 terms is ample.
_SERIES_TERMS = 1024


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


@functools.cache
def _special():
    """scipy.special, imported on the first call: its import takes about 0.25 s, which gen, --help,
    --version and every argument or config error would pay for nothing."""
    import scipy.special
    return scipy.special


def _check_dimension(d: int) -> int:
    if int(d) != d or d < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {d!r}")
    return int(d)


def log_surface_area(d: int) -> float:
    """log of the surface area of the unit sphere in R^d."""
    d = _check_dimension(d)
    return float(np.log(2.0) + 0.5 * d * np.log(np.pi) - _special().gammaln(0.5 * d))


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


def _log_bessel_series(order: float, x: np.ndarray) -> np.ndarray:
    # sum_m (x/2)^(2m + order) / (m! Gamma(m + order + 1)), evaluated as a
    # logsumexp so huge orders cannot underflow. Only reached for x small
    # relative to order, where the series converges in a few hundred terms.
    gammaln = _special().gammaln
    m = np.arange(_SERIES_TERMS, dtype=np.float64)
    with np.errstate(divide="ignore"):  # x/2 underflows to 0 only for the least subnormal x
        log_half_x = np.log(0.5 * x)[..., None]
    terms = (2.0 * m + order) * log_half_x - gammaln(m + 1.0) - gammaln(m + order + 1.0)
    tail_slack = terms[..., -1] - np.max(terms, axis=-1)
    if np.any(tail_slack > -46.0):
        raise RuntimeError("Bessel power series did not converge; x too large for this branch")
    return logsumexp(terms)


def _log_bessel_large_x(order: float, x: np.ndarray) -> np.ndarray:
    # Hankel's expansion to three terms; from x = 2**30 on, the first dropped term is below an ulp for
    # every order up to that of d = 512
    mu, t = 4.0 * order * order, 0.125 / x
    return x - 0.5 * (LOG_2PI + np.log(x)) + np.log1p(
        -(mu - 1.0) * t * (1.0 - (mu - 9.0) * t / 2.0 * (1.0 - (mu - 25.0) * t / 3.0)))


def _log_from_scaled(scaled, x):
    # log I_order(x) from the exponentially scaled ive(order, x) = I_order(x) exp(-x)
    return np.log(scaled) + x


def log_bessel_i(order: float, x) -> float | np.ndarray:
    """log I_order(x) for order >= 0, x >= 0; stable for large order and x.

    Uses the exponentially scaled Bessel from scipy where it is finite and nonzero, a large-x
    expansion where scipy gives NaN (x from 2**30, about 1.07e9) and a log-domain power series where
    scaling underflows (large order, small x). A finite float x >= 0 on the scaled branch skips
    the array machinery.
    """
    ive = _special().ive
    order = float(order)
    if not np.isfinite(order) or order < 0.0:
        raise ValueError(f"order must be finite and >= 0, got {order!r}")
    if isinstance(x, float) and 0.0 <= x < np.inf:
        scaled = ive(order, x)
        if 0.0 < scaled < np.inf:
            return float(_log_from_scaled(scaled, x))
    x_in = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x_in)) or np.any(x_in < 0.0):
        raise ValueError("x must be finite and >= 0")
    x_arr = np.atleast_1d(x_in).astype(np.float64)
    out = np.empty_like(x_arr)

    scaled = ive(order, x_arr)
    direct = np.isfinite(scaled) & (scaled > 0.0)
    out[direct] = _log_from_scaled(scaled[direct], x_arr[direct])
    large = np.isnan(scaled)
    out[large] = _log_bessel_large_x(order, x_arr[large])

    rest = ~(direct | large)
    if np.any(rest):
        xr = x_arr[rest]
        vals = np.full(xr.shape, -np.inf)
        pos = xr > 0.0
        if np.any(pos):
            vals[pos] = _log_bessel_series(order, xr[pos])
        # x == 0: I_order(0) = 0 for order > 0 (order == 0 took the direct path)
        out[rest] = vals

    return float(out[0]) if x_in.ndim == 0 else out.reshape(x_in.shape)


def _over_kappa(formula, kappa, at_zero: float) -> float | np.ndarray:
    # formula(kappa) on the validated kappa > 0 as an array; kappa == 0 gets the analytic limit at_zero
    kappa_in = np.asarray(kappa, dtype=np.float64)
    if not np.all(np.isfinite(kappa_in)) or np.any(kappa_in < 0.0):
        raise ValueError("kappa must be finite and >= 0")
    k = np.atleast_1d(kappa_in).astype(np.float64)
    out = np.full(k.shape, at_zero)
    pos = k > 0.0
    if np.any(pos):
        out[pos] = formula(k[pos])
    return float(out[0]) if kappa_in.ndim == 0 else out.reshape(kappa_in.shape)


def _log_normalizers(d: int, k):
    # (log_c_d(d, k), log_alpha(d, k)) unchecked, for an array k > 0, from one Bessel evaluation;
    # the shared (order * log k) product makes log_alpha + log_surface_area + log_c_d cancel cleanly
    n = 0.5 * d
    order = n - 1.0
    order_log_k = order * np.log(k)
    log_i = log_bessel_i(order, k)
    return (order_log_k - n * LOG_2PI - log_i,
            _special().gammaln(n) + order * np.log(2.0) - order_log_k + log_i)


def log_c_d(d: int, kappa) -> float | np.ndarray:
    """log normalizing constant of the vMF density in R^d.

    kappa == 0 returns the analytic uniform limit -log_surface_area(d); a
    scalar kappa gives a float, an array kappa an array of its shape.
    """
    d = _check_dimension(d)
    return _over_kappa(lambda k: _log_normalizers(d, k)[0], kappa, -log_surface_area(d))


def log_alpha(d: int, kappa) -> float | np.ndarray:
    """log of the uniform-to-vMF density ratio at the mode.

    alpha(kappa) = 1 / (surface_area * C_d(kappa)); equals Gamma(d/2) times
    (2/kappa)^(d/2-1) I_{d/2-1}(kappa), and 1 at kappa == 0 (shapes as log_c_d).
    """
    d = _check_dimension(d)
    return _over_kappa(lambda k: _log_normalizers(d, k)[1], kappa, 0.0)


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
