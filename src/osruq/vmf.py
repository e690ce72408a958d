"""von Mises-Fisher kernels on the unit hypersphere, kept in log domain throughout."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, ive

# Tolerance for vectors that claim to be unit norm already; matches the
# bundle reader's accept tier so loaded vectors pass downstream validation.
UNIT_NORM_ATOL = 1e-6

LOG_2PI = np.log(2.0 * np.pi)

# Power series length for the small-x / large-order Bessel branch. The series
# peaks near m = (sqrt(order^2 + x^2) - order) / 2, which stays below ~220 for
# every order/x pair that can reach this branch, so 1024 terms is ample.
_SERIES_TERMS = 1024


def as_unit_vector(v, atol: float = UNIT_NORM_ATOL) -> np.ndarray:
    """Validate and return a 1-d unit vector as float64.

    Rejects vectors whose norm deviates from 1 by more than ``atol``; callers
    that want renormalization must do it explicitly.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {v.shape}")
    if v.shape[0] < 2:
        raise ValueError(f"dimension must be >= 2, got {v.shape[0]}")
    norm = float(np.sqrt(np.dot(v, v)))  # the 1-d linalg.norm formula
    if not np.isfinite(norm) or abs(norm - 1.0) > atol:
        raise ValueError(f"vector norm {norm!r} is not 1 within {atol}")
    return v


def as_unit_rows(v, atol: float = UNIT_NORM_ATOL) -> np.ndarray:
    """as_unit_vector for one vector (d,) or for every row of a stack (N, d)."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 2:
        return as_unit_vector(v, atol)
    bad = ~(np.abs(row_norms(v) - 1.0) <= atol)
    if np.any(bad):
        raise ValueError(f"rows {np.flatnonzero(bad)[:5].tolist()} of {v.shape} are not unit vectors")
    return v


def row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of (N, d): linalg.norm(axis=1)'s own formula, without its wrapper."""
    return np.sqrt(np.add.reduce(rows * rows, axis=1))


@dataclass(frozen=True)
class VmfParams:
    """Mean direction and concentration; kappa == 0 is the uniform sphere."""

    mean: np.ndarray
    kappa: float

    def __post_init__(self):
        object.__setattr__(self, "mean", as_unit_vector(self.mean))
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
    return float(np.log(2.0) + 0.5 * d * np.log(np.pi) - gammaln(0.5 * d))


def logsumexp(a, axis: int = -1, keepdims: bool = False):
    """log(sum(exp(a))) over one axis, bit-equal to scipy.special.logsumexp (1.17) on float64.

    scipy's shifted algorithm (Blanchard, Higham and Higham, 2021), step for step;
    scipy's direct fallback for non-finite results is computed only where needed.
    """
    a = np.asarray(a, dtype=np.float64)
    a_max = a.max(axis=axis, keepdims=True)
    mask = a == a_max
    m = mask.sum(axis=axis, keepdims=True, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        e = np.exp(a - a_max)
        e[mask] = 0.0
        s = e.sum(axis=axis, keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max
        if not np.isfinite(out).all():  # inf or NaN input, or all -inf
            out = np.where(np.isfinite(out), out, np.log(np.exp(a).sum(axis=axis, keepdims=True)))
    out = out if keepdims else np.squeeze(out, axis=axis)
    return out[()] if out.ndim == 0 else out


def _log_bessel_series(order: float, x: np.ndarray) -> np.ndarray:
    # sum_m (x/2)^(2m + order) / (m! Gamma(m + order + 1)), evaluated as a
    # logsumexp so huge orders cannot underflow. Only reached for x small
    # relative to order, where the series converges in a few hundred terms.
    m = np.arange(_SERIES_TERMS, dtype=np.float64)
    with np.errstate(divide="ignore"):  # x/2 underflows to 0 only for the least subnormal x
        log_half_x = np.log(0.5 * x)[..., None]
    terms = (2.0 * m + order) * log_half_x - gammaln(m + 1.0) - gammaln(m + order + 1.0)
    tail_slack = terms[..., -1] - np.max(terms, axis=-1)
    if np.any(tail_slack > -46.0):
        raise RuntimeError("Bessel power series did not converge; x too large for this branch")
    return logsumexp(terms)


def _log_from_scaled(scaled, x):
    # log I_order(x) from the exponentially scaled ive(order, x) = I_order(x) exp(-x)
    return np.log(scaled) + x


def log_bessel_i(order: float, x) -> float | np.ndarray:
    """log I_order(x) for order >= 0, x >= 0; stable for large order and x.

    Uses the exponentially scaled Bessel from scipy where it is nonzero and a
    log-domain power series where scaling underflows (large order, small x).
    A finite float x >= 0 on the scaled branch skips the array machinery.
    """
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

    rest = ~direct
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
    # formula(kappa) directly for a finite float kappa > 0; any other input is
    # validated as an array, kappa == 0 gets the analytic limit at_zero
    if isinstance(kappa, float) and 0.0 < kappa < np.inf:
        return float(formula(kappa))
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
    # (log_c_d(d, k), log_alpha(d, k)) unchecked, for k > 0 (float or array), from one Bessel evaluation;
    # the shared (order * log k) product makes log_alpha + log_surface_area + log_c_d cancel cleanly
    n = 0.5 * d
    order = n - 1.0
    order_log_k = order * np.log(k)
    log_i = log_bessel_i(order, k)
    return (order_log_k - n * LOG_2PI - log_i,
            gammaln(n) + order * np.log(2.0) - order_log_k + log_i)


def log_c_d(d: int, kappa) -> float | np.ndarray:
    """log normalizing constant of the vMF density in R^d.

    kappa == 0 returns the analytic uniform limit -log_surface_area(d). A
    finite float kappa > 0 is evaluated directly; other inputs run on arrays.
    """
    d = _check_dimension(d)
    return _over_kappa(lambda k: _log_normalizers(d, k)[0], kappa, -log_surface_area(d))


def log_alpha(d: int, kappa) -> float | np.ndarray:
    """log of the uniform-to-vMF density ratio at the mode.

    alpha(kappa) = 1 / (surface_area * C_d(kappa)); equals Gamma(d/2) times
    (2/kappa)^(d/2-1) I_{d/2-1}(kappa), and 1 at kappa == 0 (paths as log_c_d).
    """
    d = _check_dimension(d)
    return _over_kappa(lambda k: _log_normalizers(d, k)[1], kappa, 0.0)


def vmf_log_pdf(params: VmfParams, z) -> float:
    """Log density of the vMF distribution at unit vector z."""
    z = as_unit_vector(z)
    if z.shape[0] != params.d:
        raise ValueError(f"dimension mismatch: params d={params.d}, z d={z.shape[0]}")
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


def _sample_radial(rng: np.random.Generator, kappa: float, d: int, n: int) -> np.ndarray:
    # Rejection sampler for the cosine w between a draw and the mean direction
    # (Ulrich's tangent-normal decomposition with Wood's envelope).
    dim = d - 1.0
    b = dim / (np.sqrt(4.0 * kappa * kappa + dim * dim) + 2.0 * kappa)
    x0 = (1.0 - b) / (1.0 + b)
    c = kappa * x0 + dim * np.log(1.0 - x0 * x0)
    out = np.empty(n)
    filled = 0
    for _ in range(1000):
        if filled >= n:
            break
        want = n - filled
        m = max(2 * want, 16)
        z = rng.beta(0.5 * dim, 0.5 * dim, size=m)
        w = (1.0 - (1.0 + b) * z) / (1.0 - (1.0 - b) * z)
        u = rng.uniform(size=m)
        accept = kappa * w + dim * np.log1p(-x0 * w) - c >= np.log(u)
        good = w[accept][:want]
        out[filled:filled + good.size] = good
        filled += good.size
    if filled < n:
        raise RuntimeError("vMF radial rejection sampler failed to converge")
    return out


def _draw_one(rng: np.random.Generator, mean: np.ndarray, kappa: float) -> np.ndarray:
    # sample_vmf(VmfParams(mean, kappa), rng, 1)[0] without the checks, for a unit
    # float64 mean and kappa > 0: the same RNG calls and numpy float operations in
    # the same order, so the draw is bit-equal. Norms are row_norms' np.add.reduce sums;
    # a 1-d linalg.norm (a dot product) would change last bits.
    w = _sample_radial(rng, kappa, mean.shape[0], 1)[0]
    g = rng.standard_normal((1, mean.shape[0]))
    g -= (g @ mean)[:, None] * mean
    norm = row_norms(g)[0]
    v = g[0] / norm if norm >= 1e-12 else _unit_rows(g, rng, orthogonal_to=mean)[0]
    out = w * mean + np.sqrt(max(1.0 - w * w, 0.0)) * v
    return out / np.sqrt(np.add.reduce(out * out))


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
