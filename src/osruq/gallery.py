"""Gallery posterior over enrolled classes plus an out-of-gallery mass.

The observation model mixes one vMF per enrolled class (shared concentration
kappa, prior (1-beta)/K each) with a uniform out-of-gallery component of prior
beta. Everything is computed in log domain and normalized with a softmax, so
the K+1 posterior entries always sum to one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import logsumexp

from . import vmf


class DegenerateTemplateError(ValueError):
    """Template samples cancel out; no direction can be aggregated."""


class UnreachableThresholdError(ValueError):
    """No concentration maps to the requested cosine threshold."""

    def __init__(self, message: str, achievable: tuple[float, float]):
        super().__init__(message)
        self.achievable = achievable


@dataclass(frozen=True)
class Gallery:
    """Enrolled class ids and their unit mean directions (one row per class)."""

    class_ids: tuple
    means: np.ndarray

    def __post_init__(self):
        ids = tuple(str(c) for c in self.class_ids)
        if len(ids) < 1:
            raise ValueError("gallery must contain at least one class")
        if len(set(ids)) != len(ids):
            raise ValueError("gallery class ids must be unique")
        means = np.asarray(self.means, dtype=np.float64)
        if means.ndim != 2 or means.shape[0] != len(ids):
            raise ValueError(f"means must be (K, d) with K={len(ids)}, got {means.shape}")
        if means.shape[1] < 2:
            raise ValueError("dimension must be >= 2")
        norms = np.linalg.norm(means, axis=1)
        if np.any(np.abs(norms - 1.0) > vmf.UNIT_NORM_ATOL):
            raise ValueError("gallery means must be unit norm")
        object.__setattr__(self, "class_ids", ids)
        object.__setattr__(self, "means", means)

    @property
    def k(self) -> int:
        return len(self.class_ids)

    @property
    def d(self) -> int:
        return self.means.shape[1]


@dataclass(frozen=True)
class GalleryModel:
    """Gallery plus the shared concentration and out-of-gallery prior.

    kappa == 0 is allowed as the exact uniform limit (posterior equals the
    prior for every probe).
    """

    gallery: Gallery
    kappa: float
    beta: float

    def __post_init__(self):
        kappa = float(self.kappa)
        beta = float(self.beta)
        if not np.isfinite(kappa) or kappa < 0.0:
            raise ValueError(f"kappa must be finite and >= 0, got {self.kappa!r}")
        if not 0.0 < beta < 1.0:
            raise ValueError(f"beta must be in (0, 1), got {self.beta!r}")
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "beta", beta)

    @cached_property
    def _term_offsets(self) -> tuple[float, float]:
        """(class offset, out-of-gallery term) of log_joint_terms; normalizers run once per model."""
        gal = self.gallery
        log_c = vmf.log_c_d(gal.d, self.kappa)
        return (np.log((1.0 - self.beta) / gal.k) + log_c,
                np.log(self.beta) + vmf.log_alpha(gal.d, self.kappa) + log_c)


def aggregate_template(samples) -> np.ndarray:
    """Average unit-vector samples and renormalize to a template direction."""
    arr = np.asarray(samples, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[0] < 1:
        raise ValueError(f"expected (m, d) samples, got shape {arr.shape}")
    vmf.as_unit_rows(arr)
    mean = arr.mean(axis=0)
    norm = float(np.linalg.norm(mean))
    if norm < 1e-12:
        raise DegenerateTemplateError("sample mean has vanishing norm; cannot aggregate")
    return mean / norm


# Scoring a block of probes keeps about ten (rows, K+1) float64 temporaries
# alive at once; this many elements holds each near 256 KB.
_BLOCK_ELEMENTS = 1 << 15


def row_blocks(n_rows: int, k: int) -> list:
    """Slices that cover n_rows probes in blocks sized for a K-class gallery."""
    step = max(1, _BLOCK_ELEMENTS // (k + 1))
    return [slice(i, i + step) for i in range(0, n_rows, step)]


def cosines(gallery: Gallery, z) -> np.ndarray:
    """Cosine of each probe with each class mean: (d,) -> (K,), (N, d) -> (N, K).

    One matrix-vector product per row, so each row has the bits of a
    single-probe call (a matrix-matrix product would not).
    """
    z = vmf.as_unit_rows(z)
    if z.shape[-1] != gallery.d:
        raise ValueError(f"dimension mismatch: gallery d={gallery.d}, z d={z.shape[-1]}")
    return np.matmul(gallery.means, z[..., None])[..., 0]


def terms_from_cosines(model: GalleryModel, cos: np.ndarray) -> np.ndarray:
    """log_joint_terms from precomputed cosines (last axis: K classes)."""
    class_offset, oog_term = model._term_offsets
    terms = np.empty(cos.shape[:-1] + (cos.shape[-1] + 1,))
    terms[..., :-1] = class_offset + model.kappa * cos
    terms[..., -1] = oog_term
    return terms


def log_joint_terms(model: GalleryModel, z) -> np.ndarray:
    """Unnormalized log posterior terms: K class entries then out-of-gallery.

    Term c is log[(1-beta)/K * C_d(kappa) * exp(kappa mu_c.z)]; the final term
    is log[beta / surface_area]. Their logsumexp is the marginal log density.
    z is one probe (d,) or a stack of probes (N, d); the result is (K+1,) or
    (N, K+1).
    """
    return terms_from_cosines(model, cosines(model.gallery, z))


def log_marginal(model: GalleryModel, z) -> float | np.ndarray:
    """Log marginal density under the gallery mixture: a float for (d,), an (N,) array for (N, d)."""
    out = logsumexp(log_joint_terms(model, z), axis=-1)
    return float(out) if out.ndim == 0 else out


def softmax(terms: np.ndarray) -> np.ndarray:
    """Normalize log terms over the last axis into probabilities that sum to one."""
    probs = np.exp(terms - logsumexp(terms, axis=-1, keepdims=True))
    probs /= probs.sum(axis=-1, keepdims=True)
    return probs


def posterior(model: GalleryModel, z) -> np.ndarray:
    """Posterior over the K classes then the out-of-gallery event: (K+1,) for (d,), (N, K+1) for (N, d)."""
    return softmax(log_joint_terms(model, z))


def decision_index(probs: np.ndarray):
    """Accepted class index per posterior row (last column out-of-gallery), or -1 to
    reject: out-of-gallery must strictly exceed every class probability; argmax ties
    go to the lowest index."""
    gallery_probs = probs[..., :-1]
    best = gallery_probs.argmax(axis=-1)
    return best - (best + 1) * (probs[..., -1] > gallery_probs.max(axis=-1))  # -1 where rejected


def galue_score(probs: np.ndarray):
    """Confidence of the maximum-posterior decision (classes and reject alike), per row."""
    return probs.max(axis=-1)


def _threshold_from_params(kappa: float, beta: float, k: int, d: int) -> float:
    return (np.log(beta / (1.0 - beta)) + np.log(k) + vmf.log_alpha(d, kappa)) / kappa


def equivalent_threshold(model: GalleryModel) -> float:
    """Cosine threshold whose accept/reject rule matches the posterior rule.

    A probe is rejected by the posterior exactly when its best gallery cosine
    falls below this value (requires kappa > 0).
    """
    if model.kappa <= 0.0:
        raise ValueError("threshold is undefined for kappa == 0")
    return float(_threshold_from_params(model.kappa, model.beta, model.gallery.k, model.gallery.d))


def kappa_for_threshold(
    target_tau: float,
    beta: float,
    k: int,
    d: int,
    bracket: tuple[float, float] = (1e-2, 1e6),
    tol: float = 1e-8,
    max_iter: int = 300,
    scan_points: int = 400,
) -> float:
    """Invert the threshold map: find kappa whose equivalent cosine is target_tau.

    The map is not monotone for large K and d (it dips below 1 to a minimum
    and climbs back), so a coarse scan over log kappa locates every crossing
    and bisection refines the one at the largest kappa; that branch is the
    one whose concentration matches sharply clustered galleries and makes the
    inversion a true round trip for models on it. The returned kappa is the
    bracket side whose implied threshold is at or equal to the target from
    above (within tol), so a threshold placed just above an order statistic
    never re-admits the probe that defined it. Raises
    UnreachableThresholdError with the achievable range when the scan never
    crosses the target.
    """
    target_tau = float(target_tau)
    if not -1.0 < target_tau < 1.0:
        raise ValueError(f"target threshold must lie in (-1, 1), got {target_tau!r}")
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must be in (0, 1), got {beta!r}")
    if k < 1 or d < 2:
        raise ValueError("need k >= 1 and d >= 2")
    lo, hi = float(bracket[0]), float(bracket[1])
    if not 0.0 < lo < hi:
        raise ValueError(f"invalid bracket {bracket!r}")

    def f(kappa: float) -> float:
        return float(_threshold_from_params(kappa, beta, k, d)) - target_tau

    log_grid = np.linspace(np.log(lo), np.log(hi), scan_points)
    grid = np.exp(log_grid)
    values = _threshold_from_params(grid, beta, k, d) - target_tau
    exact = np.flatnonzero(values == 0.0)
    if exact.size:
        return float(grid[exact[-1]])
    crossings = np.flatnonzero(np.sign(values[:-1]) != np.sign(values[1:]))
    if crossings.size == 0:
        taus = values + target_tau
        raise UnreachableThresholdError(
            f"threshold {target_tau} is not reachable; achievable range is "
            f"[{float(np.min(taus)):.6g}, {float(np.max(taus)):.6g}] "
            f"over kappa in [{lo:g}, {hi:g}]",
            achievable=(float(np.min(taus)), float(np.max(taus))),
        )
    idx = int(crossings[-1])
    log_lo, log_hi = log_grid[idx], log_grid[idx + 1]
    f_lo, f_hi = float(values[idx]), float(values[idx + 1])
    for _ in range(max_iter):
        if log_hi - log_lo < 1e-12:
            break
        log_mid = 0.5 * (log_lo + log_hi)
        f_mid = f(float(np.exp(log_mid)))
        if np.sign(f_mid) == np.sign(f_lo):
            log_lo, f_lo = log_mid, f_mid
        else:
            log_hi, f_hi = log_mid, f_mid
    # pick the side that does not undershoot the target
    above = log_lo if f_lo >= 0.0 else log_hi
    kappa = float(np.exp(above))
    if abs(f(kappa)) > tol:
        raise RuntimeError("threshold inversion did not converge")
    return kappa
