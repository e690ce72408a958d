"""Reference uncertainty scores. Higher always means more confident."""

from __future__ import annotations

import numpy as np

# Wire-format method names accepted by the evaluation pipeline and CLI.
METHOD_NAMES = ("AccScr", "SCF", "PFE", "SF", "GalUE", "HolUE", "HolUE-sum")


def q_accscr(score, tau: float):
    """Distance of the acceptance score (a float or an array) from the operating threshold."""
    out = np.abs(np.asarray(score, dtype=np.float64) - float(tau))
    return float(out) if out.ndim == 0 else out


def q_scf(kappa) -> np.ndarray:
    """Probe concentrations (N,) used directly as confidence."""
    kappa = np.asarray(kappa, dtype=np.float64)
    if not np.all(np.isfinite(kappa)) or np.any(kappa <= 0.0):
        raise ValueError("kappa must be finite and > 0")
    return kappa


def q_pfe(sigma_sq) -> np.ndarray:
    """Negative harmonic mean of each probe's per-dimension variances, (N, d) -> (N,)."""
    s = np.asarray(sigma_sq, dtype=np.float64)
    if s.ndim != 2 or s.shape[1] < 1:
        raise ValueError(f"expected (N, d) variance vectors, got shape {s.shape}")
    if not np.all(np.isfinite(s)) or np.any(s <= 0.0):
        raise ValueError("variances must be finite and > 0")
    with np.errstate(over="ignore"):  # a subnormal variance has an infinite reciprocal: the score is -0.0
        return -s.shape[1] / np.sum(1.0 / s, axis=1)


def q_sf(scale) -> np.ndarray:
    """Scale features (N,) passed through as confidence."""
    scale = np.asarray(scale, dtype=np.float64)
    if not np.all(np.isfinite(scale)):
        raise ValueError("scale must be finite")
    return scale
