"""Reference uncertainty scores. Higher always means more confident."""

from __future__ import annotations

import numpy as np

from . import vmf
from .gallery import Gallery, cosines

# Wire-format method names accepted by the evaluation pipeline and CLI.
METHOD_NAMES = ("AccScr", "SCF", "PFE", "SF", "GalUE", "HolUE", "HolUE-sum")


def acc_score(gallery: Gallery, z) -> float:
    """Best gallery cosine similarity for a probe."""
    return float(cosines(gallery, vmf.as_unit_vector(z)).max())


def q_accscr(score, tau: float):
    """Distance of the acceptance score (a float or an array) from the operating threshold."""
    out = np.abs(np.asarray(score, dtype=np.float64) - float(tau))
    return float(out) if out.ndim == 0 else out


def q_scf(kappa: float) -> float:
    """Probe concentration used directly as confidence."""
    kappa = float(kappa)
    if not np.isfinite(kappa) or kappa <= 0.0:
        raise ValueError(f"kappa must be finite and > 0, got {kappa!r}")
    return kappa


def q_pfe(sigma_sq) -> float:
    """Negative harmonic mean of per-dimension variances."""
    s = np.asarray(sigma_sq, dtype=np.float64)
    if s.ndim != 1 or s.shape[0] < 1:
        raise ValueError(f"expected a 1-d variance vector, got shape {s.shape}")
    if not np.all(np.isfinite(s)) or np.any(s <= 0.0):
        raise ValueError("variances must be finite and > 0")
    return float(-s.shape[0] / np.sum(1.0 / s))


def q_sf(scale: float) -> float:
    """Scale feature passed through as confidence."""
    scale = float(scale)
    if not np.isfinite(scale):
        raise ValueError(f"scale must be finite, got {scale!r}")
    return scale
