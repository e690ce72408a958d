"""Independent re-derivations used to cross-check the main implementations.

Everything here deliberately avoids the log-domain code paths of the engine:
normalizers and the Bessel function come from one angular integral by 1-d
adaptive Gauss-Legendre quadrature in numpy, with no use of vmf's Bessel path;
posteriors and KL components are recomputed in plain linear arithmetic, with
the Bessel function as its power series, inside a restricted parameter
envelope; and the mixture marginal is checked statistically. The returned
verification report feeds the verify CLI command.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import vmf
from . import gallery as gallery_mod
from . import holistic as holistic_mod
from .gallery import Gallery, GalleryModel

# Linear-domain oracles are only trustworthy where nothing can overflow.
ENVELOPE = {"d_max": 8, "kappa_max": 50.0, "k_max": 20}


def _check_envelope(d: int, kappa: float, k: int = 1):
    if d > ENVELOPE["d_max"] or kappa > ENVELOPE["kappa_max"] or k > ENVELOPE["k_max"]:
        raise ValueError(f"(d={d}, kappa={kappa}, K={k}) outside oracle envelope {ENVELOPE}")


@functools.cache
def _gauss_legendre() -> tuple:
    # the 20- and 40-point rules' (nodes, weights) on [-1, 1]; numpy.polynomial loads on verify's first use
    from numpy.polynomial.legendre import leggauss
    return leggauss(20), leggauss(40)


def _adaptive_quad(f, edges: np.ndarray) -> float:
    """Integral of f (elementwise on arrays, >= 0) over [edges[0], edges[-1]] by adaptive
    Gauss-Legendre, starting from the intervals between consecutive edges.

    Every pending interval gets a 20- and a 40-point estimate at once. It keeps the 40-point one
    when the two agree to 1e-14 times the current estimate of the whole integral, and is bisected
    otherwise.
    """
    rules = _gauss_legendre()
    a, b = edges[:-1], edges[1:]
    kept = []
    for _ in range(64):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        coarse, fine = (half * (f(mid[:, None] + half[:, None] * nodes) @ weights) for nodes, weights in rules)
        settled = np.abs(fine - coarse) <= 1e-14 * (sum(kept) + fine.sum())
        kept.append(fine[settled].sum())
        if settled.all():
            return float(sum(kept))
        a, mid, b = a[~settled], mid[~settled], b[~settled]
        a, b = np.concatenate([a, mid]), np.concatenate([mid, b])
    raise RuntimeError("adaptive quadrature did not converge in 64 bisections")


def _log_angular_integral(m: float, kappa: float) -> float:
    """log of the integral over [0, pi] of exp(kappa cos t) sin(t)**m dt (DLMF 10.32.2), m >= 0 and kappa >= 0,
    by quadrature of the integrand over its value at its peak t*: cos t* = kappa / h and sin t* = sqrt(m / h),
    h = m/2 + hypot(m/2, kappa), so that no kappa overflows and no 1 - cos**2 cancels. kappa (cos t - cos t*)
    is -2 kappa sin((t + t*)/2) sin((t - t*)/2). The edges t* +- w 2**j start at the peak's width
    w = 1/sqrt(kappa cos t* + h), so that no kappa narrows the peak to between the first interval's nodes.
    """
    h = 0.5 * m + math.hypot(0.5 * m, kappa)
    if h == 0.0:  # m = kappa = 0: the integrand is 1
        return math.log(math.pi)
    c, s = kappa / h, math.sqrt(m) / math.sqrt(h)
    peak, w = math.atan2(s, c), 1.0 / math.hypot(math.sqrt(kappa * c), math.sqrt(h))
    steps = w * 2.0 ** np.arange(max(0, math.frexp(math.pi / w)[1]) + 1)  # the last one reaches past pi
    edges = np.unique(np.clip(np.concatenate([[0.0, peak, math.pi], peak - steps, peak + steps]), 0.0, math.pi))

    def shifted(t):
        lead = -(kappa * np.sin(0.5 * (t + peak))) * (2.0 * np.sin(0.5 * (t - peak)))
        return np.exp(lead + m * np.log(np.sin(t) / s) if m else lead)

    with np.errstate(over="ignore"):  # the kappa term is -inf far from a peak of kappa near 1.8e308; exp gives 0
        total = _adaptive_quad(shifted, edges)
    return kappa * c + (m * math.log(s) if m else 0.0) + math.log(total)


def quad_log_c_d(d: int, kappa: float) -> float:
    """log normalizer from adaptive Gauss-Legendre quadrature over the polar angle, any d >= 2 and finite
    kappa >= 0: -(log S^{d-2} + log of the integral of exp(kappa cos t) sin(t)**(d-2) over [0, pi]). Numpy
    and math only, with no use of vmf's Bessel path, so a fault there cannot hide here."""
    d = vmf._check_dimension(d)
    kappa = float(kappa)
    if not np.isfinite(kappa) or kappa < 0.0:
        raise ValueError(f"kappa must be finite and >= 0, got {kappa!r}")
    return -(_log_surface_area(d - 1) + _log_angular_integral(d - 2, kappa))


def _log_surface_area(d: int) -> float:
    # log surface area of the unit sphere in R^d, through lgamma so that d = 512 does not overflow
    return math.log(2.0 * math.pi ** (0.5 * d)) - math.lgamma(0.5 * d)


def _linear_c(d: int, kappa: float) -> float:
    """C_d(kappa) with I_nu(kappa), nu = d/2 - 1, as its series sum_k (kappa/2)**(2k + nu) / (k! Gamma(k + nu + 1))
    up to a term below 1e-17 of the sum: every term is positive, and kappa <= 50 in the envelope."""
    if kappa == 0.0:
        return math.exp(-_log_surface_area(d))
    nu, q = 0.5 * d - 1.0, 0.25 * kappa * kappa
    term = (0.5 * kappa) ** nu / math.gamma(nu + 1.0)
    total, k = term, 0
    while term >= 1e-17 * total:
        k += 1
        term *= q / (k * (k + nu))
        total += term
    return kappa ** nu / ((2.0 * math.pi) ** (0.5 * d) * total)


def _linear_posterior(model: GalleryModel, z: np.ndarray) -> tuple[np.ndarray, float, float]:
    """(K,) class posteriors, the out-of-gallery posterior and the marginal density at z,
    from direct exponentials."""
    gal = model.gallery
    c = _linear_c(gal.d, model.kappa)
    s = math.exp(_log_surface_area(gal.d))
    prior = (1.0 - model.beta) / gal.k
    lik = c * np.exp(model.kappa * (gal.means @ z))
    marginal = prior * float(np.sum(lik)) + model.beta / s
    return prior * lik / marginal, (model.beta / s) / marginal, marginal


def _one_probe(gal: Gallery, z) -> np.ndarray:
    z = vmf.as_unit_rows(z)  # the engine's unit-norm check
    if z.shape != (gal.d,):
        raise ValueError(f"the oracle takes one probe of the gallery's d={gal.d}, got z of shape {z.shape}")
    return z


def independent_posterior(model: GalleryModel, z) -> np.ndarray:
    """Linear-domain twin of the gallery posterior (restricted envelope): (K+1,), out-of-gallery last."""
    gal = model.gallery
    _check_envelope(gal.d, model.kappa, gal.k)
    post, oog, _ = _linear_posterior(model, _one_probe(gal, z))
    return np.append(post, oog)


def independent_kl_components(model: GalleryModel, z, kappa: float) -> tuple[float, float]:
    """Unscaled (T=1) KL components of a probe (mean z, concentration kappa) in linear arithmetic."""
    gal = model.gallery
    kappa = float(kappa)
    if not math.isfinite(kappa) or kappa <= 0.0:
        raise ValueError(f"kappa must be finite and > 0, got {kappa!r}")
    _check_envelope(gal.d, max(model.kappa, kappa), gal.k)
    post, oog, marginal = _linear_posterior(model, _one_probe(gal, z))
    prior = (1.0 - model.beta) / gal.k
    kl1 = float(sum(p * math.log(p / prior) for p in post if p > 0.0))
    self_density = _linear_c(gal.d, kappa) * math.exp(kappa)
    return kl1, float(oog * math.log(self_density / marginal))


MC_SAMPLES = 20000  # draws of mc_marginal_check


def mc_marginal_check(model: GalleryModel, seed: int = 0) -> dict:
    """Importance-style normalization check of the engine marginal: the mean of uniform_density /
    marginal_density over MC_SAMPLES probes drawn from the generative mixture is exactly 1 in expectation
    when the engine marginal integrates to 1. Returns the estimate and its standard error; the verify
    check passes within three standard errors."""
    rng = np.random.default_rng(seed)
    gal = model.gallery
    branch = rng.uniform(size=MC_SAMPLES)
    points = np.empty((MC_SAMPLES, gal.d))
    oog = branch < model.beta
    n_oog = int(oog.sum())
    if n_oog:
        points[oog] = vmf._unit_rows(rng.standard_normal((n_oog, gal.d)), rng)
    idx_in = np.flatnonzero(~oog)
    classes = rng.integers(0, gal.k, size=idx_in.size)
    for cls in range(gal.k):
        rows = idx_in[classes == cls]
        if rows.size:
            params = vmf.VmfParams(gal.means[cls], model.kappa)
            points[rows] = vmf.sample_vmf(params, rng, rows.size)
    log_s = vmf.log_surface_area(gal.d)
    ratios = np.exp(-log_s - np.concatenate([gallery_mod.log_marginal(model, points[rows])
                                             for rows in gallery_mod.row_blocks(MC_SAMPLES, gal.k + 1)]))
    return {"estimate": float(np.mean(ratios)), "stderr": float(np.std(ratios, ddof=1) / math.sqrt(MC_SAMPLES))}


# stable closed forms for half-integer orders, used by the verify command

def _log_i_half(x: np.ndarray) -> np.ndarray:
    # I_{1/2}(x) = sqrt(2/(pi x)) sinh x
    return 0.5 * (np.log(2.0) - np.log(np.pi) - np.log(x)) + x + np.log1p(-np.exp(-2.0 * x)) - np.log(2.0)


def _log_i_three_halves(x: np.ndarray) -> np.ndarray:
    # I_{3/2}(x) = sqrt(2/(pi x)) (cosh x - sinh x / x); the bracket is evaluated by series for small x
    # to dodge the cancellation and in the log domain for large x where cosh overflows.
    x = np.asarray(x, dtype=np.float64)
    log_bracket = np.empty_like(x)
    small, large = x < 0.5, x >= 20.0
    mid = ~small & ~large
    xs = x[small]
    x2 = xs * xs
    # cosh x - sinh x / x = sum_{k>=1} x^{2k} (2k)/(2k+1)!; successive term
    # ratios are x^2/10, x^2/28, x^2/54, x^2/88
    series = x2 / 3.0 * (1.0 + x2 / 10.0 * (1.0 + x2 / 28.0 * (1.0 + x2 / 54.0 * (1.0 + x2 / 88.0))))
    log_bracket[small] = np.log(series)
    log_bracket[mid] = np.log(np.cosh(x[mid]) - np.sinh(x[mid]) / x[mid])
    xl = x[large]
    log_bracket[large] = xl - np.log(2.0) + np.log1p(-1.0 / xl + np.exp(-2.0 * xl) * (1.0 + 1.0 / xl))
    return 0.5 * (np.log(2.0) - np.log(np.pi) - np.log(x)) + log_bracket


def _deviation(a, b) -> float:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b))))


# every check takes the seed; the four deterministic ones ignore it

def _check_bessel_half_integer(seed: int) -> dict:
    x = np.logspace(-3, 3, 121)
    dev = max(_deviation(vmf.log_bessel_i(0.5, x), _log_i_half(x)),
              _deviation(vmf.log_bessel_i(1.5, x), _log_i_three_halves(x)))
    return {"name": "bessel_half_integer", "max_deviation": dev, "tolerance": 1e-10}


def _log_bessel_quadrature(order: float, x: float) -> float:
    # log I_order(x) = order log(x/2) - log(pi)/2 - lgamma(order + 1/2) + log of the angular integral at m = 2 order
    return (order * math.log(0.5 * x) - 0.5 * math.log(math.pi) - math.lgamma(order + 0.5)
            + _log_angular_integral(2.0 * order, x))


def _check_bessel_quadrature_reference(seed: int) -> dict:
    # every branch of log_bessel_i (the order-20 split and d = 512's order 255 included) on a coarse log grid
    # over [1e-3, 1e5] and at each order's series limit and one ulp either side of it
    dev = 0.0
    for order in (0.0, 0.5, 7.0, 19.5, 20.0, 63.0, 127.5, 255.0):
        limit = vmf._bessel_plan(order)[0]
        x = np.append(np.logspace(-3, 5, 10), [np.nextafter(limit, 0.0), limit, np.nextafter(limit, np.inf)])
        ref = [_log_bessel_quadrature(order, point) for point in x.tolist()]
        dev = max(dev, _deviation(vmf.log_bessel_i(order, x), ref))
    return {"name": "bessel_quadrature_reference", "max_deviation": dev, "tolerance": 1e-11}


def _check_normalizer_quadrature(seed: int) -> dict:
    # log_c_d and log_alpha = -log S^{d-1} - log C_d over the advertised domain, d up to 512 and kappa up to 1e5
    dev = 0.0
    for d in (2, 3, 16, 128, 512):
        for kappa in np.logspace(-1, 5, 6).tolist():
            quad = quad_log_c_d(d, kappa)
            dev = max(dev, _deviation(vmf.log_c_d(d, kappa), quad),
                      _deviation(vmf.log_alpha(d, kappa), -_log_surface_area(d) - quad))
    return {"name": "normalizer_quadrature", "max_deviation": dev, "tolerance": 1e-8}


def _check_normalizer_identity(seed: int) -> dict:
    dev = 0.0
    for d in (2, 3, 8, 64, 256, 512):
        log_s = vmf.log_surface_area(d)
        for kappa in (0.0, 1e-3, 1.0, 100.0, 1e4, 1e5):
            resid = vmf.log_alpha(d, kappa) + log_s + vmf.log_c_d(d, kappa)
            dev = max(dev, abs(float(resid)))
    return {"name": "normalizer_identity", "max_deviation": dev, "tolerance": 1e-10}


@functools.cache
def _class_ids(k: int) -> tuple:
    return tuple(f"c{i}" for i in range(k))


# concentrations are drawn log-uniform on [1e-2, kappa_max]
_LOG_KAPPA_MIN, _LOG_KAPPA_MAX = np.log(1e-2), np.log(ENVELOPE["kappa_max"])


def _random_model(rng: np.random.Generator, d: int, k: int, log_kappa_max: float) -> GalleryModel:
    means = vmf._unit_rows(rng.standard_normal((k, d)), rng)
    kappa = float(np.exp(rng.uniform(_LOG_KAPPA_MIN, log_kappa_max)))
    beta = float(rng.uniform(0.05, 0.95))
    return GalleryModel(gallery=Gallery(class_ids=_class_ids(k), means=means), kappa=kappa, beta=beta)


def _random_cases(rng: np.random.Generator, cases: int, dims=(2, 3, 5, 8),
                  ks=range(1, ENVELOPE["k_max"] + 1), log_kappa_max: float = _LOG_KAPPA_MAX):
    """(model, unit probe) pairs, by default inside the envelope, drawn by column: every case's d index,
    K index, log kappa and beta in one call each, then for each (d, K) group in sorted order the means and
    the probes of a block of its cases (about 2**15 mean entries, by gallery.row_blocks) at a time, drawn when
    the caller reaches the block. Cases are yielded group by group."""
    groups = rng.integers(len(dims), size=cases) * len(ks) + rng.integers(len(ks), size=cases)  # d, then K
    kappas, betas = np.exp(rng.uniform(_LOG_KAPPA_MIN, log_kappa_max, size=cases)), rng.uniform(0.05, 0.95, size=cases)
    for group in np.unique(groups):
        d, k = dims[group // len(ks)], ks[group % len(ks)]
        rows = np.flatnonzero(groups == group)
        for block in (rows[s] for s in gallery_mod.row_blocks(rows.size, k * d)):
            means = vmf._unit_rows(rng.standard_normal((block.size * k, d)), rng).reshape(block.size, k, d)
            probes = vmf._unit_rows(rng.standard_normal((block.size, d)), rng)
            for case, case_means, z in zip(block, means, probes):
                yield GalleryModel(Gallery(_class_ids(k), case_means), float(kappas[case]), float(betas[case])), z


def _check_marginal_mc(seed: int) -> dict:
    worst = None
    for i, (d, k, kappa) in enumerate([(3, 5, 20.0), (8, 3, 5.0)]):
        rng = np.random.default_rng([seed, 101, i])
        model = _random_model(rng, d, k, np.log(kappa))
        res = mc_marginal_check(model, seed=int(rng.integers(2**31)))
        dev = abs(res["estimate"] - 1.0) / (3.0 * res["stderr"])
        if worst is None or dev > worst["max_deviation"]:
            worst = {"name": "marginal_mc", "max_deviation": dev, "tolerance": 1.0,
                     "estimate": res["estimate"], "stderr": res["stderr"]}
    return worst


def _check_posterior_linear(seed: int) -> dict:
    dev = 0.0
    for model, z in _random_cases(np.random.default_rng([seed, 202]), 1000):
        ours, ref = gallery_mod.posterior(model, z), independent_posterior(model, z)
        dev = max(dev, float(np.max(np.abs(ours - ref))))
    return {"name": "posterior_linear", "max_deviation": dev, "tolerance": 1e-9}


def _check_kl_t1_linear(seed: int) -> dict:
    """kl_components at T=1 against the linear twin on 200 cases; the probe kappas are one column drawn first."""
    rng = np.random.default_rng([seed, 303])
    probe_kappas = np.exp(rng.uniform(_LOG_KAPPA_MIN, _LOG_KAPPA_MAX, size=200))
    dev = 0.0
    for (model, z), kappa in zip(_random_cases(rng, 200), probe_kappas.tolist()):
        comp = holistic_mod.kl_components(model, z, kappa, temperature=1.0)
        ref1, ref2 = independent_kl_components(model, z, kappa)
        dev = max(dev, abs(comp.kl1 - ref1), abs(comp.kl2 - ref2))
    return {"name": "kl_t1_linear", "max_deviation": dev, "tolerance": 1e-10}


def _check_decision_equivalence(seed: int) -> dict:
    disagreements = 0
    rng = np.random.default_rng([seed, 404])
    for model, z in _random_cases(rng, 2000, dims=(2, 16, 128), ks=(1, 10, 100), log_kappa_max=np.log(1e3)):
        decided = int(gallery_mod.decision_index(gallery_mod.posterior(model, z)))
        tau = gallery_mod.equivalent_threshold(model)
        best = int(np.argmax(model.gallery.means @ z))
        # the threshold rule accepts the best-cosine class or rejects (-1)
        disagreements += decided != (best if float(model.gallery.means[best] @ z) >= tau else -1)
    return {"name": "decision_equivalence", "max_deviation": float(disagreements), "tolerance": 0.0}


# scope -> its checks; "all" runs every scope's checks in this order
SCOPES = {
    "bessel": (_check_bessel_half_integer, _check_bessel_quadrature_reference),
    "quadrature": (_check_normalizer_quadrature, _check_normalizer_identity),
    "marginal": (_check_marginal_mc,),
    "posterior": (_check_posterior_linear, _check_kl_t1_linear),
    "equivalence": (_check_decision_equivalence,),
}
SCOPES["all"] = tuple(check for checks in SCOPES.values() for check in checks)


def run_verification(scope: str = "all", seed: int = 0) -> dict:
    """Run the requested independent checks and report pass/fail per check."""
    if scope not in SCOPES:
        raise ValueError(f"unknown scope {scope!r}; available: {sorted(SCOPES)}")
    holistic_mod.check_seed(seed)
    checks = [check(seed) for check in SCOPES[scope]]
    for result in checks:
        result["status"] = "pass" if result["max_deviation"] <= result["tolerance"] else "fail"
    return {"scope": scope, "seed": int(seed), "passed": all(c["status"] == "pass" for c in checks), "checks": checks}
