"""Holistic uncertainty from probabilistic embeddings.

A probe carries its own direction estimate and concentration kappa(x). Two
KL-style components summarize how far the temperature-scaled class posterior
sits from the prior (kl1) and how much the probe density moved the
out-of-gallery mass (kl2). Both are computed in log domain with the sign of
the bracket applied at the end; higher values mean more confidence. The
components are z-normalized against a validation split and either summed or
fed to a small MLP trained to predict the probability the decision is
correct.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import vmf
from .gallery import GalleryModel, log_joint_terms

DEFAULT_TEMPERATURE = 20.0


@dataclass(frozen=True)
class KlComponents:
    """One probe's two components, or (N,) arrays of them for a batch of probes."""

    kl1: float | np.ndarray
    kl2: float | np.ndarray

    def __post_init__(self):
        if not (np.all(np.isfinite(self.kl1)) and np.all(np.isfinite(self.kl2))):
            raise ValueError("KL components must be finite")


@dataclass(frozen=True)
class CalibrationStats:
    """Per-component mean/std used to z-normalize (kl1, kl2)."""

    mean1: float
    std1: float
    mean2: float
    std2: float

    def __post_init__(self):
        for name in ("mean1", "std1", "mean2", "std2"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.std1 <= 0.0 or self.std2 <= 0.0:
            raise ValueError("stds must be > 0")


# at a tiny temperature 1/T, or 1/T times a term, overflows; the check below rejects the result
@np.errstate(over="ignore", invalid="ignore")
def _tempered_log_posterior(terms: np.ndarray, temperature: float) -> np.ndarray:
    """log P_T over the K+1 outcomes: every joint term tempered by 1/T, renormalized per row."""
    if not temperature > 0.0:
        raise ValueError(f"temperature must be > 0, got {temperature!r}")
    scaled = terms * (1.0 / float(temperature))
    log_norm = vmf.logsumexp(scaled, keepdims=True)
    if not np.all(np.isfinite(log_norm)):
        raise ValueError(f"the tempered posterior is not finite at temperature {temperature!r}")
    return scaled - log_norm


def scaled_gallery_posterior(model: GalleryModel, z, temperature: float) -> np.ndarray:
    """Posterior at the probe mean z, (d,) or (N, d), with every joint term tempered by 1/T.

    temperature == 1 reproduces the unscaled posterior; T -> infinity flattens
    to the uniform distribution over the K+1 outcomes. kl_from_terms uses the
    same P_T.
    """
    return np.exp(_tempered_log_posterior(log_joint_terms(model, z), temperature))


def self_log_density(d: int, kappa):
    """log density of each probe's own vMF at its mean: log C_d(kappa) + kappa."""
    return vmf.log_c_d(d, kappa) + kappa


# near the float limit a tempered term can still overflow kl2's bracket; KlComponents rejects the inf or NaN
@np.errstate(over="ignore", invalid="ignore")
def kl_from_terms(model: GalleryModel, terms: np.ndarray, log_marg: np.ndarray, log_self, temperature: float):
    """(kl1, kl2) arrays for (N, K+1) log_joint_terms rows, their (N,) logsumexp (the log
    marginal) and the probes' self_log_density.

    kl1 sums P_T(c|x) log(P_T(c|x) / prior(c)) over gallery classes only; it
    can be negative because the gallery block of the posterior is a
    sub-simplex. kl2 compares the probe's self-density at its mean against
    the gallery marginal, weighted by P(oog|z) = exp(log_oog - log_marg). The
    tempered weight exp(log_oog/T - log_marg) underflows at large d (log_oog is
    about +866 at d=512); at T != 1 kl2 carries their ratio exp((1 - 1/T) log_oog),
    one constant per model, which z-normalization cancels; at T=1 it is 1.
    """
    log_post_t = _tempered_log_posterior(terms, temperature)[:, :-1]
    log_prior = np.log((1.0 - model.beta) / model.gallery.k)
    kl1 = (np.exp(log_post_t) * (log_post_t - log_prior)).sum(axis=1)  # underflowed entries add exact zeros

    log_oog = terms[:, -1]  # log(beta / surface_area)
    bracket = (1.0 / float(temperature) - 1.0) * log_oog + log_self - log_marg
    kl2 = np.exp(log_oog - log_marg) * bracket
    return kl1, kl2


def kl_components(model: GalleryModel, z, kappa, temperature: float = DEFAULT_TEMPERATURE) -> KlComponents:
    """The two confidence components at the probe mean (see kl_from_terms).

    z is one unit mean (d,) with a float kappa, giving float components, or a
    stack (N, d) with (N,) kappas, giving (N,) arrays; every kappa must be
    finite and > 0. At T != 1, kl2 carries the per-model scale
    exp((1 - 1/T) log_oog) of kl_from_terms, which z-normalization cancels.
    """
    z = vmf.as_unit_rows(z)
    kappa = np.asarray(kappa, dtype=np.float64)
    if kappa.shape != z.shape[:-1]:
        raise ValueError(f"need one kappa per probe mean, got shape {kappa.shape} for means {z.shape}")
    if not np.all(np.isfinite(kappa)) or np.any(kappa <= 0.0):
        raise ValueError("every kappa must be finite and > 0")
    log_self = self_log_density(model.gallery.d, np.atleast_1d(kappa))
    terms = log_joint_terms(model, np.atleast_2d(z))
    kl1, kl2 = kl_from_terms(model, terms, vmf.logsumexp(terms), log_self, temperature)
    if z.ndim == 1:
        kl1, kl2 = float(kl1[0]), float(kl2[0])
    return KlComponents(kl1=kl1, kl2=kl2)


# components near the float limit overflow the sums; CalibrationStats rejects the inf or NaN
@np.errstate(over="ignore", invalid="ignore")
def fit_stats(components: KlComponents) -> CalibrationStats:
    """Mean/std (ddof=1) of each component over a calibration split."""
    kl1, kl2 = np.atleast_1d(components.kl1), np.atleast_1d(components.kl2)
    if kl1.shape[0] < 2:
        raise ValueError(f"need at least 2 components to fit stats, got {kl1.shape[0]}")
    std1 = float(np.std(kl1, ddof=1))
    std2 = float(np.std(kl2, ddof=1))
    if std1 <= 0.0 or std2 <= 0.0:
        raise ValueError("component variance is zero; cannot normalize")
    return CalibrationStats(mean1=float(np.mean(kl1)), std1=std1, mean2=float(np.mean(kl2)), std2=std2)


def normalize(components: KlComponents, stats: CalibrationStats) -> tuple:
    """z-normalize the two components (floats or arrays) with validation-split statistics."""
    return (
        (components.kl1 - stats.mean1) / stats.std1,
        (components.kl2 - stats.mean2) / stats.std2,
    )


def holue_sum(kl1n, kl2n):
    """Summed normalized components (floats or arrays); higher means more confident."""
    return kl1n + kl2n


def check_seed(seed) -> None:
    """A seed is an int or numpy integer >= 0; a bool or a float is an error, not a seed."""
    if not (isinstance(seed, (int, np.integer)) and not isinstance(seed, bool) and seed >= 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


LAYER_SIZES = (2, 16, 16, 1)  # the calibrator: (kl1n, kl2n) in, two tanh hidden layers, a sigmoid output
EPOCHS = 2000
LEARNING_RATE = 0.05
MOMENTUM = 0.9
INIT_SCALE = 0.5  # initial weights and biases are uniform on [-INIT_SCALE, INIT_SCALE]


@dataclass
class MlpCalibrator:
    """2 -> 16 -> 16 -> 1 network (LAYER_SIZES): tanh hidden layers, sigmoid output.

    Trained with full-batch gradient descent plus momentum to predict the
    probability that a decision is correct from (kl1n, kl2n). weights[l] is
    (n_in, n_out) and biases[l] is (n_out,). final_loss is the mean binary
    cross-entropy of the last epoch's forward pass, before its update.
    """

    weights: list
    biases: list
    final_loss: float = field(default=float("nan"))


def _init_params(sizes, rng: np.random.Generator, scale: float):
    weights, biases = [], []
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        weights.append(rng.uniform(-scale, scale, size=(n_in, n_out)))
        biases.append(rng.uniform(-scale, scale, size=n_out))
    return weights, biases


def _blocks(weights, biases) -> list:
    """Each layer as one (n_out, n_in + 1) block [W^T | b], C-ordered: np.dot rounds F-ordered ones differently."""
    return [np.ascontiguousarray(np.column_stack([w.T, b])) for w, b in zip(weights, biases)]


def _layers(blocks, x: np.ndarray) -> list:
    """The forward pass of blocks on (N, n_in) features x: per layer (block, input buffer, output).

    Each input buffer is (n_in + 1, N) and its last row of ones folds in the bias. A hidden
    layer's output is the next input buffer less that row; the last layer's is a (1, N) logits buffer.
    """
    acts = [np.ones((block.shape[1], x.shape[0])) for block in blocks]
    acts[0][:-1] = x.T
    outputs = [a[:-1] for a in acts[1:]] + [np.empty((blocks[-1].shape[0], x.shape[0]))]
    return list(zip(blocks, acts, outputs))


def _forward(layers) -> np.ndarray:
    """The (1, N) logits buffer of _layers' layers, filled; each hidden tanh fills the next layer's input."""
    for block, a, h in layers[:-1]:
        np.tanh(np.dot(block, a, out=h), out=h)
    block, a, logits = layers[-1]
    return np.dot(block, a, out=logits)


def _sigmoid(z: np.ndarray, e=None, at_least_zero=None, out=None) -> np.ndarray:
    """1 / (1 + exp(-z)) that never overflows: exp(-|z|) / (1 + exp(-|z|)) for z < 0.

    exp(copysign(z, -1)) is exp(-|z|) bit for bit, and since it is <= 1, its maximum with
    (z >= 0) is 1 where z >= 0 and itself elsewhere. e, at_least_zero (bool) and out are
    optional buffers shaped like z; e is left holding 1 + exp(-|z|).
    """
    e = np.copysign(z, -1.0, out=e)
    np.exp(e, out=e)
    out = np.maximum(e, np.greater_equal(z, 0.0, out=at_least_zero), out=out)
    e += 1.0
    return np.divide(out, e, out=out)


def _train(weights, biases, x: np.ndarray, y: np.ndarray, epochs: int,
           learning_rate: float = 0.0, momentum: float = 0.0):
    """Full-batch gradient descent with momentum on the mean BCE of (1, N) labels y.

    Returns the final (weights, biases), the last epoch's (weights, biases)
    gradients and the loss of its forward pass, before its update. The default
    zero step leaves the parameters as given. Every buffer and view the epochs
    use is made once, before the first; an epoch writes into them through out=.
    """
    params = np.concatenate([block.ravel() for block in _blocks(weights, biases)])
    grads, velocity, step = np.zeros_like(params), np.zeros_like(params), np.empty_like(params)
    cuts = np.cumsum([b.size * (w.shape[0] + 1) for w, b in zip(weights, biases)])[:-1]
    blocks, grad_blocks = ([part.reshape(b.size, -1) for part, b in zip(np.split(flat, cuts), biases)]
                           for flat in (params, grads))
    n = x.shape[0]
    forward = _layers(blocks, x)
    deltas = [np.empty_like(output) for _, _, output in forward]
    # per layer, last first: (delta, input.T, grad block, W.T, delta below, hidden input, tanh slope)
    backward = [(delta, a.T, grad, block[:, :-1].T, below, a[:-1], np.empty_like(below))
                for (block, a, _), grad, delta, below in zip(forward[1:], grad_blocks[1:], deltas[1:], deltas)]
    backward = backward[::-1] + [(deltas[0], forward[0][1].T, grad_blocks[0], None, None, None, None)]
    e, probs, at_least_zero = np.empty((1, n)), np.empty((1, n)), np.empty((1, n), dtype=bool)
    for _ in range(epochs):
        logits = _forward(forward)
        np.subtract(_sigmoid(logits, e, at_least_zero, probs), y, out=deltas[-1])
        deltas[-1] /= n
        for delta, a_t, grad, w_t, below, h, slope in backward:
            np.dot(delta, a_t, out=grad)
            if below is not None:
                np.dot(w_t, delta, out=below)
                np.subtract(1.0, np.square(h, out=slope), out=slope)
                below *= slope
        velocity *= momentum
        velocity -= np.multiply(grads, learning_rate, out=step)
        params += velocity

    def unpack(layers):
        return [b[:, :-1].T.copy() for b in layers], [b[:, -1].copy() for b in layers]
    # stable BCE on logits: max(z,0) - z y + log(1 + exp(-|z|))
    loss = float(np.mean(np.maximum(logits, 0.0) - logits * y + np.log1p(np.exp(-np.abs(logits)))))
    return unpack(blocks), unpack(grad_blocks), loss


def loss_and_gradients(weights, biases, features: np.ndarray, labels: np.ndarray):
    """Mean binary cross-entropy and its gradients for the calibrator net.

    labels are 1.0 for correct decisions, 0.0 for errors. This is one epoch of
    fit_mlp's trainer with a zero step.
    """
    y = np.asarray(labels, dtype=np.float64).reshape(1, -1)
    _, (grad_w, grad_b), loss = _train(weights, biases, np.asarray(features, dtype=np.float64), y, 1)
    return loss, grad_w, grad_b


def fit_mlp(features, labels, seed: int = 0) -> MlpCalibrator:
    """Train the calibrator on normalized components for EPOCHS epochs; deterministic per seed.

    Parameters live in one flat vector in which layer l is an (n_out, n_in + 1)
    block [W^T | b]; gradients and momentum share that layout, and every buffer
    is allocated once per fit. final_loss is the mean BCE of the last epoch's
    forward pass, before its update.
    """
    check_seed(seed)
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64).reshape(1, -1)
    if x.ndim != 2 or x.shape[1] != 2:
        raise ValueError(f"features must be (n, 2), got {x.shape}")
    if y.shape[1] != x.shape[0]:
        raise ValueError("features and labels disagree in length")
    finite = np.isfinite(x).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        raise ValueError(f"features must be finite, row {row} is {x[row].tolist()}")
    if not np.all(np.isin(y, (0.0, 1.0))):
        raise ValueError("labels must be 0 (error) or 1 (correct)")
    if not (np.any(y == 0.0) and np.any(y == 1.0)):  # also when there are no rows
        raise ValueError("need at least one correct and one error example")

    initial = _init_params(LAYER_SIZES, np.random.default_rng(seed), INIT_SCALE)
    (weights, biases), _, loss = _train(*initial, x, y, EPOCHS, LEARNING_RATE, MOMENTUM)
    return MlpCalibrator(weights=weights, biases=biases, final_loss=loss)


def mlp_predict(calibrator: MlpCalibrator, kl1n, kl2n) -> float | np.ndarray:
    """Predicted probability that the decision is correct, in (0, 1): the trainer's forward pass."""
    kl1n, kl2n = np.asarray(kl1n, dtype=np.float64), np.asarray(kl2n, dtype=np.float64)
    if kl1n.shape != kl2n.shape:
        raise ValueError(f"kl1n and kl2n must have the same shape, got {kl1n.shape} and {kl2n.shape}")
    if not (np.all(np.isfinite(kl1n)) and np.all(np.isfinite(kl2n))):
        raise ValueError("normalized components must be finite")
    x = np.column_stack([np.atleast_1d(kl1n), np.atleast_1d(kl2n)])
    blocks = _blocks(calibrator.weights, calibrator.biases)
    probs = np.clip(_sigmoid(_forward(_layers(blocks, x))[0]), 1e-12, 1.0 - 1e-12)
    return float(probs[0]) if np.ndim(kl1n) == 0 else probs
