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

import json
from dataclasses import dataclass, field

import numpy as np

from . import vmf
from .gallery import GalleryModel, log_joint_terms, softmax

DEFAULT_TEMPERATURE = 20.0


class CalibrationError(ValueError):
    """Normalization statistics cannot be computed from the given components."""


class TrainingError(ValueError):
    """Calibrator training preconditions are not met."""


@dataclass(frozen=True)
class KlComponents:
    """One probe's two components, or (N,) arrays of them for a batch of probes."""

    kl1: float | np.ndarray
    kl2: float | np.ndarray
    temperature: float

    def __post_init__(self):
        if not (np.all(np.isfinite(self.kl1)) and np.all(np.isfinite(self.kl2))):
            raise ValueError("KL components must be finite")
        if not self.temperature > 0.0:
            raise ValueError("temperature must be > 0")


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


def scaled_gallery_posterior(model: GalleryModel, z, temperature: float) -> np.ndarray:
    """Posterior at the probe mean z, (d,) or (N, d), with every joint term tempered by 1/T.

    temperature == 1 reproduces the unscaled posterior; T -> infinity flattens
    to the uniform distribution over the K+1 outcomes.
    """
    if not temperature > 0.0:
        raise ValueError(f"temperature must be > 0, got {temperature!r}")
    return softmax(log_joint_terms(model, z) / float(temperature))


def self_log_density(d: int, kappa):
    """log density of each probe's own vMF at its mean: log C_d(kappa) + kappa."""
    return vmf.log_c_d(d, kappa) + kappa


def kl_from_terms(model: GalleryModel, terms: np.ndarray, log_self, temperature: float):
    """(kl1, kl2) arrays for (N, K+1) log_joint_terms rows and the probes' self_log_density.

    kl1 sums P_T(c|x) log(P_T(c|x) / prior(c)) over gallery classes only; it
    can be negative because the gallery block of the posterior is a
    sub-simplex. kl2 compares the probe's self-density at its mean against
    the gallery marginal, weighted by P(oog|z) = exp(log_oog - log_marg). The
    tempered weight exp(log_oog/T - log_marg) underflows at large d (log_oog is
    about +866 at d=512); at T != 1 kl2 carries their ratio exp((1 - 1/T) log_oog),
    one constant per model, which z-normalization cancels; at T=1 it is 1.
    """
    if not temperature > 0.0:
        raise ValueError(f"temperature must be > 0, got {temperature!r}")
    t_inv = 1.0 / float(temperature)
    log_marg = vmf.logsumexp(terms)
    scaled = terms * t_inv
    log_post_t = scaled[:, :-1] - vmf.logsumexp(scaled, keepdims=True)

    log_prior = np.log((1.0 - model.beta) / model.gallery.k)
    post_t = np.exp(log_post_t)
    parts = post_t * (log_post_t - log_prior)
    active = post_t > 0.0
    kl1 = parts.sum(axis=1)
    # a row with underflowed entries sums only the others: numpy groups its
    # pairwise sum by position, so zeros left in would move the rounding
    for i in np.flatnonzero(~active.all(axis=1)):
        kl1[i] = np.sum(parts[i][active[i]])

    log_oog = terms[:, -1]  # log(beta / surface_area)
    bracket = (t_inv - 1.0) * log_oog + log_self - log_marg
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
    kl1, kl2 = kl_from_terms(model, log_joint_terms(model, np.atleast_2d(z)), log_self, temperature)
    if z.ndim == 1:
        kl1, kl2 = float(kl1[0]), float(kl2[0])
    return KlComponents(kl1=kl1, kl2=kl2, temperature=float(temperature))


def fit_stats(components: KlComponents) -> CalibrationStats:
    """Mean/std (ddof=1) of each component over a calibration split."""
    kl1, kl2 = np.atleast_1d(components.kl1), np.atleast_1d(components.kl2)
    if kl1.shape[0] < 2:
        raise CalibrationError(f"need at least 2 components to fit stats, got {kl1.shape[0]}")
    std1 = float(np.std(kl1, ddof=1))
    std2 = float(np.std(kl2, ddof=1))
    if std1 <= 0.0 or std2 <= 0.0:
        raise CalibrationError("component variance is zero; cannot normalize")
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


@dataclass(frozen=True)
class TrainingConfig:
    learning_rate: float = 0.05
    epochs: int = 2000
    momentum: float = 0.9
    init_scale: float = 0.5
    hidden: tuple[int, ...] = (16, 16)  # () trains a logistic regression

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(self.hidden))  # a list would leave the config unhashable
        # a chained comparison is False for NaN, so NaN fails every range check
        if not (0.0 < self.learning_rate < np.inf and 0.0 < self.init_scale < np.inf
                and 0.0 <= self.momentum < 1.0
                and all(isinstance(v, (int, np.integer)) and v > 0 for v in (self.epochs, *self.hidden))):
            raise ValueError(f"invalid training configuration: {self}")


@dataclass
class MlpCalibrator:
    """2 -> 16 -> 16 -> 1 network: tanh hidden layers, sigmoid output.

    Trained with full-batch gradient descent plus momentum to predict the
    probability that a decision is correct from (kl1n, kl2n). weights[l] is
    (n_in, n_out) and biases[l] is (n_out,). final_loss is the mean binary
    cross-entropy of the last epoch's forward pass, before its update.
    """

    weights: list
    biases: list
    config: TrainingConfig
    seed: int
    stats: CalibrationStats | None = None
    final_loss: float = field(default=float("nan"))

    def layer_sizes(self) -> list:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]


def _init_params(sizes, rng: np.random.Generator, scale: float):
    weights, biases = [], []
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        weights.append(rng.uniform(-scale, scale, size=(n_in, n_out)))
        biases.append(rng.uniform(-scale, scale, size=n_out))
    return weights, biases


def _forward(weights, biases, x: np.ndarray) -> np.ndarray:
    a = x
    for w, b in zip(weights[:-1], biases[:-1]):
        a = np.tanh(a @ w + b)
    return a @ weights[-1] + biases[-1]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)) that never overflows: exp(-|z|) / (1 + exp(-|z|)) for z < 0."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _train(weights, biases, x: np.ndarray, y: np.ndarray, epochs: int,
           learning_rate: float = 0.0, momentum: float = 0.0):
    """Full-batch gradient descent with momentum on the mean BCE of (1, N) labels y.

    Returns the final (weights, biases), the last epoch's (weights, biases)
    gradients and the loss of its forward pass, before its update. The default
    zero step leaves the parameters as given.
    """
    params = np.concatenate([np.column_stack([w.T, b]).ravel() for w, b in zip(weights, biases)])
    grads, velocity = np.zeros_like(params), np.zeros_like(params)
    cuts = np.cumsum([b.size * (w.shape[0] + 1) for w, b in zip(weights, biases)])[:-1]
    blocks, grad_blocks = ([part.reshape(b.size, -1) for part, b in zip(np.split(flat, cuts), biases)]
                           for flat in (params, grads))
    acts = [np.ones((w.shape[0] + 1, x.shape[0])) for w in weights]
    acts[0][:-1] = x.T
    deltas = [np.empty((b.size, x.shape[0])) for b in biases]
    for _ in range(epochs):
        for block, a, h in zip(blocks, acts, acts[1:]):  # the hidden layers
            np.tanh(np.dot(block, a, out=h[:-1]), out=h[:-1])
        logits = np.dot(blocks[-1], acts[-1])
        np.divide(_sigmoid(logits) - y, y.shape[1], out=deltas[-1])
        for layer in range(len(blocks) - 1, -1, -1):
            np.dot(deltas[layer], acts[layer].T, out=grad_blocks[layer])
            if layer > 0:
                below = np.dot(blocks[layer][:, :-1].T, deltas[layer], out=deltas[layer - 1])
                below *= 1.0 - acts[layer][:-1] ** 2
        velocity *= momentum
        velocity -= learning_rate * grads
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


def fit_mlp(features, labels, config: TrainingConfig = TrainingConfig(), seed: int = 0,
            stats: CalibrationStats | None = None) -> MlpCalibrator:
    """Train the calibrator on normalized components; deterministic per seed.

    Parameters live in one flat vector in which layer l is an (n_out, n_in + 1)
    block [W^T | b]; gradients and momentum share that layout. Activations are
    feature-major, (n_in + 1, N), with a trailing row of ones that folds each
    bias into its layer's product; every buffer is allocated once per fit.
    final_loss is the mean BCE of the last epoch's forward pass, before its update.
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64).reshape(1, -1)
    if x.ndim != 2 or x.shape[1] != 2:
        raise TrainingError(f"features must be (n, 2), got {x.shape}")
    if y.shape[1] != x.shape[0]:
        raise TrainingError("features and labels disagree in length")
    if not np.all(np.isin(y, (0.0, 1.0))):
        raise TrainingError("labels must be 0 (error) or 1 (correct)")
    if y.min() == y.max():
        raise TrainingError("need at least one correct and one error example")

    initial = _init_params([2, *config.hidden, 1], np.random.default_rng(seed), config.init_scale)
    (weights, biases), _, loss = _train(*initial, x, y, config.epochs, config.learning_rate, config.momentum)
    return MlpCalibrator(weights=weights, biases=biases, config=config, seed=int(seed),
                         stats=stats, final_loss=loss)


def mlp_predict(calibrator: MlpCalibrator, kl1n, kl2n) -> float | np.ndarray:
    """Predicted probability that the decision is correct, in (0, 1).

    Each row goes through the net as a (1, 2) input of its own: a batch then
    has the bits of one call per probe, which one (N, 2) product does not.
    """
    x = np.column_stack([np.atleast_1d(np.asarray(kl1n, dtype=np.float64)),
                         np.atleast_1d(np.asarray(kl2n, dtype=np.float64))])
    logits = _forward(calibrator.weights, calibrator.biases, x[:, None, :])
    probs = np.clip(_sigmoid(logits[:, 0, 0]), 1e-12, 1.0 - 1e-12)
    if np.ndim(kl1n) == 0:
        return float(probs[0])
    return probs


def calibrator_to_json(calibrator: MlpCalibrator) -> str:
    """Serialize the calibrator (weights row-major) to a JSON string."""
    payload = {
        "layer_sizes": calibrator.layer_sizes(),
        "weights": [w.tolist() for w in calibrator.weights],
        "biases": [b.tolist() for b in calibrator.biases],
        "config": {
            "learning_rate": calibrator.config.learning_rate,
            "epochs": calibrator.config.epochs,
            "momentum": calibrator.config.momentum,
            "init_scale": calibrator.config.init_scale,
            "hidden": list(calibrator.config.hidden),
        },
        "seed": calibrator.seed,
        "final_loss": calibrator.final_loss,
        "stats": None if calibrator.stats is None else {
            "mean1": calibrator.stats.mean1, "std1": calibrator.stats.std1,
            "mean2": calibrator.stats.mean2, "std2": calibrator.stats.std2,
        },
    }
    return json.dumps(payload, sort_keys=True)


def calibrator_from_json(text: str) -> MlpCalibrator:
    payload = json.loads(text)
    cfg = payload["config"]
    config = TrainingConfig(learning_rate=cfg["learning_rate"], epochs=cfg["epochs"],
                            momentum=cfg["momentum"], init_scale=cfg["init_scale"],
                            hidden=tuple(cfg["hidden"]))
    stats = payload.get("stats")
    return MlpCalibrator(
        weights=[np.asarray(w, dtype=np.float64) for w in payload["weights"]],
        biases=[np.asarray(b, dtype=np.float64) for b in payload["biases"]],
        config=config,
        seed=int(payload["seed"]),
        stats=None if stats is None else CalibrationStats(**stats),
        final_loss=float(payload["final_loss"]),
    )
