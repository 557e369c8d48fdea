"""Entropy-derived supervision, ranking losses, and the optimizer.

Targets come from agent confidence: entropies are negated and softmaxed, so
lower predictive entropy means higher confidence. The primary objective is
a pairwise ranking loss that aligns the ordering of the routing
probabilities with the confidence ordering; MSE, ListMLE, and a triplet
hinge are available as ablation alternates behind the same interface.

Natural logarithms throughout. Losses take Z = softmax of the step logits,
already computed by the caller so the softmax Jacobian stays on the
gradient path. Confidence ties compare exactly: equal entropies yield no
ranking pair.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .core import ConfigError
from .numerics import sigmoid, softmax, softplus
from .router import RouterParams, _tensor_at, gradient_norm

LOSS_KINDS = ("ranking", "mse", "listmle", "triplet")


@dataclass(frozen=True)
class TrainingSettings:
    """Optimization hyperparameters plus loop shape: the AdamW settings
    (lr, beta1, beta2, epsilon, weight_decay), the global-norm clip, the
    batch size and epoch count, and the loss with its triplet margin. A
    value out of range raises ConfigError naming its field."""

    lr: float = 1e-3
    batch_size: int = 8
    epochs: int = 3
    loss_kind: str = "ranking"
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    weight_decay: float = 0.01
    clip_norm: float = 1.0
    triplet_margin: float = 0.1

    def __post_init__(self):
        # A bool would compare as 0 or 1, and a string or None raise TypeError.
        for name in ("lr", "beta1", "beta2", "epsilon", "weight_decay", "clip_norm",
                     "triplet_margin"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigError(f"{name} must be a number, got {value!r}")
        # type() is int leaves out bool, an int subclass but not a count.
        for name, ok, rule in (
                ("lr", 0.0 < self.lr < math.inf, "finite and > 0"),
                ("batch_size", type(self.batch_size) is int and self.batch_size >= 1,
                 "an integer >= 1"),
                ("epochs", type(self.epochs) is int and self.epochs >= 1, "an integer >= 1"),
                ("loss_kind", self.loss_kind in LOSS_KINDS, f"one of {LOSS_KINDS}"),
                ("beta1", 0.0 <= self.beta1 < 1.0, "in [0, 1)"),
                ("beta2", 0.0 <= self.beta2 < 1.0, "in [0, 1)"),
                ("epsilon", 0.0 < self.epsilon < math.inf, "finite and > 0"),
                ("weight_decay", 0.0 <= self.weight_decay < math.inf, "finite and >= 0"),
                ("clip_norm", 0.0 < self.clip_norm < math.inf, "finite and > 0"),
                ("triplet_margin", 0.0 <= self.triplet_margin < math.inf,
                 "finite and >= 0")):
            if not ok:
                raise ConfigError(f"{name} must be {rule}")


def _entropy(dist) -> float:
    p = np.asarray(dist, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("distribution must be a non-empty vector")
    if not np.all(np.isfinite(p)) or np.any(p < 0.0):
        raise ValueError("invalid distribution: negative or non-finite mass")
    if abs(float(p.sum()) - 1.0) > 1e-6:
        raise ValueError(f"invalid distribution: mass sums to {float(p.sum()):.9f}")
    nz = p[p > 0.0]
    return float(-np.sum(nz * np.log(nz)) + 0.0)  # +0.0 folds away -0.0


def predictive_entropy(token_distributions) -> float:
    """Mean entropy of the per-token distributions, in nats; 0 ln 0 := 0."""
    dists = list(token_distributions)
    if not dists:
        raise ValueError("at least one token distribution is required")
    return float(np.mean([_entropy(p) for p in dists]))


def confidence(entropies) -> np.ndarray:
    """Softmax of negated entropies; reverses the entropy ordering."""
    e = np.asarray(entropies, dtype=np.float64)
    if not np.all(np.isfinite(e)):
        raise ValueError("entropies must be finite")
    return softmax(-e)


def _check_pair(probs, conf):
    z = np.asarray(probs, dtype=np.float64)
    c = np.asarray(conf, dtype=np.float64)
    if z.shape != c.shape or z.ndim != 1:
        raise ValueError("probability and confidence vectors must match in length")
    return z, c


def ranking_loss(probs, conf) -> float:
    """Sum over ordered pairs (a, b) with conf[a] > conf[b] of
    softplus(-(probs[a] - probs[b]))."""
    z, c = _check_pair(probs, conf)
    margin = z[:, None] - z[None, :]
    qualifies = c[:, None] > c[None, :]
    return float(np.sum(softplus(-margin)[qualifies]))


def ranking_loss_grad(probs, conf) -> np.ndarray:
    z, c = _check_pair(probs, conf)
    margin = z[:, None] - z[None, :]
    qualifies = c[:, None] > c[None, :]
    s = sigmoid(-margin) * qualifies
    return s.sum(axis=0) - s.sum(axis=1)


def mse_loss(probs, conf) -> float:
    """Mean squared error between the probability and confidence vectors."""
    z, c = _check_pair(probs, conf)
    return float(np.mean((z - c) ** 2))


def mse_loss_grad(probs, conf) -> np.ndarray:
    z, c = _check_pair(probs, conf)
    return 2.0 * (z - c) / z.size


def _listmle_order(conf) -> list[int]:
    # Descending confidence, ties by ascending index.
    return sorted(range(len(conf)), key=lambda i: (-conf[i], i))


def listmle_loss(probs, conf) -> float:
    """Plackett-Luce negative log-likelihood of the confidence ordering
    under the probability scores."""
    z, c = _check_pair(probs, conf)
    order = _listmle_order(c)
    scores = z[order]
    total = 0.0
    for t in range(scores.size):
        suffix = scores[t:]
        m = float(suffix.max())
        total += m + float(np.log(np.sum(np.exp(suffix - m)))) - float(scores[t])
    return float(total)


def listmle_loss_grad(probs, conf) -> np.ndarray:
    z, c = _check_pair(probs, conf)
    order = _listmle_order(c)
    scores = z[order]
    grad_sorted = np.zeros_like(scores)
    for t in range(scores.size):
        suffix = scores[t:]
        grad_sorted[t:] += softmax(suffix)
        grad_sorted[t] -= 1.0
    grad = np.zeros_like(z)
    grad[order] = grad_sorted
    return grad


def triplet_loss(probs, conf, margin: float = 0.1) -> float:
    """Hinge over the same qualifying pairs as the ranking loss:
    max(0, margin - (probs[a] - probs[b]))."""
    z, c = _check_pair(probs, conf)
    diff = z[:, None] - z[None, :]
    qualifies = c[:, None] > c[None, :]
    return float(np.sum(np.maximum(0.0, margin - diff)[qualifies]))


def triplet_loss_grad(probs, conf, margin: float = 0.1) -> np.ndarray:
    z, c = _check_pair(probs, conf)
    diff = z[:, None] - z[None, :]
    active = (c[:, None] > c[None, :]) & (margin - diff > 0.0)
    return active.sum(axis=0).astype(np.float64) - active.sum(axis=1)


def get_loss(kind: str, triplet_margin: float = 0.1):
    """Resolve a loss kind to (value_fn, grad_fn), both taking (Z, C)."""
    if kind == "ranking":
        return ranking_loss, ranking_loss_grad
    if kind == "mse":
        return mse_loss, mse_loss_grad
    if kind == "listmle":
        return listmle_loss, listmle_loss_grad
    if kind == "triplet":
        return (lambda z, c: triplet_loss(z, c, triplet_margin),
                lambda z, c: triplet_loss_grad(z, c, triplet_margin))
    raise ValueError(f"unknown loss kind {kind!r}; expected one of {LOSS_KINDS}")


def total_loss(per_step_losses) -> float:
    """Arithmetic mean over the reasoning steps."""
    losses = list(per_step_losses)
    if not losses:
        raise ValueError("at least one step loss is required")
    return float(np.mean(losses))


def clip_gradients(grads: RouterParams, clip_norm: float) -> RouterParams:
    """Scale the gradients' flat vector in place so the global L2 norm is
    at most clip_norm; returns the same gradients. A non-finite gradient
    raises ValueError naming its tensor (`gradient_norm`)."""
    if clip_norm <= 0.0:
        raise ValueError("clip_norm must be positive")
    norm = gradient_norm(grads)
    if norm > clip_norm:
        grads.flat *= clip_norm / norm
    return grads


# Elements per pass of the AdamW update: the chunk's slices of the six
# flat vectors it touches stay in cache between the update's operations.
# At d=384, 16K to 64K timed alike and 128K was slower.
ADAMW_CHUNK = 32768


@dataclass
class OptimizerState:
    """AdamW state: the training settings it reads its hyperparameters
    from, the step count, and buffers that are all None until first used,
    so setting up an optimizer, `OptimizerState(settings)`, costs nothing.
    `moments` holds the first moment in row 0 and the second in row 1,
    each row laid out like the parameters' flat vector. `params` are the
    parameters the state owns: `adamw_step` returns them, writes its
    first update into them, and updates them in place on every later step
    that is given them back. `scratch` holds the update's intermediates,
    and `grads` are the gradients the training loop asks `reduce_gradients`
    to fill for every batch."""

    hyper: TrainingSettings
    step_count: int = 0
    moments: np.ndarray | None = None
    params: RouterParams | None = None
    scratch: np.ndarray | None = None
    grads: RouterParams | None = None


def adamw_step(params: RouterParams, grads: RouterParams,
               state: OptimizerState) -> RouterParams:
    """Decoupled-weight-decay Adam with bias correction.

    Mutates the optimizer state in place and returns the updated
    parameters, which are the state's own, `state.params`. Given
    `state.params` itself, the step updates them in place, so a training
    loop allocates no parameter-sized buffer after its first step. Given any
    other parameters, as on a state's first step, it writes the update into
    new parameters that become `state.params` and leaves the input
    untouched. The update runs over the flat vectors of the parameters, the
    gradients and the moments, ADAMW_CHUNK elements at a time, with
    intermediates in a scratch buffer of two chunks. Per element it
    keeps the operation order of
        m = beta1 m + (1 - beta1) g
        v = beta2 v + (1 - beta2) g^2
        p - lr ((m / bias1) / (sqrt(v / bias2) + epsilon) + weight_decay p)
    so the bits depend neither on the chunking nor on whether the update is
    written in place. A non-finite update raises ValueError naming its
    tensor and leaves the state, parameters included, partly updated.
    """
    hyper = state.hyper
    p_all, g_all = params.flat, grads.flat
    if state.moments is None:
        state.moments = np.zeros((2, p_all.size))
        state.scratch = np.empty((2, ADAMW_CHUNK))
    if params is not state.params:
        state.params = RouterParams(np.empty(p_all.size), params.embed_dim,
                                    params.pool_size)
    state.step_count += 1
    t = state.step_count
    bias1 = 1.0 - hyper.beta1 ** t
    bias2 = 1.0 - hyper.beta2 ** t
    for start in range(0, p_all.size, ADAMW_CHUNK):
        chunk = slice(start, start + ADAMW_CHUNK)
        p, g, new = p_all[chunk], g_all[chunk], state.params.flat[chunk]
        m, v = state.moments[:, chunk]
        a, b = state.scratch[:, :p.size]
        m *= hyper.beta1
        m += np.multiply(g, 1.0 - hyper.beta1, out=a)
        v *= hyper.beta2
        np.square(g, out=a)
        v += np.multiply(a, 1.0 - hyper.beta2, out=a)
        np.divide(m, bias1, out=a)
        np.divide(v, bias2, out=b)
        with np.errstate(invalid="ignore", over="ignore"):
            np.sqrt(b, out=b)
            b += hyper.epsilon
            a /= b
            a += np.multiply(p, hyper.weight_decay, out=b)
            a *= hyper.lr
            np.subtract(p, a, out=new)
        finite = np.isfinite(new)
        if not finite.all():
            bad = start + int(np.argmin(finite))
            name = _tensor_at(params.embed_dim, params.pool_size, bad)
            raise ValueError(f"non-finite optimizer update for {name}")
    return state.params
