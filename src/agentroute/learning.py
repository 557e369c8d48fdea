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

from dataclasses import dataclass

import numpy as np

from .numerics import field_at, flatten, global_norm, iter_arrays, sigmoid, \
    softmax, softplus, unflatten

LOSS_KINDS = ("ranking", "mse", "listmle", "triplet")


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


def clip_gradients(grads, clip_norm: float):
    """Scale all gradients in place so the global L2 norm is at most
    clip_norm; returns the same container."""
    if clip_norm <= 0.0:
        raise ValueError("clip_norm must be positive")
    norm = global_norm(grads)
    if norm > clip_norm:
        scale = clip_norm / norm
        for _, arr in iter_arrays(grads):
            arr *= scale
    return grads


@dataclass(frozen=True)
class AdamWHyper:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    weight_decay: float = 0.01


# Elements per pass of the AdamW update: the chunk's slices of the six
# flat vectors it touches stay in cache between the update's operations.
# At d=384, 16K to 64K timed alike and 128K was slower.
ADAMW_CHUNK = 32768


@dataclass
class OptimizerState:
    """AdamW moments, a scratch buffer and the training loop's gradient
    buffer, all None until first used, so setting up an optimizer costs
    nothing. Both moments live in one (2, size) buffer, `moments`;
    first_moment and second_moment are views into its rows with the
    parameters' field names and shapes. `grads` is the gradient container
    the training loop asks `reduce_gradients` to fill for every batch."""

    first_moment: object
    second_moment: object
    step_count: int
    hyper: AdamWHyper
    moments: np.ndarray | None = None
    scratch: np.ndarray | None = None
    grads: object = None


def init_optimizer(params, hyper: AdamWHyper) -> OptimizerState:
    return OptimizerState(first_moment=None, second_moment=None,
                          step_count=0, hyper=hyper)


def adamw_step(params, grads, state: OptimizerState):
    """Decoupled-weight-decay Adam with bias correction.

    Mutates the optimizer state in place and returns the updated parameter
    container, flat-backed; the input parameters are left untouched. The
    update runs over the flat vectors of the parameters, the gradients
    (copied into one first when they are not flat-backed, see
    `numerics.flatten`) and the moments, ADAMW_CHUNK elements at a time,
    with intermediates in a scratch buffer of two chunks. Per element it
    keeps the operation order of
        m = beta1 m + (1 - beta1) g
        v = beta2 v + (1 - beta2) g^2
        p - lr ((m / bias1) / (sqrt(v / bias2) + epsilon) + weight_decay p)
    so the bits do not depend on the chunking. A non-finite update raises
    ValueError naming its tensor.
    """
    hyper = state.hyper
    p_all, g_all = flatten(params), flatten(grads)
    shapes = {name: arr.shape for name, arr in iter_arrays(params)}
    if state.moments is None:
        state.moments = np.zeros((2, p_all.size))
        state.first_moment, state.second_moment = (
            unflatten(row, shapes, type(params)) for row in state.moments)
        state.scratch = np.empty((2, ADAMW_CHUNK))
    state.step_count += 1
    t = state.step_count
    bias1 = 1.0 - hyper.beta1 ** t
    bias2 = 1.0 - hyper.beta2 ** t
    new_all = np.empty(p_all.size)
    for start in range(0, p_all.size, ADAMW_CHUNK):
        chunk = slice(start, start + ADAMW_CHUNK)
        p, g, new = p_all[chunk], g_all[chunk], new_all[chunk]
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
            raise ValueError(f"non-finite optimizer update for {field_at(params, bad)}")
    return unflatten(new_all, shapes, type(params))
