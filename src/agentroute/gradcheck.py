"""Finite-difference verification of the backpropagation-through-time path.

Builds a randomized multi-step trajectory with fixed response embeddings
and confidence targets, evaluates the ranking objective, and compares the
analytic parameter gradient against central differences coordinate by
coordinate. This is the flagship numeric check: it exercises the head, the
GRU recurrence, and the aggregation-weight path in one sweep.
"""

from __future__ import annotations

import numpy as np

from .core import RouterConfig, derive_seed
from .learning import confidence, ranking_loss, ranking_loss_grad, total_loss
from .numerics import softmax, softmax_vjp
from .router import RouterParams, backward_trajectory, forward_trajectory, \
    init_params, reduce_gradients


def _trajectory_loss(query_emb, responses, conf_targets, params, config) -> float:
    forward = forward_trajectory(query_emb, responses, params, config)
    losses = [ranking_loss(softmax(step.z), conf)
              for step, conf in zip(forward.steps, conf_targets)]
    return total_loss(losses)


def _analytic_gradient(query_emb, responses, conf_targets, params, config):
    forward = forward_trajectory(query_emb, responses, params, config)
    scale = 1.0 / len(forward.steps)
    dz_list = []
    for step, conf in zip(forward.steps, conf_targets):
        probs = softmax(step.z)
        dz_list.append(softmax_vjp(probs, ranking_loss_grad(probs, conf)) * scale)
    return reduce_gradients([backward_trajectory(forward, dz_list)])


def gradient_check(seed: int = 0, *, pool_size: int = 6, embed_dim: int = 16,
                   steps: int = 3, fd_step: float = 1e-6,
                   corrupt: bool = False) -> float:
    """Max relative error between analytic and central-difference gradients
    on a seeded random trajectory.

    The error is measured relative to the gradient scale:
    max_i |a_i - f_i| / max(max|a|, max|f|). Coordinates far below that
    scale sit under the finite-difference rounding floor (about |loss| *
    eps / step), where a per-coordinate ratio measures noise, not
    correctness. The corrupt flag perturbs one analytic entry; it exists so
    the negative path of the check is itself testable.
    """
    config = RouterConfig(pool_size=pool_size, max_route=max(2, pool_size // 2),
                          temperature=0.1, embed_dim=embed_dim,
                          max_steps=max(steps, 1), train_steps=steps, seed=seed)
    params = init_params(config)
    rng = np.random.default_rng(derive_seed(seed, "gradcheck"))
    query_emb = rng.normal(size=embed_dim)
    query_emb /= np.linalg.norm(query_emb)
    responses = rng.normal(size=(steps, pool_size, embed_dim))
    responses /= np.linalg.norm(responses, axis=2, keepdims=True)
    conf_targets = [confidence(rng.uniform(0.1, 2.5, size=pool_size))
                    for _ in range(steps)]

    analytic = _analytic_gradient(query_emb, responses, conf_targets, params,
                                  config).flat
    if corrupt:
        analytic = analytic.copy()
        analytic[0] += 1e-3

    flat = params.flat
    numeric = np.zeros_like(flat)
    bumped = RouterParams(flat.copy(), embed_dim, pool_size)
    for i in range(flat.size):
        bumped.flat[i] = flat[i] + fd_step
        loss_plus = _trajectory_loss(query_emb, responses, conf_targets, bumped, config)
        bumped.flat[i] = flat[i] - fd_step
        loss_minus = _trajectory_loss(query_emb, responses, conf_targets, bumped, config)
        bumped.flat[i] = flat[i]
        numeric[i] = (loss_plus - loss_minus) / (2.0 * fd_step)

    scale = max(float(np.max(np.abs(analytic))), float(np.max(np.abs(numeric))), 1e-12)
    return float(np.max(np.abs(analytic - numeric)) / scale)
