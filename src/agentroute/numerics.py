"""Shared numerical kernels and small container utilities.

All softmaxes in the package go through here so the max-subtraction trick
is applied everywhere; with counting temperatures as low as 0.1 the raw
exponentials overflow easily.
"""

from __future__ import annotations

import dataclasses

import numpy as np


def sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softmax(x) -> np.ndarray:
    """Max-subtracted softmax. Callers apply any temperature themselves."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(x - np.max(x))
    return e / e.sum()


def softmax_vjp(y: np.ndarray, grad_y: np.ndarray) -> np.ndarray:
    """Backward through softmax, given its output y and upstream grad."""
    grad_y = np.asarray(grad_y, dtype=np.float64)
    inner = float(np.dot(y, grad_y))
    return y * (grad_y - inner)


def softplus(x):
    return np.logaddexp(0.0, x)


# --- generic helpers over dataclasses whose fields are all ndarrays ---

def iter_arrays(container):
    for f in dataclasses.fields(container):
        yield f.name, getattr(container, f.name)


def map_arrays(fn, container):
    return type(container)(**{name: fn(arr) for name, arr in iter_arrays(container)})


def global_norm(container) -> float:
    # A dot product per tensor sums the squares without a squared copy.
    total = 0.0
    for _, arr in iter_arrays(container):
        flat = arr.ravel()
        total += float(np.dot(flat, flat))
    return float(np.sqrt(total))
