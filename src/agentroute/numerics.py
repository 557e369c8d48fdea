"""Shared numerical kernels.

All softmaxes in the package go through here so the max-subtraction trick
is applied everywhere; with counting temperatures as low as 0.1 the raw
exponentials overflow easily.
"""

from __future__ import annotations

import math

import numpy as np


def sigmoid(x):
    """Logistic function with one exponential: e = exp(-|x|), then
    1 / (1 + e) where x >= 0 and e / (1 + e) elsewhere, NaN included.
    Neither branch overflows, and the result is bit for bit the two-branch
    form, 1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below.
    -|x| is taken as min(x, -x), which returns a NaN x itself, so a NaN
    keeps its sign bit as it does in the two-branch form."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(np.minimum(x, -x))
    denom = 1.0 + e
    return np.where(x >= 0, 1.0 / denom, e / denom)


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


def global_norm(arrays) -> float:
    """The L2 norm of a sequence of arrays taken as one vector. One dot
    product per array, summed in the given order, gives the squares without
    a squared copy; one dot over the concatenation would round differently.
    Only when that sum overflows while every entry is finite are the
    squares summed again over the entries divided by the largest magnitude,
    so a finite gradient never reads as an infinite norm and a finite sum
    keeps its bits."""
    total = 0.0
    with np.errstate(over="ignore"):
        for arr in arrays:
            flat = arr.ravel()
            total += float(np.dot(flat, flat))
    if math.isfinite(total) or not all(np.isfinite(arr).all() for arr in arrays):
        return float(np.sqrt(total))
    arrays = [arr for arr in arrays if arr.size]
    largest = max(float(np.abs(arr).max()) for arr in arrays)
    scaled = 0.0
    for arr in arrays:
        flat = arr.ravel() / largest
        scaled += float(np.dot(flat, flat))
    return largest * math.sqrt(scaled)
