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


def flatten(container) -> np.ndarray:
    """The container's arrays as one float64 vector in field order.

    When the arrays are C-contiguous views that tile one 1-D float64
    vector in field order, as `unflatten` lays them out, that vector itself
    is returned, so writing to it writes to the container; otherwise the
    arrays are copied into a new vector."""
    arrays = [arr for _, arr in iter_arrays(container)]
    flat = arrays[0].base
    if (isinstance(flat, np.ndarray) and flat.ndim == 1
            and flat.dtype == np.float64 and flat.flags.c_contiguous):
        address = flat.__array_interface__["data"][0]
        for arr in arrays:
            if (arr.base is not flat or arr.dtype != np.float64
                    or not arr.flags.c_contiguous
                    or arr.__array_interface__["data"][0] != address):
                break
            address += arr.nbytes
        else:
            if address == flat.__array_interface__["data"][0] + flat.nbytes:
                return flat
    return np.concatenate([arr.ravel() for arr in arrays], dtype=np.float64)


def unflatten(flat: np.ndarray, shapes: dict, kind):
    """A `kind` container whose arrays are views into `flat`, one per
    (field name, shape) of `shapes`, laid out in that order."""
    out = {}
    offset = 0
    for name, shape in shapes.items():
        size = int(np.prod(shape))
        out[name] = flat[offset: offset + size].reshape(shape)
        offset += size
    if offset != flat.size:
        raise ValueError("flat vector size does not match the parameter shapes")
    return kind(**out)


def field_at(container, index: int) -> str:
    """The name of the field holding element `index` of the container's
    flat vector."""
    for name, arr in iter_arrays(container):
        if index < arr.size:
            return name
        index -= arr.size
    raise IndexError("index past the container's last field")


def global_norm(container) -> float:
    # A dot product per tensor sums the squares without a squared copy.
    total = 0.0
    for _, arr in iter_arrays(container):
        flat = arr.ravel()
        total += float(np.dot(flat, flat))
    return float(np.sqrt(total))
