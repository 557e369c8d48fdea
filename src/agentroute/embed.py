"""Fixed-size text embeddings.

Two interchangeable sources: a deterministic hashing-trick vectorizer that
needs no model files, and a client for a remote embedding service. The
encoder is treated as a frozen black box everywhere else; only its output
vectors enter the router.
"""

from __future__ import annotations

import re

import numpy as np

from .agents import HttpSession, TransportError, post_json

_TOKEN = re.compile(r"[a-z0-9]+")
_MASK64 = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


class RemoteEmbedError(TransportError):
    """The remote embedding service failed or returned a bad vector."""


def _fnv1a64(data: bytes) -> int:
    # FNV-1a, 64 bit: the fixed token hash backing the vectorizer.
    h = _FNV_OFFSET
    for b in data:
        h ^= b
        h = (h * _FNV_PRIME) & _MASK64
    return h


def _splitmix64(x: int) -> int:
    # One splitmix64 round; draws the sign bit independently of the bucket.
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def hash_embed(text: str, dim: int) -> np.ndarray:
    """Hashing-trick embedding of `text` into `dim` signed buckets.

    Scheme (fixed; traces depend on it being stable across platforms):
    lowercase, split into [a-z0-9]+ runs, FNV-1a 64-bit hash per token,
    bucket = hash mod dim, sign = +1 when one splitmix64 round of the hash
    is even, signed counts L2-normalized. Token order is ignored. Empty
    text embeds to the zero vector, returned unnormalized.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    vec = np.zeros(dim, dtype=np.float64)
    for token in _TOKEN.findall(text.lower()):
        h = _fnv1a64(token.encode("utf-8"))
        sign = 1.0 if _splitmix64(h) % 2 == 0 else -1.0
        vec[h % dim] += sign
    norm = float(np.linalg.norm(vec))
    if norm > 0.0:
        vec /= norm
    return vec


def remote_embed(text: str, endpoint: str, dim: int, *, api_key: str | None = None,
                 timeout: float = 30.0, session=None) -> np.ndarray:
    """POST {"input": text} to `endpoint`, expect {"embedding": [floats]}.

    The returned vector must have exactly `dim` finite entries.
    """
    data = post_json(session, endpoint, {"input": text}, api_key=api_key,
                     timeout=timeout, what="embedding", error=RemoteEmbedError)
    try:
        vec = np.asarray(data["embedding"], dtype=np.float64)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise RemoteEmbedError(
            f"malformed embedding response from {endpoint}: {exc!r}") from exc
    if vec.ndim != 1 or vec.shape[0] != dim:
        raise RemoteEmbedError(
            f"embedding dimension mismatch: expected {dim}, received {vec.size}")
    if not np.all(np.isfinite(vec)):
        raise RemoteEmbedError("embedding contains non-finite entries")
    return vec


class HashEmbedder:
    """Callable wrapper around hash_embed with an optional character cap."""

    def __init__(self, dim: int, max_chars: int = 0):
        self.dim = dim
        self.max_chars = max_chars

    def __call__(self, text: str) -> np.ndarray:
        if self.max_chars > 0:
            text = text[: self.max_chars]
        return hash_embed(text, self.dim)


class RemoteEmbedder:
    """Callable wrapper around remote_embed; reuses one HTTP session."""

    def __init__(self, endpoint: str, dim: int, *, api_key: str | None = None,
                 max_chars: int = 0, timeout: float = 30.0):
        self.endpoint = endpoint
        self.dim = dim
        self.api_key = api_key
        self.max_chars = max_chars
        self.timeout = timeout
        self._session = HttpSession()

    def __call__(self, text: str) -> np.ndarray:
        if self.max_chars > 0:
            text = text[: self.max_chars]
        return remote_embed(text, self.endpoint, self.dim, api_key=self.api_key,
                            timeout=self.timeout, session=self._session)
