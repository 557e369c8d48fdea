"""The differentiable routing core.

A GRU cell consumes the current context vector and feeds a linear head that
emits one logit per pool agent. Selection is sparse: the per-step count k
adapts to how much temperature-softmax mass clears the uniform level, the
top-k agents by raw logit are kept, and their response embeddings are
combined under plain softmax weights to form the next context vector.

Forward passes cache every activation needed for exact backpropagation
through time. Gradients flow through the head, the recurrence, and the
aggregation weights; the discrete selection itself carries no gradient,
and response embeddings are constants (the encoder is frozen).

Conventions, pinned so the finite-difference oracle is unambiguous:
  r  = sigmoid(w_r x + u_r h + b_r)
  u  = sigmoid(w_u x + u_u h + b_u)
  c  = tanh(w_n x + b_in + r * (u_n h + b_hn))
  h' = (1 - u) * c + u * h
The cell output equals the new hidden state. Ties in top-k selection break
by ascending agent index.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .core import RouterConfig, derive_seed, validate_config
from .numerics import field_at, flatten, iter_arrays, sigmoid, softmax, \
    softmax_vjp, unflatten

_SNAPSHOT_MAGIC = b"ARPS"
_SNAPSHOT_VERSION = 1

# Field order is load-bearing: initialization draws and snapshot files both
# follow it.
PARAM_FIELDS = ("w_r", "w_u", "w_n", "u_r", "u_u", "u_n",
                "b_r", "b_u", "b_in", "b_hn", "w_out", "b_out")


@dataclass
class RouterParams:
    """All trainable tensors: GRU input/recurrent weights and biases plus
    the linear head. Shapes are (d, d) for weights, (d,) for biases,
    (n, d) and (n,) for the head.

    Every RouterParams the library builds (init_params, load_params,
    reduce_gradients, adamw_step, flat_to_params) is flat-backed: its
    tensors are C-contiguous views into one float64 vector, laid out in
    PARAM_FIELDS order, which `params_to_flat` returns without a copy.
    Writing to a tensor writes to that vector. A RouterParams built from
    separate arrays works everywhere too, at the cost of a copy wherever
    the flat vector is needed."""

    w_r: np.ndarray
    w_u: np.ndarray
    w_n: np.ndarray
    u_r: np.ndarray
    u_u: np.ndarray
    u_n: np.ndarray
    b_r: np.ndarray
    b_u: np.ndarray
    b_in: np.ndarray
    b_hn: np.ndarray
    w_out: np.ndarray
    b_out: np.ndarray

    @property
    def embed_dim(self) -> int:
        return self.w_r.shape[0]

    @property
    def pool_size(self) -> int:
        return self.b_out.shape[0]


def init_params(config: RouterConfig) -> RouterParams:
    """Seeded uniform(-1/sqrt(d), 1/sqrt(d)) init for every tensor, biases
    included; keeps early logits near-uniform so early k starts wide."""
    validate_config(config)
    d, n = config.embed_dim, config.pool_size
    rng = np.random.default_rng(derive_seed(config.seed, "router-init"))
    bound = 1.0 / np.sqrt(d)
    # One draw equals one draw per tensor in PARAM_FIELDS order.
    return _params_view(rng.uniform(-bound, bound, size=_param_count(d, n)), d, n)


def _param_shapes(d: int, n: int) -> dict:
    """Tensor shapes in PARAM_FIELDS order."""
    return {"w_r": (d, d), "w_u": (d, d), "w_n": (d, d),
            "u_r": (d, d), "u_u": (d, d), "u_n": (d, d),
            "b_r": (d,), "b_u": (d,), "b_in": (d,), "b_hn": (d,),
            "w_out": (n, d), "b_out": (n,)}


def _param_count(d: int, n: int) -> int:
    return sum(math.prod(shape) for shape in _param_shapes(d, n).values())


def _params_view(flat: np.ndarray, d: int, n: int) -> RouterParams:
    return unflatten(flat, _param_shapes(d, n), RouterParams)


def params_to_flat(params: RouterParams) -> np.ndarray:
    """The parameters as one vector in PARAM_FIELDS order: the backing
    vector itself for flat-backed parameters, else a copy."""
    return flatten(params)


def flat_to_params(flat: np.ndarray, like: RouterParams) -> RouterParams:
    """Parameters shaped like `like` whose tensors are views into `flat`."""
    return _params_view(flat, like.embed_dim, like.pool_size)


def init_state(dim: int) -> np.ndarray:
    """Initial hidden state: the all-zero vector."""
    return np.zeros(dim, dtype=np.float64)


def _gru_forward(x, h_prev, params):
    r = sigmoid(params.w_r @ x + params.u_r @ h_prev + params.b_r)
    u = sigmoid(params.w_u @ x + params.u_u @ h_prev + params.b_u)
    rec = params.u_n @ h_prev + params.b_hn
    c = np.tanh(params.w_n @ x + params.b_in + r * rec)
    h = (1.0 - u) * c + u * h_prev
    return r, u, rec, c, h


def adaptive_k(z: np.ndarray, temperature: float, max_route: int, pool_size: int) -> int:
    """Per-step routed-agent count: how many temperature-softmax entries
    reach the uniform level 1/pool_size, capped at max_route."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (pool_size,):
        raise ValueError(f"expected {pool_size} logits")
    if not np.all(np.isfinite(z)):
        raise ValueError("logits contain non-finite values")
    if temperature <= 0.0:
        raise ValueError("temperature must be positive")
    if max_route < 1:
        raise ValueError("max_route must be >= 1")
    probs = softmax(z / temperature)
    count = int(np.count_nonzero(probs >= 1.0 / pool_size))
    # The softmax maximum is always >= 1/pool_size, so count >= 1.
    assert count >= 1
    return min(max_route, count)


def keep_top_k(z: np.ndarray, k: int) -> tuple[int, ...]:
    """Indices of the k largest logits, ordered by descending logit then
    ascending index; ties break by ascending index."""
    z = np.asarray(z, dtype=np.float64)
    if not 1 <= k <= z.size:
        raise ValueError("k out of range")
    order = sorted(range(z.size), key=lambda i: (-z[i], i))
    return tuple(order[:k])


@dataclass
class StepCache:
    """Everything the backward pass needs from one forward step. `select`
    fills the selection fields from z onward."""

    x: np.ndarray
    h_prev: np.ndarray
    r: np.ndarray
    u: np.ndarray
    rec: np.ndarray          # u_n h_prev + b_hn, reused by the reset-gate grad
    c: np.ndarray
    h: np.ndarray
    z: np.ndarray | None = None
    count_probs: np.ndarray | None = None
    k: int = 0
    selected_ids: tuple[int, ...] = ()
    alpha: np.ndarray | None = None
    kept_embeddings: np.ndarray | None = None


def route_step(x: np.ndarray, h_prev: np.ndarray, params: RouterParams,
               config: RouterConfig) -> StepCache:
    """One routing step: recurrence, linear head, then `select` on the
    head's logits."""
    x = np.asarray(x, dtype=np.float64)
    h_prev = np.asarray(h_prev, dtype=np.float64)
    r, u, rec, c, h = _gru_forward(x, h_prev, params)
    for name, arr in (("reset", r), ("update", u), ("candidate", c), ("hidden", h)):
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{name} gate produced non-finite values")
    step = StepCache(x=x, h_prev=h_prev, r=r, u=u, rec=rec, c=c, h=h)
    return select(step, params.w_out @ h + params.b_out, config)


def select(step: StepCache, z: np.ndarray, config: RouterConfig) -> StepCache:
    """Set a step's logits z and the selection they imply: the adaptive
    count k, the top-k agent ids, their aggregation weights alpha (plain
    softmax over the kept logits) and the temperature-softmax count_probs.
    Scripted topology schedules pass their own logits through here."""
    z = np.asarray(z, dtype=np.float64)
    step.z = z
    step.k = adaptive_k(z, config.temperature, config.max_route, config.pool_size)
    step.selected_ids = keep_top_k(z, step.k)
    step.alpha = softmax(z[list(step.selected_ids)])
    step.count_probs = softmax(z / config.temperature)
    return step


def attach_responses(step: StepCache, response_embeddings: np.ndarray) -> np.ndarray:
    """Record the routed agents' response embeddings on the cache and
    return the aggregated next context vector."""
    emb = np.asarray(response_embeddings, dtype=np.float64)
    if emb.shape[0] != step.k:
        raise ValueError("one embedding row per selected agent required")
    step.kept_embeddings = emb
    return step.alpha @ emb


@dataclass
class ForwardPass:
    """Cached activations for a whole trajectory, in step order."""

    steps: list[StepCache]
    params: RouterParams
    config: RouterConfig


def forward_trajectory(query_embedding: np.ndarray, step_response_embeddings,
                       params: RouterParams, config: RouterConfig) -> ForwardPass:
    """Replay routing over a full trajectory.

    `step_response_embeddings[i]` is a (pool_size, embed_dim) matrix whose
    row a holds agent a's step-(i+1) response embedding; only the rows of
    agents the router actually selects feed the next context, so dense
    matrices keep the replay well defined even if a perturbation flips the
    selection.
    """
    validate_config(config)
    x = np.asarray(query_embedding, dtype=np.float64)
    if x.shape != (config.embed_dim,):
        raise ValueError(f"query embedding must have length {config.embed_dim}")
    h = init_state(config.embed_dim)
    steps: list[StepCache] = []
    for index, responses in enumerate(step_response_embeddings, start=1):
        responses = np.asarray(responses, dtype=np.float64)
        if responses.shape != (config.pool_size, config.embed_dim):
            raise ValueError(
                f"step {index}: expected a ({config.pool_size}, {config.embed_dim})"
                " response-embedding matrix")
        try:
            step = route_step(x, h, params, config)
        except ValueError as exc:
            raise ValueError(f"step {index}: {exc}") from exc
        x = attach_responses(step, responses[list(step.selected_ids)])
        h = step.h
        steps.append(step)
    return ForwardPass(steps=steps, params=params, config=config)


@dataclass
class BackwardRows:
    """One trajectory's BPTT result, one row per step in step order: the
    gradients with respect to the logits (dz) and the gate pre-activations
    (da_c for the candidate, d_rec for the recurrent candidate term, da_u
    and da_r for the update and reset gates), and the vectors they multiply
    into weight gradients (x, h_prev, h)."""

    x: np.ndarray
    h_prev: np.ndarray
    h: np.ndarray
    dz: np.ndarray
    da_c: np.ndarray
    d_rec: np.ndarray
    da_u: np.ndarray
    da_r: np.ndarray


_GRAD_ROWS = ("dz", "da_c", "d_rec", "da_u", "da_r")


def backward_trajectory(forward: ForwardPass, per_step_dz) -> BackwardRows:
    """Backpropagation through time, up to the parameter gradients.

    `per_step_dz[i]` is the loss gradient with respect to the raw step
    logits. The gradient flows along three paths: into the head and GRU
    parameters at each step, through the hidden-state recurrence, and
    through the aggregation weights of the previous step (whose softmax
    feeds the current context vector). The first path is returned as
    per-step rows; `reduce_gradients` turns the rows of one trajectory, or
    of a whole batch, into parameter gradients.
    """
    params = forward.params
    steps = forward.steps
    if len(per_step_dz) != len(steps):
        raise ValueError("one logit gradient per cached step required")
    n, d = params.pool_size, params.embed_dim
    t = len(steps)
    rows = BackwardRows(
        x=np.array([st.x for st in steps]).reshape(t, d),
        h_prev=np.array([st.h_prev for st in steps]).reshape(t, d),
        h=np.array([st.h for st in steps]).reshape(t, d),
        dz=np.empty((t, n)), da_c=np.empty((t, d)), d_rec=np.empty((t, d)),
        da_u=np.empty((t, d)), da_r=np.empty((t, d)))
    dh_carry = np.zeros(d)
    dz_from_alpha = np.zeros(n)
    for i in reversed(range(t)):
        st = steps[i]
        dz = np.asarray(per_step_dz[i], dtype=np.float64) + dz_from_alpha
        if dz.shape != (n,):
            raise ValueError(f"step {i + 1}: logit gradient must have length {n}")
        # Head: z = w_out h + b_out, and the cell output is h itself.
        dh = params.w_out.T @ dz + dh_carry
        # GRU cell backward.
        dc = dh * (1.0 - st.u)
        du = dh * (st.h_prev - st.c)
        dh_prev = dh * st.u
        da_c = dc * (1.0 - st.c ** 2)
        dr = da_c * st.rec
        d_rec = da_c * st.r
        dh_prev = dh_prev + params.u_n.T @ d_rec
        da_u = du * st.u * (1.0 - st.u)
        dh_prev = dh_prev + params.u_u.T @ da_u
        da_r = dr * st.r * (1.0 - st.r)
        dh_prev = dh_prev + params.u_r.T @ da_r
        rows.dz[i], rows.da_c[i], rows.d_rec[i] = dz, da_c, d_rec
        rows.da_u[i], rows.da_r[i] = da_u, da_r
        dh_carry = dh_prev
        if i > 0:
            # x_i came from the previous step's weighted aggregation; push
            # the context gradient through alpha's softmax into z_{i-1}.
            prev = steps[i - 1]
            if prev.kept_embeddings is None:
                raise ValueError(
                    f"step {i}: cached response embeddings missing for backward")
            dx = params.w_n.T @ da_c + params.w_u.T @ da_u + params.w_r.T @ da_r
            dalpha = prev.kept_embeddings @ dx
            dz_from_alpha = np.zeros(n)
            dz_from_alpha[list(prev.selected_ids)] += softmax_vjp(prev.alpha, dalpha)
    for name in _GRAD_ROWS:
        if not np.all(np.isfinite(getattr(rows, name))):
            raise ValueError(f"non-finite gradient in {name}")
    return rows


def reduce_gradients(batch, scale: float = 1.0,
                     out: RouterParams | None = None) -> RouterParams:
    """Parameter gradients of a batch of trajectories, times `scale`.

    `batch` holds the `BackwardRows` of each trajectory. Their rows are
    stacked, so each weight gradient is one (rows, d)^T @ (rows, d) product
    and each bias gradient one column sum; `scale` (1/B for a batch mean)
    multiplies the gradient rows before the products. The products and
    sums are written into `out` when it is given, so a training loop can
    reuse one gradient buffer for every batch; otherwise into new
    flat-backed parameters. Returns the gradients.
    """
    def stacked(name):
        return np.concatenate([getattr(rows, name) for rows in batch])

    x, h_prev, h = stacked("x"), stacked("h_prev"), stacked("h")
    dz, da_c, d_rec, da_u, da_r = (stacked(name) * scale for name in _GRAD_ROWS)
    d, n = x.shape[1], dz.shape[1]
    grads = out if out is not None else _params_view(np.empty(_param_count(d, n)), d, n)
    for name, rows, inputs in (("w_r", da_r, x), ("w_u", da_u, x), ("w_n", da_c, x),
                               ("u_r", da_r, h_prev), ("u_u", da_u, h_prev),
                               ("u_n", d_rec, h_prev), ("w_out", dz, h)):
        np.matmul(rows.T, inputs, out=getattr(grads, name))
    for name, rows in (("b_r", da_r), ("b_u", da_u), ("b_in", da_c),
                       ("b_hn", d_rec), ("b_out", dz)):
        np.sum(rows, axis=0, out=getattr(grads, name))
    for name, arr in iter_arrays(grads):
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"non-finite gradient in {name}")
    return grads


# --- parameter snapshots ---
#
# Binary layout: magic, version u32, embed_dim u32, pool_size u32, seed u64
# (all little-endian), then each tensor in PARAM_FIELDS order as raw
# little-endian float64 bytes, which is the flat vector of flat-backed
# parameters. Round-trips bitwise.

def save_params(path, params: RouterParams, config: RouterConfig) -> None:
    """Write a snapshot: the header, then the parameters' flat vector in
    one write straight from its buffer (after a copy only for parameters
    that are not flat-backed, or on a big-endian host)."""
    flat = np.ascontiguousarray(params_to_flat(params), dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(_SNAPSHOT_MAGIC + struct.pack(
            "<III Q", _SNAPSHOT_VERSION, params.embed_dim, params.pool_size,
            config.seed))
        fh.write(flat.data)


def load_params(path, config: RouterConfig | None = None):
    """Read a snapshot; returns (params, header) with header keys
    version, embed_dim, pool_size, seed. Checks shape compatibility when a
    config is given. The tensors come in one read, straight into the
    returned parameters' flat vector."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _SNAPSHOT_MAGIC:
            raise ValueError(f"{path}: not a router parameter snapshot")
        version, d, n, seed = struct.unpack("<III Q", fh.read(20))
        if version != _SNAPSHOT_VERSION:
            raise ValueError(f"{path}: unsupported snapshot version {version}")
        if config is not None and (d != config.embed_dim or n != config.pool_size):
            raise ValueError(
                f"{path}: snapshot is ({d}, {n}) but config wants"
                f" ({config.embed_dim}, {config.pool_size})")
        flat = np.empty(_param_count(d, n), dtype="<f8")
        got = fh.readinto(flat)
        params = _params_view(flat.astype(np.float64, copy=False), d, n)
        if got != flat.nbytes:
            raise ValueError(
                f"{path}: truncated snapshot at tensor {field_at(params, got // 8)}")
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after the last tensor")
    header = {"version": version, "embed_dim": d, "pool_size": n, "seed": seed}
    return params, header
