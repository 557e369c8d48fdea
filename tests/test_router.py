import struct

import numpy as np
import pytest

from agentroute.core import RouterConfig, derive_seed
from agentroute.gradcheck import gradient_check
from agentroute.learning import AdamWHyper, adamw_step, init_optimizer
from agentroute.numerics import softmax, softmax_vjp
from agentroute.router import (PARAM_FIELDS, RouterParams, adaptive_k,
                               attach_responses, backward_trajectory, flat_to_params,
                               forward_trajectory, init_params, init_state,
                               keep_top_k, load_params, params_to_flat,
                               reduce_gradients, route_step, save_params,
                               select)


def _zero_params(d, n):
    return RouterParams(
        w_r=np.zeros((d, d)), w_u=np.zeros((d, d)), w_n=np.zeros((d, d)),
        u_r=np.zeros((d, d)), u_u=np.zeros((d, d)), u_n=np.zeros((d, d)),
        b_r=np.zeros(d), b_u=np.zeros(d), b_in=np.zeros(d), b_hn=np.zeros(d),
        w_out=np.zeros((n, d)), b_out=np.zeros(n))


def _random_params(d, n, seed):
    rng = np.random.default_rng(seed)
    zero = _zero_params(d, n)
    return RouterParams(**{name: rng.normal(size=getattr(zero, name).shape)
                           for name in zero.__dataclass_fields__})


def _head_only_params(d, n, seed):
    """Random head, all-zero GRU: the cell then maps h_prev to exactly
    h_prev / 2 whatever the input, so h_prev = 2 o feeds o to the head."""
    params = _zero_params(d, n)
    drawn = _random_params(d, n, seed)
    params.w_out, params.b_out = drawn.w_out, drawn.b_out
    return params


def _config(n=5, d=8, k=3, steps=3, seed=0, temperature=0.1):
    return RouterConfig(pool_size=n, max_route=k, temperature=temperature,
                        embed_dim=d, max_steps=max(steps, 1), train_steps=steps,
                        seed=seed)


def _gru_oracle(params, x, h):
    # independent oracle: evaluate the four cell formulas inline
    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    r = sig(params.w_r @ x + params.u_r @ h + params.b_r)
    u = sig(params.w_u @ x + params.u_u @ h + params.b_u)
    cand = np.tanh(params.w_n @ x + params.b_in + r * (params.u_n @ h + params.b_hn))
    return (1.0 - u) * cand + u * h


def _select_logits(z, max_route, temperature=0.1):
    """A fresh step whose selection comes from the given logits."""
    z = np.asarray(z, dtype=np.float64)
    config = _config(n=z.size, d=2, k=max_route, temperature=temperature)
    step = route_step(np.zeros(2), np.zeros(2), _zero_params(2, z.size), config)
    return select(step, z, config)


# --- route_step: the GRU cell ---

def test_gru_zero_params_zero_state_is_fixed_point():
    params = _zero_params(4, 3)
    step = route_step(np.array([1.0, -2.0, 0.5, 3.0]), np.zeros(4), params,
                      _config(n=3, d=4))
    np.testing.assert_array_equal(step.h, np.zeros(4))
    # the cell output the head reads is the new hidden state
    np.testing.assert_array_equal(step.z, params.w_out @ step.h + params.b_out)


def test_gru_zero_params_halves_hidden_state():
    params = _zero_params(4, 3)
    v = np.array([1.0, -2.0, 0.5, 3.0])
    step = route_step(np.array([9.0, 9.0, 9.0, 9.0]), v, params, _config(n=3, d=4))
    np.testing.assert_allclose(step.h, 0.5 * v, rtol=0, atol=1e-15)


def test_gru_matches_direct_formula_evaluation():
    d = 4
    params = _random_params(d, 3, seed=42)
    rng = np.random.default_rng(7)
    x = rng.normal(size=d)
    h = rng.normal(size=d)

    step = route_step(x, h, params, _config(n=3, d=d))
    np.testing.assert_allclose(step.h, _gru_oracle(params, x, h), rtol=0, atol=1e-14)
    np.testing.assert_array_equal(step.z, params.w_out @ step.h + params.b_out)


def test_gru_rejects_bad_shapes():
    params = _zero_params(4, 3)
    with pytest.raises(ValueError):
        route_step(np.zeros(5), np.zeros(4), params, _config(n=3, d=4))


# --- route_step: the linear head ---

def test_head_zero_weight_returns_bias():
    params = _zero_params(4, 3)
    params.b_out = np.array([1.0, -2.0, 0.5])
    step = route_step(np.zeros(4), np.full(4, 2.0), params, _config(n=3, d=4))
    np.testing.assert_array_equal(step.h, np.ones(4))
    np.testing.assert_array_equal(step.z, params.b_out)


def test_head_zero_input_returns_bias():
    params = _head_only_params(4, 3, seed=1)
    step = route_step(np.zeros(4), np.zeros(4), params, _config(n=3, d=4))
    np.testing.assert_array_equal(step.z, params.b_out)


def test_head_matches_naive_double_loop():
    params = _head_only_params(5, 4, seed=7)
    rng = np.random.default_rng(7)
    o = rng.normal(size=5)
    expected = np.zeros(4)
    for i in range(4):
        for j in range(5):
            expected[i] += params.w_out[i, j] * o[j]
        expected[i] += params.b_out[i]
    step = route_step(np.zeros(5), 2.0 * o, params, _config(n=4, d=5))
    np.testing.assert_array_equal(step.h, o)
    np.testing.assert_allclose(step.z, expected, rtol=0, atol=1e-13)


# --- adaptive_k ---

def test_adaptive_k_uniform_logits():
    assert adaptive_k(np.zeros(5), 1.0, 3, 5) == 3
    assert adaptive_k(np.zeros(5), 0.1, 3, 5) == 3


def test_adaptive_k_single_dominant_logit():
    z = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
    assert adaptive_k(z, 0.1, 3, 5) == 1


def _brute_force_k(z, tau, cap, n):
    # direct evaluation of the counting rule
    scaled = np.asarray(z) / tau
    exps = np.exp(scaled - scaled.max())
    probs = exps / exps.sum()
    count = sum(1 for p in probs if p >= 1.0 / n)
    return min(cap, count)


def test_adaptive_k_matches_brute_force_on_random_logits():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        z = rng.normal(scale=rng.uniform(0.01, 3.0), size=8)
        k = adaptive_k(z, 0.1, 4, 8)
        assert k == _brute_force_k(z, 0.1, 4, 8)
        assert 1 <= k <= 4


def test_adaptive_k_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        adaptive_k(np.array([np.nan, 0.0]), 0.1, 1, 2)


# --- keep_top_k ---

def test_keep_top_k_orders_by_descending_logit():
    assert keep_top_k(np.array([5.0, 1.0, 9.0]), 2) == (2, 0)


def test_keep_top_k_breaks_ties_by_index():
    assert keep_top_k(np.zeros(4), 2) == (0, 1)
    assert keep_top_k(np.array([1.0, 2.0, 2.0, 1.0]), 3) == (1, 2, 0)


def test_keep_top_k_matches_sort_oracle():
    rng = np.random.default_rng(3)
    for _ in range(50):
        z = rng.normal(size=10)
        ranked = sorted(range(10), key=lambda i: (-z[i], i))
        for k in range(1, 11):
            assert list(keep_top_k(z, k)) == ranked[:k]


def test_keep_top_k_rejects_out_of_range():
    with pytest.raises(ValueError):
        keep_top_k(np.zeros(3), 0)
    with pytest.raises(ValueError):
        keep_top_k(np.zeros(3), 4)


# --- select and attach_responses: aggregation ---

def test_aggregate_uniform_weights():
    e1 = np.array([1.0, 0.0, 2.0])
    e2 = np.array([3.0, 4.0, 0.0])
    step = _select_logits(np.zeros(2), max_route=2)
    ctx = attach_responses(step, np.stack([e1, e2]))
    np.testing.assert_allclose(step.alpha, [0.5, 0.5])
    np.testing.assert_allclose(ctx, (e1 + e2) / 2)


def test_aggregate_singleton():
    e = np.array([0.5, -1.0])
    step = _select_logits(np.array([3.7, -5.0]), max_route=2)
    assert step.selected_ids == (0,)
    ctx = attach_responses(step, e[None, :])
    np.testing.assert_array_equal(step.alpha, [1.0])
    np.testing.assert_array_equal(ctx, e)


def test_aggregate_closed_form_softmax():
    # the counting temperature keeps two agents; their weights take none
    basis = np.eye(4)[:2]
    step = _select_logits(np.array([np.log(3.0), 0.0, -1.0, -1.0]), max_route=2,
                          temperature=10.0)
    assert step.selected_ids == (0, 1)
    ctx = attach_responses(step, basis)
    np.testing.assert_allclose(step.alpha, [0.75, 0.25], atol=1e-12)
    np.testing.assert_allclose(ctx, [0.75, 0.25, 0.0, 0.0], atol=1e-12)


# --- invariance properties ---

def test_shift_invariance_of_selection_ops():
    rng = np.random.default_rng(17)
    for _ in range(50):
        z = rng.normal(size=6)
        shifted = z + 7.3
        assert adaptive_k(z, 0.1, 4, 6) == adaptive_k(shifted, 0.1, 4, 6)
        assert keep_top_k(z, 3) == keep_top_k(shifted, 3)
        s1 = _select_logits(z, max_route=4)
        s2 = _select_logits(shifted, max_route=4)
        assert s1.selected_ids == s2.selected_ids
        np.testing.assert_allclose(s1.alpha, s2.alpha, atol=1e-12)
        emb = rng.normal(size=(s1.k, 5))
        np.testing.assert_allclose(attach_responses(s1, emb),
                                   attach_responses(s2, emb), atol=1e-12)


def test_permutation_equivariance_of_selection():
    rng = np.random.default_rng(19)
    for _ in range(50):
        z = rng.normal(size=7)
        perm = rng.permutation(7)
        permuted = z[perm]
        assert adaptive_k(z, 0.1, 3, 7) == adaptive_k(permuted, 0.1, 3, 7)
        # ties are measure-zero here, so the selected logit VALUES agree
        orig = sorted(z[list(keep_top_k(z, 3))])
        new = sorted(permuted[list(keep_top_k(permuted, 3))])
        np.testing.assert_allclose(orig, new)


# --- forward/backward over trajectories ---

def test_forward_single_step_equals_hand_composition():
    config = _config(n=5, d=8, k=3)
    params = init_params(config)
    rng = np.random.default_rng(2)
    query = rng.normal(size=8)
    responses = rng.normal(size=(1, 5, 8))
    forward = forward_trajectory(query, responses, params, config)
    step = forward.steps[0]

    h_next = _gru_oracle(params, query, init_state(8))
    z = params.w_out @ step.h + params.b_out
    k = adaptive_k(z, config.temperature, config.max_route, config.pool_size)
    selected = keep_top_k(z, k)
    alpha = softmax(z[list(selected)])

    np.testing.assert_array_equal(step.z, z)
    assert step.k == k
    assert step.selected_ids == selected
    np.testing.assert_array_equal(step.alpha, alpha)
    np.testing.assert_allclose(step.h, h_next, rtol=0, atol=1e-14)
    np.testing.assert_array_equal(step.kept_embeddings, responses[0][list(selected)])


def test_forward_two_steps_with_zero_params():
    config = _config(n=4, d=6, k=2, steps=2)
    params = _zero_params(6, 4)
    rng = np.random.default_rng(4)
    query = rng.normal(size=6)
    responses = rng.normal(size=(2, 4, 6))
    forward = forward_trajectory(query, responses, params, config)
    s1, s2 = forward.steps
    # zero params keep logits at the (zero) bias both steps
    np.testing.assert_array_equal(s1.z, np.zeros(4))
    np.testing.assert_array_equal(s2.z, np.zeros(4))
    # all kept logits equal, so step-2 context is the mean of the kept rows
    kept = responses[0][list(s1.selected_ids)]
    np.testing.assert_allclose(s2.x, kept.mean(axis=0), atol=1e-15)


def test_forward_is_deterministic():
    config = _config()
    params = init_params(config)
    rng = np.random.default_rng(6)
    query = rng.normal(size=8)
    responses = rng.normal(size=(3, 5, 8))
    first = forward_trajectory(query, responses, params, config)
    second = forward_trajectory(query, responses, params, config)
    for a, b in zip(first.steps, second.steps):
        np.testing.assert_array_equal(a.z, b.z)
        np.testing.assert_array_equal(a.alpha, b.alpha)
        assert a.selected_ids == b.selected_ids


def test_forward_alpha_is_probability_vector():
    config = _config(n=7, d=10, k=4)
    params = init_params(config)
    rng = np.random.default_rng(8)
    for _ in range(20):
        query = rng.normal(size=10)
        responses = rng.normal(size=(3, 7, 10))
        forward = forward_trajectory(query, responses, params, config)
        for step in forward.steps:
            assert np.all(step.alpha >= 0)
            assert abs(step.alpha.sum() - 1.0) <= 1e-9
            assert 1 <= step.k <= min(config.max_route, config.pool_size)


def test_backward_zero_upstream_gives_zero_gradients():
    config = _config()
    params = init_params(config)
    rng = np.random.default_rng(9)
    forward = forward_trajectory(rng.normal(size=8), rng.normal(size=(3, 5, 8)),
                                 params, config)
    grads = reduce_gradients([backward_trajectory(forward, [np.zeros(5)] * 3)])
    for name in grads.__dataclass_fields__:
        np.testing.assert_array_equal(getattr(grads, name), 0.0)


def test_backward_single_step_linear_head_rows():
    config = _config(steps=1)
    params = init_params(config)
    rng = np.random.default_rng(10)
    forward = forward_trajectory(rng.normal(size=8), rng.normal(size=(1, 5, 8)),
                                 params, config)
    target_row = 2
    dz = np.zeros(5)
    dz[target_row] = 1.0
    grads = reduce_gradients([backward_trajectory(forward, [dz])])
    np.testing.assert_allclose(grads.w_out[target_row], forward.steps[0].h)
    zero_rows = [r for r in range(5) if r != target_row]
    np.testing.assert_array_equal(grads.w_out[zero_rows], 0.0)
    np.testing.assert_array_equal(grads.b_out, dz)


def test_backward_requires_cached_embeddings():
    config = _config(steps=2)
    params = init_params(config)
    rng = np.random.default_rng(12)
    forward = forward_trajectory(rng.normal(size=8), rng.normal(size=(2, 5, 8)),
                                 params, config)
    forward.steps[0].kept_embeddings = None
    with pytest.raises(ValueError, match="cached response embeddings missing"):
        backward_trajectory(forward, [np.zeros(5), np.ones(5)])


def _outer_product_backward(forward, per_step_dz):
    """Reference BPTT: one rank-1 update of every weight gradient per step,
    accumulated in place."""
    params, steps = forward.params, forward.steps
    n, d = params.pool_size, params.embed_dim
    grads = flat_to_params(np.zeros_like(params_to_flat(params)), params)
    dh_carry = np.zeros(d)
    dz_from_alpha = [np.zeros(n) for _ in steps]
    for i in reversed(range(len(steps))):
        st = steps[i]
        dz = np.asarray(per_step_dz[i], dtype=np.float64) + dz_from_alpha[i]
        grads.w_out += np.outer(dz, st.h)
        grads.b_out += dz
        dh = params.w_out.T @ dz + dh_carry
        dc = dh * (1.0 - st.u)
        du = dh * (st.h_prev - st.c)
        dh_prev = dh * st.u
        da_c = dc * (1.0 - st.c ** 2)
        grads.w_n += np.outer(da_c, st.x)
        grads.b_in += da_c
        dr = da_c * st.rec
        d_rec = da_c * st.r
        grads.u_n += np.outer(d_rec, st.h_prev)
        grads.b_hn += d_rec
        dh_prev = dh_prev + params.u_n.T @ d_rec
        da_u = du * st.u * (1.0 - st.u)
        grads.w_u += np.outer(da_u, st.x)
        grads.u_u += np.outer(da_u, st.h_prev)
        grads.b_u += da_u
        dh_prev = dh_prev + params.u_u.T @ da_u
        da_r = dr * st.r * (1.0 - st.r)
        grads.w_r += np.outer(da_r, st.x)
        grads.u_r += np.outer(da_r, st.h_prev)
        grads.b_r += da_r
        dh_prev = dh_prev + params.u_r.T @ da_r
        dx = params.w_n.T @ da_c + params.w_u.T @ da_u + params.w_r.T @ da_r
        dh_carry = dh_prev
        if i > 0:
            prev = steps[i - 1]
            dalpha = prev.kept_embeddings @ dx
            dz_from_alpha[i - 1][list(prev.selected_ids)] += \
                softmax_vjp(prev.alpha, dalpha)
    return grads


def _batch_of_trajectories(size, seed, n=6, d=10, k=4):
    """Forward passes of `size` random queries through shared parameters,
    with 1 to 3 steps each, and their per-step logit gradients."""
    # Small weights keep the logits close, so k varies between steps.
    params = _random_params(d, n, seed)
    params = flat_to_params(0.2 * params_to_flat(params), params)
    rng = np.random.default_rng(seed + 1)
    forwards, upstream = [], []
    for index in range(size):
        steps = 1 + index % 3
        config = _config(n=n, d=d, k=k, steps=steps)
        forwards.append(forward_trajectory(rng.normal(size=d),
                                           rng.normal(size=(steps, n, d)),
                                           params, config))
        upstream.append([rng.normal(size=n) for _ in range(steps)])
    return forwards, upstream


def _assert_grads_close(actual, expected):
    for name in expected.__dataclass_fields__:
        np.testing.assert_allclose(getattr(actual, name), getattr(expected, name),
                                   rtol=1e-12, atol=0.0, err_msg=name)


def test_single_trajectory_gradient_matches_outer_product_reference():
    forwards, upstream = _batch_of_trajectories(6, seed=30)
    for forward, dz in zip(forwards, upstream):
        grads = reduce_gradients([backward_trajectory(forward, dz)])
        _assert_grads_close(grads, _outer_product_backward(forward, dz))


@pytest.mark.parametrize("batch_size", [1, 3, 8])
def test_batched_gradient_matches_mean_of_per_query_gradients(batch_size):
    forwards, upstream = _batch_of_trajectories(batch_size, seed=40 + batch_size)
    if batch_size > 1:
        # the batch mixes steps routed to different numbers of agents
        assert len({step.k for forward in forwards for step in forward.steps}) > 1
    rows = [backward_trajectory(f, dz) for f, dz in zip(forwards, upstream)]
    batched = reduce_gradients(rows, scale=1.0 / batch_size)
    expected = flat_to_params(np.zeros_like(params_to_flat(forwards[0].params)),
                              forwards[0].params)
    for forward, dz in zip(forwards, upstream):
        reference = _outer_product_backward(forward, dz)
        for name in expected.__dataclass_fields__:
            getattr(expected, name)[...] += getattr(reference, name)
    expected = flat_to_params(params_to_flat(expected) / batch_size, expected)
    _assert_grads_close(batched, expected)


def test_batched_zero_upstream_gives_exact_zeros():
    forwards, upstream = _batch_of_trajectories(5, seed=50)
    rows = [backward_trajectory(f, [np.zeros_like(dz) for dz in per_step])
            for f, per_step in zip(forwards, upstream)]
    grads = reduce_gradients(rows, scale=1.0 / len(rows))
    for name in grads.__dataclass_fields__:
        np.testing.assert_array_equal(getattr(grads, name), 0.0)


def test_bptt_matches_finite_differences():
    # flagship numeric property: 3 steps, gradients through recurrence and
    # aggregation weights both active
    error = gradient_check(5, pool_size=6, embed_dim=16, steps=3)
    assert error <= 1e-5


def test_route_step_count_probs_use_temperature():
    config = _config(n=4, d=6, k=4, seed=3)
    params = init_params(config)
    rng = np.random.default_rng(5)
    step = route_step(rng.normal(size=6), np.zeros(6), params, config)
    np.testing.assert_allclose(step.count_probs,
                               softmax(step.z / config.temperature), atol=1e-15)


# --- parameter snapshots ---

def test_snapshot_round_trip_is_bitwise(tmp_path):
    config = _config(n=6, d=12, seed=99)
    params = init_params(config)
    path = tmp_path / "params.bin"
    save_params(path, params, config)
    loaded, header = load_params(path, config)
    for name in params.__dataclass_fields__:
        np.testing.assert_array_equal(getattr(loaded, name), getattr(params, name))
    assert header == {"version": 1, "embed_dim": 12, "pool_size": 6, "seed": 99}
    # writing the loaded params again produces identical bytes
    path2 = tmp_path / "params2.bin"
    save_params(path2, loaded, config)
    assert path.read_bytes() == path2.read_bytes()


def _tobytes_snapshot(path, params, config):
    """Reference writer: copies each tensor to bytes before writing it."""
    with open(path, "wb") as fh:
        fh.write(b"ARPS")
        fh.write(struct.pack("<III Q", 1, params.embed_dim, params.pool_size,
                             config.seed))
        for name in params.__dataclass_fields__:
            arr = np.ascontiguousarray(getattr(params, name), dtype="<f8")
            fh.write(arr.tobytes())


def test_snapshot_bytes_match_the_copying_writer(tmp_path):
    config = _config(n=6, d=12, seed=98)
    params = _random_params(12, 6, seed=21)
    # Also tensors that need converting first: transposed, strided, and
    # big-endian.
    odd = RouterParams(**{**params.__dict__, "w_r": params.w_r.T,
                          "b_in": np.repeat(params.b_in, 2)[::2],
                          "w_out": params.w_out.astype(">f8")})
    for which in (params, odd):
        save_params(tmp_path / "new.bin", which, config)
        _tobytes_snapshot(tmp_path / "old.bin", which, config)
        assert (tmp_path / "new.bin").read_bytes() == (tmp_path / "old.bin").read_bytes()


def test_snapshot_rejects_mismatched_config(tmp_path):
    config = _config(n=6, d=12)
    save_params(tmp_path / "p.bin", init_params(config), config)
    other = _config(n=6, d=16)
    with pytest.raises(ValueError, match="snapshot"):
        load_params(tmp_path / "p.bin", other)


def test_snapshot_rejects_garbage(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"not a snapshot")
    with pytest.raises(ValueError, match="not a router parameter snapshot"):
        load_params(path)


def test_snapshot_rejects_truncated_and_trailing_bytes(tmp_path):
    config = _config(n=3, d=4)
    path = tmp_path / "p.bin"
    save_params(path, init_params(config), config)
    data = path.read_bytes()
    # 24 header bytes, then w_r..u_n (96 floats), b_r, b_u, b_in, b_hn
    for cut, name in ((24, "w_r"), (24 + 8 * 109, "b_hn"), (len(data) - 1, "b_out")):
        path.write_bytes(data[:cut])
        with pytest.raises(ValueError, match=f"truncated snapshot at tensor {name}$"):
            load_params(path)
    path.write_bytes(data + b"\0")
    with pytest.raises(ValueError, match="trailing bytes"):
        load_params(path)


def test_flat_round_trip():
    params = _random_params(5, 3, seed=20)
    flat = params_to_flat(params)
    rebuilt = flat_to_params(flat, params)
    for name in params.__dataclass_fields__:
        np.testing.assert_array_equal(getattr(rebuilt, name), getattr(params, name))
    grads = flat_to_params(np.zeros_like(params_to_flat(params)), params)
    assert params_to_flat(grads).sum() == 0.0


def test_reduce_gradients_into_a_reused_buffer_equals_a_fresh_reduction():
    forwards, upstream = _batch_of_trajectories(5, seed=60)
    rows = [backward_trajectory(f, dz) for f, dz in zip(forwards, upstream)]
    buffer = reduce_gradients(rows[:2], scale=0.5)
    for batch in (rows[2:], rows[:3]):
        fresh = reduce_gradients(batch, scale=1.0 / len(batch))
        reused = reduce_gradients(batch, scale=1.0 / len(batch), out=buffer)
        assert reused is buffer
        assert params_to_flat(reused).tobytes() == params_to_flat(fresh).tobytes()


def test_library_params_are_views_into_one_flat_vector(tmp_path):
    config = _config(n=6, d=12, seed=97)
    params = init_params(config)
    save_params(tmp_path / "p.bin", params, config)
    loaded, _ = load_params(tmp_path / "p.bin", config)
    forwards, upstream = _batch_of_trajectories(2, seed=61, n=6, d=12)
    grads = reduce_gradients([backward_trajectory(f, dz)
                              for f, dz in zip(forwards, upstream)])
    rebuilt = flat_to_params(params_to_flat(params).copy(), params)
    stepped = adamw_step(params, grads, init_optimizer(params, AdamWHyper()))
    for which in (params, loaded, grads, rebuilt, stepped):
        flat = params_to_flat(which)
        for name in PARAM_FIELDS:
            assert np.shares_memory(flat, getattr(which, name))
    # Views that do not tile one vector in field order are copied.
    swapped = RouterParams(**{**params.__dict__, "w_r": params.w_u,
                              "w_u": params.w_r})
    flat = params_to_flat(swapped)
    assert not np.shares_memory(flat, params.w_r)
    np.testing.assert_array_equal(flat[:144], params.w_u.ravel())
