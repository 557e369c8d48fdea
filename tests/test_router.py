import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from agentroute import router
from agentroute.core import RouterConfig, derive_seed
from agentroute.gradcheck import gradient_check
from agentroute.learning import OptimizerState, TrainingSettings, adamw_step
from agentroute.numerics import sigmoid, softmax, softmax_vjp
from agentroute.router import (PARAM_FIELDS, RouterParams, adaptive_k,
                               attach_responses, backward_trajectory,
                               forward_trajectory, init_params, init_state,
                               keep_top_k, load_params, reduce_gradients,
                               route_step, save_params, select)


def _zero_params(d, n):
    return RouterParams(np.zeros(router._param_count(d, n)), d, n)


def _random_params(d, n, seed):
    # One draw equals one draw per tensor in PARAM_FIELDS order.
    rng = np.random.default_rng(seed)
    return RouterParams(rng.normal(size=router._param_count(d, n)), d, n)


def _head_only_params(d, n, seed):
    """Random head, all-zero GRU: the cell then maps h_prev to exactly
    h_prev / 2 whatever the input, so h_prev = 2 o feeds o to the head."""
    params = _zero_params(d, n)
    drawn = _random_params(d, n, seed)
    params.w_out[...], params.b_out[...] = drawn.w_out, drawn.b_out
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
    params.b_out[:] = [1.0, -2.0, 0.5]
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


_logit = st.floats(-20.0, 20.0)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.data())
def test_keep_top_k_is_permutation_equivariant_for_distinct_logits(data):
    z = np.array(data.draw(st.lists(_logit, min_size=1, max_size=10, unique=True)))
    perm = np.array(data.draw(st.permutations(range(z.size))))
    k = data.draw(st.integers(1, z.size))
    # Entry j of z[perm] is entry perm[j] of z, so agent i moves to position[i].
    position = np.argsort(perm)
    assert keep_top_k(z[perm], k) == tuple(int(position[i]) for i in keep_top_k(z, k))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.data())
def test_selection_is_unchanged_by_adding_a_constant_to_the_logits(data):
    z = np.array(data.draw(st.lists(_logit, min_size=2, max_size=10, unique=True)))
    assume(np.diff(np.sort(z)).min() >= 1e-6)
    n = z.size
    temperature = data.draw(st.floats(0.05, 5.0))
    # Away from the uniform level, rounding in the shift cannot move a
    # temperature-softmax entry across it.
    assume(np.abs(softmax(z / temperature) - 1.0 / n).min() > 1e-9)
    shifted = z + data.draw(st.floats(-10.0, 10.0))
    max_route = data.draw(st.integers(1, n))
    assert adaptive_k(shifted, temperature, max_route, n) == \
        adaptive_k(z, temperature, max_route, n)
    for k in range(1, n + 1):
        assert keep_top_k(shifted, k) == keep_top_k(z, k)


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
    np.testing.assert_array_equal(grads.flat, 0.0)


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
    grads = RouterParams(np.zeros_like(params.flat), d, n)
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
    params = RouterParams(0.2 * _random_params(d, n, seed).flat, d, n)
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
    for name in PARAM_FIELDS:
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
    expected = _zero_params(10, 6)
    for forward, dz in zip(forwards, upstream):
        expected.flat += _outer_product_backward(forward, dz).flat
    expected.flat /= batch_size
    _assert_grads_close(batched, expected)


def test_batched_zero_upstream_gives_exact_zeros():
    forwards, upstream = _batch_of_trajectories(5, seed=50)
    rows = [backward_trajectory(f, [np.zeros_like(dz) for dz in per_step])
            for f, per_step in zip(forwards, upstream)]
    grads = reduce_gradients(rows, scale=1.0 / len(rows))
    np.testing.assert_array_equal(grads.flat, 0.0)


def test_bptt_matches_finite_differences():
    # flagship numeric property: 3 steps, gradients through recurrence and
    # aggregation weights both active
    error = gradient_check(5, pool_size=6, embed_dim=16, steps=3)
    assert error <= 1e-5


# --- bitwise references for the zero-state and h0 shortcuts and the sigmoid ---

def _reference_sigmoid(x):
    # The two-branch form, one exponential per branch.
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _reference_gru_forward(x, h_prev, params):
    # The cell with all three recurrent products formed, from the zero
    # state too, and the two-branch sigmoid.
    r = _reference_sigmoid(params.w_r @ x + params.u_r @ h_prev + params.b_r)
    u = _reference_sigmoid(params.w_u @ x + params.u_u @ h_prev + params.b_u)
    rec = params.u_n @ h_prev + params.b_hn
    c = np.tanh(params.w_n @ x + params.b_in + r * rec)
    h = (1.0 - u) * c + u * h_prev
    return r, u, rec, c, h


def _reference_backward_trajectory(forward, per_step_dz):
    # The full BPTT loop, which also forms the first step's dh_prev.
    params, steps = forward.params, forward.steps
    n, d = params.pool_size, params.embed_dim
    t = len(steps)
    rows = router.BackwardRows(
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
        dh = params.w_out.T @ dz + dh_carry
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
            prev = steps[i - 1]
            dx = params.w_n.T @ da_c + params.w_u.T @ da_u + params.w_r.T @ da_r
            dalpha = prev.kept_embeddings @ dx
            dz_from_alpha = np.zeros(n)
            dz_from_alpha[list(prev.selected_ids)] += softmax_vjp(prev.alpha, dalpha)
    return rows


def _field_bytes(value):
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    return value


_BIAS_FIELDS = ("b_r", "b_u", "b_in", "b_hn", "b_out")


@pytest.mark.parametrize("d", [1, 7, 64, 384])
@pytest.mark.parametrize("bias", [None, 0.0, -0.0], ids=["drawn", "+0.0", "-0.0"])
def test_shortcut_forward_and_backward_match_the_full_products_bitwise(
        monkeypatch, d, bias):
    n, steps = 6, 3
    config = _config(n=n, d=d, k=4, steps=steps, seed=d)
    rng = np.random.default_rng(900 + d)
    for _ in range(3):
        params = init_params(config)
        if bias is not None:
            for name in _BIAS_FIELDS:
                getattr(params, name)[...] = bias
        query = rng.normal(size=d)
        responses = rng.normal(size=(steps, n, d))
        upstream = [rng.normal(size=n) for _ in range(steps)]
        fast = forward_trajectory(query, responses, params, config)
        fast_rows = backward_trajectory(fast, upstream)
        with monkeypatch.context() as patch:
            patch.setattr(router, "_gru_forward", _reference_gru_forward)
            slow = forward_trajectory(query, responses, params, config)
        slow_rows = _reference_backward_trajectory(slow, upstream)
        for a, b in zip(fast.steps, slow.steps):
            for name in a.__dataclass_fields__:
                assert _field_bytes(getattr(a, name)) == _field_bytes(getattr(b, name)), name
        for name in fast_rows.__dataclass_fields__:
            assert _field_bytes(getattr(fast_rows, name)) == \
                _field_bytes(getattr(slow_rows, name)), name
        if bias is not None:
            # From the zero state rec is exactly the bias plus +0.0.
            assert fast.steps[0].rec.tobytes() == np.zeros(d).tobytes()


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_recurrent_weight_raises_at_the_first_nonzero_state(
        monkeypatch, bad):
    # Step 1 runs from the zero state without the recurrent products, so a
    # non-finite u_r entry first reaches a gate at step 2. The state after
    # step 1 is (0.5 tanh 1, 0): the bad entry meets its zero, so even inf
    # gives NaN there. The full products raised at step 1.
    params = _zero_params(2, 3)
    params.b_in[:] = [1.0, 0.0]
    params.u_r[0, 1] = bad
    config = _config(n=3, d=2, k=2, steps=2)
    responses = np.zeros((2, 3, 2))
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValueError, match="step 2: reset gate produced non-finite"):
            forward_trajectory(np.zeros(2), responses, params, config)
        monkeypatch.setattr(router, "_gru_forward", _reference_gru_forward)
        with pytest.raises(ValueError, match="step 1: reset gate produced non-finite"):
            forward_trajectory(np.zeros(2), responses, params, config)


def test_sigmoid_matches_the_two_branch_form_bitwise():
    tiny = np.finfo(np.float64).smallest_subnormal
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, np.copysign(np.nan, -1.0),
                        tiny, -tiny, 1e-310, -1e-310, 2.2e-308, -2.2e-308,
                        36.8, -36.8, 709.8, -709.8, 745.2, -745.2, 800.0, -800.0])
    assert sigmoid(special).tobytes() == _reference_sigmoid(special).tobytes()
    assert sigmoid(np.linspace(-800.0, 800.0, 4001)).tobytes() == \
        _reference_sigmoid(np.linspace(-800.0, 800.0, 4001)).tobytes()
    rng = np.random.default_rng(41)
    # Lengths 1-67 cover the SIMD loops' tails.
    for length in range(1, 68):
        for scale in (1e-3, 1.0, 30.0, 800.0):
            x = rng.normal(scale=scale, size=length)
            x[rng.random(length) < 0.05] = np.nan
            assert sigmoid(x).tobytes() == _reference_sigmoid(x).tobytes()
    assert sigmoid(-3.0).tobytes() == _reference_sigmoid(-3.0).tobytes()


@pytest.mark.parametrize("weight, gate", [("w_r", "reset"), ("w_u", "update"),
                                          ("w_n", "candidate")])
def test_route_step_names_the_gate_a_nan_weight_reaches_first(weight, gate):
    params = _zero_params(2, 3)
    getattr(params, weight)[0, 1] = np.nan
    config = _config(n=3, d=2, k=2)
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValueError, match=f"^{gate} gate produced non-finite"):
            route_step(np.ones(2), np.zeros(2), params, config)


def test_route_step_names_the_hidden_state_for_a_non_finite_input_state():
    # Positive recurrent weights send +inf into every gate, where sigmoid
    # and tanh saturate to finite values; only the carried u * h_prev term
    # stays infinite.
    params = _zero_params(2, 3)
    for name in ("u_r", "u_u", "u_n"):
        getattr(params, name)[...] = 1.0
    config = _config(n=3, d=2, k=2)
    with pytest.raises(ValueError, match="^hidden gate produced non-finite"):
        route_step(np.ones(2), np.array([np.inf, 0.0]), params, config)


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
    assert loaded.flat.tobytes() == params.flat.tobytes()
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
        for name in PARAM_FIELDS:
            arr = np.ascontiguousarray(getattr(params, name), dtype="<f8")
            fh.write(arr.tobytes())


def test_snapshot_bytes_match_the_copying_writer(tmp_path):
    config = _config(n=6, d=12, seed=98)
    params = _random_params(12, 6, seed=21)
    save_params(tmp_path / "new.bin", params, config)
    _tobytes_snapshot(tmp_path / "old.bin", params, config)
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


def test_snapshot_rejects_a_short_header(tmp_path):
    config = _config(n=3, d=4)
    path = tmp_path / "p.bin"
    save_params(path, init_params(config), config)
    data = path.read_bytes()
    for cut in (4, 5, 23):
        path.write_bytes(data[:cut])
        with pytest.raises(ValueError, match="truncated snapshot header$"):
            load_params(path)


@pytest.mark.parametrize("d, n, message", [
    (20000, 3, "truncated snapshot at tensor w_r$"),
    (2**32 - 1, 2**32 - 1, "truncated snapshot at tensor w_r$"),
    (3, 3, "trailing bytes"),
])
def test_snapshot_size_fields_are_checked_before_allocating(tmp_path, d, n, message):
    # A d=4, n=3 snapshot whose header claims another shape. Without a
    # config nothing checks the shape first; d=20000 alone would ask for
    # 17.9 GiB.
    config = _config(n=3, d=4)
    path = tmp_path / "p.bin"
    save_params(path, init_params(config), config)
    data = path.read_bytes()
    path.write_bytes(data[:8] + struct.pack("<II", d, n) + data[16:])
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=message):
            load_params(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_flat_round_trip():
    params = _random_params(5, 3, seed=20)
    rebuilt = RouterParams(params.flat.copy(), 5, 3)
    for name in PARAM_FIELDS:
        np.testing.assert_array_equal(getattr(rebuilt, name), getattr(params, name))
    assert np.concatenate([arr.ravel() for arr in params.tensors()]).tobytes() == \
        params.flat.tobytes()
    rebuilt.b_out[1] = 7.0
    assert rebuilt.flat[-2] == 7.0 and params.b_out[1] != 7.0


@pytest.mark.parametrize("name", ["flat", "w_r", "b_out", "embed_dim"])
def test_router_params_attributes_cannot_be_rebound(name):
    # A rebound tensor would silently drop out of snapshots, clipping and
    # AdamW, which all work on the flat vector.
    params = _random_params(4, 3, seed=22)
    before = params.flat.tobytes()
    with pytest.raises(AttributeError, match=f"RouterParams.{name} is set once"):
        setattr(params, name, np.zeros_like(getattr(params, name)))
    assert params.flat.tobytes() == before
    params.w_r += 1.0  # an in-place operator sets the same array back
    assert params.flat[0] == np.frombuffer(before)[0] + 1.0


@pytest.mark.parametrize("flat", [
    pytest.param(np.zeros(126), id="one entry short"),
    pytest.param(np.zeros(128), id="one entry long"),
    pytest.param(np.zeros(127, dtype=np.float32), id="float32"),
    pytest.param(np.zeros(127, dtype=">f8"), id="big-endian"),
    pytest.param(np.zeros((1, 127)), id="2-D"),
    pytest.param(np.zeros(254)[::2], id="strided"),
    pytest.param([0.0] * 127, id="list"),
])
def test_router_params_reject_a_vector_they_cannot_own(flat):
    # d=4, n=3 parameters have 6 * 16 + 4 * 4 + 3 * 4 + 3 = 127 entries.
    with pytest.raises(ValueError, match="C-contiguous 1-D float64 vector of 127 entries"):
        RouterParams(flat, 4, 3)


def test_reduce_gradients_into_a_reused_buffer_equals_a_fresh_reduction():
    forwards, upstream = _batch_of_trajectories(5, seed=60)
    rows = [backward_trajectory(f, dz) for f, dz in zip(forwards, upstream)]
    buffer = reduce_gradients(rows[:2], scale=0.5)
    for batch in (rows[2:], rows[:3]):
        fresh = reduce_gradients(batch, scale=1.0 / len(batch))
        reused = reduce_gradients(batch, scale=1.0 / len(batch), out=buffer)
        assert reused is buffer
        assert reused.flat.tobytes() == fresh.flat.tobytes()


def _random_rows(seed, steps=2, d=5, n=3):
    rng = np.random.default_rng(seed)
    return router.BackwardRows(**{
        name: rng.normal(size=(steps, n if name == "dz" else d))
        for name in router.BackwardRows.__dataclass_fields__})


def test_reduce_gradients_accepts_finite_entries_whose_squares_overflow():
    rows = _random_rows(62)
    rows.dz[:] = 1e200
    rows.h[:] = 1.0
    grads = reduce_gradients([rows])
    np.testing.assert_array_equal(grads.w_out, 2e200)
    np.testing.assert_array_equal(grads.b_out, 2e200)
    with np.errstate(over="ignore"):
        assert np.dot(grads.b_out, grads.b_out) == np.inf


@pytest.mark.parametrize("row, value, name", [
    ("x", np.nan, "w_r"), ("da_u", np.inf, "w_u"), ("h_prev", np.inf, "u_r"),
    ("d_rec", -np.inf, "u_n"), ("dz", np.nan, "w_out"), ("h", 1e200, "w_out")])
def test_reduce_gradients_names_the_tensor_of_a_non_finite_product(row, value, name):
    rows = _random_rows(63)
    getattr(rows, row)[1, 2] = value
    if value == 1e200:
        rows.dz[1] = 1e200  # each product overflows to inf
    # The products themselves may warn; only the check's verdict counts here.
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match=f"non-finite gradient in {name}$"):
        reduce_gradients([rows])


def test_reduce_gradients_can_leave_the_finiteness_check_to_the_caller():
    rows = _random_rows(64)
    rows.dz[0, 1] = np.nan
    with np.errstate(invalid="ignore"):
        grads = reduce_gradients([rows], check_finite=False)
    assert np.isnan(grads.w_out).any()
    with pytest.raises(ValueError, match="non-finite gradient in w_out$"):
        router.gradient_norm(grads)


def test_library_params_are_views_into_one_flat_vector(tmp_path):
    config = _config(n=6, d=12, seed=97)
    params = init_params(config)
    save_params(tmp_path / "p.bin", params, config)
    loaded, _ = load_params(tmp_path / "p.bin", config)
    forwards, upstream = _batch_of_trajectories(2, seed=61, n=6, d=12)
    grads = reduce_gradients([backward_trajectory(f, dz)
                              for f, dz in zip(forwards, upstream)])
    rebuilt = RouterParams(params.flat.copy(), 12, 6)
    stepped = adamw_step(params, grads, OptimizerState(TrainingSettings()))
    for which in (params, loaded, grads, rebuilt, stepped):
        offset = 0
        for arr in which.tensors():
            assert arr.base is which.flat and arr.flags.c_contiguous
            assert np.shares_memory(arr, which.flat[offset: offset + arr.size])
            offset += arr.size
        assert offset == which.flat.size
