import math
import tracemalloc

import numpy as np
import pytest

from agentroute import learning, router
from agentroute.core import ConfigError, RouterConfig
from agentroute.learning import (OptimizerState, TrainingSettings, adamw_step,
                                 clip_gradients, confidence, get_loss,
                                 listmle_loss, listmle_loss_grad, mse_loss,
                                 mse_loss_grad, predictive_entropy, ranking_loss,
                                 ranking_loss_grad, total_loss, triplet_loss,
                                 triplet_loss_grad)
from agentroute.numerics import global_norm
from agentroute.router import PARAM_FIELDS, RouterParams, init_params


# --- predictive entropy ---

def test_point_mass_tokens_have_zero_entropy():
    dists = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0])]
    assert predictive_entropy(dists) == 0.0


def test_uniform_tokens_hit_log_vocab():
    dists = [np.full(4, 0.25)] * 3
    assert abs(predictive_entropy(dists) - math.log(4)) <= 1e-12


def test_predictive_entropy_matches_hand_summation():
    rng = np.random.default_rng(3)
    dists = []
    for _ in range(7):
        raw = rng.uniform(0.05, 1.0, size=5)
        dists.append(raw / raw.sum())
    # oracle: direct double summation
    expected = 0.0
    for dist in dists:
        for p in dist:
            if p > 0:
                expected -= p * math.log(p)
    expected /= len(dists)
    assert abs(predictive_entropy(dists) - expected) <= 1e-12


def test_predictive_entropy_rejects_empty_and_invalid():
    with pytest.raises(ValueError, match="at least one"):
        predictive_entropy([])
    with pytest.raises(ValueError, match="sums to"):
        predictive_entropy([np.array([0.5, 0.4])])
    with pytest.raises(ValueError, match="negative"):
        predictive_entropy([np.array([1.5, -0.5])])


# --- confidence ---

def test_confidence_of_equal_entropies_is_uniform():
    np.testing.assert_allclose(confidence(np.ones(3)), np.full(3, 1 / 3), atol=1e-15)


def test_confidence_closed_form_logistic():
    expected_hi = 1.0 / (1.0 + math.exp(-1.0))
    c = confidence(np.array([0.0, 1.0]))
    np.testing.assert_allclose(c, [expected_hi, 1.0 - expected_hi], atol=1e-15)


def test_confidence_is_shift_invariant():
    rng = np.random.default_rng(5)
    e = rng.uniform(0, 3, size=6)
    np.testing.assert_allclose(confidence(e), confidence(e + 11.5), atol=1e-12)


def test_confidence_strictly_reverses_entropy_order():
    rng = np.random.default_rng(31)
    for _ in range(1000):
        e = rng.uniform(0, 3, size=6)
        c = confidence(e)
        for a in range(6):
            for b in range(6):
                if e[a] < e[b]:
                    assert c[a] > c[b]


# --- ranking loss ---

def test_ranking_loss_zero_margin_pairs():
    probs = np.full(3, 1 / 3)
    conf = np.array([0.5, 0.3, 0.2])
    assert abs(ranking_loss(probs, conf) - 3 * math.log(2)) <= 1e-12


def test_ranking_loss_all_ties_is_zero():
    probs = np.array([0.7, 0.2, 0.1])
    conf = np.full(3, 1 / 3)
    assert ranking_loss(probs, conf) == 0.0


def test_ranking_loss_matches_pair_enumeration():
    rng = np.random.default_rng(9)
    for _ in range(20):
        raw = rng.uniform(0.1, 1.0, size=6)
        probs = raw / raw.sum()
        conf = confidence(rng.uniform(0, 3, size=6))
        expected = 0.0
        for a in range(6):
            for b in range(6):
                if conf[a] > conf[b]:
                    expected += math.log(1.0 + math.exp(-(probs[a] - probs[b])))
        assert abs(ranking_loss(probs, conf) - expected) <= 1e-12


def test_ranking_pair_contributions_bracket_log2():
    # correctly ordered pair contributes < ln 2, misordered > ln 2
    conf = np.array([0.6, 0.4])
    assert ranking_loss(np.array([0.7, 0.3]), conf) < math.log(2)
    assert ranking_loss(np.array([0.3, 0.7]), conf) > math.log(2)


def test_ranking_loss_monotone_in_pair_margin():
    conf = np.array([0.6, 0.4])
    losses = [ranking_loss(np.array([0.5 + m, 0.5 - m]), conf)
              for m in (0.0, 0.1, 0.2, 0.3)]
    assert all(a > b for a, b in zip(losses, losses[1:]))


def test_ranking_loss_rejects_length_mismatch():
    with pytest.raises(ValueError):
        ranking_loss(np.zeros(3), np.zeros(4))


# --- ablation alternates ---

def test_mse_perfect_match_is_zero():
    z = np.array([0.5, 0.3, 0.2])
    assert mse_loss(z, z) == 0.0


def test_listmle_two_items_uniform_scores():
    probs = np.array([0.5, 0.5])
    conf = np.array([0.7, 0.3])
    assert abs(listmle_loss(probs, conf) - math.log(2)) <= 1e-12


def test_triplet_all_ties_is_zero():
    probs = np.array([0.9, 0.05, 0.05])
    conf = np.full(3, 1 / 3)
    assert triplet_loss(probs, conf) == 0.0


def test_get_loss_registry():
    for kind in ("ranking", "mse", "listmle", "triplet"):
        loss_fn, grad_fn = get_loss(kind)
        value = loss_fn(np.array([0.6, 0.4]), np.array([0.3, 0.7]))
        assert np.isfinite(value)
        assert grad_fn(np.array([0.6, 0.4]), np.array([0.3, 0.7])).shape == (2,)
    with pytest.raises(ValueError, match="unknown loss"):
        get_loss("hinge")


def _fd_grad(loss_fn, probs, conf, step=1e-7):
    grad = np.zeros_like(probs)
    for i in range(probs.size):
        bumped = probs.copy()
        bumped[i] += step
        plus = loss_fn(bumped, conf)
        bumped[i] -= 2 * step
        minus = loss_fn(bumped, conf)
        grad[i] = (plus - minus) / (2 * step)
    return grad


@pytest.mark.parametrize("loss_fn,grad_fn", [
    (ranking_loss, ranking_loss_grad),
    (mse_loss, mse_loss_grad),
    (listmle_loss, listmle_loss_grad),
    (triplet_loss, triplet_loss_grad),
])
def test_loss_gradients_match_finite_differences(loss_fn, grad_fn):
    rng = np.random.default_rng(13)
    for _ in range(10):
        raw = rng.uniform(0.1, 1.0, size=5)
        probs = raw / raw.sum()
        conf = confidence(rng.uniform(0, 3, size=5))
        analytic = grad_fn(probs, conf)
        numeric = _fd_grad(loss_fn, probs, conf)
        scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1.0)
        assert np.abs(analytic - numeric).max() / scale <= 1e-6


# --- total loss ---

def test_total_loss_examples():
    assert total_loss([2.0]) == 2.0
    assert total_loss([1.0, 3.0]) == 2.0
    rng = np.random.default_rng(21)
    losses = rng.uniform(0, 5, size=20)
    assert abs(total_loss(losses) - losses.sum() / 20) <= 1e-15
    with pytest.raises(ValueError):
        total_loss([])


# --- gradient clipping ---

def _filled(value, d=1, n=1):
    """Router parameters (12 entries at d = n = 1) all set to `value`."""
    return RouterParams(np.full(router._param_count(d, n), value), d, n)


def test_clip_under_threshold_is_identity():
    grads = _filled(0.0)
    grads.w_r[0, 0], grads.w_u[0, 0] = 0.3, 0.4
    before = grads.flat.tobytes()
    out = clip_gradients(grads, 1.0)
    assert out is grads
    assert grads.flat.tobytes() == before


def test_clip_scales_single_entry():
    grads = _filled(0.0)
    grads.w_r[0, 0] = 2.0
    out = clip_gradients(grads, 1.0)
    np.testing.assert_allclose(out.flat, [1.0] + [0.0] * 11)


def test_clip_norm_equals_min_of_norm_and_budget():
    rng = np.random.default_rng(23)
    for _ in range(50):
        # norms spread around the budget, so both branches run
        grads = RouterParams(rng.normal(scale=0.3, size=12), 1, 1)
        before = grads.flat.copy()
        out = clip_gradients(grads, 1.0)
        after = math.sqrt(float(np.sum(out.flat ** 2)))
        assert abs(after - min(math.sqrt(float(np.sum(before ** 2))), 1.0)) <= 1e-12
        assert np.all(np.abs(out.flat) <= np.abs(before))


def test_clip_scales_a_finite_gradient_whose_squares_overflow():
    # The squared norm of [1e200, 1] overflows, but the gradient is finite:
    # it must come out scaled to the clip norm, not zeroed, and without an
    # overflow warning.
    grads = _filled(0.0)
    grads.w_r[0, 0], grads.w_u[0, 0], grads.b_out[0] = 1e200, 1.0, -1e199
    norm = global_norm(grads.tensors())
    assert norm == pytest.approx(math.hypot(1e200, 1e199), rel=1e-15)
    out = clip_gradients(grads, 1.0)
    assert out.w_r[0, 0] == pytest.approx(1e200 / norm, rel=1e-15)
    assert out.b_out[0] == pytest.approx(-1e199 / norm, rel=1e-15)
    assert global_norm(out.tensors()) == pytest.approx(1.0, rel=1e-15)
    # pool_size 0 leaves the head's tensors empty
    one = RouterParams(np.zeros(10), 1, 0)
    one.w_r[0, 0], one.w_u[0, 0] = 1e200, 1.0
    assert clip_gradients(one, 1.0).flat[:2].tolist() == [1.0, 1e-200]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_clip_names_the_tensor_of_a_non_finite_gradient(value):
    grads = _filled(0.5)
    grads.u_n[0, 0] = value
    grads.b_out[0] = value
    with pytest.raises(ValueError, match="^non-finite gradient in u_n$"):
        clip_gradients(grads, 1.0)


def test_global_norm_of_non_finite_entries_stays_non_finite():
    assert global_norm([np.array([np.inf, 1e200]), np.ones(2)]) == math.inf
    assert math.isnan(global_norm([np.array([np.nan, 1e200]), np.ones(2)]))


def test_global_norm_matches_fsum_reference():
    rng = np.random.default_rng(31)
    for rows, cols in ((3, 2), (40, 30), (300, 200)):
        arrays = [rng.normal(size=(2 * rows, 3 * cols))[::2, 1::3],
                  rng.normal(size=(cols, rows)).T]
        assert not arrays[0].flags.contiguous and not arrays[1].flags.c_contiguous
        squares = [x * x for arr in arrays for x in arr.ravel().tolist()]
        reference = math.sqrt(math.fsum(squares))
        assert abs(global_norm(arrays) - reference) <= 1e-12 * reference


def test_global_norm_sums_one_dot_per_tensor_in_field_order():
    # The clip scale, and with it every training snapshot, depends on this
    # order: one dot over the whole flat vector rounds differently.
    rng = np.random.default_rng(37)
    flat_differs = 0
    for _ in range(20):
        grads = RouterParams(rng.normal(size=router._param_count(16, 4)), 16, 4)
        total = 0.0
        for arr in grads.tensors():
            total += float(np.dot(arr.ravel(), arr.ravel()))
        assert global_norm(grads.tensors()) == math.sqrt(total)
        flat_differs += float(np.dot(grads.flat, grads.flat)) != total
    assert flat_differs


# --- training settings ---

# A bool or a non-number in a float field raises ConfigError too, not
# TypeError, and True is not read as 1.0.
NOT_NUMBERS = [True, False, "x", "0.5", None]
BAD_SETTINGS = {
    "lr": [0.0, -1e-3, math.inf, math.nan] + NOT_NUMBERS,
    "beta1": [-0.1, 1.0, math.inf, math.nan] + NOT_NUMBERS,
    "beta2": [-0.1, 1.0, 2.0, math.nan] + NOT_NUMBERS,
    "epsilon": [0.0, -1e-8, math.inf, math.nan] + NOT_NUMBERS,
    "weight_decay": [-0.01, math.inf, math.nan] + NOT_NUMBERS,
    "triplet_margin": [-0.1, math.inf, math.nan] + NOT_NUMBERS,
    "clip_norm": [0.0, -1.0, math.inf, math.nan] + NOT_NUMBERS,
    "batch_size": [0, -1, 2.5, 8.0, True, "8", None],
    "epochs": [0, -1, 1.5, 3.0, True, False, "3"],
    "loss_kind": ["hinge", ""],
}


@pytest.mark.parametrize("field", list(BAD_SETTINGS))
def test_training_settings_reject_each_out_of_range_value(field):
    for value in BAD_SETTINGS[field]:
        with pytest.raises(ConfigError, match=f"^{field} must be "):
            TrainingSettings(**{field: value})


def test_training_settings_accept_the_edges_of_their_ranges():
    TrainingSettings(beta1=0.0, beta2=0.0, weight_decay=0.0, triplet_margin=0.0,
                     batch_size=1, epochs=1, lr=1e300, clip_norm=1e-300)
    for kind in learning.LOSS_KINDS:
        assert TrainingSettings(loss_kind=kind).loss_kind == kind


# --- AdamW ---

def test_adamw_zero_grads_zero_decay_is_fixed_point():
    params = _filled(1.5)
    state = OptimizerState(TrainingSettings(weight_decay=0.0))
    out = adamw_step(params, _filled(0.0), state)
    np.testing.assert_array_equal(out.flat, params.flat)
    np.testing.assert_array_equal(state.moments[0], 0.0)
    np.testing.assert_array_equal(state.moments[1], 0.0)
    assert state.step_count == 1


def test_adamw_matches_scripted_recurrences():
    # frozen from a throwaway script evaluating the update equations on one
    # scalar (theta0=0.5, grad 1.0, defaults); every entry follows it
    params = _filled(0.5)
    state = OptimizerState(TrainingSettings())
    step1 = adamw_step(params, _filled(1.0), state)
    assert np.all(np.abs(step1.flat - 0.49899500001) <= 1e-15)
    step2 = adamw_step(step1, _filled(1.0), state)
    assert np.all(np.abs(step2.flat - 0.49799001006999993) <= 1e-15)
    assert np.all(np.abs(state.moments[0] - 0.18999999999999995) <= 1e-16)
    assert np.all(np.abs(state.moments[1] - 0.0019990000000000016) <= 1e-18)


def test_adamw_first_step_without_decay_is_almost_lr():
    params = _filled(0.0)
    state = OptimizerState(TrainingSettings(weight_decay=0.0))
    out = adamw_step(params, _filled(1.0), state)
    assert np.all(np.abs(out.flat - (-0.0009999999900000003)) <= 1e-18)


def test_adamw_is_deterministic():
    def run():
        params = RouterParams(np.tile([0.3, -0.2], 6), 1, 1)
        state = OptimizerState(TrainingSettings())
        for _ in range(5):
            params = adamw_step(params, RouterParams(np.tile([0.5, -1.0], 6), 1, 1),
                                state)
        return params.flat
    np.testing.assert_array_equal(run(), run())


def test_adamw_rejects_non_finite_grads():
    params = _filled(0.5)
    grads = _filled(0.0)
    grads.w_r[0, 0] = np.inf
    state = OptimizerState(TrainingSettings())
    with pytest.raises(ValueError, match="w_r$"):
        adamw_step(params, grads, state)


def _reference_adamw(params, grads, moments, t, hyper):
    """Reference AdamW: a fresh temporary for every intermediate."""
    first, second = moments
    bias1 = 1.0 - hyper.beta1 ** t
    bias2 = 1.0 - hyper.beta2 ** t
    updated = RouterParams(np.empty_like(params.flat), params.embed_dim,
                           params.pool_size)
    for name in PARAM_FIELDS:
        p, g = getattr(params, name), getattr(grads, name)
        m, v = getattr(first, name), getattr(second, name)
        m *= hyper.beta1
        m += (1.0 - hyper.beta1) * g
        v *= hyper.beta2
        v += (1.0 - hyper.beta2) * np.square(g)
        m_hat = m / bias1
        v_hat = v / bias2
        getattr(updated, name)[...] = p - hyper.lr * (
            m_hat / (np.sqrt(v_hat) + hyper.epsilon) + hyper.weight_decay * p)
    return updated


@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
def test_adamw_is_bit_identical_to_the_reference(weight_decay):
    rng = np.random.default_rng(17)
    size = router._param_count(3, 2)

    def draw():
        # signed magnitudes spread log-uniformly over 1e-8 .. 1e2
        sign = rng.choice([-1.0, 1.0], size=size)
        return RouterParams(sign * 10.0 ** rng.uniform(-8.0, 2.0, size=size), 3, 2)

    params = RouterParams(rng.normal(size=size), 3, 2)
    hyper = TrainingSettings(lr=1e-2, weight_decay=weight_decay)
    state = OptimizerState(hyper)
    ref_params = params
    ref_moments = tuple(RouterParams(np.zeros(size), 3, 2) for _ in range(2))
    for t in range(1, 7):
        grads = draw()
        params = adamw_step(params, grads, state)
        ref_params = _reference_adamw(ref_params, grads, ref_moments, t, hyper)
        assert params.flat.tobytes() == ref_params.flat.tobytes()
        for row, ref in zip(state.moments, ref_moments):
            assert row.tobytes() == ref.flat.tobytes()
    assert state.step_count == 6


def test_adamw_creates_moments_on_first_step():
    params = RouterParams(np.tile([0.5, -0.5], 6), 1, 1)
    state = OptimizerState(TrainingSettings())
    assert state.moments is None
    adamw_step(params, RouterParams(np.tile([1.0, 2.0], 6), 1, 1), state)
    assert state.moments.shape == (2, 12)
    # the update leaves the caller's parameters alone
    np.testing.assert_array_equal(params.flat, np.tile([0.5, -0.5], 6))


def _router_params_and_grads(seed, d=4, n=3):
    config = RouterConfig(pool_size=n, max_route=2, embed_dim=d, seed=seed)
    params = init_params(config)
    rng = np.random.default_rng(seed)
    size = params.flat.size
    # signed magnitudes spread log-uniformly over 1e-8 .. 1e2
    grads = [RouterParams(rng.choice([-1.0, 1.0], size=size)
                          * 10.0 ** rng.uniform(-8.0, 2.0, size=size), d, n)
             for _ in range(6)]
    return params, grads


def test_adamw_updates_its_own_vector_in_place_after_the_first_step():
    params, grad_steps = _router_params_and_grads(seed=29, d=64, n=8)
    before = params.flat.tobytes()
    state = OptimizerState(TrainingSettings())
    first = adamw_step(params, grad_steps[0], state)
    assert first is state.params
    assert not np.shares_memory(first.flat, params.flat)
    tracemalloc.start()
    try:
        second = adamw_step(first, grad_steps[1], state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert second is first
    # No block as large as the parameter vector was allocated on the way.
    assert peak < first.flat.nbytes
    assert params.flat.tobytes() == before


def test_adamw_given_other_params_leaves_the_previous_result_intact():
    params, grad_steps = _router_params_and_grads(seed=31)
    state = OptimizerState(TrainingSettings())
    first = adamw_step(params, grad_steps[0], state)
    kept = first.flat.tobytes()
    again = adamw_step(params, grad_steps[1], state)
    assert not np.shares_memory(again.flat, first.flat)
    assert first.flat.tobytes() == kept
    assert again is state.params


@pytest.mark.parametrize("chunk", [5, 7, 64, 32768])
def test_adamw_on_flat_params_is_bit_identical_to_the_reference(chunk, monkeypatch):
    # Chunks of 5 and 7 elements split the weight tensors, and chunk
    # boundaries fall inside tensors as well as between them.
    monkeypatch.setattr(learning, "ADAMW_CHUNK", chunk)
    params, grad_steps = _router_params_and_grads(seed=19)
    hyper = TrainingSettings(lr=1e-2)
    state = OptimizerState(hyper)
    ref_params = params
    ref_moments = tuple(RouterParams(np.zeros_like(params.flat), 4, 3)
                        for _ in range(2))
    for t, grads in enumerate(grad_steps, start=1):
        params = adamw_step(params, grads, state)
        ref_params = _reference_adamw(ref_params, grads, ref_moments, t, hyper)
        assert params.flat.tobytes() == ref_params.flat.tobytes()
        for row, ref in zip(state.moments, ref_moments):
            assert row.tobytes() == ref.flat.tobytes()


@pytest.mark.parametrize("name,index", [("b_hn", 1), ("w_r", 0), ("b_out", 2)])
def test_adamw_names_the_tensor_of_a_non_finite_update(name, index, monkeypatch):
    # With 7-element chunks the bad b_hn entry (flat index 109) shares its
    # chunk with the end of b_in; a NaN in a later tensor must not be named.
    monkeypatch.setattr(learning, "ADAMW_CHUNK", 7)
    params, (grads, *_) = _router_params_and_grads(seed=23)
    getattr(grads, name)[index] = np.inf
    if name != "b_out":
        grads.b_out[0] = np.nan
    state = OptimizerState(TrainingSettings())
    with pytest.raises(ValueError, match=f"non-finite optimizer update for {name}$"):
        adamw_step(params, grads, state)
