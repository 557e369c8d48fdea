import math
from dataclasses import dataclass

import numpy as np
import pytest

from agentroute import learning
from agentroute.core import RouterConfig
from agentroute.learning import (AdamWHyper, adamw_step, clip_gradients,
                                 confidence, get_loss, init_optimizer,
                                 listmle_loss, listmle_loss_grad, mse_loss,
                                 mse_loss_grad, predictive_entropy, ranking_loss,
                                 ranking_loss_grad, total_loss, triplet_loss,
                                 triplet_loss_grad)
from agentroute.numerics import global_norm
from agentroute.router import flat_to_params, init_params, params_to_flat


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

@dataclass
class Toy:
    a: np.ndarray
    b: np.ndarray


def test_clip_under_threshold_is_identity():
    grads = Toy(a=np.array([0.3, 0.4]), b=np.array([0.0]))
    out = clip_gradients(grads, 1.0)
    assert out is grads


def test_clip_scales_single_entry():
    grads = Toy(a=np.array([2.0, 0.0]), b=np.zeros(3))
    out = clip_gradients(grads, 1.0)
    np.testing.assert_allclose(out.a, [1.0, 0.0])


def test_clip_norm_equals_min_of_norm_and_budget():
    rng = np.random.default_rng(23)
    for _ in range(50):
        grads = Toy(a=rng.normal(size=4), b=rng.normal(size=3))
        before = math.sqrt(float(np.sum(grads.a ** 2) + np.sum(grads.b ** 2)))
        out = clip_gradients(grads, 1.0)
        after = math.sqrt(float(np.sum(out.a ** 2) + np.sum(out.b ** 2)))
        assert abs(after - min(before, 1.0)) <= 1e-12
        assert np.all(np.abs(out.a) <= np.abs(grads.a) + 1e-15)
        assert np.all(np.abs(out.b) <= np.abs(grads.b) + 1e-15)


def test_global_norm_matches_fsum_reference():
    rng = np.random.default_rng(31)
    for rows, cols in ((3, 2), (40, 30), (300, 200)):
        grads = Toy(a=rng.normal(size=(2 * rows, 3 * cols))[::2, 1::3],
                    b=rng.normal(size=(cols, rows)).T)
        assert not grads.a.flags.contiguous and not grads.b.flags.c_contiguous
        squares = [x * x for arr in (grads.a, grads.b) for x in arr.ravel().tolist()]
        reference = math.sqrt(math.fsum(squares))
        assert abs(global_norm(grads) - reference) <= 1e-12 * reference


# --- AdamW ---

@dataclass
class Scalar:
    w: np.ndarray


def test_adamw_zero_grads_zero_decay_is_fixed_point():
    params = Scalar(w=np.array([1.5]))
    state = init_optimizer(params, AdamWHyper(weight_decay=0.0))
    out = adamw_step(params, Scalar(w=np.zeros(1)), state)
    np.testing.assert_array_equal(out.w, params.w)
    np.testing.assert_array_equal(state.first_moment.w, 0.0)
    np.testing.assert_array_equal(state.second_moment.w, 0.0)
    assert state.step_count == 1


def test_adamw_matches_scripted_recurrences():
    # frozen from a throwaway script evaluating the update equations on one
    # scalar (theta0=0.5, grad 1.0, defaults)
    params = Scalar(w=np.array([0.5]))
    state = init_optimizer(params, AdamWHyper())
    step1 = adamw_step(params, Scalar(w=np.array([1.0])), state)
    assert abs(step1.w[0] - 0.49899500001) <= 1e-15
    step2 = adamw_step(step1, Scalar(w=np.array([1.0])), state)
    assert abs(step2.w[0] - 0.49799001006999993) <= 1e-15
    assert abs(state.first_moment.w[0] - 0.18999999999999995) <= 1e-16
    assert abs(state.second_moment.w[0] - 0.0019990000000000016) <= 1e-18


def test_adamw_first_step_without_decay_is_almost_lr():
    params = Scalar(w=np.array([0.0]))
    state = init_optimizer(params, AdamWHyper(weight_decay=0.0))
    out = adamw_step(params, Scalar(w=np.array([1.0])), state)
    assert abs(out.w[0] - (-0.0009999999900000003)) <= 1e-18


def test_adamw_is_deterministic():
    def run():
        params = Scalar(w=np.array([0.3, -0.2]))
        state = init_optimizer(params, AdamWHyper())
        for _ in range(5):
            params = adamw_step(params, Scalar(w=np.array([0.5, -1.0])), state)
        return params.w
    np.testing.assert_array_equal(run(), run())


def test_adamw_rejects_non_finite_grads():
    params = Scalar(w=np.array([0.5]))
    state = init_optimizer(params, AdamWHyper())
    with pytest.raises(ValueError, match="w"):
        adamw_step(params, Scalar(w=np.array([np.inf])), state)


@dataclass
class Tensors:
    w: np.ndarray
    b: np.ndarray
    s: np.ndarray


def _reference_adamw(params, grads, moments, t, hyper):
    """Reference AdamW: a fresh temporary for every intermediate."""
    first, second = moments
    bias1 = 1.0 - hyper.beta1 ** t
    bias2 = 1.0 - hyper.beta2 ** t
    updated = {}
    for name in params.__dataclass_fields__:
        p, g = getattr(params, name), getattr(grads, name)
        m, v = getattr(first, name), getattr(second, name)
        m *= hyper.beta1
        m += (1.0 - hyper.beta1) * g
        v *= hyper.beta2
        v += (1.0 - hyper.beta2) * np.square(g)
        m_hat = m / bias1
        v_hat = v / bias2
        updated[name] = p - hyper.lr * (m_hat / (np.sqrt(v_hat) + hyper.epsilon)
                                        + hyper.weight_decay * p)
    return type(params)(**updated)


@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
def test_adamw_is_bit_identical_to_the_reference(weight_decay):
    rng = np.random.default_rng(17)

    def draw(shape):
        # signed magnitudes spread log-uniformly over 1e-8 .. 1e2
        sign = rng.choice([-1.0, 1.0], size=shape)
        return sign * 10.0 ** rng.uniform(-8.0, 2.0, size=shape)

    shapes = {"w": (7, 5), "b": (5,), "s": (1,)}
    params = Tensors(**{name: rng.normal(size=shape) for name, shape in shapes.items()})
    hyper = AdamWHyper(lr=1e-2, weight_decay=weight_decay)
    state = init_optimizer(params, hyper)
    ref_params = params
    ref_moments = tuple(Tensors(**{name: np.zeros(shape) for name, shape in shapes.items()})
                        for _ in range(2))
    for t in range(1, 7):
        grads = Tensors(**{name: draw(shape) for name, shape in shapes.items()})
        params = adamw_step(params, grads, state)
        ref_params = _reference_adamw(ref_params, grads, ref_moments, t, hyper)
        for name in shapes:
            assert getattr(params, name).tobytes() == getattr(ref_params, name).tobytes()
            assert getattr(state.first_moment, name).tobytes() == \
                getattr(ref_moments[0], name).tobytes()
            assert getattr(state.second_moment, name).tobytes() == \
                getattr(ref_moments[1], name).tobytes()
    assert state.step_count == 6


def test_adamw_creates_moments_on_first_step():
    params = Scalar(w=np.array([0.5, -0.5]))
    state = init_optimizer(params, AdamWHyper())
    assert state.first_moment is None and state.second_moment is None
    adamw_step(params, Scalar(w=np.array([1.0, 2.0])), state)
    assert state.first_moment.w.shape == (2,)
    # the update leaves the caller's parameters alone
    np.testing.assert_array_equal(params.w, [0.5, -0.5])


def _router_params_and_grads(seed, d=4, n=3):
    config = RouterConfig(pool_size=n, max_route=2, embed_dim=d, seed=seed)
    params = init_params(config)
    rng = np.random.default_rng(seed)
    size = params_to_flat(params).size
    # signed magnitudes spread log-uniformly over 1e-8 .. 1e2
    grads = [flat_to_params(rng.choice([-1.0, 1.0], size=size)
                            * 10.0 ** rng.uniform(-8.0, 2.0, size=size), params)
             for _ in range(6)]
    return params, grads


@pytest.mark.parametrize("chunk", [5, 7, 64, 32768])
def test_adamw_on_flat_params_is_bit_identical_to_the_reference(chunk, monkeypatch):
    # Chunks of 5 and 7 elements split the weight tensors, and chunk
    # boundaries fall inside tensors as well as between them.
    monkeypatch.setattr(learning, "ADAMW_CHUNK", chunk)
    params, grad_steps = _router_params_and_grads(seed=19)
    hyper = AdamWHyper(lr=1e-2)
    state = init_optimizer(params, hyper)
    ref_params = params
    ref_moments = tuple(flat_to_params(np.zeros_like(params_to_flat(params)), params)
                        for _ in range(2))
    for t, grads in enumerate(grad_steps, start=1):
        params = adamw_step(params, grads, state)
        ref_params = _reference_adamw(ref_params, grads, ref_moments, t, hyper)
        assert params_to_flat(params).tobytes() == params_to_flat(ref_params).tobytes()
        for moment, ref in zip((state.first_moment, state.second_moment), ref_moments):
            assert params_to_flat(moment).tobytes() == params_to_flat(ref).tobytes()


@pytest.mark.parametrize("name,index", [("b_hn", 1), ("w_r", 0), ("b_out", 2)])
def test_adamw_names_the_tensor_of_a_non_finite_update(name, index, monkeypatch):
    # With 7-element chunks the bad b_hn entry (flat index 109) shares its
    # chunk with the end of b_in; a NaN in a later tensor must not be named.
    monkeypatch.setattr(learning, "ADAMW_CHUNK", 7)
    params, (grads, *_) = _router_params_and_grads(seed=23)
    getattr(grads, name)[index] = np.inf
    if name != "b_out":
        grads.b_out[0] = np.nan
    state = init_optimizer(params, AdamWHyper())
    with pytest.raises(ValueError, match=f"non-finite optimizer update for {name}$"):
        adamw_step(params, grads, state)
