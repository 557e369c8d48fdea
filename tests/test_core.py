import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from agentroute.core import (AgentResponse, ConfigError, RouterConfig, StepRecord,
                             STEP_LIMIT, SUMMARIZER, Trajectory, derive_seed, new_trajectory,
                             read_trace, trajectory_from_json, trajectory_to_json,
                             validate_config, write_trace, _float_repr)


def test_validate_config_accepts_paper_defaults():
    config = RouterConfig(pool_size=5, max_route=3, temperature=0.1,
                          embed_dim=384, max_steps=20, seed=7)
    assert validate_config(config) is config


def test_validate_config_accepts_minimal_legal_config():
    config = RouterConfig(pool_size=1, max_route=1, temperature=1.0,
                          embed_dim=1, max_steps=1, train_steps=1, seed=0)
    assert validate_config(config) is config


def test_validate_config_rejects_zero_temperature():
    config = RouterConfig(pool_size=5, max_route=3, temperature=0.0)
    with pytest.raises(ConfigError, match="temperature must be positive"):
        validate_config(config)


@pytest.mark.parametrize("field,value,message", [
    ("pool_size", 0, "pool_size"),
    ("max_route", 0, "max_route"),
    ("embed_dim", 0, "embed_dim"),
    ("max_steps", 0, "max_steps"),
    ("train_steps", 0, "train_steps"),
    ("seed", -1, "seed"),
    ("seed", 2 ** 64, "seed"),
])
def test_validate_config_names_first_violation(field, value, message):
    kwargs = dict(pool_size=5, max_route=3)
    kwargs[field] = value
    with pytest.raises(ConfigError, match=message):
        validate_config(RouterConfig(**kwargs))


def test_derive_seed_is_deterministic_and_label_sensitive():
    assert derive_seed(7, "a") == derive_seed(7, "a")
    assert derive_seed(7, "a") != derive_seed(7, "b")
    assert derive_seed(7, "a") != derive_seed(8, "a")
    assert 0 <= derive_seed(2 ** 63, "x") < 2 ** 64


def test_new_trajectory_starts_empty():
    traj = new_trajectory("2+2?")
    assert traj.steps == []
    assert traj.total_agent_calls == 0
    assert traj.total_tokens == 0
    assert traj.final_answer is None


def test_new_trajectory_rejects_empty_query():
    with pytest.raises(ValueError):
        new_trajectory("")


def _response(agent_id, step, entropy=0.5, tokens=3):
    return AgentResponse(agent_id=agent_id, step_index=step, text=f"resp {agent_id}",
                         token_entropies=(entropy,) * tokens, token_count=tokens,
                         predictive_entropy=entropy)


def _record(step, n=4, k=2, entropy=None):
    z = np.linspace(1.0, 0.1, n) + step
    return StepRecord(step_index=step, logits_z=z, count_probs=np.full(n, 1.0 / n),
                      k=k, selected_ids=tuple(range(k)),
                      alpha=np.full(k, 1.0 / k), context_X=np.arange(n, dtype=float),
                      entropy_E=entropy)


def test_step_record_invariants():
    with pytest.raises(ValueError, match="distinct"):
        StepRecord(step_index=1, logits_z=np.zeros(3), count_probs=np.zeros(3),
                   k=2, selected_ids=(1, 1), alpha=np.array([0.5, 0.5]),
                   context_X=np.zeros(3))
    with pytest.raises(ValueError, match="sum to 1"):
        StepRecord(step_index=1, logits_z=np.zeros(3), count_probs=np.zeros(3),
                   k=2, selected_ids=(0, 1), alpha=np.array([0.6, 0.5]),
                   context_X=np.zeros(3))
    with pytest.raises(ValueError, match="agree"):
        StepRecord(step_index=1, logits_z=np.zeros(3), count_probs=np.zeros(3),
                   k=2, selected_ids=(0, 1, 2), alpha=np.array([0.5, 0.5]),
                   context_X=np.zeros(3))


def test_agent_response_checks_entropy_mean():
    with pytest.raises(ValueError, match="mean token entropy"):
        AgentResponse(agent_id=0, step_index=1, text="x",
                      token_entropies=(0.5, 1.5), token_count=2,
                      predictive_entropy=0.7)
    with pytest.raises(ValueError, match="token_count"):
        AgentResponse(agent_id=0, step_index=1, text="x",
                      token_entropies=(0.5, 1.5), token_count=3,
                      predictive_entropy=1.0)


def test_append_step_enforces_k_bound_and_counts():
    config = RouterConfig(pool_size=4, max_route=2)
    traj = new_trajectory("q")
    traj.append_step(_record(1, k=2), [_response(0, 1), _response(1, 1)], config)
    assert traj.total_agent_calls == 2
    assert traj.total_tokens == 6
    traj.append_step(_record(2, k=1), [_response(2, 2, tokens=5)], config)
    assert traj.total_agent_calls == 3
    assert traj.total_tokens == 11

    bad = _record(3, k=2)
    small = RouterConfig(pool_size=4, max_route=1)
    with pytest.raises(ValueError, match="exceeds"):
        traj.append_step(bad, [], small)
    with pytest.raises(ValueError, match="contiguous"):
        traj.append_step(_record(7, k=1), [], config)


def test_append_step_counts_dense_executions():
    config = RouterConfig(pool_size=4, max_route=2)
    traj = new_trajectory("q")
    executed = [_response(a, 1) for a in range(4)]
    traj.append_step(_record(1, k=2), executed, config)
    assert traj.total_agent_calls == 4


def _full_trajectory():
    config = RouterConfig(pool_size=3, max_route=2)
    traj = new_trajectory("what is 1/3 of 0.1?")
    record1 = StepRecord(step_index=1, logits_z=np.array([0.1, 1 / 3, -2.5]),
                         count_probs=np.array([0.2, 0.5, 0.3]), k=2,
                         selected_ids=(1, 0), alpha=np.array([0.75, 0.25]),
                         context_X=np.array([0.1, -0.7, 1e-9]),
                         entropy_E=np.array([1.0, 0.5, 2.0]))
    traj.append_step(record1, [_response(a, 1, entropy=0.1 * (a + 1)) for a in range(3)],
                     config)
    record2 = StepRecord(step_index=2, logits_z=np.array([7.0, 1e-17, -0.0]),
                         count_probs=np.array([0.9, 0.05, 0.05]), k=1,
                         selected_ids=(0,), alpha=np.array([1.0]),
                         context_X=np.array([0.3, 0.3, 0.4]))
    traj.append_step(record2, [_response(0, 2, entropy=1 / 7, tokens=2)], config)
    traj.final_answer = "0.0333..."
    traj.terminated_by = SUMMARIZER
    return traj


def test_trajectory_json_round_trip_is_byte_identical():
    traj = _full_trajectory()
    line = trajectory_to_json(traj)
    rebuilt = trajectory_from_json(line)
    assert trajectory_to_json(rebuilt) == line
    assert rebuilt.query == traj.query
    assert rebuilt.total_agent_calls == traj.total_agent_calls
    assert rebuilt.total_tokens == traj.total_tokens
    assert rebuilt.terminated_by == traj.terminated_by
    np.testing.assert_array_equal(rebuilt.steps[0].logits_z, traj.steps[0].logits_z)
    np.testing.assert_array_equal(rebuilt.steps[0].entropy_E, traj.steps[0].entropy_E)
    assert rebuilt.steps[1].entropy_E is None
    assert rebuilt.responses[(1, 2)] == traj.responses[(1, 2)]


def test_trace_file_round_trip(tmp_path):
    path = tmp_path / "trace.jsonl"
    trajectories = [_full_trajectory(), _full_trajectory()]
    write_trace(path, trajectories)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    rebuilt = read_trace(path)
    assert [trajectory_to_json(t) for t in rebuilt] == lines


def _broken_trajectory_line(how):
    doc = json.loads(trajectory_to_json(_full_trajectory()))
    if how == "missing key":
        del doc["steps"][1]["entropy_E"]  # a field with a default
    elif how == "unknown key":
        doc["responses"][0]["latency_ms"] = 3.0
    else:
        doc = [doc]
    return json.dumps(doc)


@pytest.mark.parametrize("how", ["missing key", "unknown key", "not an object"])
def test_read_trace_names_the_line_that_is_not_a_trajectory(tmp_path, how):
    path = tmp_path / "trace.jsonl"
    path.write_text(trajectory_to_json(_full_trajectory()) + "\n"
                    + _broken_trajectory_line(how) + "\n")
    with pytest.raises(ValueError, match="line 2: not a trajectory"):
        read_trace(path)


# Finite doubles, weighted toward the edge cases: the smallest subnormal,
# negative zero, the smallest normal and the largest magnitudes.
_EDGE_FLOATS = (5e-324, -5e-324, -0.0, 1e308, -1e308, 2.2250738585072014e-308)
_floats = st.one_of(st.sampled_from(_EDGE_FLOATS),
                    st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _trajectories(draw):
    n = draw(st.integers(1, 4))
    d = draw(st.integers(1, 4))
    vector = st.lists(_floats, min_size=n, max_size=n)
    traj = Trajectory(query=draw(st.text(min_size=1)))
    for step in range(1, draw(st.integers(0, 3)) + 1):
        k = draw(st.integers(1, n))
        weights = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=k, max_size=k)))
        traj.steps.append(StepRecord(
            step_index=step, logits_z=draw(vector), count_probs=draw(vector), k=k,
            selected_ids=tuple(draw(st.permutations(range(n)))[:k]),
            alpha=weights / weights.sum(),
            context_X=draw(st.lists(_floats, min_size=d, max_size=d)),
            entropy_E=draw(st.none() | vector)))
        for agent in draw(st.sets(st.integers(0, n - 1))):
            # Bounded so the mean of up to five entropies stays finite.
            entropies = draw(st.lists(st.floats(0.0, 1e307), max_size=5))
            traj.responses[(step, agent)] = AgentResponse(
                agent_id=agent, step_index=step, text=draw(st.text()),
                token_entropies=tuple(entropies),
                token_count=len(entropies) or draw(st.integers(1, 2 ** 40)),
                predictive_entropy=(sum(entropies) / len(entropies) if entropies
                                    else draw(st.none() | st.floats(0.0, 1e308))))
    traj.final_answer = draw(st.none() | st.text())
    traj.terminated_by = draw(st.none() | st.sampled_from([SUMMARIZER, STEP_LIMIT]))
    traj.total_agent_calls = draw(st.integers(0, 2 ** 40))
    traj.total_tokens = draw(st.integers(0, 2 ** 62))
    return traj


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_trajectories())
def test_trace_bytes_round_trip_for_random_trajectories(traj):
    line = trajectory_to_json(traj)
    assert trajectory_to_json(trajectory_from_json(line)) == line


def test_float_rendering_keeps_doubles_exact():
    for value in (0.1, 1 / 3, 1.0, -0.0, 1e-300, 12345.678901234567, 2 ** -52):
        assert float(_float_repr(value)) == value
    # whole floats keep a decimal marker so they parse back as floats
    assert _float_repr(1.0) == "1.0"
    assert "." in _float_repr(-4.0) or "e" in _float_repr(-4.0)
