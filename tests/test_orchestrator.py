import math
from dataclasses import replace

import numpy as np
import pytest

from agentroute import orchestrator
from agentroute.agents import MockPoolBackend, MockProfile, MockSummarizer, \
    TransportError
from agentroute.core import AgentSpec, ConfigError, RouterConfig, STEP_LIMIT, \
    SUMMARIZER, trajectory_to_json
from agentroute.embed import HashEmbedder, RemoteEmbedError
from agentroute.numerics import global_norm
from agentroute.orchestrator import (OrchestrationError, Runtime,
                                     TrainingSettings, infer, test_time_train,
                                     train)
from agentroute.router import init_params
from agentroute.synthetic import expected_entropies, make_queries, make_tagged_pool, \
    query_tag


def _runtime(pool_size=4, *, final_at_step=0, skill=None, max_workers=1,
             experts=None, tags=("alpha",)):
    if experts is not None:
        specs, profiles = make_tagged_pool(pool_size, experts)
    else:
        specs = [AgentSpec(agent_id=a, model_ref="mock",
                           profile_text=f"You are agent {a}.")
                 for a in range(pool_size)]
        skill = skill or {"default": (1.0, 0.0)}
        profiles = [MockProfile(agent_id=a, skill_map=dict(skill))
                    for a in range(pool_size)]
    return Runtime(pool=MockPoolBackend(specs, profiles),
                   summarizer=MockSummarizer(final_at_step=final_at_step),
                   embed=HashEmbedder(16),
                   max_workers=max_workers)


def _config(pool_size=4, max_route=2, *, max_steps=4, train_steps=2, seed=3,
            embed_dim=16):
    return RouterConfig(pool_size=pool_size, max_route=max_route, temperature=0.1,
                        embed_dim=embed_dim, max_steps=max_steps,
                        train_steps=train_steps, seed=seed)


# --- inference ---

def test_infer_stops_when_summarizer_says_final():
    runtime = _runtime(final_at_step=2)
    config = _config()
    traj = infer(runtime, "[tag:x] question", init_params(config), config)
    assert len(traj.steps) == 2
    assert traj.terminated_by == SUMMARIZER
    assert traj.final_answer


def test_infer_step_limit_backstop():
    runtime = _runtime(final_at_step=0)
    config = _config(max_steps=4)
    traj = infer(runtime, "[tag:x] question", init_params(config), config)
    assert len(traj.steps) == 4
    assert traj.terminated_by == STEP_LIMIT
    assert traj.final_answer


def test_infer_executes_only_selected_agents():
    runtime = _runtime()
    config = _config()
    traj = infer(runtime, "[tag:x] q", init_params(config), config)
    expected_keys = {(rec.step_index, aid)
                     for rec in traj.steps for aid in rec.selected_ids}
    assert set(traj.responses) == expected_keys
    assert traj.total_agent_calls == sum(rec.k for rec in traj.steps)


def test_infer_sparse_call_budget_under_dense():
    rng = np.random.default_rng(0)
    for run in range(10):
        n = int(rng.integers(3, 9))
        k = int(rng.integers(1, n))  # K < N
        config = _config(pool_size=n, max_route=k, max_steps=3,
                         seed=int(rng.integers(1 << 30)))
        runtime = _runtime(pool_size=n)
        traj = infer(runtime, f"[tag:x] q{run}", init_params(config), config)
        steps = len(traj.steps)
        assert traj.total_agent_calls < n * steps
        assert all(rec.k <= k for rec in traj.steps)


def test_infer_records_router_input_as_context():
    runtime = _runtime()
    config = _config()
    traj = infer(runtime, "[tag:x] q", init_params(config), config)
    np.testing.assert_array_equal(traj.steps[0].context_X,
                                  runtime.embed("[tag:x] q"))
    # later contexts are the weighted previous-step responses
    prev = traj.steps[0]
    emb = np.stack([runtime.embed(traj.responses[(1, a)].text)
                    for a in prev.selected_ids])
    np.testing.assert_allclose(traj.steps[1].context_X, prev.alpha @ emb,
                               rtol=0, atol=1e-15)


def test_infer_prompts_number_previous_step_responses():
    captured = []

    class PromptCapture(MockPoolBackend):
        def execute(self, agent_id, prompt, step_index, seed):
            captured.append((step_index, agent_id, prompt))
            return super().execute(agent_id, prompt, step_index, seed)

    base = _runtime(4)
    runtime = Runtime(pool=PromptCapture(base.pool.specs, base.pool.profiles),
                      summarizer=MockSummarizer(final_at_step=0), embed=base.embed)
    config = _config(max_steps=3)
    traj = infer(runtime, "[tag:x] q", init_params(config), config)
    by_step = {}
    for step_index, agent_id, prompt in captured:
        by_step.setdefault(step_index, []).append(prompt)
    assert all(p.context_part == "" for p in by_step[1])
    for step_index in (2, 3):
        prev = traj.steps[step_index - 2]
        for prompt in by_step[step_index]:
            blocks = [line for line in prompt.context_part.splitlines()
                      if line[:1].isdigit() and ". " in line]
            assert len(blocks) == prev.k
            for rank, agent_id in enumerate(prev.selected_ids, start=1):
                text = traj.responses[(step_index - 1, agent_id)].text
                assert blocks[rank - 1] == f"{rank}. {text}"


def test_infer_terminates_within_bounds_with_answer():
    rng = np.random.default_rng(14)
    for run in range(10):
        config = _config(max_steps=int(rng.integers(1, 5)),
                         seed=int(rng.integers(1 << 30)))
        final_at = int(rng.integers(0, 4))
        traj = infer(_runtime(final_at_step=final_at), f"[tag:x] t{run}",
                     init_params(config), config)
        assert 1 <= len(traj.steps) <= config.max_steps
        assert traj.final_answer is not None
        assert traj.terminated_by in (SUMMARIZER, STEP_LIMIT)


def test_infer_is_deterministic():
    config = _config()
    a = infer(_runtime(), "[tag:x] question", init_params(config), config)
    b = infer(_runtime(), "[tag:x] question", init_params(config), config)
    assert trajectory_to_json(a) == trajectory_to_json(b)


def test_infer_concurrent_fanout_matches_serial():
    config = _config()
    serial = infer(_runtime(max_workers=1), "[tag:x] q", init_params(config), config)
    threaded = infer(_runtime(max_workers=4), "[tag:x] q", init_params(config), config)
    assert trajectory_to_json(serial) == trajectory_to_json(threaded)


class _FlakyBackend(MockPoolBackend):
    """Agents in `failing` raise TransportError, or answer without an
    entropy when `drop_entropy` is set; a given `query` limits the fault to
    the prompts of that query."""

    def __init__(self, specs, profiles, failing, query=None, drop_entropy=False):
        super().__init__(specs, profiles)
        self.failing = failing
        self.query = query
        self.drop_entropy = drop_entropy

    def execute(self, agent_id, prompt, step_index, seed):
        resp = super().execute(agent_id, prompt, step_index, seed)
        if agent_id not in self.failing or \
                (self.query is not None and self.query not in prompt.system_part):
            return resp
        if self.drop_entropy:
            return replace(resp, token_entropies=(), predictive_entropy=None)
        raise TransportError(f"agent {agent_id} unreachable")


def _flaky_runtime(failing, pool_size=4, **faults):
    base = _runtime(pool_size)
    return Runtime(pool=_FlakyBackend(base.pool.specs, base.pool.profiles, failing,
                                      **faults),
                   summarizer=MockSummarizer(final_at_step=1),
                   embed=base.embed)


def test_infer_renormalizes_alpha_over_survivors():
    config = _config(pool_size=4, max_route=4, seed=1)
    healthy = infer(_runtime(4, final_at_step=1), "[tag:x] q",
                    init_params(config), config)
    failing_agent = healthy.steps[0].selected_ids[-1]
    survivors_expected = [a for a in healthy.steps[0].selected_ids
                          if a != failing_agent]
    traj = infer(_flaky_runtime({failing_agent}), "[tag:x] q",
                 init_params(config), config)
    rec = traj.steps[0]
    assert list(rec.selected_ids) == survivors_expected
    assert abs(rec.alpha.sum() - 1.0) <= 1e-9
    assert rec.k == len(survivors_expected)
    assert (1, failing_agent) not in traj.responses


def test_infer_aborts_when_all_selected_fail():
    config = _config(pool_size=3, max_route=3)
    runtime = _flaky_runtime({0, 1, 2}, pool_size=3)
    with pytest.raises(OrchestrationError, match="all routed agents failed"):
        infer(runtime, "[tag:x] q", init_params(config), config)


def test_infer_rejects_pool_size_mismatch():
    config = _config(pool_size=5)
    with pytest.raises(ConfigError, match="pool size"):
        infer(_runtime(4), "[tag:x] q", init_params(_config(pool_size=4)), config)


# --- training ---

def test_training_with_identical_mocks_only_decays_params():
    # all agents share one entropy profile, so every confidence vector is
    # uniform, every pair ties, and the loss is exactly zero
    runtime = _runtime(4, skill={"default": (1.0, 0.0)})
    config = _config()
    settings = TrainingSettings(batch_size=4, epochs=2)
    params = init_params(config)
    report = train(runtime, ["[tag:x] a", "[tag:x] b", "[tag:x] c", "[tag:x] d"],
                   params, config, settings)
    assert all(loss == 0.0 for _, _, loss in report.loss_rows)
    steps = len(report.loss_rows)
    decay = (1.0 - settings.lr * settings.weight_decay) ** steps
    np.testing.assert_allclose(report.params.flat, params.flat * decay, rtol=1e-12)


def test_training_batch_arithmetic():
    runtime = _runtime(4)
    config = _config()
    queries = make_queries(["x"], 20, seed=5)
    settings = TrainingSettings(batch_size=8, epochs=3)
    report = train(runtime, queries, init_params(config), config, settings)
    batches_per_epoch = -(-len(queries) // 8)
    assert len(report.loss_rows) == batches_per_epoch * settings.epochs
    assert [row[1] for row in report.loss_rows[:batches_per_epoch]] == [1, 2, 3]
    assert len(report.epoch_losses) == 3


def test_training_executes_all_agents_per_step():
    calls = []

    class CountingBackend(MockPoolBackend):
        def execute(self, agent_id, prompt, step_index, seed):
            calls.append((step_index, agent_id))
            return super().execute(agent_id, prompt, step_index, seed)

    base = _runtime(3)
    runtime = Runtime(pool=CountingBackend(base.pool.specs, base.pool.profiles),
                      summarizer=base.summarizer, embed=base.embed)
    config = _config(pool_size=3, train_steps=2)
    train(runtime, ["[tag:x] only query"], init_params(config), config,
          TrainingSettings(batch_size=1, epochs=1))
    for step in (1, 2):
        assert sorted(a for s, a in calls if s == step) == [0, 1, 2]


def test_training_is_deterministic():
    def run():
        runtime = _runtime(4, experts={"alpha": (1, 2)})
        config = _config()
        queries = make_queries(["alpha"], 8, seed=9)
        report = train(runtime, queries, init_params(config), config,
                       TrainingSettings(batch_size=4, epochs=2))
        return report.params.flat, report.loss_rows

    flat_a, rows_a = run()
    flat_b, rows_b = run()
    np.testing.assert_array_equal(flat_a, flat_b)
    assert rows_a == rows_b


def test_training_reduces_ranking_loss_on_separable_pool():
    runtime = _runtime(4, experts={"alpha": (1, 2)})
    config = _config()
    queries = make_queries(["alpha"], 16, seed=13)
    report = train(runtime, queries, init_params(config), config,
                   TrainingSettings(batch_size=8, epochs=3, lr=5e-3))
    assert report.epoch_losses[-1] < report.epoch_losses[0]
    assert 0.0 <= report.routing_agreement <= 1.0


@pytest.mark.parametrize("mode", ["train", "ttt"])
def test_training_leaves_the_callers_params_intact(mode, monkeypatch):
    # A tiny clip budget makes every batch's in-place clip fire. The
    # caller's parameters must keep their bits all the same, so a second run
    # from them repeats the first, as a benchmark that reuses one set of
    # parameters for every repetition relies on.
    fired = []
    real_clip = orchestrator.clip_gradients

    def spy(grads, clip_norm):
        fired.append(global_norm(grads.tensors()) > clip_norm)
        return real_clip(grads, clip_norm)

    monkeypatch.setattr(orchestrator, "clip_gradients", spy)
    runtime = _runtime(4, experts={"alpha": (1, 2)})
    config = _config()
    queries = make_queries(["alpha"], 12, seed=21)
    settings = TrainingSettings(batch_size=4, epochs=2, clip_norm=1e-6)
    params = init_params(config)
    before = params.flat.tobytes()

    def run():
        if mode == "train":
            return train(runtime, queries, params, config, settings).params
        return test_time_train(runtime, queries, params, config, settings, 10)[0]

    first = run().flat.tobytes()
    assert params.flat.tobytes() == before
    assert run().flat.tobytes() == first
    assert params.flat.tobytes() == before
    assert first != before
    assert fired and all(fired)


def test_training_requires_queries_and_matching_pool():
    runtime = _runtime(4)
    config = _config()
    with pytest.raises(ValueError, match="at least one"):
        train(runtime, [], init_params(config), config, TrainingSettings())
    with pytest.raises(ConfigError, match="pool size"):
        train(_runtime(3), ["q"], init_params(config), config, TrainingSettings())


def test_training_names_the_query_an_agent_failed_in():
    queries = [f"[tag:x] query {name}" for name in ("one", "two", "three", "four")]
    runtime = _flaky_runtime({2}, query="query four")
    config = _config()
    with pytest.raises(OrchestrationError,
                       match="training query 3 failed: agent 2 unreachable"):
        train(runtime, queries, init_params(config), config,
              TrainingSettings(batch_size=2, epochs=1))


def test_training_names_the_query_the_embedder_failed_in():
    base = _runtime(4)

    def embed(text):
        if "three" in text:
            raise RemoteEmbedError("embedding request to e failed: HTTP 503")
        return base.embed(text)

    runtime = replace(base, embed=embed)
    queries = [f"[tag:x] query {name}" for name in ("one", "two", "three")]
    config = _config()
    with pytest.raises(OrchestrationError, match="training query 2 failed: .*HTTP 503"):
        train(runtime, queries, init_params(config), config,
              TrainingSettings(batch_size=2, epochs=1))


def test_training_rejects_a_response_without_entropy():
    runtime = _flaky_runtime({1}, drop_entropy=True)
    config = _config()
    with pytest.raises(OrchestrationError,
                       match="training query 0 failed: agent 1 returned no entropy"):
        train(runtime, ["[tag:x] q"], init_params(config), config,
              TrainingSettings(batch_size=1, epochs=1))


# --- test-time training ---

def test_ttt_rejects_out_of_range_t_dense():
    runtime = _runtime(4)
    config = _config()
    params = init_params(config)
    with pytest.raises(ConfigError, match="t_dense"):
        test_time_train(runtime, ["q"] * 5, params, config, TrainingSettings(), 0)
    with pytest.raises(ConfigError, match="t_dense"):
        test_time_train(runtime, ["q"] * 40, params, config, TrainingSettings(), 31)


def test_ttt_warns_below_recommended_range():
    runtime = _runtime(4)
    config = _config(train_steps=1, max_steps=2)
    queries = make_queries(["x"], 4, seed=1)
    with pytest.warns(UserWarning, match="recommended"):
        test_time_train(runtime, queries, init_params(config), config,
                        TrainingSettings(batch_size=2, epochs=1), 2)


def test_ttt_dense_then_sparse_structure():
    runtime = _runtime(4)
    config = _config(train_steps=2, max_steps=3)
    queries = make_queries(["x"], 16, seed=2)
    params, trajectories = test_time_train(
        runtime, queries, init_params(config), config,
        TrainingSettings(batch_size=5, epochs=1), 10)
    assert len(trajectories) == 16
    dense, sparse = trajectories[:10], trajectories[10:]
    for traj in dense:
        assert traj.final_answer
        assert traj.terminated_by == STEP_LIMIT
        assert len(traj.steps) == config.train_steps
        assert all(rec.entropy_E is not None for rec in traj.steps)
        assert traj.total_agent_calls == config.pool_size * config.train_steps
    for traj in sparse:
        assert traj.final_answer
        assert all(rec.entropy_E is None for rec in traj.steps)
        assert traj.total_agent_calls == sum(rec.k for rec in traj.steps)
    # adaptation actually moved the parameters
    assert not np.array_equal(params.flat, init_params(config).flat)


def test_ttt_dense_entropies_tie_for_agents_with_the_same_target():
    # Zero-jitter mocks report one token entropy per (target, vocab), so the
    # dense rows tie bitwise for agents that share a target, and each entry
    # meets the mock's contract 1e-9 * max(ln V, 1) for its target. At
    # vocab 7 both targets once read a per-top-symbol row whose entries
    # differed in the last bit.
    vocab = 7
    specs, profiles = make_tagged_pool(4, {"alpha": (0, 2)}, low=0.2, high=1.0,
                                       vocab_size=vocab)
    runtime = Runtime(pool=MockPoolBackend(specs, profiles), summarizer=MockSummarizer(),
                      embed=HashEmbedder(16))
    config = _config(train_steps=2, max_steps=3)
    queries = make_queries(["alpha", "beta"], 12, seed=5)
    _, trajectories = test_time_train(runtime, queries, init_params(config), config,
                                      TrainingSettings(batch_size=5, epochs=1), 10)
    for traj in trajectories[:10]:
        targets = expected_entropies(runtime.pool.profiles, query_tag(traj.query))
        for rec in traj.steps:
            for target in np.unique(targets):
                tied = rec.entropy_E[targets == target]
                assert (tied == tied[0]).all()
            assert np.abs(rec.entropy_E - targets).max() <= 1e-9 * max(math.log(vocab), 1.0)


def test_ttt_requires_enough_queries():
    runtime = _runtime(4)
    config = _config()
    with pytest.raises(ValueError, match="at least"):
        test_time_train(runtime, ["q"] * 5, init_params(config), config,
                        TrainingSettings(), 10)


def test_ttt_names_the_dense_query_an_agent_failed_in():
    queries = make_queries(["x"], 12, seed=4)
    runtime = _flaky_runtime({0}, query=queries[7])
    config = _config()
    with pytest.raises(OrchestrationError,
                       match="training query 7 failed: agent 0 unreachable"):
        test_time_train(runtime, queries, init_params(config), config,
                        TrainingSettings(batch_size=4, epochs=1), 10)


def test_training_takes_the_gradient_sums_of_squares_once_per_batch(monkeypatch):
    # The finiteness check and the clip norm share one pass over the
    # gradient: 12 queries in batches of 4 over 2 epochs are 6 batches.
    from agentroute import router
    calls = []
    real_norm = router.global_norm

    def counted(arrays):
        calls.append(len(arrays))
        return real_norm(arrays)

    monkeypatch.setattr(router, "global_norm", counted)
    runtime = _runtime(4, experts={"alpha": (1, 2)})
    config = _config()
    settings = TrainingSettings(batch_size=4, epochs=2)
    train(runtime, make_queries(["alpha"], 12, seed=21), init_params(config), config,
          settings)
    assert calls == [12] * 6
