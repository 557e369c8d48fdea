import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from agentroute import agents
from agentroute.agents import (CONTINUE, ChatPoolBackend, ChatSummarizer, Final,
                               MockPoolBackend,
                               MockProfile, MockSummarizer, RESPONSES_HEADER,
                               ToolError, TransportError, assemble_prompt,
                               calculator_tool,
                               chat_execute, mock_execute, parse_summarizer_reply,
                               solve_mixture_eps, summarize_final, summarizer_decide)
from agentroute.core import AgentResponse, AgentSpec, ConfigError, Prompt
from agentroute.embed import remote_embed
from agentroute.synthetic import expected_entropies


def _spec(agent_id=0, tools=("calculator",)):
    return AgentSpec(agent_id=agent_id, model_ref="mock",
                     profile_text=f"You are analyst #{agent_id}.",
                     tool_names=tools)


def _resp(agent_id, step, text):
    return AgentResponse(agent_id=agent_id, step_index=step, text=text,
                         token_entropies=(0.5,), token_count=1,
                         predictive_entropy=0.5)


# --- prompt assembly ---

def test_first_step_prompt_has_empty_context_and_verbatim_query():
    query = "[tag:math] Solve 17 * 23 exactly."
    prompt = assemble_prompt(_spec(), query, [])
    assert prompt.context_part == ""
    assert query in prompt.system_part
    assert "You are analyst #0." in prompt.system_part
    assert "[calculator]" in prompt.system_part


def test_later_step_prompt_numbers_responses_in_selection_order():
    prev = [_resp(4, 1, "first answer"), _resp(1, 1, "second answer")]
    prompt = assemble_prompt(_spec(), "query", prev)
    assert RESPONSES_HEADER in prompt.context_part
    lines = prompt.context_part.splitlines()
    assert "1. first answer" in lines
    assert "2. second answer" in lines
    assert lines.index("1. first answer") < lines.index("2. second answer")


def test_prompt_passes_response_text_through_verbatim():
    prev = [_resp(0, 1, "1. fake numbering\n2. inside one response")]
    prompt = assemble_prompt(_spec(), "query", prev)
    assert "1. 1. fake numbering\n2. inside one response" in prompt.context_part
    # count driven by the list length, not by embedded numbering
    assert prompt.context_part.count("\n1. ") == 1


def test_prompt_without_tools_skips_tool_block():
    prompt = assemble_prompt(_spec(tools=()), "query", [])
    assert "Available tools" not in prompt.system_part


def test_prompt_rejects_unknown_tool():
    with pytest.raises(ConfigError, match="unknown tool"):
        assemble_prompt(_spec(tools=("warp_drive",)), "query", [])


# --- calculator ---

def test_calculator_precedence():
    assert calculator_tool("2+3*4") == "14"


def test_calculator_parentheses_and_fractions():
    assert calculator_tool("(1+2)/4") == "0.75"


def test_calculator_division_by_zero():
    with pytest.raises(ToolError, match="division by zero"):
        calculator_tool("1/0")


def test_calculator_unicode_operators():
    assert calculator_tool("3×4÷2") == "6"
    assert calculator_tool("5−2") == "3"


def test_calculator_unary_minus_and_decimals():
    assert calculator_tool("-3+5") == "2"
    assert calculator_tool("2*-3") == "-6"
    assert calculator_tool("0.5*8") == "4"
    assert calculator_tool(".25*4") == "1"


@pytest.mark.parametrize("bad", ["", "2+", "()", "1//2", "abc", "(1+2", "4 5"])
def test_calculator_parse_errors(bad):
    with pytest.raises(ToolError):
        calculator_tool(bad)


def test_calculator_agrees_with_reference_on_generated_corpus():
    rng = np.random.default_rng(77)

    def gen_expr(depth):
        roll = rng.uniform()
        if depth >= 3 or roll < 0.4:
            if rng.uniform() < 0.5:
                return str(rng.integers(0, 50))
            return format(rng.uniform(0.1, 9.9), ".2f")
        op = rng.choice(["+", "-", "*", "/"])
        left = gen_expr(depth + 1)
        right = gen_expr(depth + 1)
        expr = f"{left}{op}{right}"
        if rng.uniform() < 0.3:
            expr = f"({expr})"
        return expr

    checked = 0
    while checked < 200:
        expr = gen_expr(0)
        try:
            expected = eval(expr)  # reference evaluator on the same grammar
        except ZeroDivisionError:
            continue
        got = float(calculator_tool(expr))
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-12), expr
        checked += 1


# --- mock agents ---

def _profile(target, jitter=0.0, vocab=16, tokens=12, agent_id=0):
    return MockProfile(agent_id=agent_id, skill_map={"default": (target, jitter)},
                       vocab_size=vocab, tokens_per_response=tokens)


def test_mock_zero_target_is_point_mass():
    resp = mock_execute(_profile(0.0), Prompt("x"), "default", seed=1)
    assert resp.predictive_entropy == 0.0
    assert all(e == 0.0 for e in resp.token_entropies)


def test_mock_full_target_is_uniform():
    resp = mock_execute(_profile(math.log(16)), Prompt("x"), "default", seed=1)
    assert abs(resp.predictive_entropy - math.log(16)) <= 1e-12


def test_mock_interior_target_with_bisection_oracle():
    resp = mock_execute(_profile(1.0), Prompt("x"), "default", seed=2)
    assert abs(resp.predictive_entropy - 1.0) <= 1e-6
    # independent scalar bisection on the mixture entropy function
    vocab = 16

    def mixture_entropy(eps):
        p_top = (1.0 - eps) + eps / vocab
        p_rest = eps / vocab
        total = p_top * math.log(p_top) if p_top > 0 else 0.0
        if p_rest > 0:
            total += (vocab - 1) * p_rest * math.log(p_rest)
        return -total

    lo, hi = 0.0, 1.0
    while hi - lo > 1e-13:
        mid = (lo + hi) / 2
        if mixture_entropy(mid) > 1.0:
            hi = mid
        else:
            lo = mid
    oracle_eps = (lo + hi) / 2
    impl_eps = solve_mixture_eps(np.array([1.0]), vocab)[0]
    assert abs(impl_eps - oracle_eps) <= 1e-9
    assert abs(mixture_entropy(impl_eps) - 1.0) <= 1e-9


def _xlogx(p):
    out = np.zeros_like(p)
    nz = p > 0.0
    out[nz] = p[nz] * np.log(p[nz])
    return out


def _mixture_entropy(eps, vocab_size):
    # Entropy of (1 - eps) * point_mass + eps * uniform(vocab_size) through
    # the zero-masked x log x.
    eps = np.asarray(eps, dtype=np.float64)
    p_top = (1.0 - eps) + eps / vocab_size
    p_rest = eps / vocab_size
    return -(_xlogx(p_top) + (vocab_size - 1) * _xlogx(p_rest))


def _reference_solve_mixture_eps(targets, vocab_size, tol=1e-9):
    # The plain bisection: halve [0, 1] until max|H - t| <= tol over all
    # targets, or 80 halvings. An accuracy oracle within its own tolerance,
    # not a bit oracle: its stop rule is joint over the targets.
    t = np.atleast_1d(np.asarray(targets, dtype=np.float64))
    limit = math.log(vocab_size)
    lo = np.zeros_like(t)
    hi = np.ones_like(t)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        above = _mixture_entropy(mid, vocab_size) > t
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
        if np.max(np.abs(_mixture_entropy(0.5 * (lo + hi), vocab_size) - t)) <= tol:
            break
    eps = 0.5 * (lo + hi)
    eps[t <= 0.0] = 0.0
    eps[t >= limit - 1e-15] = 1.0
    return eps


def _contract(vocab):
    # The solve's promise: |H(eps) - t| within this for every target.
    return 1e-9 * max(math.log(vocab), 1.0)


def _assert_meets_contract(targets, vocab):
    t = np.atleast_1d(np.asarray(targets, dtype=np.float64))
    eps = solve_mixture_eps(t, vocab)
    assert eps.shape == t.shape and np.isfinite(eps).all()
    assert ((eps >= 0.0) & (eps <= 1.0)).all()
    error = np.abs(_mixture_entropy(eps, vocab) - t)
    assert error.max() <= _contract(vocab), (vocab, t[error.argmax()].item(), error.max())
    return eps


def _assert_agrees_with_reference(targets, vocab, tol=1e-9):
    # Both solves meet their targets, so their entropies agree within the
    # two tolerances, and both snap the same targets to 0 and 1.
    eps = _assert_meets_contract(targets, vocab)
    want = _reference_solve_mixture_eps(targets, vocab, tol)
    gap = np.abs(_mixture_entropy(eps, vocab) - _mixture_entropy(want, vocab))
    assert gap.max() <= _contract(vocab) + tol, (vocab, tol, np.asarray(targets).tolist())
    snapped = (want == 0.0) | (want == 1.0)
    assert eps[snapped].tobytes() == want[snapped].tobytes()
    return eps


@pytest.mark.parametrize("vocab", [2, 3, 16, 50, 1000])
def test_solve_mixture_eps_matches_reference_bisection_bitwise(vocab):
    # Bitwise at the snapped endpoints, within the tolerances elsewhere.
    rng = np.random.default_rng(vocab)
    limit = math.log(vocab)
    for count in (1, 5, 12):
        for trial in range(20):
            targets = rng.uniform(0.0, limit, size=count)
            if trial == 0:
                targets[0] = 0.0
                targets[-1] = limit
            _assert_agrees_with_reference(targets, vocab)
    for endpoint in (0.0, limit):
        got = solve_mixture_eps(endpoint, vocab)
        assert got.tobytes() == _reference_solve_mixture_eps(endpoint, vocab).tobytes()


VOCABS = [2, 3, 16, 50, 1000]


def _solve_cases():
    def case(vocab):
        limit = math.log(vocab)
        return st.tuples(st.lists(st.floats(0.0, limit + 1e-12), min_size=1, max_size=40),
                         st.just(vocab))
    return st.sampled_from(VOCABS).flatmap(case)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(case=_solve_cases())
def test_solve_mixture_eps_matches_reference_on_any_targets(case):
    # Any targets in [0, ln vocab], the shape's edge cases included: 0,
    # subnormals, ln vocab itself and values within 1e-12 above it.
    targets, vocab = case
    _assert_agrees_with_reference(np.array(targets), vocab)


def _contract_cases():
    def case(vocab):
        limit = math.log(vocab)
        target = (st.floats(0.0, limit + 1e-12)
                  | st.floats(0.0, 1e-14).map(lambda gap: limit - gap)
                  | st.sampled_from([0.0, 5e-324, 1e-300, limit, limit + 1e-12]))
        return st.tuples(st.lists(target, min_size=1, max_size=20), st.just(vocab))
    return (st.integers(2, 2**32) | st.sampled_from([2, 3, 2**16, 2**20, 2**32])).flatmap(case)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(case=_contract_cases())
# Two ulps below the snap to 1: H - ln vocab has a double root at eps = 1,
# where a Newton step only halves the distance, and five steps miss here.
@example(case=([math.log(1707593) - 3.552713678800501e-15], 1707593))
@example(case=([math.log(3787234) - 3.552713678800501e-15], 3787234))
def test_solve_mixture_eps_meets_the_contract_for_any_vocab(case):
    # |H(eps) - t| <= 1e-9 * max(ln vocab, 1), with eps finite in [0, 1],
    # for vocab sizes up to 2**32 and targets at 0, subnormal, tiny, within
    # 1e-14 of ln vocab, and up to 1e-12 above it.
    targets, vocab = case
    _assert_meets_contract(targets, vocab)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(vocab=st.sampled_from(VOCABS + [2**20, 2**32]), data=st.data())
def test_solve_mixture_eps_is_batch_invariant(vocab, data):
    # Each eps depends only on its own target: solving a concatenation
    # gives the concatenated solves bit for bit, repeated targets and
    # single targets included.
    limit = math.log(vocab)
    base = data.draw(st.lists(st.floats(0.0, limit + 1e-12), min_size=1, max_size=30))
    repeats = data.draw(st.lists(st.sampled_from(base), max_size=30))
    targets = np.array(data.draw(st.permutations(base + repeats)))
    cuts = sorted(data.draw(st.sets(st.integers(1, len(targets) - 1), max_size=6))
                  if len(targets) > 1 else [])
    whole = solve_mixture_eps(targets, vocab)
    parts = [solve_mixture_eps(part, vocab) for part in np.split(targets, cuts)]
    assert whole.tobytes() == np.concatenate(parts).tobytes()
    singles = [solve_mixture_eps(target, vocab) for target in targets]
    assert whole.tobytes() == np.concatenate(singles).tobytes()


@pytest.mark.parametrize("targets", [[math.nan], [0.5, math.nan], [math.inf],
                                     [-math.inf, 1.0], [-1e-300]])
def test_solve_mixture_eps_rejects_targets_that_are_not_numbers_in_range(targets):
    with pytest.raises(ValueError, match="target entropy must be a number"):
        solve_mixture_eps(targets, 16)


@pytest.mark.parametrize("targets", [[], np.empty(0)], ids=["list", "array"])
def test_solve_mixture_eps_of_no_targets_is_empty(targets):
    eps = solve_mixture_eps(targets, 16)
    assert eps.dtype == np.float64 and eps.shape == (0,)


@pytest.mark.parametrize("vocab", VOCABS)
def test_solve_mixture_eps_matches_reference_on_jittered_targets(vocab):
    # The shape of mock_execute's input: up to 12 targets jittered around a
    # centre and clipped to [0, ln vocab].
    rng = np.random.default_rng(1000 + vocab)
    limit = math.log(vocab)
    for _ in range(1000):
        centre = rng.uniform(0.0, limit)
        jitter = rng.choice([0.01, 0.05, 0.3])
        count = int(rng.integers(1, 13))
        targets = np.clip(centre + jitter * rng.standard_normal(count), 0.0, limit)
        _assert_agrees_with_reference(targets, vocab)


@pytest.mark.parametrize("vocab", VOCABS)
def test_solve_mixture_eps_matches_reference_at_the_endpoints(vocab):
    limit = math.log(vocab)
    near_top = [limit, limit - 1e-15, limit - 5e-16, np.nextafter(limit, 0.0),
                limit - 2e-15, limit + 1e-13]
    for target in [0.0, 5e-324, 1e-15] + near_top:
        _assert_agrees_with_reference(np.array([target]), vocab)
    rng = np.random.default_rng(3000 + vocab)
    for _ in range(20):
        targets = rng.uniform(0.0, limit, size=6)
        targets[rng.integers(0, 6, size=2)] = rng.choice(near_top + [0.0], size=2)
        _assert_agrees_with_reference(targets, vocab)


@pytest.mark.parametrize("vocab", VOCABS)
@pytest.mark.parametrize("tol", [0.0, 1e-15, 1e-12])
def test_solve_mixture_eps_matches_reference_at_deep_levels(vocab, tol):
    # The reference run to tol = 0 mostly takes all 80 halvings, and to
    # tol = 1e-15 or 1e-12 it stops past level 48: there it pins the root
    # far below the contract, so the two entropies agree within it.
    rng = np.random.default_rng(4000 + vocab)
    limit = math.log(vocab)
    for count in (1, 3, 12):
        for _ in range(10):
            _assert_agrees_with_reference(rng.uniform(0.0, limit, size=count), vocab, tol)


@pytest.mark.parametrize("vocab", VOCABS)
def test_solve_mixture_eps_stops_on_table_entries(vocab):
    # A target equal to the tabulated entropy at j * 2**-16 has its root
    # at that point, the low end of its bracket, where the secant starts:
    # the Newton steps stay there up to rounding.
    levels = agents._TABLE_LEVELS
    table = agents._entropy_table(vocab)
    rng = np.random.default_rng(2000 + vocab)
    tested = 0
    for level in range(1, levels + 1):
        odd = 2 * rng.integers(0, 1 << (level - 1), size=3) + 1
        index = odd << (levels - level)
        targets = table[index]
        if np.any(targets >= math.log(vocab) - 1e-15):
            continue  # those would snap to 1
        points = index * 2.0 ** -levels
        eps = _assert_meets_contract(targets, vocab)
        assert (eps >= points).all()
        assert (np.abs(eps - points) <= 64 * np.spacing(points)).all(), (level, eps - points)
        assert solve_mixture_eps(targets[:1], vocab)[0] == eps[0]
        tested += 1
    assert tested >= levels - 3


@pytest.mark.parametrize("estimate", ["lo", "hi", "nan"])
def test_solve_mixture_eps_survives_a_useless_root_estimate(monkeypatch, estimate):
    # Replace the first Newton step's result with the ends of the target's
    # bracket, or with NaN, which the clip to the bracket turns into its
    # low end: the remaining steps still meet the contract.
    newton_step = agents._newton_step
    calls = []

    def useless_first(t, eps, vocab_size):
        calls.append(1)
        if len(calls) > 1:
            return newton_step(t, eps, vocab_size)
        lo = np.floor(eps / agents._TABLE_STEP) * agents._TABLE_STEP
        return {"lo": lo, "hi": lo + agents._TABLE_STEP,
                "nan": np.full_like(eps, np.nan)}[estimate]

    monkeypatch.setattr(agents, "_newton_step", useless_first)
    rng = np.random.default_rng(6000)
    for vocab in VOCABS:
        limit = math.log(vocab)
        for count in (1, 12):
            for trial in range(20):
                targets = rng.uniform(0.0, limit, size=count)
                if trial % 2:
                    targets[0] = limit - rng.uniform(1e-15, 1e-9)
                calls.clear()
                _assert_meets_contract(targets, vocab)
                assert len(calls) == agents._NEWTON_STEPS


@pytest.mark.parametrize("vocab", VOCABS)
def test_solve_mixture_eps_duplicate_targets_match_unique_solve(vocab):
    # mock_execute solves its jittered targets without deduplicating them;
    # repeats change no bits.
    rng = np.random.default_rng(8000 + vocab)
    limit = math.log(vocab)
    for _ in range(50):
        repeats = rng.uniform(0.0, limit, size=4)[rng.integers(0, 4, size=8)]
        targets = rng.permutation(np.concatenate([repeats, [0.0, 0.0, limit, limit]]))
        unique, inverse = np.unique(targets, return_inverse=True)
        want = solve_mixture_eps(unique, vocab)[inverse]
        assert solve_mixture_eps(targets, vocab).tobytes() == want.tobytes()
        _assert_agrees_with_reference(targets, vocab)


def test_import_builds_no_table_and_loads_no_http_client():
    # The entropy table is built on first use; requests loads with the
    # first remote backend.
    code = ("import sys, agentroute, agentroute.cli, agentroute.agents as a;"
            " print(a._entropy_table.cache_info().currsize, 'requests' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.stdout.split() == ["0", "False"], result.stderr


@pytest.mark.parametrize("target", [5e-324, 7.4e-321, 1e-300, 1e-12])
def test_mock_tiny_targets_meet_the_contract(target):
    # eps may underflow to 0 or be far below the bisection's old 2**-81.
    for jitter in (0.0, 1e-300):
        resp = mock_execute(_profile(target, jitter=jitter), Prompt("x"), "default", seed=4)
        assert all(abs(e - target) <= _contract(16) for e in resp.token_entropies)


def test_mock_jittered_responses_match_reference_solver(monkeypatch):
    # mock_execute calls _solve on its jittered targets; with the plain
    # bisection in its place, only the entropies move, within both solves'
    # tolerances.
    profiles = [_profile(target, jitter=jitter, vocab=vocab, agent_id=i)
                for i, (target, jitter, vocab) in enumerate([
                    (0.8, 0.05, 16), (2.5, 0.3, 16), (0.05, 0.1, 16),
                    (3.0, 0.2, 50), (0.4, 0.05, 2)])]
    seeds = range(300)
    fast = [mock_execute(p, Prompt("x"), "default", seed=s, step_index=2)
            for p in profiles for s in seeds]
    solved = []

    def reference(targets, vocab_size):
        solved.append(len(targets))
        return _reference_solve_mixture_eps(targets, vocab_size)

    monkeypatch.setattr(agents, "_solve", reference)
    slow = [mock_execute(p, Prompt("x"), "default", seed=s, step_index=2)
            for p in profiles for s in seeds]
    assert solved == [12] * len(slow)  # every call solved through the reference
    for profile, a, b in zip([p for p in profiles for _ in seeds], fast, slow):
        assert (a.text, a.token_count, a.agent_id) == (b.text, b.token_count, b.agent_id)
        gap = np.abs(np.subtract(a.token_entropies, b.token_entropies))
        assert gap.max() <= _contract(profile.vocab_size) + 1e-9


def _closed_form_entropies(eps, vocab):
    # The mock's token entropy, -(p_top ln p_top + (V - 1) p_rest ln p_rest)
    # in that order, +0.0 at eps = 0.
    return _mixture_entropy(eps, vocab) + 0.0


def _matrix_entropies(eps, top_symbol, vocab):
    # Each token's entropy summed over its row of the (tokens, vocab) matrix
    # of mixtures with the zero-masked x log x: the form the mock once
    # computed, kept as an accuracy oracle for the closed form.
    dists = np.repeat((eps / vocab)[:, None], vocab, axis=1)
    dists[np.arange(eps.size), top_symbol] += 1.0 - eps
    return -_xlogx(dists).sum(axis=1) + 0.0


def _assert_matches_matrix(entropies, matrix, vocab):
    gap = np.abs(np.subtract(entropies, matrix))
    assert gap.max() <= 1e-14 * max(math.log(vocab), 1.0), (vocab, gap.max())


def _reference_mock_entropies(profile, seed):
    """The mock computation without any memo: eps solved on every call and
    each token's entropy from the closed form, with the top symbols from
    Generator.integers and the nonce from Generator.bytes. The matrix form
    over those top symbols must agree within 1e-14 * max(ln V, 1). Returns
    (token_entropies, predictive_entropy, text) as mock_execute does at
    step 1."""
    target, jitter = profile.skill_map["default"]
    rng = np.random.default_rng(seed)
    count, vocab = profile.tokens_per_response, profile.vocab_size
    if jitter > 0.0:
        targets = np.clip(target + jitter * rng.standard_normal(count),
                          0.0, math.log(vocab))
    else:
        targets = np.full(count, float(target))
    eps = solve_mixture_eps(targets, vocab)
    entropies = _closed_form_entropies(eps, vocab)
    top_symbol = rng.integers(0, vocab, size=count)
    _assert_matches_matrix(entropies, _matrix_entropies(eps, top_symbol, vocab), vocab)
    text = profile.response_template.format(
        agent_id=profile.agent_id, step=1, tag="default", nonce=rng.bytes(4).hex())
    return tuple(float(e) for e in entropies), float(np.mean(entropies)), text


def _bytes(values):
    return np.asarray(values, dtype=np.float64).tobytes()


@pytest.mark.parametrize("vocab", [2, 3, 7, 8, 9, 16, 17, 50, 130])
def test_mock_entropies_match_the_per_call_reference_bitwise(vocab):
    limit = math.log(vocab)
    for tokens in (1, 12, 40):
        for target in (0.0, 0.4 * limit, limit):
            for jitter in (0.0, 0.3):
                profile = _profile(target, jitter=jitter, vocab=vocab, tokens=tokens)
                for seed in range(200):
                    resp = mock_execute(profile, Prompt("x"), "default", seed=seed)
                    token_entropies, predictive, text = _reference_mock_entropies(
                        profile, seed)
                    assert _bytes(resp.token_entropies) == _bytes(token_entropies)
                    assert _bytes(resp.predictive_entropy) == _bytes(predictive)
                    assert resp.text == text


def _reference_draws(rng, count, vocab):
    return rng.integers(0, vocab, size=count), rng.bytes(4).hex()


def _assert_draws_match(seed, count, vocab, after_normals):
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    if after_normals:
        fast.standard_normal(count)
        slow.standard_normal(count)
    _, expected_nonce = _reference_draws(slow, count, vocab)
    assert agents._mock_draws(fast, count, vocab) == expected_nonce


# 2**31 + 1 and 3 * 2**30 reject about a half and a quarter of their draws,
# so a carried high half often decides a value or the nonce; 2**32 takes
# every half as it is.
DRAW_VOCABS = [2, 3, 7, 16, 50, 130, 2**31 + 1, 3 * 2**30, 2**32]


@pytest.mark.parametrize("vocab", DRAW_VOCABS)
@pytest.mark.parametrize("count", [1, 12, 40])
def test_mock_draws_match_generator_integers_then_bytes(vocab, count):
    for seed in range(200):
        for after_normals in (False, True):
            _assert_draws_match(seed, count, vocab, after_normals)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(vocab=st.integers(2, 2**32), count=st.integers(1, 64),
       seed=st.integers(0, 2**64 - 1), after_normals=st.booleans())
@example(vocab=2**32, count=1, seed=0, after_normals=False)
@example(vocab=2**31 + 1, count=40, seed=3, after_normals=True)
def test_mock_draws_match_generator_for_any_vocab(vocab, count, seed, after_normals):
    _assert_draws_match(seed, count, vocab, after_normals)


def test_mock_constant_target_memo_cold_and_warm_agree():
    memo = agents._constant_target_entropy
    for vocab in (2, 16, 50):
        for target in (0.0, 0.3, 0.69, math.log(vocab)):
            eps = solve_mixture_eps(target, vocab)
            reference = _closed_form_entropies(eps, vocab)
            # Every top symbol's row of the (vocab, vocab) matrix.
            matrix = _matrix_entropies(np.repeat(eps, vocab), np.arange(vocab), vocab)
            _assert_matches_matrix(np.repeat(reference, vocab), matrix, vocab)
            for seed in (1, 2):
                memo.cache_clear()
                cold = mock_execute(_profile(target, vocab=vocab), Prompt("x"),
                                    "default", seed=seed)
                warm = mock_execute(_profile(target, vocab=vocab), Prompt("x"),
                                    "default", seed=seed)
                assert memo.cache_info().hits == 1
                assert cold == warm
                assert _bytes(memo(float(target), vocab)) == reference.tobytes()
                assert _bytes(cold.token_entropies) == _bytes(np.repeat(reference, 12))


def test_mock_jittered_targets_bypass_the_memo():
    mock_execute(_profile(0.8), Prompt("x"), "default", seed=1)
    before = agents._constant_target_entropy.cache_info()
    for seed in range(5):
        mock_execute(_profile(0.8, jitter=0.25), Prompt("x"), "default", seed=seed)
    after = agents._constant_target_entropy.cache_info()
    assert after.currsize == before.currsize
    assert (after.hits, after.misses) == (before.hits, before.misses)


def test_mock_zero_jitter_entropies_tie_across_tokens_seeds_and_agents():
    # A zero-jitter target has one token entropy per (target, vocab): the
    # same for every token, seed and agent, within the contract of its
    # target. The ranking loss reads such agents as ties. (At vocab 7, 50
    # and 130 these targets once read per-top-symbol rows whose entries
    # differed in the last bit.)
    for vocab in (2, 7, 16, 50, 130, 2**20):
        for target in (0.0, 0.2, 0.5, min(1.0, math.log(vocab)), math.log(vocab)):
            rows = {_bytes(mock_execute(_profile(target, vocab=vocab, agent_id=agent_id),
                                        Prompt("x"), "default", seed=seed).token_entropies)
                    for agent_id in (0, 3) for seed in range(10)}
            assert len(rows) == 1
            entropies = np.frombuffer(rows.pop())
            assert (entropies == entropies[0]).all()
            assert abs(entropies[0] - target) <= _contract(vocab)


@pytest.mark.parametrize("jitter", [0.0, 0.1])
@pytest.mark.parametrize("vocab", [2**20, 2**32])
def test_mock_large_vocab_meets_the_contract_in_little_memory(vocab, jitter):
    # No (tokens, vocab) matrix and no per-symbol row: a cold call, the
    # 512 KiB entropy table's build included, stays under 2 MB.
    target = 0.6 * math.log(vocab)
    profile = _profile(target, jitter=jitter, vocab=vocab, tokens=40)
    agents._entropy_table.cache_clear()
    agents._constant_target_entropy.cache_clear()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        resp = mock_execute(profile, Prompt("x"), "default", seed=9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak
    normals = np.random.default_rng(9).standard_normal(40)
    targets = np.clip(target + jitter * normals, 0.0, math.log(vocab))
    error = np.abs(np.subtract(resp.token_entropies, targets))
    assert error.max() <= _contract(vocab), error.max()


def test_mock_hits_any_target_on_a_grid():
    vocab = 16
    for target in np.linspace(0.0, math.log(vocab), 41):
        resp = mock_execute(_profile(float(target), vocab=vocab), Prompt("x"),
                            "default", seed=3)
        assert abs(resp.predictive_entropy - target) <= 1e-6


def test_mock_is_reproducible_bytes():
    profile = _profile(0.8, jitter=0.25)
    a = mock_execute(profile, Prompt("x"), "default", seed=11, step_index=2)
    b = mock_execute(profile, Prompt("y is ignored"), "default", seed=11, step_index=2)
    assert a == b
    c = mock_execute(profile, Prompt("x"), "default", seed=12, step_index=2)
    assert a != c


def test_mock_jitter_respects_entropy_bounds():
    profile = _profile(0.3, jitter=2.0, tokens=64)
    resp = mock_execute(profile, Prompt("x"), "default", seed=4)
    limit = math.log(16)
    for e in resp.token_entropies:
        assert -1e-12 <= e <= limit + 1e-9


def test_mock_renders_template_fields():
    profile = MockProfile(agent_id=3, skill_map={"default": (0.5, 0.0)},
                          response_template="a{agent_id} s{step} t{tag} n{nonce}")
    resp = mock_execute(profile, Prompt("x"), "algebra", seed=5, step_index=4)
    assert resp.text.startswith("a3 s4 talgebra n")


def test_mock_unknown_tag_without_default_raises():
    profile = MockProfile(agent_id=0, skill_map={"math": (0.5, 0.0)})
    with pytest.raises(ConfigError, match="agent 0 has no skill entry for tag 'poetry'"):
        mock_execute(profile, Prompt("x"), "poetry", seed=1)
    with pytest.raises(ConfigError, match="agent 0 has no skill entry for tag 'poetry'"):
        expected_entropies([profile], "poetry")


def test_mock_profile_rejects_bad_targets():
    with pytest.raises(ConfigError, match="target entropy"):
        MockProfile(agent_id=0, skill_map={"default": (99.0, 0.0)})
    with pytest.raises(ConfigError, match="jitter"):
        MockProfile(agent_id=0, skill_map={"default": (0.5, -1.0)})


@pytest.mark.parametrize("entry, what", [((1.0, math.nan), "jitter"),
                                         ((1.0, math.inf), "jitter"),
                                         ((math.nan, 0.0), "target entropy"),
                                         ((math.inf, 0.1), "target entropy")])
def test_mock_profile_rejects_non_finite_skills(entry, what):
    # A NaN jitter would act as zero jitter, and an infinite one would pin
    # every token's target to 0 or ln vocab.
    with pytest.raises(ConfigError, match=what):
        MockProfile(agent_id=0, skill_map={"default": entry})


@pytest.mark.parametrize("vocab", [1, 2**32 + 1])
def test_mock_profile_rejects_vocab_outside_the_draw_rule(vocab):
    with pytest.raises(ConfigError, match="vocab_size"):
        MockProfile(agent_id=0, skill_map={"default": (0.0, 0.0)}, vocab_size=vocab)


def test_mock_pool_backend_reads_tag_from_query():
    specs = [_spec(0, tools=()), _spec(1, tools=())]
    profiles = [MockProfile(agent_id=0, skill_map={"math": (0.2, 0.0),
                                                   "default": (2.0, 0.0)}),
                MockProfile(agent_id=1, skill_map={"default": (1.0, 0.0)})]
    backend = MockPoolBackend(specs, profiles)
    prompt = assemble_prompt(specs[0], "[tag:math] compute", [])
    resp = backend.execute(0, prompt, step_index=1, seed=9)
    assert abs(resp.predictive_entropy - 0.2) <= 1e-6
    prompt_plain = assemble_prompt(specs[0], "no tag here", [])
    resp = backend.execute(0, prompt_plain, step_index=1, seed=9)
    assert abs(resp.predictive_entropy - 2.0) <= 1e-6


# --- chat client ---

def _chat_payload(content, logprob_tokens):
    payload = {"choices": [{"message": {"content": content}}],
               "usage": {"completion_tokens": len(logprob_tokens or [])}}
    if logprob_tokens is not None:
        payload["choices"][0]["logprobs"] = {"content": logprob_tokens}
    return payload


def test_chat_point_mass_tokens_give_zero_entropy(http_server):
    tokens = [{"token": "a", "logprob": 0.0,
               "top_logprobs": [{"token": "a", "logprob": 0.0}]}
              for _ in range(3)]
    url = http_server(lambda p, b, h: (200, _chat_payload("abc", tokens)))
    resp = chat_execute(_spec(), Prompt("sys", "ctx"), url)
    assert resp.predictive_entropy == 0.0
    assert resp.token_count == 3


def test_chat_uniform_top4_gives_log4(http_server):
    lp = math.log(0.25)
    tokens = [{"token": "a", "logprob": lp,
               "top_logprobs": [{"token": t, "logprob": lp} for t in "abcd"]}]
    url = http_server(lambda p, b, h: (200, _chat_payload("a", tokens)))
    resp = chat_execute(_spec(), Prompt("sys", "ctx"), url)
    assert abs(resp.predictive_entropy - math.log(4)) <= 1e-12


def test_chat_fixture_payload_matches_hand_computed_entropy(http_server):
    # frozen by hand-renormalizing each top list and averaging the entropies
    tokens = [
        {"token": "x", "logprob": -0.1, "top_logprobs": [
            {"token": "x", "logprob": -0.1}, {"token": "y", "logprob": -3.2},
            {"token": "z", "logprob": -4.0}, {"token": "w", "logprob": -5.5}]},
        {"token": "y", "logprob": -0.7, "top_logprobs": [
            {"token": "y", "logprob": -0.7}, {"token": "x", "logprob": -1.1},
            {"token": "q", "logprob": -2.4}, {"token": "r", "logprob": -3.0}]},
        {"token": "z", "logprob": 0.0, "top_logprobs": [
            {"token": "z", "logprob": 0.0}]},
    ]
    url = http_server(lambda p, b, h: (200, _chat_payload("xyz", tokens)))
    resp = chat_execute(_spec(), Prompt("sys", "ctx"), url)
    assert abs(resp.predictive_entropy - 0.45947831839055747) <= 1e-12
    assert abs(resp.token_entropies[0] - 0.2946089988937991) <= 1e-12
    assert abs(resp.token_entropies[1] - 1.0838259562778734) <= 1e-12
    assert resp.token_entropies[2] == 0.0


def test_chat_missing_logprobs_flags_response(http_server):
    url = http_server(lambda p, b, h: (200, _chat_payload("no logprobs here", None)))
    resp = chat_execute(_spec(), Prompt("sys", "ctx"), url)
    assert resp.predictive_entropy is None
    assert resp.token_entropies == ()
    assert resp.token_count >= 1


def test_chat_requests_logprobs_and_sends_auth(http_server):
    seen = {}

    def respond(path, body, headers):
        seen.update(body)
        seen["auth"] = headers.get("Authorization")
        tokens = [{"token": "a", "logprob": 0.0,
                   "top_logprobs": [{"token": "a", "logprob": 0.0}]}]
        return 200, _chat_payload("a", tokens)

    url = http_server(respond)
    chat_execute(_spec(), Prompt("system text", "context text"), url,
                 api_key="sk-42", top_logprobs=7)
    assert seen["logprobs"] is True
    assert seen["top_logprobs"] == 7
    assert seen["auth"] == "Bearer sk-42"
    assert seen["messages"][0] == {"role": "system", "content": "system text"}
    assert seen["messages"][1] == {"role": "user", "content": "context text"}


def test_chat_transport_failure():
    with pytest.raises(TransportError):
        chat_execute(_spec(), Prompt("s"), "http://127.0.0.1:1/chat", timeout=0.2)


def test_chat_http_error(http_server):
    url = http_server(lambda p, b, h: (429, {}))
    with pytest.raises(TransportError, match="HTTP 429"):
        chat_execute(_spec(), Prompt("s"), url)


@pytest.mark.parametrize("token", [
    {"token": "a", "top_logprobs": []},
    {"token": "a", "logprob": None},
    {"token": "a", "top_logprobs": [{"token": "a", "logprob": "high"}]},
    "a",
    {"token": "a", "logprob": 10 ** 400},  # an integer no float64 holds
])
def test_chat_malformed_logprob_entry_is_transport_error(http_server, token):
    url = http_server(lambda p, b, h: (200, _chat_payload("a", [token])))
    with pytest.raises(TransportError, match="malformed logprobs"):
        chat_execute(_spec(), Prompt("s"), url)


@pytest.mark.parametrize("logprob", ["-0.5", True, False, None, [-0.5]],
                         ids=["numeric string", "true", "false", "null", "list"])
@pytest.mark.parametrize("where", ["logprob", "top_logprobs"])
def test_chat_logprob_that_is_not_a_number_is_transport_error(http_server, logprob, where):
    token = {"token": "a", "logprob": -0.1}
    if where == "logprob":
        token["logprob"] = logprob
    else:
        token["top_logprobs"] = [{"token": "a", "logprob": -0.1},
                                 {"token": "b", "logprob": logprob}]
    url = http_server(lambda p, b, h: (200, _chat_payload("a", [token])))
    with pytest.raises(TransportError, match="not a JSON number"):
        chat_execute(_spec(), Prompt("s"), url)


@pytest.mark.parametrize("logprob", [1e-300, 0.5, 1e308, float("inf")])
def test_chat_positive_logprob_is_transport_error(logprob):
    body = _chat_payload("a", [{"token": "a", "logprob": -0.1, "top_logprobs": [
        {"token": "a", "logprob": -0.1}, {"token": "b", "logprob": logprob}]}])
    with pytest.raises(TransportError, match="probability above 1"):
        chat_execute(_spec(), Prompt("s"), "fake", session=_FakeSession(body))


def test_chat_zero_and_negative_zero_logprobs_are_point_masses():
    body = _chat_payload("a", [{"token": "a", "logprob": 0.0},
                               {"token": "b", "logprob": -0.0}])
    resp = chat_execute(_spec(), Prompt("s"), "fake", session=_FakeSession(body))
    assert resp.token_entropies == (0.0, 0.0)


def test_chat_null_usage_is_transport_error(http_server):
    payload = _chat_payload("no logprobs here", None)
    payload["usage"] = None
    url = http_server(lambda p, b, h: (200, payload))
    with pytest.raises(TransportError, match="usage"):
        chat_execute(_spec(), Prompt("s"), url)


@pytest.mark.parametrize("with_logprobs", [False, True])
def test_chat_null_content_is_transport_error(http_server, with_logprobs):
    tokens = [{"token": "a", "logprob": 0.0,
               "top_logprobs": [{"token": "a", "logprob": 0.0}]}]
    payload = _chat_payload(None, tokens if with_logprobs else None)
    url = http_server(lambda p, b, h: (200, payload))
    with pytest.raises(TransportError, match="content"):
        chat_execute(_spec(), Prompt("s"), url)


def _chat_with_logprobs(logprobs):
    payload = _chat_payload("a", None)
    payload["choices"][0]["logprobs"] = logprobs
    return payload


def _chat_with_usage(usage):
    payload = _chat_payload("a", None)
    payload["usage"] = usage
    return payload


@pytest.mark.parametrize("payload", [
    [{"choices": []}],                                 # a list body
    {"choices": None},                                 # null choices
    {"choices": [None]},                               # a null choice
    {"choices": [{"message": None}]},                  # a null message
    _chat_with_logprobs([{"token": "a"}]),             # a list of logprobs
    _chat_with_usage({"completion_tokens": "many"}),   # non-numeric token count
], ids=["list body", "null choices", "null choice", "null message",
        "list logprobs", "text completion_tokens"])
def test_chat_malformed_payload_is_transport_error(http_server, payload):
    url = http_server(lambda p, b, h: (200, payload))
    with pytest.raises(TransportError, match="malformed chat response"):
        chat_execute(_spec(), Prompt("s"), url)


# --- random reply bodies ---
#
# Any JSON value may stand at any point of a reply, including the NaN and
# infinities Python's json module parses and integers no float64 holds.

_json = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=5)
    | st.integers() | st.sampled_from([10 ** 400, -10 ** 400]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8)


def _or_junk(valid):
    """`valid` three times in four, else any JSON value in its place."""
    return st.integers(0, 3).flatmap(lambda i: valid if i else _json)


def _shaped(optional=None, **fields):
    """An object with these fields and perhaps the optional ones, or junk."""
    return _or_junk(st.fixed_dictionaries(fields, optional=optional or {}))


def _list(item):
    return _or_junk(st.lists(item, min_size=1, max_size=3))


_number = _or_junk(st.sampled_from([0.0, -1e308, 1e308, 10 ** 400]) | st.floats())


_chat_reply = _shaped(
    choices=_list(_shaped(
        message=_shaped(content=_or_junk(st.text())),
        optional={"logprobs": _shaped(content=_list(_shaped(
            logprob=_number, optional={"top_logprobs": _list(_shaped(logprob=_number))})))})),
    optional={"usage": _shaped(completion_tokens=_number)})


class _FakeSession:
    """Answers every POST with status 200 and a fixed decoded body."""

    status_code = 200

    def __init__(self, body):
        self.body = body

    def post(self, url, json, headers, timeout):
        return self

    def json(self):
        return self.body


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_chat_reply)
@example({"choices": [{"message": {"content": "a"}, "logprobs": {"content": [
    {"top_logprobs": [{"logprob": 1e308}, {"logprob": -1e308}]}]}}]})
def test_chat_reply_of_any_shape_is_a_response_or_transport_error(body):
    try:
        resp = chat_execute(_spec(), Prompt("s"), "fake", session=_FakeSession(body))
    except TransportError:
        return
    assert isinstance(resp, AgentResponse)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_shaped(choices=_list(_shaped(message=_shaped(content=_or_junk(st.text()))))))
def test_summarizer_reply_of_any_shape_is_a_decision_or_transport_error(body):
    summarizer = ChatSummarizer("fake")
    summarizer._session = _FakeSession(body)
    try:
        decision = summarizer.decide("q", [_resp(0, 1, "t")])
    except TransportError:
        return
    assert decision is CONTINUE or isinstance(decision, Final)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_shaped(embedding=_or_junk(st.lists(_number, min_size=2, max_size=2))))
def test_embedding_reply_of_any_shape_is_a_vector_or_transport_error(body):
    try:
        vec = remote_embed("text", "fake", 2, session=_FakeSession(body))
    except TransportError:
        return
    assert vec.shape == (2,) and np.isfinite(vec).all()


class _NotJson(_FakeSession):
    def json(self):
        raise ValueError("Expecting value: line 1 column 1 (char 0)")


def test_reply_that_is_not_json_is_a_typed_error():
    summarizer = ChatSummarizer("fake")
    summarizer._session = _NotJson(None)
    for call in (lambda: chat_execute(_spec(), Prompt("s"), "fake", session=_NotJson(None)),
                 lambda: summarizer.finalize("q", [_resp(0, 1, "t")]),
                 lambda: remote_embed("text", "fake", 2, session=_NotJson(None))):
        with pytest.raises(TransportError, match="malformed .* response from fake"):
            call()


def test_chat_pool_backend_round_trip(http_server):
    tokens = [{"token": "a", "logprob": 0.0,
               "top_logprobs": [{"token": "a", "logprob": 0.0}]}]
    url = http_server(lambda p, b, h: (200, _chat_payload("pooled", tokens)))
    backend = ChatPoolBackend([_spec(0), _spec(1)], url)
    assert backend.size == 2
    resp = backend.execute(1, Prompt("s", "c"), step_index=2, seed=0)
    assert resp.agent_id == 1
    assert resp.step_index == 2
    assert resp.text == "pooled"


def test_racing_first_calls_open_one_session(http_server, monkeypatch):
    import requests

    opened = []

    class SlowCountingSession(requests.Session):
        def __init__(self):
            super().__init__()
            time.sleep(0.01)  # widens the window a racing call could slip into
            opened.append(self)

    monkeypatch.setattr(requests, "Session", SlowCountingSession)
    tokens = [{"token": "a", "logprob": 0.0}]
    url = http_server(lambda p, b, h: (200, _chat_payload("a", tokens)))
    backend = ChatPoolBackend([_spec(a) for a in range(8)], url)
    start = threading.Barrier(8, timeout=30)

    def first_call(agent_id):
        start.wait()
        return backend.execute(agent_id, Prompt("s"), 1, 0)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            replies = list(pool.map(first_call, range(8), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert [r.agent_id for r in replies] == list(range(8))
    assert len(opened) == 1


# --- summarizer ---

def test_parse_final_marker():
    decision = parse_summarizer_reply("[FINAL] 42")
    assert isinstance(decision, Final)
    assert decision.answer == "42"


def test_parse_continue_marker():
    assert parse_summarizer_reply("[CONTINUE]") is CONTINUE


def test_parse_malformed_falls_back_to_continue():
    assert parse_summarizer_reply("I think we need more work") is CONTINUE
    assert parse_summarizer_reply("") is CONTINUE


def test_mock_summarizer_scripted_rule():
    backend = MockSummarizer(final_at_step=2)
    early = summarizer_decide("q", [_resp(0, 1, "t")], backend)
    assert early is CONTINUE
    late = summarizer_decide("q", [_resp(0, 2, "t")], backend)
    assert isinstance(late, Final)
    assert "q" in late.answer


def test_summarizer_requires_responses():
    with pytest.raises(ValueError, match="at least one response"):
        summarizer_decide("q", [], MockSummarizer())
    with pytest.raises(ValueError, match="at least one response"):
        summarize_final("q", [], MockSummarizer())


def test_summarize_final_always_answers():
    backend = MockSummarizer(final_at_step=0)
    assert summarizer_decide("q", [_resp(0, 5, "t")], backend) is CONTINUE
    answer = summarize_final("q", [_resp(0, 5, "t")], backend)
    assert "q" in answer


@pytest.mark.parametrize("payload", [
    {"choices": [{"message": None}]},                   # a null message
    {"choices": [{"message": {"content": None}}]},      # null content
    {"choices": [{"message": {"content": 7}}]},         # integer content
], ids=["null message", "null content", "integer content"])
def test_chat_summarizer_malformed_reply_is_transport_error(http_server, payload):
    url = http_server(lambda p, b, h: (200, payload))
    summarizer = ChatSummarizer(url)
    for ask in (summarizer.decide, summarizer.finalize):
        with pytest.raises(TransportError, match="malformed summarizer response"):
            ask("q", [_resp(0, 1, "t")])
