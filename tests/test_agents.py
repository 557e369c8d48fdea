import math
import os
import subprocess
import sys
import threading
import time
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


def _reference_solve_mixture_eps(targets, vocab_size, tol=1e-9):
    # The original bisection, which evaluates the entropy twice per
    # iteration through the zero-masked x log x; the solver must match it
    # bit for bit.
    def xlogx(p):
        out = np.zeros_like(p)
        nz = p > 0.0
        out[nz] = p[nz] * np.log(p[nz])
        return out

    def mixture_entropy(eps):
        eps = np.asarray(eps, dtype=np.float64)
        p_top = (1.0 - eps) + eps / vocab_size
        p_rest = eps / vocab_size
        return -(xlogx(p_top) + (vocab_size - 1) * xlogx(p_rest))

    t = np.atleast_1d(np.asarray(targets, dtype=np.float64))
    limit = math.log(vocab_size)
    lo = np.zeros_like(t)
    hi = np.ones_like(t)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        above = mixture_entropy(mid) > t
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
        if np.max(np.abs(mixture_entropy(0.5 * (lo + hi)) - t)) <= tol:
            break
    eps = 0.5 * (lo + hi)
    eps[t <= 0.0] = 0.0
    eps[t >= limit - 1e-15] = 1.0
    return eps


@pytest.mark.parametrize("vocab", [2, 3, 16, 50, 1000])
def test_solve_mixture_eps_matches_reference_bisection_bitwise(vocab):
    rng = np.random.default_rng(vocab)
    limit = math.log(vocab)
    for count in (1, 5, 12):
        for trial in range(20):
            targets = rng.uniform(0.0, limit, size=count)
            if trial == 0:
                targets[0] = 0.0
                targets[-1] = limit
            got = solve_mixture_eps(targets, vocab)
            assert got.tobytes() == _reference_solve_mixture_eps(targets, vocab).tobytes()
    for endpoint in (0.0, limit):
        got = solve_mixture_eps(endpoint, vocab)
        assert got.tobytes() == _reference_solve_mixture_eps(endpoint, vocab).tobytes()


VOCABS = [2, 3, 16, 50, 1000]


def _assert_matches_reference(targets, vocab, tol=1e-9):
    got = solve_mixture_eps(targets, vocab, tol)
    want = _reference_solve_mixture_eps(targets, vocab, tol)
    assert got.tobytes() == want.tobytes(), (vocab, tol, np.asarray(targets).tolist())
    return got


def _record_path_checks(monkeypatch):
    checks = []
    check = agents._monotone_along_path

    def recorded(*args):
        checks.append(check(*args))
        return checks[-1]

    monkeypatch.setattr(agents, "_monotone_along_path", recorded)
    return checks


@pytest.mark.parametrize("vocab", VOCABS)
def test_solve_mixture_eps_matches_reference_on_jittered_targets(vocab, monkeypatch):
    # The shape of mock_execute's input: up to 12 targets jittered around a
    # centre and clipped to [0, ln vocab]. No block goes to the plain loop,
    # not even with a target clipped to ln vocab, where the entropy is flat
    # to rounding: the path predicted for it runs up at every level.
    checks = _record_path_checks(monkeypatch)
    rng = np.random.default_rng(1000 + vocab)
    limit = math.log(vocab)
    for _ in range(1000):
        centre = rng.uniform(0.0, limit)
        jitter = rng.choice([0.01, 0.05, 0.3])
        count = int(rng.integers(1, 13))
        targets = np.clip(centre + jitter * rng.standard_normal(count), 0.0, limit)
        checks.clear()
        _assert_matches_reference(targets, vocab)
        assert checks and all(checks)


@pytest.mark.parametrize("vocab", VOCABS)
def test_solve_mixture_eps_stops_on_table_entries(vocab, monkeypatch):
    # A target equal to the entropy at a tabulated point meets the stop rule
    # there, so the solve ends inside the table's levels at that point,
    # without falling back to the plain loop.
    checks = _record_path_checks(monkeypatch)
    levels = agents._TABLE_LEVELS
    table = agents._entropy_table(vocab)
    rng = np.random.default_rng(2000 + vocab)
    tested = 0
    for level in range(1, levels + 1):
        odd = 2 * rng.integers(0, 1 << (level - 1), size=3) + 1
        index = odd << (levels - level)
        targets = table[index - 1]
        if np.any(targets >= math.log(vocab) - 1e-15):
            continue  # those would snap to 1
        eps = _assert_matches_reference(targets, vocab)
        single = _assert_matches_reference(targets[:1], vocab)
        if level == 1:
            assert eps[0] != 0.5  # the first midpoint is never checked
            continue
        assert eps.tolist() == (index * 2.0 ** -levels).tolist()
        assert single[0] == index[0] * 2.0 ** -levels
        tested += 1
    assert tested >= levels - 3
    assert checks and all(checks)


@pytest.mark.parametrize("vocab", VOCABS)
def test_solve_mixture_eps_matches_reference_at_the_endpoints(vocab):
    limit = math.log(vocab)
    near_top = [limit, limit - 1e-15, limit - 5e-16, np.nextafter(limit, 0.0),
                limit - 2e-15, limit + 1e-13]
    for target in [0.0, 5e-324, 1e-15] + near_top:
        _assert_matches_reference(np.array([target]), vocab)
    rng = np.random.default_rng(3000 + vocab)
    for _ in range(20):
        targets = rng.uniform(0.0, limit, size=6)
        targets[rng.integers(0, 6, size=2)] = rng.choice(near_top + [0.0], size=2)
        _assert_matches_reference(targets, vocab)


@pytest.mark.parametrize("vocab", VOCABS)
@pytest.mark.parametrize("tol", [0.0, 1e-15, 1e-12])
def test_solve_mixture_eps_matches_reference_at_deep_levels(vocab, tol):
    # tol = 0 mostly runs to the 80-halving cap and tol = 1e-15 passes level
    # 48 into the plain loop; tol = 1e-12 ends in the predicted path's
    # deepest levels.
    rng = np.random.default_rng(4000 + vocab)
    limit = math.log(vocab)
    for count in (1, 3, 12):
        for _ in range(10):
            _assert_matches_reference(rng.uniform(0.0, limit, size=count), vocab, tol)


@pytest.mark.parametrize("failing", ["every block", "table", "path", "alternate"])
def test_solve_mixture_eps_fallback_loop_matches_reference(monkeypatch, failing):
    # Declare some blocks not monotone along the path, so the plain loop
    # resolves those levels; the predicted path still follows a failed
    # table. Block 0 is the table and block 1 the path, so "alternate"
    # fails the path only.
    fails = {"every block": lambda block: True,
             "table": lambda block: block == 0,
             "path": lambda block: block == 1,
             "alternate": lambda block: block % 2 == 1}[failing]
    blocks = []
    check = agents._monotone_along_path

    def monotone_unless_failing(above, past_bracket):
        # A forced failure is always safe; a path that really disagrees
        # must still fail.
        blocks.append(None)
        return not fails(len(blocks) - 1) and check(above, past_bracket)

    monkeypatch.setattr(agents, "_monotone_along_path", monotone_unless_failing)
    rng = np.random.default_rng(5000)
    for vocab in VOCABS:
        limit = math.log(vocab)
        for tol in (1e-9, 0.0):
            for count in (1, 12):
                blocks.clear()
                targets = rng.uniform(0.0, limit, size=count)
                if count > 1:
                    targets[0] = limit
                _assert_matches_reference(targets, vocab, tol)
                assert len(blocks) == 2


@pytest.mark.parametrize("estimate", ["lo", "hi", "nan"])
def test_solve_mixture_eps_survives_a_useless_root_estimate(monkeypatch, estimate):
    # The Newton estimate only picks the path to check: the bracket's ends,
    # or NaN, give wrong paths, and the plain loop must repair them.
    def root_at(t, lo, level, vocab_size):
        return {"lo": lo, "hi": lo + 2.0 ** -level,
                "nan": np.full_like(lo, np.nan)}[estimate]

    monkeypatch.setattr(agents, "_newton_root", root_at)
    rng = np.random.default_rng(6000)
    for vocab in VOCABS:
        limit = math.log(vocab)
        for tol in (1e-9, 0.0, 1e-12):
            for count in (1, 12):
                _assert_matches_reference(rng.uniform(0.0, limit, size=count), vocab, tol)


@pytest.mark.parametrize("row", [0, 7, 20])
def test_solve_mixture_eps_resumes_where_the_path_disagrees(monkeypatch, row):
    # Flip one bit of the predicted level-48 bracket count: the path keeps
    # its midpoints up to that row but makes the wrong comparison there, so
    # the plain loop must take over at exactly that level. Tiny tol keeps
    # the stop rule from ending the solve inside the path.
    newton_root, path_count = agents._newton_root, agents._path_count
    width = agents._PATH_LEVELS

    def flipped_root(t, lo, level, vocab_size):
        count = path_count(newton_root(t, lo, level, vocab_size), lo, level, width)
        return lo + ((count ^ (1 << (width - 1 - row))) + 0.5) * 2.0 ** -(level + width)

    resumed = []
    bisect = agents._bisect

    def recorded_bisect(t, lo, level, last, vocab_size, tol):
        resumed.append(level)
        return bisect(t, lo, level, last, vocab_size, tol)

    monkeypatch.setattr(agents, "_newton_root", flipped_root)
    monkeypatch.setattr(agents, "_bisect", recorded_bisect)
    rng = np.random.default_rng(7000 + row)
    for vocab in VOCABS:
        limit = math.log(vocab)
        for tol in (1e-15, 0.0):
            for count in (1, 12):
                resumed.clear()
                _assert_matches_reference(rng.uniform(0.0, limit, size=count), vocab, tol)
                assert resumed[0] == agents._TABLE_LEVELS + row


@pytest.mark.parametrize("vocab", VOCABS)
def test_solve_mixture_eps_duplicate_targets_match_unique_solve(vocab):
    # The stop rule is a max over targets and each path depends only on its
    # own target, so repeats change no bits: mock_execute solves its
    # jittered targets without deduplicating them.
    rng = np.random.default_rng(8000 + vocab)
    limit = math.log(vocab)
    for _ in range(50):
        repeats = rng.uniform(0.0, limit, size=4)[rng.integers(0, 4, size=8)]
        targets = rng.permutation(np.concatenate([repeats, [0.0, 0.0, limit, limit]]))
        unique, inverse = np.unique(targets, return_inverse=True)
        want = _reference_solve_mixture_eps(unique, vocab)[inverse]
        assert solve_mixture_eps(targets, vocab).tobytes() == want.tobytes()


def test_import_builds_no_table_and_loads_no_http_client():
    # The entropy table is built on first use; requests loads with the
    # first remote backend.
    code = ("import sys, agentroute, agentroute.cli, agentroute.agents as a;"
            " print(a._entropy_table.cache_info().currsize, 'requests' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.stdout.split() == ["0", "False"], result.stderr


def test_mock_jittered_responses_match_reference_solver(monkeypatch):
    profiles = [_profile(target, jitter=jitter, vocab=vocab, agent_id=i)
                for i, (target, jitter, vocab) in enumerate([
                    (0.8, 0.05, 16), (2.5, 0.3, 16), (0.05, 0.1, 16),
                    (3.0, 0.2, 50), (0.4, 0.05, 2)])]
    seeds = range(300)
    fast = [mock_execute(p, Prompt("x"), "default", seed=s, step_index=2)
            for p in profiles for s in seeds]
    monkeypatch.setattr(agents, "solve_mixture_eps", _reference_solve_mixture_eps)
    slow = [mock_execute(p, Prompt("x"), "default", seed=s, step_index=2)
            for p in profiles for s in seeds]
    assert fast == slow


def test_mock_constant_target_memo_cold_and_warm_agree():
    memo = agents._constant_target_eps
    for vocab in (2, 16, 50):
        for target in (0.0, 0.3, 0.69, math.log(vocab)):
            for seed in (1, 2):
                memo.cache_clear()
                cold = mock_execute(_profile(target, vocab=vocab), Prompt("x"),
                                    "default", seed=seed)
                warm = mock_execute(_profile(target, vocab=vocab), Prompt("x"),
                                    "default", seed=seed)
                assert memo.cache_info().hits == 1
                assert cold == warm
                reference = _reference_solve_mixture_eps(target, vocab)
                assert memo(float(target), vocab) == reference[0]


def test_mock_jittered_targets_bypass_the_memo():
    mock_execute(_profile(0.8), Prompt("x"), "default", seed=1)
    before = agents._constant_target_eps.cache_info()
    for seed in range(5):
        mock_execute(_profile(0.8, jitter=0.25), Prompt("x"), "default", seed=seed)
    after = agents._constant_target_eps.cache_info()
    assert after.currsize == before.currsize
    assert (after.hits, after.misses) == (before.hits, before.misses)


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
    with pytest.raises(KeyError, match="no skill entry"):
        mock_execute(profile, Prompt("x"), "poetry", seed=1)


def test_mock_profile_rejects_bad_targets():
    with pytest.raises(ConfigError, match="target entropy"):
        MockProfile(agent_id=0, skill_map={"default": (99.0, 0.0)})
    with pytest.raises(ConfigError, match="jitter"):
        MockProfile(agent_id=0, skill_map={"default": (0.5, -1.0)})


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
