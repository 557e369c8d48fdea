"""Self-test of the chat stub the ttt-chat workload talks to.

    python3 -m pytest bench -q
"""

import json
import sys
import time
from pathlib import Path

import pytest
import requests

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from agentroute.agents import ChatPoolBackend, ChatSummarizer, Final, CONTINUE  # noqa: E402
from agentroute.core import AgentResponse, AgentSpec, Prompt  # noqa: E402

from chat_stub import SERVICE_DELAY_S, TOP_LOGPROBS, StubProcess, agent_model_ref, \
    reply  # noqa: E402

EXPERTS = {"alpha": [1]}


def _specs():
    return [AgentSpec(agent_id=a, model_ref=agent_model_ref(a),
                      profile_text=f"You are agent #{a}.") for a in range(3)]


@pytest.fixture(scope="module")
def stub():
    with StubProcess(EXPERTS) as process:
        yield process


def test_reply_is_a_function_of_the_body():
    body = json.dumps({"model": agent_model_ref(2), "logprobs": True,
                       "messages": [{"role": "system", "content": "[tag:alpha] q"}]}).encode()
    assert reply(body, EXPERTS) == reply(body, EXPERTS)
    other = body.replace(b"q", b"r")
    assert reply(body, EXPERTS) != reply(other, EXPERTS)


def test_agent_calls_carry_top_logprobs_and_expert_entropy_is_lower(stub):
    pool = ChatPoolBackend(_specs(), stub.url)
    prompt = Prompt(system_part="You are an agent.\n\n[tag:alpha] case 3")
    expert = pool.execute(1, prompt, 1, 0)
    other = pool.execute(2, prompt, 1, 0)
    assert 8 <= expert.token_count <= 16
    assert expert.predictive_entropy < other.predictive_entropy
    assert pool.execute(1, prompt, 1, 0) == expert

    payload = {"model": agent_model_ref(0), "logprobs": True, "top_logprobs": 5,
               "messages": [{"role": "system", "content": prompt.system_part}]}
    doc = requests.post(stub.url, json=payload, timeout=10).json()
    for token in doc["choices"][0]["logprobs"]["content"]:
        assert len(token["top_logprobs"]) == TOP_LOGPROBS


def _response(step):
    return AgentResponse(agent_id=0, step_index=step, text=f"agent 0 step {step} finding",
                         token_entropies=(), token_count=1, predictive_entropy=None)


def test_agents_number_their_steps(stub):
    pool = ChatPoolBackend(_specs(), stub.url)
    first = pool.execute(0, Prompt(system_part="[tag:alpha] case 3"), 1, 0)
    assert " step 1 " in first.text
    context = Prompt(system_part="[tag:alpha] case 3",
                     context_part=f"Responses from agents:\n1. {first.text}")
    assert " step 2 " in pool.execute(2, context, 2, 0).text


def test_summarizer_stops_at_step_two_or_three(stub):
    summarizer = ChatSummarizer(stub.url)
    at_step = {}
    for step in (1, 2, 3):
        at_step[step] = {isinstance(summarizer.decide(f"[tag:alpha] case {i}",
                                                      [_response(step)]), Final)
                         for i in range(12)}
    assert at_step == {1: {False}, 2: {False, True}, 3: {True}}
    assert summarizer.decide("[tag:alpha] case 0", [_response(1)]) is CONTINUE
    answer = summarizer.finalize("[tag:alpha] case 3", [_response(1)])
    assert answer.startswith("answer ") and "[FINAL]" not in answer


def test_keep_alive_round_trips_do_not_stall_on_delayed_ack(stub):
    # Headers and body written in two sends stall each keep-alive response
    # on the client's delayed ACK, about 40 ms on Linux.
    pool = ChatPoolBackend(_specs(), stub.url)
    prompt = Prompt(system_part="[tag:alpha] case 3")
    pool.execute(0, prompt, 1, 0)
    calls = 20
    start = time.perf_counter()
    for _ in range(calls):
        pool.execute(0, prompt, 1, 0)
    per_call = (time.perf_counter() - start) / calls
    assert SERVICE_DELAY_S <= per_call < 0.035


def test_malformed_requests_get_an_error_status(stub):
    resp = requests.post(stub.url, data=b"not json", timeout=10)
    assert resp.status_code == 400
    resp = requests.post(stub.url.replace("/v1/chat/completions", "/other"),
                         json={}, timeout=10)
    assert resp.status_code == 404


def test_stub_stops_with_its_owner():
    with StubProcess(EXPERTS) as process:
        proc, url = process.proc, process.url
        assert url.startswith("http://127.0.0.1:")
    assert proc.returncode is not None
    with pytest.raises(requests.ConnectionError):
        requests.post(url, json={}, timeout=5)
