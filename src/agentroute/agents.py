"""Agent runtime: prompt assembly, deterministic mock agents with
controllable output entropy, an OpenAI-style chat client that derives
entropy from logprobs, the tool list prompts describe, and the summarizer.

Mock agents are the ground-truth supervision path: they synthesize token
distributions whose entropy hits a per-task target exactly, so tests can
assert routing behavior against known confidence orderings. The chat path
estimates entropy from renormalized top-j logprobs, which under-estimates
the true value; that bias is accepted and documented here.
"""

from __future__ import annotations

import functools
import math
import re
import threading
from dataclasses import dataclass

import numpy as np

from .core import AgentResponse, AgentSpec, ConfigError, Prompt

# Task tags ride inside the query text, e.g. "[tag:algebra] solve ...".
TAG_PATTERN = r"\[tag:([^\]]+)\]"

FINAL_MARKER = "[FINAL]"
CONTINUE_MARKER = "[CONTINUE]"

SYNTHESIS_INSTRUCTION = (
    "Review the intermediate responses below, keep what is reliable, and "
    "continue the reasoning toward a single well-supported resolution."
)
RESPONSES_HEADER = "Responses from agents:"

DEFAULT_RESPONSE_TEMPLATE = "agent {agent_id} step {step} [{tag}] finding: {nonce}"


# --- remote calls: one JSON POST for chat agents, summarizer and embedder ---

class TransportError(RuntimeError):
    """A remote call failed: no connection, an HTTP status other than 200,
    or a reply that is not the expected JSON."""


class HttpSession:
    """The kept-alive connections of one remote client: a requests.Session,
    opened by its first post_json call. The pool fans calls out over
    threads, so the lock keeps racing first calls from opening two."""

    def __init__(self):
        self.lock = threading.Lock()
        self.session = None


def post_json(session, endpoint: str, payload: dict, *, api_key: str | None,
              timeout: float, what: str, error: type[TransportError]):
    """POST `payload` as JSON to `endpoint` and return the decoded reply.

    `session` is an HttpSession, any object with requests' `post` (a
    test's fake), or None for a one-off connection. A failed request, an
    HTTP status other than 200 or a body that is not JSON raises `error`,
    with `what` naming the service.
    """
    # requests (about 14 MB resident) loads on the first remote call, so
    # runs on mock agents never load it.
    import requests

    if isinstance(session, HttpSession):
        with session.lock:
            if session.session is None:
                session.session = requests.Session()
        session = session.session
    client = requests if session is None else session
    headers = {"Authorization": f"Bearer {api_key}"} if api_key else {}
    try:
        resp = client.post(endpoint, json=payload, headers=headers, timeout=timeout)
    except requests.RequestException as exc:
        raise error(f"{what} request to {endpoint} failed: {exc}") from exc
    if resp.status_code != 200:
        raise error(f"{what} request to {endpoint} failed: HTTP {resp.status_code}")
    try:
        return resp.json()
    except ValueError as exc:
        raise error(f"malformed {what} response from {endpoint}: {exc}") from exc


def json_floats(values) -> np.ndarray:
    """A decoded JSON array of numbers as a float64 vector. Anything else
    raises TypeError, including the strings, booleans and nulls that numpy
    would read as numbers or NaN ("-0.5", true, null); an integer no
    float64 holds raises OverflowError."""
    if not isinstance(values, list):
        raise TypeError(f"expected a JSON array of numbers, got {type(values).__name__}")
    for value in values:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError(f"{value!r} is not a JSON number")
    return np.asarray(values, dtype=np.float64)


def _chat(session, endpoint: str, model: str, system: str, user: str, *,
          api_key: str | None, timeout: float, what: str, **options):
    """One chat-completions exchange: a system and a user message plus
    `options` go out; the reply, its first choice and that choice's message
    text come back."""
    payload = {"model": model, "messages": [{"role": "system", "content": system},
                                            {"role": "user", "content": user}], **options}
    data = post_json(session, endpoint, payload, api_key=api_key, timeout=timeout,
                     what=what, error=TransportError)
    try:
        choice = data["choices"][0]
        text = choice["message"]["content"]
    except (KeyError, IndexError, TypeError) as exc:
        raise TransportError(f"malformed {what} response from {endpoint}: {exc}") from exc
    if not isinstance(text, str):
        raise TransportError(
            f"malformed {what} response from {endpoint}: message content is not a string")
    return data, choice, text


class ToolError(ValueError):
    """A tool rejected its input."""


# --- calculator ---

class _Parser:
    # Recursive descent over: expr := term (('+'|'-') term)*
    #                          term := factor (('*'|'/') factor)*
    #                          factor := number | '(' expr ')' | '-' factor
    _NUMBER = re.compile(r"\d+\.?\d*|\.\d+")

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_spaces(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self):
        self._skip_spaces()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self) -> float:
        value = self._expr()
        if self._peek():
            raise ToolError(f"unexpected character {self._peek()!r} at position {self.pos}")
        return value

    def _expr(self) -> float:
        value = self._term()
        while self._peek() in {"+", "-"}:
            op = self.text[self.pos]
            self.pos += 1
            rhs = self._term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def _term(self) -> float:
        value = self._factor()
        while self._peek() in {"*", "/"}:
            op = self.text[self.pos]
            self.pos += 1
            rhs = self._factor()
            if op == "*":
                value = value * rhs
            else:
                if rhs == 0.0:
                    raise ToolError("division by zero")
                value = value / rhs
        return value

    def _factor(self) -> float:
        ch = self._peek()
        if ch == "-":
            self.pos += 1
            return -self._factor()
        if ch == "(":
            self.pos += 1
            value = self._expr()
            if self._peek() != ")":
                raise ToolError(f"expected ')' at position {self.pos}")
            self.pos += 1
            return value
        match = self._NUMBER.match(self.text, self.pos)
        if not match:
            raise ToolError(f"expected a number at position {self.pos}")
        self.pos = match.end()
        return float(match.group())


def calculator_tool(expression: str) -> str:
    """Evaluate infix arithmetic over +, -, *, /, parentheses, and decimal
    literals; the unicode operators x-times, divide, and minus are accepted
    as aliases. Integral results render without a decimal point."""
    text = expression.replace("×", "*").replace("÷", "/").replace("−", "-")
    value = _Parser(text).parse()
    if not math.isfinite(value):
        raise ToolError("expression did not evaluate to a finite number")
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


# Tools are named and described in prompts; no agent invokes one here.
TOOLS = {
    "calculator":
        "evaluates standard mathematical expressions and returns the numeric result",
    "python": "executes a script and returns its output (stubbed: no sandbox here)",
    "search": "queries a web search engine (stubbed: offline)",
    "knowledge": "looks up reference material (stubbed: offline)",
    "unit_tests": "runs unit tests against candidate code (stubbed: no sandbox here)",
}


# --- prompt assembly ---

def assemble_prompt(agent: AgentSpec, user_query: str,
                    prev_responses=()) -> Prompt:
    """Build an agent prompt: profile plus tools plus the query verbatim in
    the system part, and the previous step's responses numbered in
    selection order in the context part (empty at step 1). Response texts
    are passed through verbatim, no escaping."""
    lines = [agent.profile_text]
    if agent.tool_names:
        lines.append("")
        lines.append("Available tools:")
        for name in agent.tool_names:
            if name not in TOOLS:
                raise ConfigError(f"unknown tool {name!r} for agent {agent.agent_id}")
            lines.append(f"- [{name}] {TOOLS[name]}")
    lines.append("")
    lines.append(user_query)
    system_part = "\n".join(lines)
    prev = list(prev_responses)
    if not prev:
        return Prompt(system_part=system_part, context_part="")
    ctx = [SYNTHESIS_INSTRUCTION, "", RESPONSES_HEADER]
    for index, resp in enumerate(prev, start=1):
        ctx.append(f"{index}. {resp.text}")
    return Prompt(system_part=system_part, context_part="\n".join(ctx))


# --- mock agents ---

_MAX_VOCAB = 1 << 32  # _mock_draws reads each value from one 32-bit half
_HALF = 0xFFFFFFFF


@dataclass(frozen=True)
class MockProfile:
    """A deterministic stand-in agent.

    skill_map maps task tags to (target mean entropy, jitter). Each token's
    distribution is a point-mass/uniform mixture whose blend is solved
    (solve_mixture_eps, target by target) so the token entropy, one closed
    form (_mixture_entropy) whichever symbol carries the point mass, hits
    the (possibly jittered) target to within 1e-9 * max(ln vocab_size, 1);
    the map from blend to entropy is monotone on [0, ln vocab_size], so any
    target in that range is reachable. A zero-jitter target is a constant,
    so its token entropy is computed once per (target, vocab_size),
    memoised, and reported for every token; jittered targets are drawn and
    solved afresh on every call and bypass the memo.
    Targets and jitters must be finite.

    A call's draws come from a PCG64 generator seeded with the call's
    seed: the jittered targets first (standard_normal, one per token),
    then tokens_per_response top-symbol values, which shape nothing, and
    the response nonce (see _mock_draws). Those are read straight from the
    generator's raw 64-bit words by the rule numpy's
    Generator.integers(0, vocab_size, size=count) and then
    Generator.bytes(4) follow, so trace bits follow the PCG64 stream,
    which numpy keeps stable across releases, and not
    Generator.integers' own code. The rule covers vocab_size up to 2**32.
    """

    agent_id: int
    skill_map: dict
    response_template: str = DEFAULT_RESPONSE_TEMPLATE
    vocab_size: int = 16
    tokens_per_response: int = 12

    def __post_init__(self):
        if not 2 <= self.vocab_size <= _MAX_VOCAB:
            raise ConfigError("vocab_size must lie in [2, 2**32]")
        if self.tokens_per_response < 1:
            raise ConfigError("tokens_per_response must be >= 1")
        limit = math.log(self.vocab_size)
        for tag, (target, jitter) in self.skill_map.items():
            if not 0.0 <= target <= limit + 1e-12:
                raise ConfigError(
                    f"target entropy for tag {tag!r} must lie in [0, ln vocab_size]")
            if not 0.0 <= jitter < math.inf:
                raise ConfigError(f"jitter for tag {tag!r} must be finite and non-negative")

    def skill(self, tag: str) -> tuple:
        """The (target entropy, jitter) entry for a task tag, else the
        'default' entry."""
        entry = self.skill_map.get(tag, self.skill_map.get("default"))
        if entry is None:
            raise ConfigError(
                f"agent {self.agent_id} has no skill entry for tag {tag!r}"
                " and no default")
        return entry


def _mock_draws(rng, count: int, vocab: int) -> str:
    """The nonce of a mock call: rng.bytes(4).hex() as drawn right after
    rng.integers(0, vocab, size=count), read from
    rng.bit_generator.random_raw words by the rule numpy follows for
    vocab <= 2**32. Each of the count values takes the next 32-bit half x,
    a fresh word's low half first, and takes another while
    (x * vocab) mod 2**32 < (2**32 - vocab) mod vocab (Lemire's
    rejection); the values themselves shape nothing. The nonce is the next
    half, the carried high half when an odd number of halves was used, as
    4 little-endian bytes.

    The generator must have no carried half of its own (a fresh one, or
    one that has only drawn doubles since), and it is left advanced past
    whole words, possibly more than integers and bytes would take, so
    callers drop it afterwards."""
    threshold = (_MAX_VOCAB - vocab) % vocab
    words = rng.bit_generator.random_raw(count // 2 + 1)
    halves = words.astype("<u8", copy=False).view("<u4")
    # Below 2**64 for vocab <= 2**32.
    scaled = np.multiply(halves[:count], vocab, dtype=np.uint64)
    if threshold and ((scaled & _HALF) < threshold).any():
        return _nonce_after_rejections(rng, count, vocab, threshold, halves.tolist())
    return _nonce(int(halves[count]))


def _nonce_after_rejections(rng, count, vocab, threshold, halves):
    # The rule of _mock_draws, one half at a time, drawing more words as
    # rejections use up the ones drawn.
    accepted = 0
    position = 0
    while True:
        if position == len(halves):
            word = int(rng.bit_generator.random_raw())
            halves += [word & _HALF, word >> 32]
        x = halves[position]
        position += 1
        if accepted == count:
            return _nonce(x)
        accepted += (x * vocab) & _HALF >= threshold


def _nonce(half: int) -> str:
    return half.to_bytes(4, "little").hex()


# Newton from a level-16 table bracket only halves its distance to a root
# near eps = 1, where H - ln vocab has a double root: 7 steps keep
# |H - t| <= 2e-10 * max(ln vocab, 1) there, 5 reach 3.2e-9 (vocab near
# 2**20, targets a few ulps below the snap to 1).
_TABLE_LEVELS = 16
_NEWTON_STEPS = 7
_TABLE_CHUNK = 2048
_TOP_SNAP = 1e-15  # targets this close to ln vocab snap to eps = 1
_TABLE_STEP = math.ldexp(1.0, -_TABLE_LEVELS)


def _mixture_entropy(eps, vocab_size: int):
    """Entropy of the mixture (1 - eps) * point_mass + eps * uniform(vocab_size),
    -(p_top ln p_top + (vocab_size - 1) p_rest ln p_rest), whichever symbol
    carries the point mass. Where eps / vocab_size is 0 the mixture is the
    point mass (0 ln 0 = 0) and the entropy is +0.0."""
    p_rest = eps / vocab_size
    p_top = (1.0 - eps) + p_rest
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -(p_top * np.log(p_top) + (vocab_size - 1) * (p_rest * np.log(p_rest)))
    return np.where(p_rest > 0.0, h, 0.0)


@functools.lru_cache(maxsize=8)
def _entropy_table(vocab_size: int) -> np.ndarray:
    """_mixture_entropy at the 2**_TABLE_LEVELS + 1 dyadic points
    j * 2**-_TABLE_LEVELS, j = 0 .. 2**_TABLE_LEVELS, built on first use in
    chunks so the build adds little peak memory beyond the table's own
    512 KiB."""
    size = 1 << _TABLE_LEVELS
    table = np.empty(size + 1)
    for start in range(0, size + 1, _TABLE_CHUNK):
        eps = np.arange(start, min(start + _TABLE_CHUNK, size + 1)) * _TABLE_STEP
        table[start:start + eps.size] = _mixture_entropy(eps, vocab_size)
    table.flags.writeable = False
    return table


def _newton_step(t, eps, vocab_size: int):
    # Newton on H(eps) - t with the slope H' = (1 - 1/V) * ln(p_top / p_rest).
    # H - eps * H' is -ln p_top, so eps + (t - H) / H' is (t + ln p_top) / H'.
    scale = 1.0 - 1.0 / vocab_size
    log_top = np.log(1.0 - scale * eps)
    return (t + log_top) / (scale * (log_top - np.log(eps / vocab_size)))


def solve_mixture_eps(targets, vocab_size: int) -> np.ndarray:
    """The blend eps of (1 - eps) * point_mass + eps * uniform(vocab_size)
    whose entropy H(eps) hits each target t to within
    1e-9 * max(ln vocab_size, 1); t <= 0 snaps to eps = 0 and t within
    1e-15 of ln vocab_size to eps = 1. Targets must be numbers in
    [0, ln vocab_size]; anything else, NaN included, raises ValueError. No
    targets give an empty array.

    H is _mixture_entropy, concave and rising from 0 to ln vocab_size. A
    per-vocab table of H at the points j * 2**-16 gives each target's
    bracket; the secant through its ends starts at or right of the root,
    the first Newton step lands left of it, and the rest climb to it; the
    clip to the bracket catches rounding. Each eps depends on its own
    target only, so a concatenation solves to the concatenated solves.
    """
    t = np.atleast_1d(np.asarray(targets, dtype=np.float64))
    if not ((t >= 0.0) & (t <= math.log(vocab_size) + 1e-12)).all():
        raise ValueError("target entropy must be a number in [0, ln vocab_size]")
    return _solve(t, vocab_size) if t.size else np.empty(0)


def _solve(t, vocab_size: int):
    # solve_mixture_eps on targets known to lie in [0, ln vocab_size].
    table = _entropy_table(vocab_size)
    count = np.searchsorted(table[1:-1], t, side="right")
    lo = count * _TABLE_STEP
    hi = lo + _TABLE_STEP
    h_lo = table[count]
    # At eps = 0 the slope is infinite (log 0) and the step stays at 0, where
    # a subnormal target's start can underflow; H = 0 meets its contract.
    # A target that snaps to eps = 1 may divide 0 by 0.
    with np.errstate(divide="ignore", invalid="ignore"):
        eps = lo + (t - h_lo) / (table[count + 1] - h_lo) * _TABLE_STEP
        for _ in range(_NEWTON_STEPS):
            eps = np.fmin(np.fmax(_newton_step(t, eps, vocab_size), lo), hi)
    eps[t <= 0.0] = 0.0
    eps[t >= math.log(vocab_size) - _TOP_SNAP] = 1.0
    return eps


@functools.lru_cache(maxsize=1024)
def _constant_target_entropy(target: float, vocab_size: int) -> float:
    """Token entropy of a zero-jitter target. Zero-jitter targets are
    profile constants, so their solve repeats on every call; jittered
    targets are fresh per call and never come here."""
    return float(_mixture_entropy(solve_mixture_eps(target, vocab_size), vocab_size)[0])


def mock_execute(profile: MockProfile, prompt: Prompt, task_tag: str,
                 seed: int, step_index: int = 1) -> AgentResponse:
    """Deterministic mock execution: same (profile, seed, tag) yields an
    identical response. The prompt shapes nothing here; supervision comes
    entirely from the skill map."""
    target, jitter = profile.skill(task_tag)
    rng = np.random.default_rng(seed)
    count = profile.tokens_per_response
    vocab = profile.vocab_size
    if jitter > 0.0:
        # np.clip's bits for finite input, without its dispatch; the
        # profile admits only finite targets and jitters, so the clipped
        # targets need no range check.
        targets = np.minimum(np.maximum(target + jitter * rng.standard_normal(count),
                                        0.0), math.log(vocab))
        entropies = _mixture_entropy(_solve(targets, vocab), vocab)
    else:
        entropies = np.full(count, _constant_target_entropy(float(target), vocab))
    nonce = _mock_draws(rng, count, vocab)
    text = profile.response_template.format(
        agent_id=profile.agent_id, step=step_index, tag=task_tag, nonce=nonce)
    return AgentResponse(
        agent_id=profile.agent_id,
        step_index=step_index,
        text=text,
        token_entropies=tuple(entropies.tolist()),
        token_count=count,
        # np.mean's own sum and division, without its dispatch.
        predictive_entropy=float(np.add.reduce(entropies)) / count,
    )


# --- remote chat agents ---

def _entropy_from_top_logprobs(top_logprobs) -> float:
    lps = json_floats([entry["logprob"] for entry in top_logprobs])
    if (lps > 0.0).any():
        raise ValueError(f"logprob {lps[lps > 0.0][0]} is a probability above 1")
    top = np.max(lps)
    if not np.isfinite(top):  # NaN (a null logprob), +inf, or every entry -inf
        raise ValueError(f"logprobs {lps.tolist()} have no finite maximum")
    # Renormalize the truncated distribution; this under-estimates the true
    # entropy because the tail mass is folded into the top-j entries. A
    # logprob more than the float range below the top has zero mass.
    with np.errstate(over="ignore"):
        shifted = np.exp(lps - top)
    p = shifted / shifted.sum()
    nz = p[p > 0.0]
    return float(-np.sum(nz * np.log(nz)) + 0.0)


def chat_execute(agent: AgentSpec, prompt: Prompt, endpoint: str, *,
                 api_key: str | None = None, timeout: float = 60.0,
                 top_logprobs: int = 5, temperature: float = 0.1,
                 step_index: int = 1, session=None) -> AgentResponse:
    """Call an OpenAI-compatible chat-completions endpoint with logprobs
    enabled and derive per-token entropy from the returned top-j lists.

    Responses without logprobs come back with predictive_entropy None;
    those cannot serve as training targets.
    """
    data, choice, text = _chat(
        session, endpoint, agent.model_ref, prompt.system_part,
        prompt.context_part or "Provide your response to the query.",
        api_key=api_key, timeout=timeout, what="chat",
        logprobs=True, top_logprobs=top_logprobs, temperature=temperature)
    logprobs = choice.get("logprobs") or {}
    if not isinstance(logprobs, dict):
        raise TransportError(
            f"malformed chat response from {endpoint}: logprobs is not an object")
    content = logprobs.get("content")
    if not content:
        try:
            token_count = int(data.get("usage", {}).get("completion_tokens") or 0)
        except (AttributeError, TypeError, ValueError, OverflowError) as exc:
            raise TransportError(
                f"malformed chat response from {endpoint}: usage {exc!r}") from exc
        if token_count < 1:
            token_count = max(1, len(text.split()))
        return AgentResponse(agent_id=agent.agent_id, step_index=step_index,
                             text=text, token_entropies=(),
                             token_count=token_count, predictive_entropy=None)
    entropies = []
    try:
        for token in content:
            tops = token.get("top_logprobs") or [{"logprob": token["logprob"]}]
            entropies.append(_entropy_from_top_logprobs(tops))
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise TransportError(
            f"malformed logprobs in chat response from {endpoint}: {exc!r}") from exc
    return AgentResponse(agent_id=agent.agent_id, step_index=step_index,
                         text=text, token_entropies=tuple(entropies),
                         token_count=len(entropies),
                         predictive_entropy=float(np.mean(entropies)))


# --- pool backends ---

class MockPoolBackend:
    """Executes the whole pool as deterministic mocks. The task tag is read
    from a [tag:...] marker carried by the query inside the system prompt;
    queries without a marker fall back to the 'default' skill entry."""

    def __init__(self, specs, profiles, tag_pattern: str = TAG_PATTERN):
        specs = list(specs)
        profiles = list(profiles)
        if len(specs) != len(profiles):
            raise ConfigError("one mock profile per agent spec required")
        for index, (spec, profile) in enumerate(zip(specs, profiles)):
            if spec.agent_id != index or profile.agent_id != index:
                raise ConfigError("agent ids must be dense integers 0..N-1 in order")
        self.specs = specs
        self.profiles = profiles
        self._tag_re = re.compile(tag_pattern)

    @property
    def size(self) -> int:
        return len(self.specs)

    def spec(self, agent_id: int) -> AgentSpec:
        return self.specs[agent_id]

    def execute(self, agent_id: int, prompt: Prompt, step_index: int,
                seed: int) -> AgentResponse:
        match = self._tag_re.search(prompt.system_part)
        tag = match.group(1) if match else "default"
        return mock_execute(self.profiles[agent_id], prompt, tag, seed,
                            step_index=step_index)


class ChatPoolBackend:
    """Executes pool agents against an OpenAI-compatible chat endpoint."""

    def __init__(self, specs, endpoint: str, *, api_key: str | None = None,
                 timeout: float = 60.0, top_logprobs: int = 5,
                 temperature: float = 0.1):
        self.specs = list(specs)
        for index, spec in enumerate(self.specs):
            if spec.agent_id != index:
                raise ConfigError("agent ids must be dense integers 0..N-1 in order")
        self.endpoint = endpoint
        self.api_key = api_key
        self.timeout = timeout
        self.top_logprobs = top_logprobs
        self.temperature = temperature
        self._session = HttpSession()

    @property
    def size(self) -> int:
        return len(self.specs)

    def spec(self, agent_id: int) -> AgentSpec:
        return self.specs[agent_id]

    def execute(self, agent_id: int, prompt: Prompt, step_index: int,
                seed: int) -> AgentResponse:
        return chat_execute(self.specs[agent_id], prompt, self.endpoint,
                            api_key=self.api_key, timeout=self.timeout,
                            top_logprobs=self.top_logprobs,
                            temperature=self.temperature,
                            step_index=step_index, session=self._session)


# --- summarizer ---

@dataclass(frozen=True)
class Final:
    answer: str


CONTINUE = object()


def parse_summarizer_reply(reply: str):
    """Leading [FINAL] yields Final(rest); [CONTINUE] or anything malformed
    yields CONTINUE, deferring to the step-limit backstop."""
    body = reply.strip()
    if body.startswith(FINAL_MARKER):
        return Final(body[len(FINAL_MARKER):].strip())
    return CONTINUE


def _numbered(responses) -> str:
    return "\n".join(f"{i}. {r.text}" for i, r in enumerate(responses, start=1))


class MockSummarizer:
    """Scripted termination: Continue until final_at_step (0 = never), then
    Final with a templated answer."""

    def __init__(self, final_at_step: int = 0,
                 answer_template: str = "synthesis of {count} responses at step {step}: {query}"):
        self.final_at_step = final_at_step
        self.answer_template = answer_template

    def _answer(self, query, responses) -> str:
        return self.answer_template.format(
            query=query, count=len(responses), step=responses[-1].step_index)

    def decide(self, query, responses):
        if self.final_at_step and responses[-1].step_index >= self.final_at_step:
            return Final(self._answer(query, responses))
        return CONTINUE

    def finalize(self, query, responses) -> str:
        return self._answer(query, responses)


class ChatSummarizer:
    """Summarizer backed by a chat endpoint; replies are parsed for the
    [FINAL]/[CONTINUE] markers."""

    SYSTEM = ("You are the final summarizer for a team of agents. Read the "
              "query and the candidate responses. If the evidence already "
              f"supports a reliable answer, reply '{FINAL_MARKER} <answer>'. "
              f"If another round of reasoning is needed, reply '{CONTINUE_MARKER}'.")
    SYSTEM_FORCED = ("You are the final summarizer for a team of agents. "
                     "Synthesize the candidate responses into the single best "
                     "final answer and output only that answer.")

    def __init__(self, endpoint: str, model_ref: str = "summarizer", *,
                 api_key: str | None = None, timeout: float = 60.0,
                 temperature: float = 0.1):
        self.endpoint = endpoint
        self.model_ref = model_ref
        self.api_key = api_key
        self.timeout = timeout
        self.temperature = temperature
        self._session = HttpSession()

    def _call(self, system: str, query: str, responses) -> str:
        user = f"Query: {query}\n\nCandidate responses:\n{_numbered(responses)}"
        return _chat(self._session, self.endpoint, self.model_ref, system, user,
                     api_key=self.api_key, timeout=self.timeout, what="summarizer",
                     temperature=self.temperature)[2]

    def decide(self, query, responses):
        return parse_summarizer_reply(self._call(self.SYSTEM, query, responses))

    def finalize(self, query, responses) -> str:
        reply = self._call(self.SYSTEM_FORCED, query, responses).strip()
        # A stray marker is metadata, not answer content.
        if reply.startswith(FINAL_MARKER):
            reply = reply[len(FINAL_MARKER):].strip()
        return reply


def summarizer_decide(query: str, current_responses, backend):
    """Ask the summarizer whether to stop; Final carries the answer."""
    responses = list(current_responses)
    if not responses:
        raise ValueError("summarizer needs at least one response")
    return backend.decide(query, responses)


def summarize_final(query: str, current_responses, backend) -> str:
    """Force a final answer out of the summarizer (step-limit backstop)."""
    responses = list(current_responses)
    if not responses:
        raise ValueError("summarizer needs at least one response")
    return backend.finalize(query, responses)
