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

@dataclass(frozen=True)
class MockProfile:
    """A deterministic stand-in agent.

    skill_map maps task tags to (target mean entropy, jitter). Each token's
    distribution is a point-mass/uniform mixture whose blend is solved so
    the token entropy hits the (possibly jittered) target; the map from
    blend to entropy is monotone on [0, ln vocab_size], so any target in
    that range is reachable by bisection. A zero-jitter target is a
    constant, so its blend is solved once per (target, vocab_size) and
    memoised; jittered targets are drawn and solved afresh on every call
    and bypass the memo. That solve is cheap all the same: it reads the
    first 16 bisection levels from a per-vocab entropy table, built on
    first use, and predicts the path of the next 32 with two Newton steps,
    checked at its own midpoints, bit for bit as the plain loop (see
    solve_mixture_eps).
    """

    agent_id: int
    skill_map: dict
    response_template: str = DEFAULT_RESPONSE_TEMPLATE
    vocab_size: int = 16
    tokens_per_response: int = 12

    def __post_init__(self):
        if self.vocab_size < 2:
            raise ConfigError("vocab_size must be >= 2")
        if self.tokens_per_response < 1:
            raise ConfigError("tokens_per_response must be >= 1")
        limit = math.log(self.vocab_size)
        for tag, (target, jitter) in self.skill_map.items():
            if not 0.0 <= target <= limit + 1e-12:
                raise ConfigError(
                    f"target entropy for tag {tag!r} must lie in [0, ln vocab_size]")
            if jitter < 0.0:
                raise ConfigError(f"jitter for tag {tag!r} must be non-negative")


def _xlogx(p: np.ndarray) -> np.ndarray:
    out = np.zeros_like(p)
    nz = p > 0.0
    out[nz] = p[nz] * np.log(p[nz])
    return out


# Levels 1-16 come from a per-vocab table. Levels 17-48 follow a path read
# off a Newton estimate of the root; 16 + 32 levels stay below level 52, up
# to which lo + k * 2**-L is the very double that 0.5 * (lo + hi) gives, so
# table and path points are the plain loop's midpoints.
_TABLE_LEVELS = 16
_PATH_LEVELS = 32
_MAX_ITERATIONS = 80
_TABLE_CHUNK = 2048
_TOP_SNAP = 1e-15  # targets this close to ln vocab snap to eps = 1


def _path_masks(levels: int):
    # A bracket count c (block points at or below the target) fixes the path:
    # the level-l point clears the low s = levels - l + 1 bits of c and sets
    # bit s - 1. Rows are levels, shallowest first.
    shift = np.arange(levels, 0, -1)[:, None]
    return ~((1 << shift) - 1), 1 << (shift - 1)


_PATH_MASKS = {levels: _path_masks(levels) for levels in (_TABLE_LEVELS, _PATH_LEVELS)}


def _mixture_entropy(eps, vocab_size: int):
    # Entropy of (1 - eps) * point_mass + eps * uniform(vocab_size). Every
    # point evaluated lies in (0, 1], so both masses are positive and x log x
    # needs no zero mask; the operation order matches _xlogx.
    p_top = (1.0 - eps) + eps / vocab_size
    p_rest = eps / vocab_size
    return -(p_top * np.log(p_top) + (vocab_size - 1) * (p_rest * np.log(p_rest)))


@functools.lru_cache(maxsize=8)
def _entropy_table(vocab_size: int) -> np.ndarray:
    """Mixture entropy at the 2**_TABLE_LEVELS - 1 dyadic points
    j * 2**-_TABLE_LEVELS, built on first use in chunks so the build adds
    little peak memory beyond the table's own 512 KiB."""
    size = (1 << _TABLE_LEVELS) - 1
    table = np.empty(size)
    for start in range(0, size, _TABLE_CHUNK):
        stop = min(start + _TABLE_CHUNK, size)
        points = np.arange(start + 1, stop + 1, dtype=np.float64)
        table[start:stop] = _mixture_entropy(points * math.ldexp(1.0, -_TABLE_LEVELS),
                                             vocab_size)
    table.flags.writeable = False
    return table


def _newton_root(t, lo, level: int, vocab_size: int):
    """Estimate each target's root in [lo, lo + 2**-level] by two Newton
    steps from the midpoint, with the slope
    H'(eps) = (1 - 1/V) * ln(p_top / p_rest). Each step is clipped to the
    bracket, and a NaN step (a zero slope, or log 0 at eps = 0) gives lo.
    A target that snaps to eps = 1 gives the bracket's top: H - ln V has a
    double root at eps = 1, so Newton would only halve the distance per
    step, while the loop moves up at every level until rounding noise.
    Only the path read from the estimate depends on it, and the path is
    checked, so it need not be exact."""
    hi = lo + math.ldexp(1.0, -level)
    eps = lo + math.ldexp(1.0, -level - 1)
    scale = 1.0 - 1.0 / vocab_size
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(2):
            p_top = 1.0 - scale * eps
            p_rest = eps / vocab_size
            log_top, log_rest = np.log(p_top), np.log(p_rest)
            shortfall = t + (p_top * log_top + (vocab_size - 1) * (p_rest * log_rest))
            step = eps + shortfall / (scale * (log_top - log_rest))
            eps = np.fmin(np.fmax(step, lo), hi)  # fmax maps NaN to lo
    return np.where(t >= math.log(vocab_size) - _TOP_SNAP, hi, eps)


def _path_count(root, lo, level: int, width: int):
    # The root's bracket count among the 2**width - 1 points that split
    # [lo, lo + 2**-level] into 2**width cells; NaN reads as 0.
    cells = np.floor((root - lo) * math.ldexp(1.0, level + width))
    return np.fmin(np.fmax(cells, 0.0), (1 << width) - 1).astype(np.int64)


def _monotone_along_path(above, past_bracket) -> bool:
    """True when the bracket's path makes the bisection's own comparisons:
    entropy above the target exactly at the points past the bracket."""
    return bool((above == past_bracket).all())


def solve_mixture_eps(targets, vocab_size: int, tol: float = 1e-9) -> np.ndarray:
    """Invert the mixture entropy curve by bisection; exact endpoints snap
    to 0 and 1.

    The mixture is (1 - eps) * point_mass + eps * uniform(vocab_size). The
    result is bit for bit that of the plain loop: bisect [0, 1], evaluate
    the entropy h at each midpoint, stop at the first midpoint after the
    first where max|h - t| <= tol over all targets, or after 80 halvings.

    The loop's midpoints are dyadic, so a bracket count fixes a whole path
    of them. A per-vocab table of the entropy at the first 16 levels'
    points gives each target's level-16 bracket count by searchsorted. Two
    Newton steps inside that bracket predict the root, whose level-48
    bracket count gives the path's next 32 midpoints. Each block evaluates
    h at its path (a gather from the table, one entropy call for the
    predicted path) and finds the first level where the stop rule holds;
    the path is accepted if the loop's comparisons at the levels before it
    agree with it. Otherwise the plain loop resumes at the first level that
    disagrees. The plain loop also resolves every level past 48, where one
    more block would pass level 52 and lo + k * 2**-L could stop being
    exactly 0.5 * (lo + hi).
    """
    t = np.atleast_1d(np.asarray(targets, dtype=np.float64))
    limit = math.log(vocab_size)
    if np.any((t < 0.0) | (t > limit + 1e-12)):
        raise ValueError("target entropy outside [0, ln vocab_size]")
    lo = np.zeros_like(t)
    level = 0  # bisection levels resolved; [lo, lo + 2**-level] brackets
    for width in (_TABLE_LEVELS, _PATH_LEVELS):
        # Point k of this block is lo + k * spacing, k = 1 .. 2**width - 1.
        spacing = math.ldexp(1.0, -(level + width))
        keep, half = _PATH_MASKS[width]
        if level == 0:
            table = _entropy_table(vocab_size)
            count = np.searchsorted(table, t, side="right")
            path = (count & keep) | half
            h = table[path - 1]
        else:
            count = _path_count(_newton_root(t, lo, level, vocab_size), lo, level, width)
            path = (count & keep) | half
            h = _mixture_entropy(lo + path * spacing, vocab_size)
        stop = np.abs(h - t).max(axis=1) <= tol
        stop[0] &= level > 0  # the first midpoint is never checked
        depth = int(stop.argmax()) if stop.any() else width
        # Only the comparisons before the stop decide where the loop stops.
        above, past_bracket = h[:depth] > t, path[:depth] > count
        if _monotone_along_path(above, past_bracket):
            if depth < width:
                return _snap_endpoints(lo + path[depth] * spacing, t, limit)
            lo = lo + count * spacing
        else:
            # The path is the loop's own up to its first disagreement (the
            # block's start, if the check failed with none).
            wrong = (above != past_bracket).any(axis=1)
            resume = int(wrong.argmax()) if wrong.any() else 0
            lo = lo + (count & keep[resume]) * spacing
            lo, eps = _bisect(t, lo, level + resume, level + width, vocab_size, tol)
            if eps is not None:
                return _snap_endpoints(eps, t, limit)
        level += width
    _, eps = _bisect(t, lo, level, _MAX_ITERATIONS + 1, vocab_size, tol)
    return _snap_endpoints(eps, t, limit)


def _bisect(t, lo, level, last, vocab_size: int, tol: float):
    """The plain loop on the bracket [lo, lo + 2**-level], over the
    midpoints of levels level + 1 .. last. Returns the bracket's new lo and
    the midpoint where the stop rule or the halving cap ended the solve, or
    None if neither did."""
    hi = lo + math.ldexp(1.0, -level)
    for halvings in range(level, last):
        mid = 0.5 * (lo + hi)
        h = _mixture_entropy(mid, vocab_size)
        if halvings == _MAX_ITERATIONS or (
                halvings > 0 and np.max(np.abs(h - t)) <= tol):
            return lo, mid
        above = h > t
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    return lo, None


def _snap_endpoints(eps, t, limit):
    eps[t <= 0.0] = 0.0
    eps[t >= limit - _TOP_SNAP] = 1.0
    return eps


@functools.lru_cache(maxsize=1024)
def _constant_target_eps(target: float, vocab_size: int) -> float:
    # Zero-jitter targets are profile constants, so their solve repeats on
    # every call; jittered targets are fresh per call and never come here.
    return float(solve_mixture_eps(target, vocab_size)[0])


def mock_execute(profile: MockProfile, prompt: Prompt, task_tag: str,
                 seed: int, step_index: int = 1) -> AgentResponse:
    """Deterministic mock execution: same (profile, seed, tag) yields an
    identical response. The prompt shapes nothing here; supervision comes
    entirely from the skill map."""
    entry = profile.skill_map.get(task_tag, profile.skill_map.get("default"))
    if entry is None:
        raise KeyError(
            f"agent {profile.agent_id} has no skill entry for tag {task_tag!r}"
            " and no default")
    target, jitter = entry
    rng = np.random.default_rng(seed)
    count = profile.tokens_per_response
    vocab = profile.vocab_size
    if jitter > 0.0:
        targets = np.clip(target + jitter * rng.standard_normal(count),
                          0.0, math.log(vocab))
        eps = solve_mixture_eps(targets, vocab)
    else:
        eps = np.full(count, _constant_target_eps(float(target), vocab))
    top_symbol = rng.integers(0, vocab, size=count)
    dists = np.repeat((eps / vocab)[:, None], vocab, axis=1)
    dists[np.arange(count), top_symbol] += 1.0 - eps
    entropies = -_xlogx(dists).sum(axis=1) + 0.0
    nonce = rng.bytes(4).hex()
    text = profile.response_template.format(
        agent_id=profile.agent_id, step=step_index, tag=task_tag, nonce=nonce)
    return AgentResponse(
        agent_id=profile.agent_id,
        step_index=step_index,
        text=text,
        token_entropies=tuple(float(e) for e in entropies),
        token_count=count,
        predictive_entropy=float(np.mean(entropies)),
    )


# --- remote chat agents ---

def _entropy_from_top_logprobs(top_logprobs) -> float:
    lps = np.asarray([entry["logprob"] for entry in top_logprobs], dtype=np.float64)
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
