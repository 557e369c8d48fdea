"""Domain types, configuration, and the trajectory data model.

Everything downstream (embedding, routing, learning, orchestration) shares
these types. Router arithmetic stays in float64 end to end; trace files
render floats with 17 significant digits so every written value parses back
to the exact same double.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields
from json.encoder import encode_basestring

import numpy as np

SUMMARIZER = "Summarizer"
STEP_LIMIT = "StepLimit"

_UINT64 = 1 << 64


class ConfigError(ValueError):
    """A configuration value violates one of its invariants."""


def derive_seed(parent: int, label: str) -> int:
    """Child seed for (parent, label): sha256 of both, truncated to 64 bits.

    Every random stream in a run (parameter init, mock agents, synthetic
    data) is keyed by the root seed plus a string label, so traces are
    reproducible byte for byte across platforms.
    """
    payload = (parent % _UINT64).to_bytes(8, "big") + label.encode("utf-8")
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


@dataclass(frozen=True)
class RouterConfig:
    """Static routing configuration.

    pool_size     number of candidate agents (logit vector length)
    max_route     cap on agents routed per step
    temperature   softmax temperature used only by the adaptive count rule
    embed_dim     width of all context/hidden vectors
    max_steps     hard step limit for inference
    train_steps   reasoning steps unrolled per query during training
    seed          root seed for all derived randomness
    """

    pool_size: int
    max_route: int
    temperature: float = 0.1
    embed_dim: int = 384
    max_steps: int = 20
    train_steps: int = 3
    seed: int = 0


def validate_config(config: RouterConfig) -> RouterConfig:
    """Return the config unchanged, or raise ConfigError naming the first
    violated invariant."""
    if not isinstance(config.pool_size, int) or config.pool_size < 1:
        raise ConfigError("pool_size must be a positive integer")
    if not isinstance(config.max_route, int) or config.max_route < 1:
        raise ConfigError("max_route must be a positive integer")
    if not (float(config.temperature) > 0.0):
        raise ConfigError("temperature must be positive")
    if not math.isfinite(config.temperature):
        raise ConfigError("temperature must be finite")
    if not isinstance(config.embed_dim, int) or config.embed_dim < 1:
        raise ConfigError("embed_dim must be a positive integer")
    if not isinstance(config.max_steps, int) or config.max_steps < 1:
        raise ConfigError("max_steps must be a positive integer")
    if not isinstance(config.train_steps, int) or config.train_steps < 1:
        raise ConfigError("train_steps must be a positive integer")
    if not isinstance(config.seed, int) or not (0 <= config.seed < _UINT64):
        raise ConfigError("seed must be a 64-bit unsigned integer")
    return config


@dataclass(frozen=True)
class AgentSpec:
    """One pool entry: a dense integer id, the backing model reference,
    the role profile used as system prompt, and named tools.

    Ids index the logit vector directly, so they must be unique and dense
    within a pool; names and profiles are metadata.
    """

    agent_id: int
    model_ref: str
    profile_text: str
    tool_names: tuple[str, ...] = ()

    def __post_init__(self):
        if self.agent_id < 0:
            raise ConfigError("agent_id must be a non-negative integer")
        if not self.profile_text:
            raise ConfigError("profile_text must be non-empty")
        object.__setattr__(self, "tool_names", tuple(self.tool_names))


@dataclass(frozen=True)
class Prompt:
    """An assembled agent prompt: the system part carries the role profile
    plus the user query verbatim; the context part carries the previous
    step's responses (empty at step 1)."""

    system_part: str
    context_part: str = ""


@dataclass
class AgentResponse:
    """One agent's output at one step, with its per-token entropies.

    predictive_entropy is the mean per-token entropy in nats. It is None
    only when the backing service could not report token distributions;
    such responses cannot serve as training targets.
    """

    agent_id: int
    step_index: int
    text: str
    token_entropies: tuple[float, ...]
    token_count: int
    predictive_entropy: float | None

    def __post_init__(self):
        self.token_entropies = tuple(float(e) for e in self.token_entropies)
        if self.step_index < 1:
            raise ValueError("step_index must be >= 1")
        if self.token_count < 1:
            raise ValueError("token_count must be positive")
        for e in self.token_entropies:
            if not math.isfinite(e) or e < 0.0:
                raise ValueError("token entropies must be finite and non-negative")
        if self.token_entropies:
            if self.token_count != len(self.token_entropies):
                raise ValueError("token_count must equal the number of token entropies")
            mean = sum(self.token_entropies) / len(self.token_entropies)
            if self.predictive_entropy is None or abs(self.predictive_entropy - mean) > 1e-9:
                raise ValueError("predictive_entropy must equal the mean token entropy")
        if self.predictive_entropy is not None and not 0.0 <= self.predictive_entropy < math.inf:
            raise ValueError("predictive_entropy must be finite and non-negative")


@dataclass
class StepRecord:
    """One reasoning step's routing artifacts.

    context_X is the vector the router consumed at this step (the query
    embedding at step 1, the aggregated previous-step context after).
    entropy_E is present only on dense-mode steps.
    """

    step_index: int
    logits_z: np.ndarray
    count_probs: np.ndarray
    k: int
    selected_ids: tuple[int, ...]
    alpha: np.ndarray
    context_X: np.ndarray
    entropy_E: np.ndarray | None = None

    def __post_init__(self):
        self.logits_z = np.asarray(self.logits_z, dtype=np.float64)
        self.count_probs = np.asarray(self.count_probs, dtype=np.float64)
        self.alpha = np.asarray(self.alpha, dtype=np.float64)
        self.context_X = np.asarray(self.context_X, dtype=np.float64)
        if self.entropy_E is not None:
            self.entropy_E = np.asarray(self.entropy_E, dtype=np.float64)
        self.selected_ids = tuple(int(i) for i in self.selected_ids)
        if self.step_index < 1:
            raise ValueError("step_index must be >= 1")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if len(self.selected_ids) != self.k or self.alpha.shape != (self.k,):
            raise ValueError("k, selected_ids, and alpha must agree in length")
        if len(set(self.selected_ids)) != self.k:
            raise ValueError("selected_ids must be distinct")
        if abs(float(self.alpha.sum()) - 1.0) > 1e-9:
            raise ValueError("alpha must sum to 1 within 1e-9")


@dataclass
class Trajectory:
    """Ordered reasoning steps plus responses and token accounting.

    Mutable, appended to by a single coordinator; every other type in this
    module is immutable after construction.
    """

    query: str
    steps: list[StepRecord] = field(default_factory=list)
    responses: dict[tuple[int, int], AgentResponse] = field(default_factory=dict)
    final_answer: str | None = None
    terminated_by: str | None = None
    total_agent_calls: int = 0
    total_tokens: int = 0

    def append_step(self, record: StepRecord, executed: list[AgentResponse],
                    config: RouterConfig) -> None:
        """Append one step and the responses actually executed for it.

        `executed` may exceed record.k in dense mode (all agents run) and
        drives the call/token counters.
        """
        n = config.pool_size
        if record.step_index != len(self.steps) + 1:
            raise ValueError("step indices must be contiguous from 1")
        if record.logits_z.shape != (n,) or record.count_probs.shape != (n,):
            raise ValueError("logit vectors must have pool_size entries")
        if record.k > min(config.max_route, n):
            raise ValueError("k exceeds min(max_route, pool_size)")
        if any(not 0 <= a < n for a in record.selected_ids):
            raise ValueError("selected agent id out of range")
        if record.entropy_E is not None and record.entropy_E.shape != (n,):
            raise ValueError("entropy vector must have pool_size entries")
        seen = set()
        for resp in executed:
            if resp.step_index != record.step_index:
                raise ValueError("response step_index does not match the record")
            if resp.agent_id in seen:
                raise ValueError("duplicate agent response within a step")
            seen.add(resp.agent_id)
        self.steps.append(record)
        for resp in executed:
            self.responses[(record.step_index, resp.agent_id)] = resp
        self.total_agent_calls += len(executed)
        self.total_tokens += sum(r.token_count for r in executed)


def new_trajectory(query: str) -> Trajectory:
    if not query:
        raise ValueError("query must be non-empty")
    return Trajectory(query=query)


# --- trace serialization (one JSON object per line) ---
#
# The record dataclasses are the schema: a record is written as a JSON
# object of its fields in declaration order, through a `"name":%s` template
# built once per class from its fields, and read back by passing that object
# to the class, whose __post_init__ validates it. Floats are written with 17
# significant digits, enough to reconstruct the exact float64 on parse, so
# re-serializing a parsed trace is byte-identical. Each float vector takes
# one "%.17g" format call; a whole value below 1e17, which "%.17g" writes as
# bare digits, gets ".0" so it parses back as a float.

_TRACE_FIELDS = {cls: tuple(f.name for f in fields(cls))
                 for cls in (AgentResponse, StepRecord, Trajectory)}
_TEMPLATES = {cls: "{" + ",".join(f'"{name}":%s' for name in names) + "}"
              for cls, names in _TRACE_FIELDS.items()}


def _floats(values) -> str:
    """The floats in `values` as comma-separated JSON numbers."""
    text = ",".join(["%.17g.0" if x.is_integer() and -1e17 < x < 1e17 else "%.17g"
                     for x in values]) % tuple(values)
    if "n" in text:  # only "inf" and "nan" hold an n
        raise ValueError("refusing to serialize a non-finite float")
    return text


def _sequence(value) -> str:
    if value and type(value[0]) is float:  # AgentResponse.token_entropies
        return f"[{_floats(value)}]"
    return "[" + ",".join(map(_emit, value)) + "]"


def _record(value) -> str:
    cls = type(value)
    return _TEMPLATES[cls] % tuple([_emit(getattr(value, name)) for name in _TRACE_FIELDS[cls]])


# The emitter of each type a trace holds, by exact type.
_EMITTERS = {type(None): lambda value: "null",
             bool: lambda value: "true" if value else "false",
             int: str,
             float: lambda value: _floats((value,)),
             str: encode_basestring,
             np.ndarray: lambda value: f"[{_floats(value.tolist())}]",  # float64 only
             list: _sequence, tuple: _sequence,
             # Trajectory.responses: its values, sorted by (step, agent) key.
             dict: lambda value: _sequence([value[key] for key in sorted(value)]),
             **dict.fromkeys(_TRACE_FIELDS, _record)}


def _emit(value) -> str:
    emit = _EMITTERS.get(type(value))
    if emit is not None:
        return emit(value)
    if isinstance(value, np.integer):
        return str(int(value))
    if isinstance(value, np.floating):
        return _floats((float(value),))
    raise TypeError(f"cannot serialize {type(value).__name__}")


def trajectory_to_json(traj: Trajectory) -> str:
    """Render one trajectory as a single JSON line (no trailing newline)."""
    return _emit(traj)


def _record_fields(cls, doc) -> dict:
    # A trace record carries exactly its class's fields, defaults included.
    names = _TRACE_FIELDS[cls]
    if not isinstance(doc, dict) or doc.keys() != set(names):
        got = sorted(doc) if isinstance(doc, dict) else type(doc).__name__
        raise ValueError(f"a {cls.__name__} record needs the keys {list(names)}, not {got}")
    return doc


def trajectory_from_json(line: str) -> Trajectory:
    doc = _record_fields(Trajectory, json.loads(line))
    doc["steps"] = [StepRecord(**_record_fields(StepRecord, s)) for s in doc["steps"]]
    responses = [AgentResponse(**_record_fields(AgentResponse, r)) for r in doc["responses"]]
    doc["responses"] = {(r.step_index, r.agent_id): r for r in responses}
    return Trajectory(**doc)


def write_trace(path, trajectories) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for traj in trajectories:
            fh.write(trajectory_to_json(traj))
            fh.write("\n")


def read_trace(path) -> list[Trajectory]:
    """Read a JSONL trace; a line that is not a trajectory raises ValueError
    naming its line number."""
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                out.append(trajectory_from_json(line))
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"{path}, line {number}: not a trajectory: {exc}") from exc
    return out
