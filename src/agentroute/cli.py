"""Operator surface: config loading and the run subcommands.

Subcommands: train, infer, ttt, gradcheck, simulate. Configuration is a
flat sectioned key=value file so experiments stay diffable; metrics land as
CSV and traces as JSONL. Identical config + seed + fixtures produce
byte-identical output artifacts.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields, replace
from typing import get_type_hints

import numpy as np

from .agents import ChatPoolBackend, ChatSummarizer, MockPoolBackend, \
    MockSummarizer, MockProfile, TOOLS, TransportError
from .core import AgentSpec, ConfigError, RouterConfig, read_trace, \
    validate_config, write_trace
from .embed import HashEmbedder, RemoteEmbedder
from .gradcheck import gradient_check
from .learning import TrainingSettings
from .orchestrator import OrchestrationError, Runtime, infer, \
    test_time_train, train
from .router import init_params, load_params, save_params

API_KEY_ENV = "DMOA_API_KEY"

_AGENT_SECTION = re.compile(r"^agent\s+(\d+)$")
# The two config keys not named after their field.
_RENAMED_KEYS = {"loss_kind": "loss", "response_template": "template"}

TOPOLOGIES = ("chain", "star", "complete", "moa")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# --- config file parsing ---

def _parse_config_file(path):
    """Sections of key = value pairs; returns
    {section: (header_line, {key: (value, line)})}. Lines starting with #
    are comments; values keep everything after the first '='."""
    sections: dict = {}
    current = None
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            stripped = raw.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if stripped.startswith("[") and stripped.endswith("]"):
                name = stripped[1:-1].strip()
                if not name:
                    raise ConfigError(f"{path}:{lineno}: empty section name")
                if name in sections:
                    raise ConfigError(f"{path}:{lineno}: duplicate section [{name}]")
                sections[name] = (lineno, {})
                current = name
                continue
            if current is None:
                raise ConfigError(f"{path}:{lineno}: key outside any section")
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, value = stripped.split("=", 1)
            key = key.strip()
            if not key:
                raise ConfigError(f"{path}:{lineno}: empty key")
            entries = sections[current][1]
            if key in entries:
                raise ConfigError(f"{path}:{lineno}: duplicate key '{key}'")
            entries[key] = (value.strip(), lineno)
    return sections


class _Section:
    """Typed access to one section with unknown-key detection."""

    def __init__(self, path, name, entries):
        self.path = path
        self.name = name
        self.entries = entries
        self.used = set()

    def get(self, key, kind, default=MISSING):
        """The value of `key` parsed as `kind` (str, int or float), else
        `default`; a key with no default is required. A float must not be
        NaN."""
        self.used.add(key)
        if key not in self.entries:
            if default is MISSING:
                raise ConfigError(
                    f"{self.path}: missing required key '{key}' in [{self.name}]")
            return default
        raw, line = self.entries[key]
        try:
            value = kind(raw)
        except ValueError:
            value = math.nan
        if isinstance(value, float) and math.isnan(value):
            what = "an integer" if kind is int else "a number"
            raise ConfigError(f"{self.path}:{line}: key '{key}' must be {what}")
        return value

    def fields_of(self, cls, **given) -> dict:
        """Keyword arguments for the dataclass `cls`: `given`, plus each
        other field read from its key with the field's type and default."""
        types = get_type_hints(cls)
        for f in fields(cls):
            if f.name not in given:
                key = _RENAMED_KEYS.get(f.name, f.name)
                given[f.name] = self.get(key, types[f.name], f.default)
        return given

    @contextmanager
    def blame(self):
        """Prefix a ConfigError raised inside, such as a settings class's
        own check, with the config path and this section."""
        try:
            yield
        except ConfigError as exc:
            raise ConfigError(f"{self.path}: [{self.name}] {exc}") from exc

    def finish(self):
        for key, (_, line) in self.entries.items():
            if key not in self.used:
                raise ConfigError(
                    f"{self.path}:{line}: unknown key '{key}' in [{self.name}]")


@dataclass
class EmbedderSettings:
    kind: str = "hash"
    endpoint: str = ""
    max_chars: int = 0


@dataclass
class BackendSettings:
    backend: str = "mock"
    endpoint: str = ""
    max_workers: int = 1
    top_logprobs: int = 5
    request_timeout: float = 60.0
    decode_temperature: float = 0.1


@dataclass
class SummarizerSettings:
    backend: str = "mock"
    final_at_step: int = 0
    endpoint: str = ""
    model_ref: str = "summarizer"


@dataclass
class PathSettings:
    params_in: str = ""
    params_out: str = "params.bin"
    trace_out: str = "trace.jsonl"
    metrics_out: str = "metrics.csv"


@dataclass
class RunConfig:
    router: RouterConfig
    embedder: EmbedderSettings
    backend: BackendSettings
    summarizer: SummarizerSettings
    training: TrainingSettings
    specs: list
    profiles: list
    paths: PathSettings


def _parse_skills(section: _Section, key: str) -> dict:
    raw = section.get(key, str, "default:1.0:0.0")
    skills = {}
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        parts = item.split(":")
        if len(parts) not in (2, 3):
            line = section.entries[key][1] if key in section.entries else 0
            raise ConfigError(
                f"{section.path}:{line}: skill entries must be tag:entropy[:jitter]")
        try:
            target = float(parts[1])
            jitter = float(parts[2]) if len(parts) == 3 else 0.0
        except ValueError:
            line = section.entries[key][1]
            raise ConfigError(
                f"{section.path}:{line}: skill entropy and jitter must be numbers")
        skills[parts[0].strip()] = (target, jitter)
    return skills


def _parse_spec(section: _Section, agent_id: int) -> AgentSpec:
    profile_text = section.get("profile", str, "")
    if not profile_text:
        raise ConfigError(
            f"{section.path}: agent {agent_id} needs a non-empty 'profile'")
    model_ref = section.get("model_ref", str, "mock")
    names = tuple(name.strip() for name in section.get("tools", str, "").split(",")
                  if name.strip())
    for name in names:
        if name not in TOOLS:
            line = section.entries["tools"][1]
            raise ConfigError(f"{section.path}:{line}: unknown tool '{name}'")
    return AgentSpec(agent_id=agent_id, model_ref=model_ref,
                     profile_text=profile_text, tool_names=names)


def load_config(path) -> RunConfig:
    """Parse and validate a run config; unknown sections or keys are
    errors, and the number of [agent i] sections must equal pool_size.

    Each fixed section is read into its dataclass and each [agent i]
    section into an AgentSpec and a MockProfile: a key is named after its
    field (but see _RENAMED_KEYS), is parsed with the field's type, and
    takes the field's default when left out."""
    sections = _parse_config_file(path)

    def read(name, cls, check=lambda settings: settings):
        _, entries = sections.pop(name, (0, {}))
        section = _Section(path, name, entries)
        values = section.fields_of(cls)
        section.finish()
        with section.blame():
            return check(cls(**values))

    router = read("router", RouterConfig, validate_config)
    embedder = read("embedder", EmbedderSettings)
    if embedder.kind not in ("hash", "remote"):
        raise ConfigError(f"{path}: embedder kind must be 'hash' or 'remote'")
    if embedder.kind == "remote" and not embedder.endpoint:
        raise ConfigError(f"{path}: remote embedder requires an endpoint")
    backend = read("agents", BackendSettings)
    if backend.backend not in ("mock", "chat"):
        raise ConfigError(f"{path}: agent backend must be 'mock' or 'chat'")
    if backend.backend == "chat" and not backend.endpoint:
        raise ConfigError(f"{path}: chat backend requires an endpoint")
    summarizer = read("summarizer", SummarizerSettings)
    if summarizer.backend not in ("mock", "chat"):
        raise ConfigError(f"{path}: summarizer backend must be 'mock' or 'chat'")
    if summarizer.backend == "chat" and not summarizer.endpoint:
        raise ConfigError(f"{path}: chat summarizer requires an endpoint")
    training = read("training", TrainingSettings)
    paths = read("paths", PathSettings)

    agent_entries = {}
    for name in list(sections):
        match = _AGENT_SECTION.match(name)
        if match:
            line, entries = sections.pop(name)
            agent_entries[int(match.group(1))] = _Section(path, name, entries)
    for name, (line, _) in sections.items():
        raise ConfigError(f"{path}:{line}: unknown section [{name}]")

    if sorted(agent_entries) != list(range(router.pool_size)):
        raise ConfigError(
            f"{path}: pool-size mismatch: found agent sections"
            f" {sorted(agent_entries)} but pool_size is {router.pool_size}")

    specs = []
    profiles = []
    for agent_id in range(router.pool_size):
        sec = agent_entries[agent_id]
        specs.append(_parse_spec(sec, agent_id))
        skills = _parse_skills(sec, "skills")
        values = sec.fields_of(MockProfile, agent_id=agent_id, skill_map=skills)
        with sec.blame():
            profiles.append(MockProfile(**values))
        sec.finish()

    return RunConfig(router=router, embedder=embedder, backend=backend,
                     summarizer=summarizer, training=training, specs=specs,
                     profiles=profiles, paths=paths)


def build_runtime(run: RunConfig) -> Runtime:
    api_key = os.environ.get(API_KEY_ENV)
    if run.embedder.kind == "remote":
        embed = RemoteEmbedder(run.embedder.endpoint, run.router.embed_dim,
                               api_key=api_key, max_chars=run.embedder.max_chars)
    else:
        embed = HashEmbedder(run.router.embed_dim, max_chars=run.embedder.max_chars)
    if run.backend.backend == "chat":
        pool = ChatPoolBackend(run.specs, run.backend.endpoint, api_key=api_key,
                               timeout=run.backend.request_timeout,
                               top_logprobs=run.backend.top_logprobs,
                               temperature=run.backend.decode_temperature)
    else:
        pool = MockPoolBackend(run.specs, run.profiles)
    if run.summarizer.backend == "chat":
        summarizer = ChatSummarizer(run.summarizer.endpoint,
                                    run.summarizer.model_ref, api_key=api_key)
    else:
        summarizer = MockSummarizer(final_at_step=run.summarizer.final_at_step)
    return Runtime(pool=pool, summarizer=summarizer, embed=embed,
                   max_workers=run.backend.max_workers)


def _initial_params(run: RunConfig):
    if run.paths.params_in:
        params, _ = load_params(run.paths.params_in, run.router)
        return params
    return init_params(run.router)


def _read_queries(path) -> list[str]:
    with open(path, "r", encoding="utf-8") as fh:
        queries = [line.strip() for line in fh]
    queries = [q for q in queries if q]
    if not queries:
        raise ValueError(f"no queries found in {path}")
    return queries


def _write_metrics(path, report):
    lines = ["epoch,batch,loss"]
    for epoch, batch, loss in report.loss_rows:
        lines.append(f"{epoch},{batch},{_fmt(loss)}")
    for epoch, agreement in enumerate(report.epoch_agreements, start=1):
        lines.append(f"# epoch={epoch} routing_agreement={_fmt(agreement)}")
    lines.append(f"# summary epochs={len(report.epoch_losses)}"
                 f" final_epoch_mean_loss={_fmt(report.epoch_losses[-1])}"
                 f" routing_agreement={_fmt(report.routing_agreement)}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _apply_seed(run: RunConfig, seed) -> RunConfig:
    if seed is None:
        return run
    run.router = validate_config(replace(run.router, seed=seed))
    return run


# --- subcommands ---

def cmd_train(config_path, queries_path, seed=None) -> int:
    run = _apply_seed(load_config(config_path), seed)
    runtime = build_runtime(run)
    queries = _read_queries(queries_path)
    params = _initial_params(run)
    report = train(runtime, queries, params, run.router, run.training)
    save_params(run.paths.params_out, report.params, run.router)
    _write_metrics(run.paths.metrics_out, report)
    print(f"trained on {len(queries)} queries for {run.training.epochs} epochs")
    print(f"final epoch mean loss: {report.epoch_losses[-1]:.6f}")
    print(f"routing agreement (final epoch): {report.routing_agreement:.3f}")
    print(f"params -> {run.paths.params_out}")
    print(f"metrics -> {run.paths.metrics_out}")
    return 0


def cmd_infer(config_path, query=None, queries_path=None, seed=None) -> int:
    if (query is None) == (queries_path is None):
        raise ValueError("provide exactly one of --query or --queries")
    run = _apply_seed(load_config(config_path), seed)
    runtime = build_runtime(run)
    queries = [query] if query is not None else _read_queries(queries_path)
    params = _initial_params(run)
    trajectories = [infer(runtime, q, params, run.router, query_index=i)
                    for i, q in enumerate(queries)]
    write_trace(run.paths.trace_out, trajectories)
    if query is not None:
        print(trajectories[0].final_answer)
    else:
        total_calls = 0
        total_tokens = 0
        for i, traj in enumerate(trajectories):
            per_step_k = "+".join(str(s.k) for s in traj.steps)
            total_calls += traj.total_agent_calls
            total_tokens += traj.total_tokens
            print(f"query {i}: steps={len(traj.steps)} agent_calls={per_step_k}"
                  f"={traj.total_agent_calls} tokens={traj.total_tokens}"
                  f" terminated_by={traj.terminated_by}")
        print(f"total: queries={len(trajectories)} agent_calls={total_calls}"
              f" tokens={total_tokens}")
    print(f"trace -> {run.paths.trace_out}", file=sys.stderr)
    return 0


def cmd_ttt(config_path, queries_path, t_dense, seed=None) -> int:
    run = _apply_seed(load_config(config_path), seed)
    runtime = build_runtime(run)
    queries = _read_queries(queries_path)
    params = _initial_params(run)
    adapted, trajectories = test_time_train(runtime, queries, params,
                                            run.router, run.training, t_dense)
    save_params(run.paths.params_out, adapted, run.router)
    write_trace(run.paths.trace_out, trajectories)
    dense = sum(1 for t in trajectories if t.steps and t.steps[0].entropy_E is not None)
    print(f"adapted on {dense} dense queries; served {len(trajectories) - dense}"
          " sparse queries")
    print(f"params -> {run.paths.params_out}")
    print(f"trace -> {run.paths.trace_out}")
    return 0


def cmd_gradcheck(config_path, corrupt=False, seed=None) -> int:
    run = _apply_seed(load_config(config_path), seed)
    error = gradient_check(run.router.seed, corrupt=corrupt)
    print(f"max relative gradient error: {error:.3e}")
    if error > 1e-4:
        print("gradient check FAILED (threshold 1e-4)", file=sys.stderr)
        return 1
    return 0


def _topology_schedule(name, pool_size):
    if name == "chain":
        return lambda step: {(step - 1) % pool_size}
    if name == "star":
        return lambda step: {0} if step % 2 == 1 else set(range(1, pool_size))
    if name in ("complete", "moa"):
        return lambda step: set(range(pool_size))
    raise ValueError(f"unknown topology {name!r}; expected one of {TOPOLOGIES}")


def _schedule_logits(ids, pool_size) -> np.ndarray:
    z = np.full(pool_size, -8.0)
    z[sorted(ids)] = 8.0
    return z


def verify_topology_trace(traj, topology, pool_size, embed):
    """Structural checks on a simulated trace: each step executed exactly
    the scheduled set, and each step's context is the weighted sum of the
    previous step's executed responses only. Returns a list of problems."""
    schedule = _topology_schedule(topology, pool_size)
    problems = []
    for record in traj.steps:
        expected = schedule(record.step_index)
        if set(record.selected_ids) != expected:
            problems.append(f"step {record.step_index}: executed"
                            f" {sorted(record.selected_ids)}, expected {sorted(expected)}")
        executed = {aid for (step, aid) in traj.responses if step == record.step_index}
        if executed != set(record.selected_ids):
            problems.append(f"step {record.step_index}: response keys"
                            f" {sorted(executed)} do not match the executed set")
    for prev, cur in zip(traj.steps, traj.steps[1:]):
        embeddings = np.stack([
            embed(traj.responses[(prev.step_index, aid)].text)
            for aid in prev.selected_ids])
        expected_context = prev.alpha @ embeddings
        if not np.allclose(cur.context_X, expected_context, rtol=0.0, atol=1e-12):
            problems.append(f"step {cur.step_index}: context is not the weighted"
                            " sum of the previous step's responses")
    return problems


def cmd_simulate(config_path, topology, seed=None) -> int:
    """Drive inference with a scripted logit schedule so the executed sets
    reproduce a fixed communication pattern, then verify the written trace
    structurally. The summarizer is forced to Continue so every scheduled
    step runs."""
    run = _apply_seed(load_config(config_path), seed)
    schedule = _topology_schedule(topology, run.router.pool_size)
    runtime = build_runtime(run)
    runtime.summarizer = MockSummarizer(final_at_step=0)
    params = _initial_params(run)
    n = run.router.pool_size
    traj = infer(runtime, f"[tag:default] topology probe: {topology}", params,
                 run.router,
                 logit_override=lambda step: _schedule_logits(schedule(step), n))
    write_trace(run.paths.trace_out, [traj])
    for record in traj.steps:
        print(f"step {record.step_index}: agents {sorted(record.selected_ids)}")
    problems = verify_topology_trace(read_trace(run.paths.trace_out)[0],
                                     topology, n, runtime.embed)
    if problems:
        for problem in problems:
            print(f"verification failed: {problem}", file=sys.stderr)
        return 1
    print(f"{topology} pattern verified over {len(traj.steps)} steps")
    print(f"trace -> {run.paths.trace_out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="agentroute",
        description="Step-wise routed mixture-of-agents runner")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="dense entropy-supervised router training")
    p.add_argument("--config", required=True)
    p.add_argument("--queries", required=True, help="file with one query per line")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")

    p = sub.add_parser("infer", help="sparse inference with summarizer termination")
    p.add_argument("--config", required=True)
    p.add_argument("--query", default=None)
    p.add_argument("--queries", default=None, help="file with one query per line")
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("ttt", help="test-time training on a query stream")
    p.add_argument("--config", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--t-dense", type=int, required=True,
                   help="number of leading queries to run densely (1..30)")
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("gradcheck", help="finite-difference check of the BPTT path")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)

    p = sub.add_parser("simulate", help="reproduce a fixed communication topology")
    p.add_argument("--config", required=True)
    p.add_argument("--topology", required=True, choices=TOPOLOGIES)
    p.add_argument("--seed", type=int, default=None)

    args = parser.parse_args(argv)
    try:
        if args.command == "train":
            return cmd_train(args.config, args.queries, seed=args.seed)
        if args.command == "infer":
            return cmd_infer(args.config, query=args.query,
                             queries_path=args.queries, seed=args.seed)
        if args.command == "ttt":
            return cmd_ttt(args.config, args.queries, args.t_dense, seed=args.seed)
        if args.command == "gradcheck":
            return cmd_gradcheck(args.config, corrupt=args.corrupt, seed=args.seed)
        if args.command == "simulate":
            return cmd_simulate(args.config, args.topology, seed=args.seed)
        raise ValueError(f"unknown command {args.command!r}")
    except (ConfigError, OrchestrationError, TransportError, ValueError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
