"""The benchmark workloads and the output checks for each.

Every workload is a closed loop with one client: a repetition calls the
library once (``train``, a run of ``infer`` calls, or
``test_time_train``), writes its artifacts, and checks them. The workload
seed picks the query texts (on ``ttt-chat``, those served after the
adaptation prefix); the library sees only the generated pool, queries and
parameters. ``train-d384`` and ``ttt-chat`` repeat the same inputs in every
repetition, so every repetition must write the same artifacts;
``serve-d64`` serves fresh ones in each.

- ``train-d384``: dense ``train`` at the shipped width. Every agent runs at
  every step and BPTT runs per query. Jitter 0 makes the mock solve repeat
  identical entropy targets.
- ``serve-d64``: sparse ``infer`` one query at a time at the acceptance
  width. Repetition r serves 32 queries as query indices 32r to 32r+31,
  so every mock call in a run gets its own execution seed and solves its
  own jittered targets, which its check verifies. The query texts cycle
  through 8 batches of 32. The summarizer stops each query at step 3;
  there is no backward pass.
- ``ttt-chat``: ``test_time_train`` over a stream against a local chat stub
  (``chat_stub.py``) with two fan-out workers, the only path through the
  HTTP client and fan-out. Not in ``BENCHMARK.json``: its wall time
  differed by up to 31% between identical runs on a shared 2-core host.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import time

from agentroute.agents import ChatPoolBackend, ChatSummarizer, MockPoolBackend, \
    MockSummarizer, assemble_prompt
from agentroute.core import RouterConfig, SUMMARIZER, read_trace, trajectory_to_json, \
    write_trace
from agentroute.embed import HashEmbedder
from agentroute.orchestrator import Runtime, TrainingSettings, infer, \
    test_time_train, train
from agentroute.router import init_params, save_params
from agentroute.synthetic import make_queries, make_tagged_pool

from chat_stub import StubProcess, agent_model_ref
from spans import PoolProbe, QueryClock, SummarizerProbe

POOL_SIZE = 8
MAX_ROUTE = 4
TAGS = ("alpha", "beta")
TOKENS_PER_RESPONSE = 12  # make_tagged_pool's default
# The expert agents per tag and the router seed (initial parameters and
# per-call mock seeds) are part of each workload's definition; the workload
# seed picks the query texts. Drawing the experts or the router seed from
# the workload seed moved calls per query by 10% to 25% between seeds.
EXPERTS = {"alpha": (2, 5), "beta": (1, 6)}
ROUTER_SEED = 0


@dataclasses.dataclass
class Outcome:
    """One repetition: queries attempted and failed, the reasons, and the
    sha256 of each artifact written."""

    queries: int
    failed: int = 0
    errors: list = dataclasses.field(default_factory=list)
    digests: dict = dataclasses.field(default_factory=dict)


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _timed(tracer, name, fn, *args):
    if tracer is None:
        return fn(*args)
    return tracer.call(name, fn, args, {}, size_of=lambda out: out or 0)


def _write_trace(path, trajectories) -> int:
    write_trace(path, trajectories)
    return os.path.getsize(path)


def _trace_round_trips(path) -> bool:
    """The trace re-serializes byte for byte after read_trace."""
    with open(path, "rb") as fh:
        written = fh.read()
    again = "".join(trajectory_to_json(t) + "\n" for t in read_trace(path))
    return again.encode("utf-8") == written


class Workload:
    name = ""
    config: RouterConfig
    # Wall time is the process's own CPU work, so it scales with host speed.
    CPU_BOUND = True
    # Every repetition runs the same inputs and so writes the same artifacts.
    SAME_EACH_REPETITION = True

    def __init__(self, workdir):
        self.trace_path = os.path.join(workdir, f"{self.name}.trace.jsonl")
        self.snapshot_path = os.path.join(workdir, f"{self.name}.params.bin")

    def _runtime(self, pool, summarizer, embed, queries, max_workers=1) -> Runtime:
        self.clock = QueryClock(embed, queries)
        self.pool = PoolProbe(pool)
        self.summarizer = SummarizerProbe(summarizer)
        return Runtime(pool=self.pool, summarizer=self.summarizer,
                       embed=self.clock, max_workers=max_workers)

    @property
    def passes(self) -> int:
        """Queries one repetition runs."""
        return len(self.queries)

    def attach(self, tracer) -> None:
        self.clock.tracer = self.pool.tracer = self.summarizer.tracer = tracer

    def _end_call(self) -> None:
        # Work after the library call returns belongs to no query.
        self.clock.current = None
        self.call_end = time.perf_counter()

    def _write_trace(self, trajectories, tracer) -> None:
        _timed(tracer, "core.trace_write", _write_trace, self.trace_path, trajectories)

    def _check_trace(self, outcome: Outcome, trajectories, calls: int) -> None:
        outcome.digests["trace"] = _sha256(self.trace_path)
        if not _trace_round_trips(self.trace_path):
            outcome.errors.append("trace does not round-trip through read_trace")
            outcome.failed = outcome.queries
        executed = sum(t.total_agent_calls for t in trajectories)
        if executed != calls:
            outcome.errors.append(f"trajectories count {executed} agent calls,"
                                  f" the pool executed {calls}")
            outcome.failed = outcome.queries

    def close(self) -> None:
        pass


class TrainD384(Workload):
    name = "train-d384"
    QUERIES = 16

    def __init__(self, seed: int, workdir):
        super().__init__(workdir)
        self.config = RouterConfig(pool_size=POOL_SIZE, max_route=MAX_ROUTE,
                                   embed_dim=384, train_steps=3,
                                   seed=ROUTER_SEED)
        self.settings = TrainingSettings(batch_size=8, epochs=1, loss_kind="ranking")
        specs, profiles = make_tagged_pool(POOL_SIZE, EXPERTS, jitter=0.0)
        self.queries = make_queries(TAGS, self.QUERIES, seed, salt=self.name)
        self.runtime = self._runtime(MockPoolBackend(specs, profiles),
                                     MockSummarizer(), HashEmbedder(384), self.queries)
        # init_params is deterministic and train() leaves its input intact,
        # so every repetition starts from these same fresh parameters.
        self.params = init_params(self.config)

    @property
    def passes(self) -> int:
        return len(self.queries) * self.settings.epochs

    def run(self, tracer, rep):
        report = train(self.runtime, self.queries, self.params, self.config,
                       self.settings)
        self._end_call()
        _timed(tracer, "router.snapshot", save_params, self.snapshot_path,
               report.params, self.config)
        return report

    def check(self, report) -> Outcome:
        passes = self.passes
        outcome = Outcome(queries=passes,
                          digests={"snapshot": _sha256(self.snapshot_path)})
        want = POOL_SIZE * self.config.train_steps * passes
        calls = len(self.pool.tokens)
        if calls != want or sum(self.pool.tokens) != want * TOKENS_PER_RESPONSE:
            outcome.errors.append(f"dense training executed {calls} agent calls,"
                                  f" expected N x train_steps x queries = {want}")
            outcome.failed = passes
        if not all(math.isfinite(loss) for loss in report.epoch_losses):
            outcome.errors.append("non-finite training loss")
            outcome.failed = passes
        return outcome


class ServeD64(Workload):
    name = "serve-d64"
    SAME_EACH_REPETITION = False
    QUERIES = 32
    # Eight batches give each seed 256 query texts; with 32, calls per
    # query varied by 1.8% between seeds.
    TEXT_BATCHES = 8
    FINAL_AT_STEP = 3

    def __init__(self, seed: int, workdir):
        super().__init__(workdir)
        self.config = RouterConfig(pool_size=POOL_SIZE, max_route=MAX_ROUTE,
                                   embed_dim=64, max_steps=6,
                                   seed=ROUTER_SEED)
        specs, profiles = make_tagged_pool(POOL_SIZE, EXPERTS, jitter=0.05)
        self.queries = make_queries(TAGS, self.QUERIES * self.TEXT_BATCHES, seed,
                                    salt=self.name)
        self.runtime = self._runtime(MockPoolBackend(specs, profiles),
                                     MockSummarizer(final_at_step=self.FINAL_AT_STEP),
                                     HashEmbedder(64), self.queries)
        self.params = init_params(self.config)
        self.exec_keys = set()  # (seed, agent, step) of every call so far

    @property
    def passes(self) -> int:
        return self.QUERIES

    def run(self, tracer, rep):
        batch = rep % self.TEXT_BATCHES * self.QUERIES
        texts = self.queries[batch:batch + self.QUERIES]
        trajectories = [infer(self.runtime, q, self.params, self.config,
                              query_index=rep * self.QUERIES + i)
                        for i, q in enumerate(texts)]
        self._end_call()
        self._write_trace(trajectories, tracer)
        return trajectories

    def check(self, trajectories) -> Outcome:
        outcome = Outcome(queries=self.passes)
        bad = [i for i, t in enumerate(trajectories)
               if t.total_agent_calls != sum(s.k for s in t.steps)
               or len(t.steps) != self.FINAL_AT_STEP
               or t.terminated_by != SUMMARIZER or not t.final_answer]
        if bad:
            outcome.errors.append(f"queries {bad[:5]} break the sparse call"
                                  " accounting or the step-3 stop")
            outcome.failed = len(bad)
        keys = self.pool.exec_keys
        repeated = len(keys) - len(set(keys) - self.exec_keys)
        self.exec_keys.update(keys)
        if repeated:
            outcome.errors.append(f"{repeated} agent calls reused an earlier call's"
                                  " (seed, agent, step), so their targets repeat")
            outcome.failed = outcome.queries
        self._check_trace(outcome, trajectories, len(self.pool.tokens))
        return outcome


class TttChat(Workload):
    name = "ttt-chat"
    # Its wall time follows neither the host speed the reference kernel
    # measures nor a fixed cost: the stub's delay, the stub and two client
    # threads share the two cores.
    CPU_BOUND = False
    QUERIES = 120
    T_DENSE = 20

    def __init__(self, seed: int, workdir):
        super().__init__(workdir)
        self.config = RouterConfig(pool_size=POOL_SIZE, max_route=MAX_ROUTE,
                                   embed_dim=384, max_steps=6, train_steps=3,
                                   seed=ROUTER_SEED)
        self.settings = TrainingSettings(batch_size=4, loss_kind="ranking")
        specs, _ = make_tagged_pool(POOL_SIZE, EXPERTS)
        specs = [dataclasses.replace(s, model_ref=agent_model_ref(s.agent_id))
                 for s in specs]
        # The dense prefix the router adapts on is part of the workload, like
        # the router seed: drawn from the workload seed, it moved the
        # adapted k, and so calls per query, by 6% between seeds.
        self.queries = (make_queries(TAGS, self.T_DENSE, ROUTER_SEED, salt="ttt-adapt")
                        + make_queries(TAGS, self.QUERIES - self.T_DENSE, seed,
                                       salt=self.name))
        self.stub = StubProcess(EXPERTS).start()
        try:
            pool = ChatPoolBackend(specs, self.stub.url, timeout=30.0)
            summarizer = ChatSummarizer(self.stub.url, timeout=30.0)
            self.runtime = self._runtime(pool, summarizer, HashEmbedder(384),
                                         self.queries, max_workers=2)
            self.params = init_params(self.config)
            # First connections, outside the timed loop.
            first = pool.execute(0, assemble_prompt(specs[0], self.queries[0]), 1, 0)
            summarizer.finalize(self.queries[0], [first])
        except BaseException:
            self.stub.close()
            raise

    def run(self, tracer, rep):
        adapted, trajectories = test_time_train(
            self.runtime, self.queries, self.params, self.config, self.settings,
            self.T_DENSE)
        self._end_call()
        self._write_trace(trajectories, tracer)
        _timed(tracer, "router.snapshot", save_params, self.snapshot_path, adapted,
               self.config)
        return trajectories

    def check(self, trajectories) -> Outcome:
        outcome = Outcome(queries=self.passes)
        dense = self.config.pool_size * self.config.train_steps
        bad = []
        for i, t in enumerate(trajectories):
            if i < self.T_DENSE:
                ok = (all(s.entropy_E is not None for s in t.steps)
                      and t.total_agent_calls == dense)
            else:
                ok = (all(s.entropy_E is None for s in t.steps)
                      and t.total_agent_calls == sum(s.k for s in t.steps))
            if not (ok and t.final_answer):
                bad.append(i)
        if len(trajectories) != len(self.queries) or bad:
            outcome.errors.append(f"stream queries {bad[:5]} break the dense/sparse"
                                  " phase split or the call accounting")
            outcome.failed = max(len(bad), len(self.queries) - len(trajectories))
        self._check_trace(outcome, trajectories, len(self.pool.tokens))
        outcome.digests["snapshot"] = _sha256(self.snapshot_path)
        return outcome

    def close(self) -> None:
        self.stub.close()


WORKLOADS = {w.name: w for w in (TrainD384, ServeD64, TttChat)}
