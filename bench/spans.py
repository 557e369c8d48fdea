"""Probes and spans, recorded from outside the library.

``QueryClock`` wraps ``Runtime.embed`` and marks the start of a query when
the text it embeds is one of the workload's queries: ``train``,
``test_time_train`` and ``infer`` all embed the query first, so the marks
split a loop call into per-query intervals. ``PoolProbe`` and
``SummarizerProbe`` wrap the other two runtime components. All three count
in every run; they time their calls only while a ``Tracer`` is attached,
which happens in traced repetitions alone.

In a traced repetition ``traced_library`` also rebinds the functions the
orchestrator imports by name, plus ``Trajectory.append_step``. Each call
becomes a span ``(name, start, end, query, size, ok)``; its parent is the
span of the query it ran in (``query`` is the mark index, or None outside
any query). No wrapped function calls another, so layer spans never nest.
``analyse`` checks that the layer self times plus the orchestrator's self
time add up to the traced wall time: overlapping layer spans push the sum
above it, and repetition time outside every query that no span covers
leaves it below.
"""

from __future__ import annotations

import bisect
import time
from contextlib import contextmanager

LAYERS = ("router", "agents", "embed", "learning", "core")

_perf = time.perf_counter


class QueryClock:
    """Embedding callable that marks query starts; see the module doc."""

    def __init__(self, embed, queries):
        self.embed = embed
        self.queries = frozenset(queries)
        self.marks: list[float] = []
        self.current = None
        self.tracer = None

    def __call__(self, text):
        if text in self.queries:
            self.marks.append(_perf())
            self.current = len(self.marks) - 1
        if self.tracer is None:
            return self.embed(text)
        return self.tracer.call("embed", self.embed, (text,), {}, size=len(text))


class PoolProbe:
    """Pool backend wrapper counting executed calls and their tokens, and
    recording each call's ``(seed, agent, step)``, which fixes a mock
    call's entropy targets."""

    def __init__(self, pool):
        self.pool = pool
        # list.append is atomic across worker threads
        self.tokens: list[int] = []
        self.exec_keys: list[tuple] = []
        self.tracer = None

    def clear(self) -> None:
        self.tokens.clear()
        self.exec_keys.clear()

    @property
    def size(self) -> int:
        return self.pool.size

    def spec(self, agent_id):
        return self.pool.spec(agent_id)

    def execute(self, agent_id, prompt, step_index, seed):
        args = (agent_id, prompt, step_index, seed)
        if self.tracer is None:
            resp = self.pool.execute(*args)
        else:
            resp = self.tracer.call("agents.call", self.pool.execute, args, {})
        self.tokens.append(resp.token_count)
        self.exec_keys.append((seed, agent_id, step_index))
        return resp


class SummarizerProbe:
    """Summarizer backend wrapper, timed while a tracer is attached."""

    def __init__(self, summarizer):
        self.summarizer = summarizer
        self.tracer = None

    def _call(self, fn, query, responses):
        if self.tracer is None:
            return fn(query, responses)
        return self.tracer.call("agents.summarizer", fn, (query, responses), {})

    def decide(self, query, responses):
        return self._call(self.summarizer.decide, query, responses)

    def finalize(self, query, responses):
        return self._call(self.summarizer.finalize, query, responses)


class Tracer:
    """Keeps spans in memory; the caller writes them out at the end."""

    def __init__(self, clock: QueryClock):
        self.clock = clock
        self.spans: list[tuple] = []

    def call(self, name, fn, args, kwargs, size=0, size_of=None):
        query = self.clock.current
        start = _perf()
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            self.spans.append((name, start, _perf(), query, size, False))
            raise
        end = _perf()
        self.spans.append((name, start, end, query,
                           size_of(out) if size_of else size, True))
        return out

    def wrap(self, name, fn, size_of=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, size_of=size_of)
        return traced


@contextmanager
def traced_library(tracer: Tracer):
    """Rebind the orchestrator's imported functions and
    ``Trajectory.append_step`` to traced wrappers; restore them on exit."""
    from agentroute import orchestrator
    from agentroute.core import Trajectory

    names = {"route_step": ("router.fwd", lambda step: step.k),
             "backward_trajectory": ("router.bwd", None),
             "adamw_step": ("learning.adamw", None),
             "clip_gradients": ("learning.clip", None),
             "assemble_prompt": ("agents.prompt", None)}
    saved = {name: getattr(orchestrator, name) for name in (*names, "get_loss")}
    saved_append = Trajectory.append_step

    def traced_get_loss(*args, **kwargs):
        loss_fn, grad_fn = saved["get_loss"](*args, **kwargs)
        return (tracer.wrap("learning.loss_grad", loss_fn),
                tracer.wrap("learning.loss_grad", grad_fn))

    for name, (span, size_of) in names.items():
        setattr(orchestrator, name, tracer.wrap(span, saved[name], size_of))
    orchestrator.get_loss = traced_get_loss
    Trajectory.append_step = tracer.wrap("core.append", saved_append)
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(orchestrator, name, fn)
        Trajectory.append_step = saved_append


# --- analysis of a traced run ---

def _merge(intervals):
    merged = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1][1] = end
        else:
            merged.append([start, end])
    return merged


def _length(merged) -> float:
    return sum(end - start for start, end in merged)


def _covered(merged, starts, lo, hi) -> float:
    """Length of [lo, hi] covered by the disjoint sorted intervals."""
    total = 0.0
    index = max(bisect.bisect_right(starts, lo) - 1, 0)
    while index < len(merged) and merged[index][0] < hi:
        start, end = merged[index]
        total += max(0.0, min(end, hi) - max(start, lo))
        index += 1
    return total


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def quantile(values, q: float) -> float:
    """Linearly interpolated quantile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def analyse(spans, queries, reps, max_route: int):
    """Per-layer metrics from the spans of traced repetitions.

    ``queries`` holds the ``(start, end)`` of every query and ``reps`` of
    every repetition, traced ones only. Returns
    ``(metrics, self_seconds, balance_error)`` where ``balance_error`` is
    |sum of layer and orchestrator self times - traced wall| as a share of
    the traced wall. Counts are per traced query, so they do not grow with
    the run length.
    """
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span[0], []).append(span)

    def durations(name):
        return [s[2] - s[1] for s in by_name.get(name, ())]

    wall = sum(end - start for start, end in reps)
    n_queries = len(queries)

    everything = _merge([(s[1], s[2]) for s in spans])
    starts = [start for start, _ in everything]
    self_s = {layer: _length(_merge([(s[1], s[2]) for s in spans
                                     if s[0].split(".")[0] == layer]))
              for layer in LAYERS}
    in_queries = sum(end - start for start, end in queries)
    covered_in_queries = sum(_covered(everything, starts, lo, hi)
                             for lo, hi in queries)
    self_s["orchestrator"] = in_queries - covered_in_queries
    # Repetition time outside every query that no span covers belongs to
    # the benchmark itself; it is kept for the record and counts against
    # the balance.
    covered_in_reps = sum(_covered(everything, starts, lo, hi) for lo, hi in reps)
    self_s["harness"] = (wall - in_queries) - (covered_in_reps - covered_in_queries)
    accounted = sum(self_s[layer] for layer in (*LAYERS, "orchestrator"))
    balance_error = abs(accounted - wall) / wall if wall else 0.0

    calls = durations("agents.call")
    ks = [s[4] for s in by_name.get("router.fwd", ())]
    agent_union = _length(_merge([(s[1], s[2]) for s in by_name.get("agents.call", ())]))
    ms, us = 1e3, 1e6

    def per_query(count):
        return count / n_queries if n_queries else 0.0

    metrics = {
        "router.fwd_calls_per_query": (per_query(len(ks)), "calls"),
        "router.fwd_us": (_mean(durations("router.fwd")) * us, "us"),
        "router.bwd_calls_per_query": (per_query(len(durations("router.bwd"))), "calls"),
        "router.bwd_ms": (_mean(durations("router.bwd")) * ms, "ms"),
        "router.k_mean": (_mean(ks), "agents"),
    }
    for k in range(1, max_route + 1):
        metrics[f"router.k{k}_share"] = (ks.count(k) / len(ks) if ks else 0.0, "ratio")
    metrics.update({
        "router.snapshot_ms": (_mean(durations("router.snapshot")) * ms, "ms"),
        "agents.calls_per_query": (per_query(len(calls)), "calls"),
        "agents.busy_ms_per_query": (per_query(sum(calls)) * ms, "ms"),
        "agents.call_ms_p50": (quantile(calls, 0.5) * ms, "ms"),
        "agents.call_ms_p90": (quantile(calls, 0.9) * ms, "ms"),
        "agents.inflight_mean": (sum(calls) / agent_union if agent_union else 0.0, "calls"),
        "agents.useful_ratio": (sum(ks) / len(calls) if calls else 0.0, "ratio"),
        "agents.failures_per_query": (
            per_query(sum(1 for s in by_name.get("agents.call", ()) if not s[5])),
            "calls"),
        "agents.prompt_us": (_mean(durations("agents.prompt")) * us, "us"),
        "agents.summarizer_calls_per_query": (
            per_query(len(durations("agents.summarizer"))), "calls"),
        "agents.summarizer_ms": (_mean(durations("agents.summarizer")) * ms, "ms"),
        "embed.calls_per_query": (per_query(len(durations("embed"))), "calls"),
        "embed.us": (_mean(durations("embed")) * us, "us"),
        "embed.chars_per_call": (_mean([s[4] for s in by_name.get("embed", ())]), "chars"),
        "learning.adamw_ms": (_mean(durations("learning.adamw")) * ms, "ms"),
        "learning.loss_grad_us": (_mean(durations("learning.loss_grad")) * us, "us"),
        "learning.clip_us": (_mean(durations("learning.clip")) * us, "us"),
        "core.append_us": (_mean(durations("core.append")) * us, "us"),
        "core.trace_write_ms": (_mean(durations("core.trace_write")) * ms, "ms"),
        "core.trace_bytes": (_mean([s[4] for s in by_name.get("core.trace_write", ())]), "B"),
        "orchestrator.self_ms_per_query": (per_query(self_s["orchestrator"]) * ms, "ms"),
        "orchestrator.steps_per_query": (per_query(len(ks)), "steps"),
    })
    for layer in (*LAYERS, "orchestrator"):
        metrics[f"{layer}.self_frac"] = (self_s[layer] / wall if wall else 0.0, "ratio")
    return metrics, self_s, balance_error
