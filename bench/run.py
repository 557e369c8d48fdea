"""agentroute benchmark: one command, closed-loop workloads.

    python3 bench/run.py --workload serve-d64 --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py``): ``train-d384`` and ``serve-d64``, which
``BENCHMARK.json`` lists, and ``ttt-chat``, which it leaves out because its
wall time did not hold steady between runs on a shared 2-core host. Each
run first times SETUP_REPEATS cold set-ups, each in a fresh interpreter
started with ``--setup-only`` and divided by the host's slowdown (below)
around it, and reports their median as ``setup_s``. It then sets the
workload up once itself and repeats it in a closed loop with one client
until ``--seconds`` have passed (and, on ``serve-d64``, whose
repetitions differ, at least BUDGET_REPETITIONS have run), checking every
repetition's outputs.

With ``--trace 0`` every repetition runs untraced and the last stdout line
carries the end-to-end metrics. The times of the CPU-bound workloads
(``train-d384``, ``serve-d64``) are divided by the host's slowdown, which a
fixed reference kernel measures around each repetition; the raw
wall-clock figures go to the results file and stdout beside them. With
``--trace 1`` repetitions alternate between untraced and traced; the last
line carries the per-layer metrics of the traced ones plus
``trace.overhead_frac``, the share of throughput the tracing costs. Results, the environment record,
the per-layer table and the spans go to ``bench/results/``; the sha256 of
every trace and parameter snapshot is kept in
``bench/results/digests.json`` by repetition index and must repeat for the
same sources, seed and repetition.

The benchmark imports agentroute from ``src/`` beside it and exits with
code 2 when that is missing. It exits with code 1 after printing its result
when an output check failed.
"""

from __future__ import annotations

import os
import sys
import time

_START = time.perf_counter()

# One BLAS thread: at d=384 the GRU matvecs would otherwise let OpenBLAS
# start threads of its own. Must be set before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import bisect  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402  (imports nothing from agentroute)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
SETUP_REPEATS = 5
# calls_per_query and tokens_per_query count the first this many
# repetitions, a fixed set of queries for a given seed; it matters only
# where repetitions differ.
BUDGET_REPETITIONS = 8
# Largest allowed |sum of layer self times - traced wall| / traced wall.
BALANCE_TOLERANCE = 0.01
# The reference kernel's loop count, and its time on an undisturbed core of
# the 2.1 GHz Xeon host the benchmark was tuned on (about 10 ms there when
# the host is contended).
REFERENCE_LOOPS = 1000
REFERENCE_S = 0.0056


def _source_digest() -> str:
    """sha256 over the library and benchmark sources: the code identity
    that determinism digests are keyed by."""
    h = hashlib.sha256()
    files = sorted([*SRC.rglob("*.py"), *BENCH.glob("*.py")])
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                             capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unknown ({exc})"
    return out.stdout.strip() or "unknown"


def _environment(numpy, seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": int(BLAS_THREADS),
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
        "platform": platform.platform(),
    }


class Rep:
    """Timing and outcome of one repetition."""

    def __init__(self, traced, start, end, first_mark, marks, call_end, calls, tokens,
                 outcome):
        self.traced = traced
        self.first_mark = first_mark  # the run-wide index of the first query
        self.start = start
        self.end = end
        self.outcome = outcome
        self.calls = calls
        self.tokens = tokens
        # Query j runs from its mark to the next one; the last query ends
        # when the library call returns.
        self.queries = list(zip(marks, [*marks[1:], call_end]))
        # The reference kernel's time before and after the repetition.
        self.reference = (REFERENCE_S, REFERENCE_S)

    @property
    def slowdown(self) -> float:
        return sum(self.reference) / 2.0 / REFERENCE_S

    def slowdown_at(self, t: float) -> float:
        """The slowdown at time t, interpolated between the reference runs
        before and after the repetition."""
        before, after = self.reference
        length = self.end - self.start
        share = (t - self.start) / length if length > 0 else 0.5
        return (before + (after - before) * share) / REFERENCE_S

    @property
    def completed(self) -> int:
        return self.outcome.queries - self.outcome.failed


def _reference_s(numpy) -> float:
    """Fastest of three runs of a fixed kernel of small numpy operations
    and Python bookkeeping, the instruction mix of the mock workloads.

    It runs after a full collection and with the garbage collector off, so
    objects the program under test keeps alive add no collection work to
    it; the caller fails a repetition that leaves other threads running."""
    a = numpy.random.default_rng(0).standard_normal((64, 64)) / 8.0
    times = []
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            v = numpy.ones(64)
            table = {}
            start = time.perf_counter()
            for i in range(REFERENCE_LOOPS):
                v = numpy.tanh(a @ v)
                table[f"k{i}"] = float(numpy.where(v > 0.0, v, -v).sum())
            times.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return min(times)


def _run_reps(wl, seconds: float, trace: bool, tracer, workloads_mod, numpy):
    reps = []
    measured = 0.0
    # One reference run between repetitions serves the one before and the
    # one after it.
    reference = _reference_s(numpy) if wl.CPU_BOUND else None
    while True:
        traced = trace and len(reps) % 2 == 1
        wl.pool.clear()
        wl.clock.current = None
        wl.call_end = None
        first_mark = len(wl.clock.marks)
        wl.attach(tracer if traced else None)
        library = spans.traced_library(tracer) if traced else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            try:
                with library:
                    result = wl.run(tracer if traced else None, len(reps))
            finally:
                end = time.perf_counter()
                wl.attach(None)
            outcome = wl.check(result)
        except Exception:  # a failed repetition is counted, and the loop goes on
            outcome = workloads_mod.Outcome(queries=wl.passes, failed=wl.passes,
                                            errors=[traceback.format_exc()])
        marks = wl.clock.marks[first_mark:]
        call_end = wl.call_end if wl.call_end is not None else end
        rep = Rep(traced, start, end, first_mark, marks, call_end, len(wl.pool.tokens),
                  sum(wl.pool.tokens), outcome)
        if reference is not None:
            if threading.active_count() != 1:
                rep.outcome.errors.append(
                    f"{threading.active_count() - 1} threads outlived the repetition;"
                    " the reference kernel needs the process to itself")
                rep.outcome.failed = rep.outcome.queries
            after = _reference_s(numpy)
            rep.reference = (reference, after)
            reference = after
        reps.append(rep)
        measured += end - start
        if trace:
            enough = 2
        else:
            enough = 1 if wl.SAME_EACH_REPETITION else BUDGET_REPETITIONS
        if measured >= seconds and len(reps) >= enough:
            return reps


def _check_digests(reps, wl, seed: int, source: str):
    """Each repetition's digests must match those of the same repetition
    in earlier runs of the same sources and seed; where every repetition
    runs the same inputs, they must also match each other. Returns
    (digests by repetition index, errors)."""
    errors = []
    written = {}
    for index, rep in enumerate(reps):
        digests = rep.outcome.digests
        if not digests:
            continue
        if wl.SAME_EACH_REPETITION and digests != reps[0].outcome.digests:
            errors.append(f"repetition {index} wrote artifacts {digests},"
                          f" repetition 0 wrote {reps[0].outcome.digests}")
        written[str(0 if wl.SAME_EACH_REPETITION else index)] = digests
    if not written:
        return written, errors
    store_path = RESULTS / "digests.json"
    store = json.loads(store_path.read_text()) if store_path.exists() else {}
    known = store.setdefault(source, {}).setdefault(f"{wl.name} seed={seed}", {})
    for index, digests in written.items():
        if known.setdefault(index, digests) != digests:
            errors.append(f"repetition {index} wrote artifacts that differ from an"
                          f" earlier run of the same sources and seed: now {digests},"
                          f" before {known[index]}")
    tmp = store_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
    os.replace(tmp, store_path)
    return written, errors


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _qps(reps) -> float:
    """Completed queries per second, with each repetition's slowdown
    divided out."""
    return sum(r.completed for r in reps) / sum((r.end - r.start) / r.slowdown
                                                for r in reps)


def _end_to_end(reps, setup_s):
    """End-to-end metrics, plus the raw wall-clock figures for the record.

    Times of CPU-bound workloads are divided by the host's slowdown during
    their repetition: the reference kernel's time, run before and after
    it, over REFERENCE_S, interpolated to each query's midpoint for its
    latency. On a shared 2-core host whose CPU speed swings by
    up to 2x for seconds to minutes at a time, the raw wall-clock qps of
    identical 30-second runs differed by up to 30%. The kernel's time
    tracked the workloads' (correlation 0.86 over 0.3 s samples), which is
    why repetitions are kept under about a second."""
    plain = [r for r in reps if not r.traced]
    budget = plain[:BUDGET_REPETITIONS]
    budget_queries = sum(r.outcome.queries for r in budget)
    latencies = [(b - a) * 1e3 / r.slowdown_at((a + b) / 2.0)
                 for r in plain for a, b in r.queries]
    raw_ms = [(b - a) * 1e3 for r in plain for a, b in r.queries]
    wall = sum(r.end - r.start for r in plain)
    metrics = {
        "setup_s": _metric(setup_s, "s"),
        "qps": _metric(_qps(plain), "query/s"),
        "query_ms_p50": _metric(spans.quantile(latencies, 0.5), "ms"),
        "query_ms_p90": _metric(spans.quantile(latencies, 0.9), "ms"),
        "calls_per_query": _metric(sum(r.calls for r in budget) / budget_queries,
                                   "calls"),
        "tokens_per_query": _metric(sum(r.tokens for r in budget) / budget_queries,
                                    "tokens"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                               "MB"),
    }
    raw = {
        "qps": sum(r.completed for r in plain) / wall,
        "query_ms_p50": spans.quantile(raw_ms, 0.5),
        "query_ms_p90": spans.quantile(raw_ms, 0.9),
        "query_samples": len(raw_ms),
        "slowdowns": [r.slowdown for r in plain],
    }
    return metrics, raw


def _per_layer(reps, tracer, wl):
    traced = [r for r in reps if r.traced]
    metrics, self_s, balance = spans.analyse(
        tracer.spans, [q for r in traced for q in r.queries],
        [(r.start, r.end) for r in traced], wl.config.max_route)
    plain = [r for r in reps if not r.traced]
    metrics["trace.overhead_frac"] = (1.0 - _qps(traced) / _qps(plain), "ratio")
    return {name: _metric(v, unit) for name, (v, unit) in metrics.items()}, self_s, balance


def _write_spans(path, tracer, reps):
    """One JSON object per span: repetitions, their queries, then the layer
    spans, each naming its parent."""
    traced = [(index, r) for index, r in enumerate(reps) if r.traced]
    starts = [r.start for _, r in traced]
    with open(path, "w", encoding="utf-8") as fh:
        def emit(name, span_id, start, end, parent, **extra):
            fh.write(json.dumps({"name": name, "id": span_id, "start": start,
                                 "end": end, "parent": parent, **extra}) + "\n")

        for index, rep in traced:
            emit("repetition", f"r{index}", rep.start, rep.end, None)
            for offset, (start, end) in enumerate(rep.queries):
                emit("query", f"q{rep.first_mark + offset}", start, end, f"r{index}")
        for number, (name, start, end, query, size, ok) in enumerate(tracer.spans):
            if query is None:
                parent = f"r{traced[bisect.bisect_right(starts, start) - 1][0]}"
            else:
                parent = f"q{query}"
            emit(name, f"s{number}", start, end, parent, size=size, ok=ok)


def _table(metrics, self_s, wall) -> str:
    lines = [f"{'metric':34} {'value':>14}  unit"]
    for name, m in metrics.items():
        lines.append(f"{name:34} {m['value']:14.6g}  {m['unit']}")
    lines.append(f"{'self time':34} {'seconds':>14}  share of traced wall {wall:.3f} s")
    for layer, seconds in self_s.items():
        lines.append(f"{layer:34} {seconds:14.6f}  {seconds / wall:.3f}")
    return "\n".join(lines)


def _cold_setups_s(args, numpy):
    """Seconds from starting a fresh interpreter on this script with
    ``--setup-only`` until its set-up is done (imports, input generation,
    parameter init, and on ``ttt-chat`` the stub and first connections),
    SETUP_REPEATS times. The monotonic clock is shared by the two
    processes. Returns the raw times and the times divided by the host's
    slowdown, from reference runs between the set-ups."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload",
               args.workload, "--seed", str(args.seed), "--seconds", "0",
               "--setup-only"]
    raw, normalized = [], []
    before = _reference_s(numpy)
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        out = subprocess.run(command, capture_output=True, text=True, timeout=120,
                             check=True)
        raw.append(float(out.stdout.split()[-1]) - start)
        after = _reference_s(numpy)
        normalized.append(raw[-1] / ((before + after) / 2.0 / REFERENCE_S))
        before = after
    return raw, normalized


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Set up once in this fresh interpreter, print the monotonic clock, exit.
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "agentroute" / "__init__.py").is_file():
        print(f"bench: agentroute sources not found at {SRC / 'agentroute'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # SIGTERM unwinds through the finally blocks that stop the chat stub.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    import numpy
    import agentroute
    if Path(agentroute.__file__).resolve().parent != SRC / "agentroute":
        print(f"bench: imported agentroute from {agentroute.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads as workloads_mod
    import_s = time.perf_counter() - _START

    if args.workload not in workloads_mod.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from"
              f" {sorted(workloads_mod.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = RESULTS / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    cls = workloads_mod.WORKLOADS[args.workload]
    if args.setup_only:
        wl = cls(args.seed, str(workdir))
        done = time.monotonic()
        wl.close()
        print(f"set up at {done!r}")
        return 0

    setups, normalized_setups = _cold_setups_s(args, numpy)
    setup_s = statistics.median(normalized_setups)
    env = _environment(numpy, args.seed)
    wl = None
    try:
        wl = cls(args.seed, str(workdir))
        tracer = spans.Tracer(wl.clock) if args.trace else None
        reps = _run_reps(wl, args.seconds, bool(args.trace), tracer, workloads_mod,
                         numpy)
    finally:
        if wl is not None:
            wl.close()

    errors = [e for r in reps for e in r.outcome.errors]
    digests, digest_errors = _check_digests(reps, wl, args.seed, env["source_sha256"])
    errors += digest_errors
    attempted = sum(r.outcome.queries for r in reps)
    failed = sum(r.outcome.failed for r in reps)
    if digest_errors:
        failed = attempted
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "import_s": import_s,
              "cold_setups_s": setups, "repetitions": len(reps),
              "traced_repetitions": sum(r.traced for r in reps),
              "repetition_seconds": [r.end - r.start for r in reps],
              "attempted": attempted, "failed": failed,
              "query_fail_ratio": failed / attempted, "digests": digests}
    stem = f"{args.workload}.seed{args.seed}"
    if args.trace:
        metrics, self_s, balance = _per_layer(reps, tracer, wl)
        if balance > BALANCE_TOLERANCE:
            errors.append(f"layer plus orchestrator self times miss the traced wall"
                          f" time by {balance:.2%} (tolerance {BALANCE_TOLERANCE:.0%})")
        traced_wall = sum(r.end - r.start for r in reps if r.traced)
        record.update(self_seconds=self_s, self_time_balance_error=balance)
        table = _table(metrics, self_s, traced_wall)
        (RESULTS / f"{stem}.layers.txt").write_text(table + "\n")
        _write_spans(RESULTS / f"{stem}.spans.jsonl", tracer, reps)
        out_path = RESULTS / f"{stem}.traced.json"
    else:
        metrics, raw = _end_to_end(reps, setup_s)
        raw["setup_s"] = statistics.median(setups)
        record["raw_wall_clock"] = raw
        table = "\n".join(f"{name:20} {m['value']:14.6g}  {m['unit']}"
                          for name, m in metrics.items())
        table += "".join(f"\nraw wall-clock {name}: {value}" for name, value in raw.items())
        out_path = RESULTS / f"{stem}.json"
    correct = not errors
    record.update(correct=correct, errors=errors, metrics=metrics)
    out_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"environment: {json.dumps(env)}")
    print(f"{args.workload} seed {args.seed}: {len(reps)} repetitions,"
          f" {attempted} queries, {failed} failed,"
          f" query_fail_ratio {failed / attempted:.6g}")
    print(table)
    for error in errors:
        print(f"CHECK FAILED: {error}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
