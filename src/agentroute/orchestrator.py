"""Top-level loops: dense entropy-supervised training, sparse inference
with summarizer termination, test-time adaptation and scripted topologies.

All of them run one step loop, `_step_loop`. Per step it routes, builds
the prompts, executes, aggregates the routed responses into the next
context and yields the step to its caller. Three things differ, and each
is plain data:
  - which agents execute: every pool agent (dense, which collects the
    entropy supervision) or only the routed ones (sparse); either way the
    next context aggregates only the routed agents' responses;
  - whether a TransportError is tolerated: only on sparse steps, which
    renormalize alpha over the surviving agents;
  - what the caller does with each step: inference asks the summarizer
    whether to stop, with the step limit as backstop; training scores the
    step's routing probabilities and backpropagates through time after
    the last step.
Test-time adaptation runs the first queries of a stream densely, updates
the router from their entropy signal exactly as training does, then serves
the rest sparsely with the adapted parameters. Topology simulation is
sparse inference whose logits come from a script.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .agents import Final, TransportError, assemble_prompt, \
    summarize_final, summarizer_decide
from .core import ConfigError, RouterConfig, StepRecord, STEP_LIMIT, SUMMARIZER, \
    Trajectory, derive_seed, new_trajectory, validate_config
from .learning import OptimizerState, TrainingSettings, adamw_step, \
    clip_gradients, confidence, get_loss, total_loss
from .numerics import softmax, softmax_vjp
from .router import ForwardPass, RouterParams, attach_responses, \
    backward_trajectory, init_state, reduce_gradients, route_step, select


class OrchestrationError(RuntimeError):
    """A run could not proceed (for example, every routed agent failed)."""


@dataclass
class Runtime:
    """The pieces a run needs besides parameters: an agent pool backend, a
    summarizer backend, an embedding function, and the fan-out width for
    per-step agent execution."""

    pool: object
    summarizer: object
    embed: object
    max_workers: int = 1


@dataclass
class TrainReport:
    """Loss curves plus the trained parameters and a routing-quality
    summary: per epoch, the fraction of its steps whose selected agents all
    sat among the k lowest-entropy agents of that step; routing_agreement
    is the final epoch's."""

    epoch_losses: list = field(default_factory=list)
    loss_rows: list = field(default_factory=list)  # (epoch, batch, mean loss)
    epoch_agreements: list = field(default_factory=list)
    routing_agreement: float = 0.0
    params: RouterParams | None = None


def _execute_many(runtime: Runtime, agent_ids, prompts, step_index, seeds,
                  tolerate_failures: bool):
    """Run a set of agents, optionally concurrently. Results come back in
    the order of agent_ids regardless of completion order; failed agents
    are None when failures are tolerated."""

    def run_one(args):
        agent_id, prompt, seed = args
        try:
            return runtime.pool.execute(agent_id, prompt, step_index, seed)
        except TransportError:
            if tolerate_failures:
                return None
            raise

    tasks = list(zip(agent_ids, prompts, seeds))
    if runtime.max_workers <= 1 or len(tasks) <= 1:
        return [run_one(t) for t in tasks]
    with ThreadPoolExecutor(max_workers=min(runtime.max_workers, len(tasks))) as pool:
        return list(pool.map(run_one, tasks))


def _step_loop(runtime: Runtime, query: str, params: RouterParams,
               config: RouterConfig, label: str, dense: bool,
               traj: Trajectory | None, logit_override=None):
    """The step loop of every mode (see the module doc). Each step is
    appended to `traj` when one is given, then yielded as (step cache,
    routed responses, entropy vector or None). Dense runs take
    config.train_steps steps and need every agent's entropy; sparse runs
    take up to config.max_steps steps and abort only when every routed
    agent of a step failed."""
    x = np.asarray(runtime.embed(query), dtype=np.float64)
    h = init_state(config.embed_dim)
    routed: list = []
    n_steps = config.train_steps if dense else config.max_steps
    for step_index in range(1, n_steps + 1):
        step = route_step(x, h, params, config)
        if logit_override is not None:
            select(step, logit_override(step_index), config)
        agent_ids = range(config.pool_size) if dense else step.selected_ids
        prompts = [assemble_prompt(runtime.pool.spec(a), query, routed)
                   for a in agent_ids]
        seeds = [derive_seed(config.seed, f"exec:{label}:s{step_index}:a{a}")
                 for a in agent_ids]
        results = _execute_many(runtime, agent_ids, prompts, step_index, seeds,
                                tolerate_failures=not dense)
        executed = [resp for resp in results if resp is not None]
        entropy_vec = None
        if dense:
            for resp in executed:
                if resp.predictive_entropy is None:
                    raise OrchestrationError(
                        f"agent {resp.agent_id} returned no entropy; cannot supervise")
            entropy_vec = np.asarray([resp.predictive_entropy for resp in executed],
                                     dtype=np.float64)
            routed = [executed[a] for a in step.selected_ids]
        else:
            if not executed:
                raise OrchestrationError(f"all routed agents failed at step {step_index}")
            if len(executed) < step.k:
                keep = [pos for pos, resp in enumerate(results) if resp is not None]
                alpha = step.alpha[keep]
                step.alpha = alpha / alpha.sum()
                step.selected_ids = tuple(step.selected_ids[pos] for pos in keep)
                step.k = len(keep)
            routed = executed
        x_next = attach_responses(step, np.stack([runtime.embed(r.text)
                                                  for r in routed]))
        if traj is not None:
            record = StepRecord(step_index=step_index, logits_z=step.z,
                                count_probs=step.count_probs, k=step.k,
                                selected_ids=step.selected_ids, alpha=step.alpha,
                                context_X=x, entropy_E=entropy_vec)
            traj.append_step(record, executed, config)
        yield step, routed, entropy_vec
        x = x_next
        h = step.h


def infer(runtime: Runtime, query: str, params: RouterParams,
          config: RouterConfig, *, query_index: int = 0,
          logit_override=None) -> Trajectory:
    """Sparse inference: route, execute only the selected agents, aggregate,
    then ask the summarizer whether to stop. If a routed agent fails in
    transport, its weight is renormalized over the survivors; if every
    routed agent fails the run aborts. Reaching the step limit forces one
    summarizer call whose reply becomes the answer.

    `logit_override` (step_index -> logits) replaces the router's logits,
    which is how scripted topology schedules are produced; it lifts the
    route cap to the whole pool.
    """
    validate_config(config)
    if runtime.pool.size != config.pool_size:
        raise ConfigError("pool size does not match config.pool_size")
    if logit_override is not None:
        config = replace(config, max_route=config.pool_size)
    traj = new_trajectory(query)
    routed: list = []
    for _, routed, _ in _step_loop(runtime, query, params, config,
                                   f"q{query_index}", False, traj, logit_override):
        decision = summarizer_decide(query, routed, runtime.summarizer)
        if isinstance(decision, Final):
            traj.final_answer = decision.answer
            traj.terminated_by = SUMMARIZER
            return traj
    traj.final_answer = summarize_final(query, routed, runtime.summarizer)
    traj.terminated_by = STEP_LIMIT
    return traj


def _dense_pass(runtime: Runtime, query: str, params: RouterParams,
                config: RouterConfig, label: str, loss_fn, grad_fn,
                make_trajectory: bool):
    """One dense query: score each step's routing probabilities against
    the confidence ordering, average the step losses, and backpropagate
    through time.

    Returns (mean loss, BPTT gradient rows, per-step (selected, entropies),
    trajectory or None). Any agent failure aborts the query: the entropy
    targets would be incomplete.
    """
    traj = new_trajectory(query) if make_trajectory else None
    steps, dz_list, losses, infos = [], [], [], []
    routed: list = []
    for step, routed, entropy_vec in _step_loop(runtime, query, params, config,
                                                label, True, traj):
        conf = confidence(entropy_vec)
        probs = softmax(step.z)
        losses.append(loss_fn(probs, conf))
        dz_list.append(softmax_vjp(probs, grad_fn(probs, conf)))
        infos.append((step.selected_ids, entropy_vec))
        steps.append(step)
    mean_loss = total_loss(losses)
    scale = 1.0 / len(steps)
    forward = ForwardPass(steps=steps, params=params)
    rows = backward_trajectory(forward, [dz * scale for dz in dz_list])
    if traj is not None:
        traj.final_answer = summarize_final(query, routed, runtime.summarizer)
        traj.terminated_by = STEP_LIMIT
    return mean_loss, rows, infos, traj


def _dense_epoch(runtime: Runtime, queries, params: RouterParams,
                 config: RouterConfig, settings: TrainingSettings, state,
                 label_prefix: str, make_trajectory: bool):
    """One pass over the queries in batches of settings.batch_size, shared
    by training and test-time adaptation.

    Each query runs densely, BPTT included; each batch then turns the
    gradient rows of all its queries into the batch-mean gradient at once,
    in the optimizer state's gradient buffer, clips it in place (the clip's
    norm is also its finiteness check), and takes one AdamW step. Returns the updated parameters and, per batch, the
    (loss, per-step infos, trajectory or None) of each query.
    """
    loss_fn, grad_fn = get_loss(settings.loss_kind, settings.triplet_margin)
    results = []
    for start in range(0, len(queries), settings.batch_size):
        batch = queries[start: start + settings.batch_size]
        batch_results, batch_rows = [], []
        for query_index, query in enumerate(batch, start=start):
            try:
                loss, rows, infos, traj = _dense_pass(
                    runtime, query, params, config, f"{label_prefix}q{query_index}",
                    loss_fn, grad_fn, make_trajectory)
            except (TransportError, OrchestrationError, ValueError) as exc:
                raise OrchestrationError(
                    f"training query {query_index} failed: {exc}") from exc
            batch_results.append((loss, infos, traj))
            batch_rows.append(rows)
        state.grads = reduce_gradients(batch_rows, scale=1.0 / len(batch),
                                       out=state.grads, check_finite=False)
        params = adamw_step(params, clip_gradients(state.grads, settings.clip_norm),
                            state)
        results.append(batch_results)
    return params, results


def _agreement(selected_ids, entropy_vec) -> bool:
    k = len(selected_ids)
    lowest = sorted(range(entropy_vec.size), key=lambda a: (entropy_vec[a], a))[:k]
    return set(selected_ids) <= set(lowest)


def train(runtime: Runtime, queries, params: RouterParams, config: RouterConfig,
          settings: TrainingSettings) -> TrainReport:
    """Dense entropy-supervised training.

    Per query: embed it, unroll config.train_steps routing steps executing
    all pool agents, score each step's routing probabilities against the
    confidence ordering, and average the step losses. Per batch: average
    the per-query gradients, clip to the global-norm budget, and take one
    AdamW step. The summarizer never runs here; the loss needs no answers.
    """
    validate_config(config)
    queries = list(queries)
    if not queries:
        raise ValueError("at least one training query is required")
    if runtime.pool.size != config.pool_size:
        raise ConfigError("pool size does not match config.pool_size")
    state = OptimizerState(settings)
    report = TrainReport()
    for epoch in range(1, settings.epochs + 1):
        params, results = _dense_epoch(runtime, queries, params, config, settings,
                                       state, f"e{epoch}:", make_trajectory=False)
        epoch_batch_losses = []
        hits = total_steps = 0
        for batch_index, batch_results in enumerate(results, start=1):
            mean_loss = sum(loss for loss, _, _ in batch_results) / len(batch_results)
            report.loss_rows.append((epoch, batch_index, mean_loss))
            epoch_batch_losses.append(mean_loss)
            for _, infos, _ in batch_results:
                for selected, entropy_vec in infos:
                    hits += _agreement(selected, entropy_vec)
                    total_steps += 1
        report.epoch_losses.append(float(np.mean(epoch_batch_losses)))
        report.epoch_agreements.append(hits / total_steps)
    if report.epoch_agreements:
        report.routing_agreement = report.epoch_agreements[-1]
    report.params = params
    return report


def test_time_train(runtime: Runtime, queries, params: RouterParams,
                    config: RouterConfig, settings: TrainingSettings,
                    t_dense: int):
    """Adapt on a query stream without labels.

    The first t_dense queries run densely (train_steps steps, all agents,
    the summarizer still produces each answer); their entropy losses update
    the router in one pass of batch-sized optimizer steps. Every remaining
    query then runs sparse inference with the adapted parameters.

    Returns (adapted params, trajectories for the whole stream). Dense-phase
    trajectories carry entropy_E on every step; sparse-phase ones carry none.
    """
    validate_config(config)
    if not isinstance(t_dense, int) or not 1 <= t_dense <= 30:
        raise ConfigError("t_dense must be an integer in 1..30")
    if t_dense < 10:
        warnings.warn("t_dense below 10 is outside the recommended 10..30 range",
                      stacklevel=2)
    queries = list(queries)
    if len(queries) < t_dense:
        raise ValueError(f"stream must yield at least t_dense={t_dense} queries")
    if runtime.pool.size != config.pool_size:
        raise ConfigError("pool size does not match config.pool_size")
    dense, sparse = queries[:t_dense], queries[t_dense:]
    params, results = _dense_epoch(runtime, dense, params, config, settings,
                                   OptimizerState(settings),
                                   "ttt:", make_trajectory=True)
    trajectories: list[Trajectory] = [traj for batch_results in results
                                      for _, _, traj in batch_results]
    for offset, query in enumerate(sparse):
        trajectories.append(infer(runtime, query, params, config,
                                  query_index=t_dense + offset))
    return params, trajectories


# the name begins with "test_", which test collectors would otherwise pick up
test_time_train.__test__ = False
