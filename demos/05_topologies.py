#!/usr/bin/env python3
"""Scripted logit schedules make the step-wise router reproduce classic
communication topologies: chain, star, and the fully-connected pattern."""

import numpy as np

from agentroute import (MockPoolBackend, MockSummarizer, RouterConfig, Runtime,
                        infer, init_params)
from agentroute.embed import HashEmbedder
from agentroute.synthetic import make_tagged_pool

N = 4
config = RouterConfig(pool_size=N, max_route=N, temperature=0.1, embed_dim=32,
                      max_steps=4, train_steps=2, seed=5)
specs, profiles = make_tagged_pool(N, {"alpha": (0, 1)})
runtime = Runtime(pool=MockPoolBackend(specs, profiles),
                  summarizer=MockSummarizer(final_at_step=0),
                  embed=HashEmbedder(config.embed_dim))
params = init_params(config)


def schedule_logits(ids):
    z = np.full(N, -8.0)
    z[sorted(ids)] = 8.0
    return z


SCHEDULES = {
    # one agent per step, rotating: a pipeline
    "chain": lambda step: {(step - 1) % N},
    # hub at even steps talks to all spokes at odd steps
    "star": lambda step: {0} if step % 2 == 1 else set(range(1, N)),
    # everyone every step: the fully-connected mixture pattern
    "complete": lambda step: set(range(N)),
}

for name, schedule in SCHEDULES.items():
    trajectory = infer(runtime, f"[tag:alpha] {name} probe", params, config,
                       logit_override=lambda step: schedule_logits(schedule(step)))
    print(f"{name}:")
    for record in trajectory.steps:
        print(f"  step {record.step_index}: agents {sorted(record.selected_ids)}")
    calls = trajectory.total_agent_calls
    print(f"  agent calls: {calls} of {N * len(trajectory.steps)} possible\n")

print("each step's context vector is built only from the previous step's")
print("executed agents, so these schedules realize the drawn message flows.")
