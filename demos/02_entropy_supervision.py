#!/usr/bin/env python3
"""How the self-supervision signal is built: mock agents hit exact entropy
targets, entropies become confidences, and the ranking loss scores a
routing distribution against the confidence ordering."""

import math

import numpy as np

from agentroute import (MockProfile, Prompt, confidence, mock_execute,
                        predictive_entropy, ranking_loss)
from agentroute.gradcheck import gradient_check

# ------------------------------------------------------------------
# 1. Predictive entropy of token distributions
# ------------------------------------------------------------------
point_mass = [np.array([1.0, 0.0, 0.0, 0.0])] * 5
uniform = [np.full(4, 0.25)] * 5
print(f"point-mass tokens: PE = {predictive_entropy(point_mass):.4f}")
print(f"uniform tokens:    PE = {predictive_entropy(uniform):.4f} (ln 4 = {math.log(4):.4f})")

# ------------------------------------------------------------------
# 2. Mock agents dial in any target entropy
# ------------------------------------------------------------------
# Each token distribution blends a point mass with a uniform tail, whose
# entropy has a closed form; a few Newton steps on it solve the blend so
# the measured entropy hits the target to within 1e-9 * max(ln vocab, 1).
# With no jitter, every token reports that same entropy.
for target in (0.0, 0.5, 1.5, math.log(16)):
    profile = MockProfile(agent_id=0, skill_map={"default": (target, 0.0)})
    response = mock_execute(profile, Prompt("probe"), "default", seed=3)
    print(f"target {target:.4f} -> measured {response.predictive_entropy:.10f}")

# ------------------------------------------------------------------
# 3. Confidence and the pairwise ranking loss
# ------------------------------------------------------------------
# Low entropy means high confidence. The loss sums softplus(-(Z_a - Z_b))
# over every ordered pair the confidence ranks strictly, so a routing
# distribution aligned with the confidence ordering scores low.
entropies = np.array([0.2, 2.0, 0.4, 1.4])
conf = confidence(entropies)
print(f"\nentropies   {entropies}")
print(f"confidence  {np.round(conf, 3)}")

aligned = np.array([0.45, 0.05, 0.35, 0.15])
reversed_z = aligned[::-1].copy()
print(f"aligned routing   loss = {ranking_loss(aligned, conf):.4f}")
print(f"misordered routing loss = {ranking_loss(reversed_z, conf):.4f}")

# ------------------------------------------------------------------
# 4. The loss is differentiable end to end
# ------------------------------------------------------------------
# Backpropagation through time over the recurrence and the aggregation
# weights agrees with central finite differences.
error = gradient_check(42)
print(f"\nBPTT vs finite differences: max relative error {error:.2e}")
