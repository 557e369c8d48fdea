"""Synthetic task families for desk-scale experiments.

Builds mock pools whose entropy depends on a task tag carried in the query
text, generates tagged query sets, and measures routing quality against the
known entropy structure. Used by the training/adaptation experiments and by
the acceptance checks.
"""

from __future__ import annotations

import re

import numpy as np

from .agents import MockProfile, TAG_PATTERN
from .core import AgentSpec, derive_seed
from .orchestrator import Runtime, infer
from .router import keep_top_k

_TAG_RE = re.compile(TAG_PATTERN)

_ROLES = ("solver", "analyst", "programmer", "inspector", "searcher",
          "critic", "planner", "historian", "doctor", "economist")


def make_tagged_pool(pool_size: int, experts_by_tag: dict, *, low: float = 0.2,
                     high: float = 2.0, spread: float = 0.0,
                     vocab_size: int = 16, tokens_per_response: int = 12,
                     jitter: float = 0.0):
    """Pool where, per tag, a designated subset answers with low entropy
    and everyone else with high entropy.

    `spread` adds agent_id * spread to every target so entropies are
    pairwise distinct when an unambiguous ordering is needed.
    Returns (specs, profiles).
    """
    specs = []
    profiles = []
    for agent_id in range(pool_size):
        role = _ROLES[agent_id % len(_ROLES)]
        specs.append(AgentSpec(
            agent_id=agent_id,
            model_ref="mock",
            profile_text=(f"You are a {role} agent (#{agent_id}). Work the "
                          "current step of the task and report a concise finding."),
            tool_names=("calculator",),
        ))
        skill_map = {"default": (high + agent_id * spread, jitter)}
        for tag, experts in experts_by_tag.items():
            base = low if agent_id in experts else high
            skill_map[tag] = (base + agent_id * spread, jitter)
        profiles.append(MockProfile(
            agent_id=agent_id,
            skill_map=skill_map,
            vocab_size=vocab_size,
            tokens_per_response=tokens_per_response,
        ))
    return specs, profiles


def make_queries(tags, count: int, seed: int, salt: str = "train") -> list[str]:
    """Tagged synthetic queries, round-robin over the tags."""
    tags = list(tags)
    rng = np.random.default_rng(derive_seed(seed, f"queries:{salt}"))
    queries = []
    for index in range(count):
        tag = tags[index % len(tags)]
        nonce = rng.bytes(3).hex()
        queries.append(f"[tag:{tag}] work through synthetic task"
                       f" {salt}-{index} case {nonce}")
    return queries


def query_tag(query: str) -> str:
    match = _TAG_RE.search(query)
    return match.group(1) if match else "default"


def expected_entropies(profiles, tag: str) -> np.ndarray:
    """Per-agent entropy targets for a tag, straight from the skill maps."""
    return np.asarray([profile.skill(tag)[0] for profile in profiles],
                      dtype=np.float64)


def top_pair_match_rate(runtime: Runtime, queries, params, config,
                        experts_by_tag: dict) -> float:
    """Fraction of inference steps whose top-2 logits are exactly the
    designated expert pair for the query's tag."""
    hits = 0
    total = 0
    for index, query in enumerate(queries):
        expected = set(experts_by_tag[query_tag(query)])
        traj = infer(runtime, query, params, config, query_index=index)
        for record in traj.steps:
            top2 = set(keep_top_k(record.logits_z, 2))
            hits += top2 == expected
            total += 1
    return hits / total if total else 0.0


def entropy_argmin_agreement(runtime: Runtime, queries, params, config) -> float:
    """Fraction of inference steps whose selected agents all sit among the
    k lowest-entropy agents for the query's tag (ties broken by index)."""
    hits = 0
    total = 0
    for index, query in enumerate(queries):
        targets = expected_entropies(runtime.pool.profiles, query_tag(query))
        traj = infer(runtime, query, params, config, query_index=index)
        for record in traj.steps:
            lowest = sorted(range(targets.size), key=lambda a: (targets[a], a))
            hits += set(record.selected_ids) <= set(lowest[:record.k])
            total += 1
    return hits / total if total else 0.0
