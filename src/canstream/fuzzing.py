"""Seeded random scenario generation for fuzz sweeps.

Generated scenarios follow the discipline the acceptance properties assume:
injections land on odd ticks, identifiers are globally distinct within a
scenario (so arbitration is never ambiguous), and payloads are arbitrary
bytes. Everything is driven by a caller-supplied seed, so a sweep is exactly
reproducible.
"""
from __future__ import annotations

import random

from .core import AMessage, Injection, Scenario

ID_POOL = 2048  # identifiers are sampled from [0, ID_POOL)
MESSAGES_PER_NODE = 2  # a scenario carries at most nodes * MESSAGES_PER_NODE messages


def random_scenario(rng: random.Random, nodes: int, horizon: int) -> Scenario:
    """One random, disciplined scenario."""
    odd_ticks = list(range(1, horizon, 2))
    slots = [(node, tick) for node in range(1, nodes + 1) for tick in odd_ticks]
    count = rng.randint(1, max(1, min(nodes * MESSAGES_PER_NODE, len(slots))))
    chosen = rng.sample(slots, count)
    ids = rng.sample(range(ID_POOL), count)
    injections = []
    for (node, tick), ident in zip(sorted(chosen), ids):
        payload = bytes(rng.randrange(256) for _ in range(rng.randint(1, 8)))
        injections.append(Injection(node, tick, AMessage(ident, payload)))
    return Scenario(node_count=nodes, horizon=horizon, injections=tuple(injections))


def seeded_scenario(seed: int | str, index: int, nodes: int, horizon: int) -> Scenario:
    """Scenario `index` of the sweep identified by `seed`; fully deterministic."""
    rng = random.Random(f"{seed}:{index}")
    return random_scenario(rng, nodes, horizon)
