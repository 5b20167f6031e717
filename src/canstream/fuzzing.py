"""Scenario generation for sweeps: seeded random, and exhaustive for two nodes.

Random scenarios follow the discipline the acceptance properties assume:
injections land on odd ticks, identifiers are distinct within a scenario
(each identifier has one sender, as the `duplicate-identifier` rule
requires), and payloads are arbitrary bytes. Everything is driven by a
caller-supplied seed, so a sweep is exactly reproducible.
"""
from __future__ import annotations

import random
from itertools import permutations
from typing import Iterator

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


def two_node_scenarios(ids=(1, 2, 3, 4), ticks=(0, 1, 2), horizon: int = 16) -> Iterator[Scenario]:
    """Every two-node scenario of up to two messages per node, with distinct ids
    and distinct ticks per node; the defaults give the 2005-case oracle sweep."""
    for k1 in range(3):
        for k2 in range(3):
            for id_sel in permutations(ids, k1 + k2):
                for t1 in permutations(ticks, k1):
                    for t2 in permutations(ticks, k2):
                        yield Scenario(2, horizon, tuple(
                            Injection(node, tick, AMessage(ident, bytes([0x10 + ident])))
                            for node, tick, ident in zip((1,) * k1 + (2,) * k2, t1 + t2, id_sel)
                        ))
