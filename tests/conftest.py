from __future__ import annotations

import random

import pytest

from canstream import AMessage, Injection, RunOptions, Scenario
from canstream.fuzzing import ID_POOL


def amsg(ident: int, data: bytes = b"\x00") -> AMessage:
    return AMessage(ident, data)


def scenario(node_count, horizon, *injections, **options) -> Scenario:
    return Scenario(
        node_count=node_count,
        horizon=horizon,
        injections=tuple(Injection(n, t, amsg(i, d)) for n, t, i, d in injections),
        options=RunOptions(**options),
    )


def saturated(seed: int, nodes: int = 16, horizon: int = 128, per_node: int = 4) -> Scenario:
    """Every node gets per_node messages on its first odd ticks, so the bus stays busy to the end."""
    rng = random.Random(f"saturated:{seed}")
    ids = rng.sample(range(ID_POOL), nodes * per_node)
    return Scenario(nodes, horizon, tuple(
        Injection(node, 2 * k + 1, AMessage(ids[(node - 1) * per_node + k], rng.randbytes(rng.randint(1, 8))))
        for node in range(1, nodes + 1) for k in range(per_node)
    ))


@pytest.fixture
def golden_scenario() -> Scenario:
    """Single node, msg(5, 0xab) injected at tick 0, defaults everywhere."""
    return scenario(1, 6, (1, 0, 5, b"\xab"))


@pytest.fixture
def two_node_scenario() -> Scenario:
    """Two nodes race ids 3 and 5 from tick 0."""
    return scenario(2, 8, (1, 0, 3, b"\xaa"), (2, 0, 5, b"\xbb"))
