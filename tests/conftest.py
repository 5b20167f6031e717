from __future__ import annotations

import json
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


def add_entry(lines: list[str], t: int, value) -> int:
    """Append `value` to the value table at tick t of a trace file's lines, and renumber the later ticks' references,
    in their fields and inside their buffer state entries, so that everything else reads what it read before; the new
    entry's table number."""
    ticks = [json.loads(line) for line in lines[1:]]
    k = sum(len(tick.get("new", ())) for tick in ticks[:t + 1])
    ticks[t].setdefault("new", []).append(value)
    up = lambda r: r + (r >= k)
    shift = lambda v: up(v) if type(v) is int else [[i, up(r)] for i, r in v]
    for tick in ticks[t + 1:]:
        for key in tick.keys() - {"t", "new"}:
            tick[key] = {f: shift(v) for f, v in tick[key].items()} if key == "state" else shift(tick[key])
        for entry in tick.get("new", ()):
            if isinstance(entry, dict) and "buf" in entry:  # a buffer state refers to its messages' cells
                entry.update(b=up(entry["b"]), buf=[up(r) for r in entry["buf"]])
    lines[1:] = [json.dumps(tick, sort_keys=True, separators=(",", ":")) for tick in ticks]
    return k


@pytest.fixture
def golden_scenario() -> Scenario:
    """Single node, msg(5, 0xab) injected at tick 0, defaults everywhere."""
    return scenario(1, 6, (1, 0, 5, b"\xab"))


@pytest.fixture
def two_node_scenario() -> Scenario:
    """Two nodes race ids 3 and 5 from tick 0."""
    return scenario(2, 8, (1, 0, 3, b"\xaa"), (2, 0, 5, b"\xbb"))
