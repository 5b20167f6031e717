from __future__ import annotations

import json
import random

import pytest
from hypothesis import strategies as st

from canstream import AMessage, Injection, Scenario
from canstream.components import dispatch_row
from canstream.fuzzing import ID_POOL
from canstream.serialize import _OPENING, scenario_from_dict


def amsg(ident: int, data: bytes = b"\x00") -> AMessage:
    return AMessage(ident, data)


def scenario(node_count, horizon, *injections) -> Scenario:
    return Scenario(node_count, horizon, tuple(Injection(n, t, amsg(i, d)) for n, t, i, d in injections))


def saturated(seed: int, nodes: int = 16, horizon: int = 128, per_node: int = 4) -> Scenario:
    """Every node gets per_node messages on its first odd ticks, so the bus stays busy to the end."""
    rng = random.Random(f"saturated:{seed}")
    ids = rng.sample(range(ID_POOL), nodes * per_node)
    return Scenario(nodes, horizon, tuple(
        Injection(node, 2 * k + 1, AMessage(ids[(node - 1) * per_node + k], rng.randbytes(rng.randint(1, 8))))
        for node in range(1, nodes + 1) for k in range(per_node)
    ))


@st.composite
def valid_scenarios(draw) -> Scenario:
    """Any scenario validation accepts with 1-8 nodes, horizon 0-48, identifiers 0-7 and payloads of 0-8 octets:
    injections on any tick, each identifier sent by one node, which may repeat it."""
    nodes, horizon = draw(st.integers(1, 8)), draw(st.integers(0, 48))
    owner = draw(st.lists(st.integers(1, nodes), min_size=8, max_size=8))  # identifier -> its sender
    send = st.tuples(st.integers(0, 7), st.integers(0, max(horizon - 1, 0)))  # (identifier, tick)
    sends = draw(st.lists(send, max_size=24 if horizon else 0,
                          unique_by=lambda pair: (owner[pair[0]], pair[1])))  # one injection per node and tick
    injections = tuple(Injection(owner[ident], tick, AMessage(ident, draw(st.binary(max_size=8))))
                       for ident, tick in sends)
    return Scenario(nodes, horizon, injections)


def literal_row2(monkeypatch) -> None:
    """Patch the kernel's bus-access step to the paper's literal row 2, which leaves ws empty: no identifier ever
    reaches the bus, and arbitration starves."""
    import canstream.system as system

    real = system.logical_layer_step

    def literal(state, ms, wr, t):
        mr, ws, r, nxt = real(state, ms, wr, t)
        return mr, (() if dispatch_row(ms, wr, state.lid) == 2 else ws), r, nxt

    monkeypatch.setattr(system, "logical_layer_step", literal)


def unprimed(monkeypatch) -> None:
    """Patch the kernel's buffer step so that a buffer never takes a request: no buffer is ever primed, no message
    reaches an offer slot, and nothing is delivered."""
    import canstream.system as system

    real = system.buffer_step
    monkeypatch.setattr(system, "buffer_step", lambda state, a, r, t: real(state, a, (), t))


def tick_line(lines: list[str], t: int) -> int:
    """The index, in a trace file's lines, of the line of tick t; a tick that a line's "through" covers has none."""
    for i, line in enumerate(lines[1:], start=1):
        tick = json.loads(line)
        if tick.get("t") == t:
            return i
        if tick.get("t", t) < t <= tick.get("through", -1):
            pytest.fail(f"tick {t} has no line of its own: the line of tick {tick['t']} covers it, through tick "
                        f"{tick['through']}")
    pytest.fail(f"no line covers tick {t}")


def unwritten_entries(lines: list[str]) -> int:
    """The number of value-table entries that a trace file's tick lines do not write: the opening entries, then the
    header's distinct message cells."""
    injections = scenario_from_dict(json.loads(lines[0])["scenario"]).injections
    return len(_OPENING) + len({inj.message for inj in injections})


def add_entry(lines: list[str], t: int, value) -> int:
    """Append `value` to the value table at tick t's line of a trace file's lines, and renumber the later lines'
    references, in their fields and inside their buffer state entries, so that everything else reads what it read
    before; the new entry's table number."""
    at = tick_line(lines, t)
    ticks = [json.loads(line) for line in lines[1:]]
    k = unwritten_entries(lines) + sum(len(tick.get("new", ())) for tick in ticks[:at])
    ticks[at - 1].setdefault("new", []).append(value)
    up = lambda r: r + (r >= k)
    shift = lambda v: up(v) if type(v) is int else [[i, up(r)] for i, r in v]
    for tick in ticks[at:]:
        for key in tick.keys() - {"t", "through", "new"}:
            tick[key] = {f: shift(v) for f, v in tick[key].items()} if key == "state" else shift(tick[key])
        for entry in tick.get("new", ()):
            if isinstance(entry, dict) and "buf" in entry:  # a buffer state refers to its messages' cells
                entry.update(b=up(entry["b"]), buf=[up(r) for r in entry["buf"]])
    lines[1:] = [json.dumps(tick, sort_keys=True, separators=(",", ":")) for tick in ticks]
    return k


@pytest.fixture
def golden_scenario() -> Scenario:
    """Single node, msg(5, 0xab) injected at tick 0."""
    return scenario(1, 6, (1, 0, 5, b"\xab"))


@pytest.fixture
def two_node_scenario() -> Scenario:
    """Two nodes race ids 3 and 5 from tick 0."""
    return scenario(2, 8, (1, 0, 3, b"\xaa"), (2, 0, 5, b"\xbb"))
