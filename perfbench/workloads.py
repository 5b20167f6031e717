"""The benchmark's workloads: seeded inputs and the CLI path each one follows.

Every workload hands the program only generated `Scenario` values that keep
the option defaults and use distinct identifiers. `cs` is the namespace of
freshly imported canstream modules (see run.py); functions are always looked
up through their module so that the traced run sees every call.
"""
from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from dataclasses import dataclass
from itertools import permutations
from time import perf_counter_ns
from typing import Any, Callable, NamedTuple

CORPUS_SIZE = 240
CORPUS_HORIZON = 64
WIDE_NODES = 64
WIDE_HORIZON = 512
WIDE_MESSAGES_PER_NODE = 5
WIDE_SCENARIOS = 4
CURVE_NODES = (4, 16, 64, 128)
CURVE_HORIZON = 256
EXHAUSTIVE_COUNT = 2005


class Outcome(NamedTuple):
    run_ns: int  # host time inside run_scenario
    ok: bool  # checks passed (where the path checks) and every node agrees with the oracle
    trace: Any


def agrees_with_oracle(cs, scenario, trace) -> bool:
    """Every node's delivery log equals the oracle's, not only node 1's."""
    expected = cs.oracle.oracle_run(scenario)
    return all(
        cs.system.delivery_log(trace, node) == expected
        for node in range(1, scenario.node_count + 1)
    )


def _run(cs, scenario):
    start = perf_counter_ns()
    trace = cs.system.run_scenario(scenario)
    return trace, perf_counter_ns() - start


def roundtrip_path(cs, scenario) -> Outcome:
    """`run` + `check` + `oracle-diff`: write the trace, load it, check the loaded copy."""
    trace, run_ns = _run(cs, scenario)
    loaded = cs.serialize.trace_from_jsonl(cs.serialize.trace_to_jsonl(trace))
    ok = cs.checkers.check_all(loaded, predicates=cs.checkers.ALL_PREDICATES).ok()
    return Outcome(run_ns, ok and agrees_with_oracle(cs, scenario, loaded), trace)


def fuzz_path(cs, scenario) -> Outcome:
    """`fuzz`: run, check all six predicates and compare with the oracle, in memory."""
    trace, run_ns = _run(cs, scenario)
    ok = cs.checkers.check_all(trace, predicates=cs.checkers.ALL_PREDICATES).ok()
    return Outcome(run_ns, ok and agrees_with_oracle(cs, scenario, trace), trace)


def oracle_diff_path(cs, scenario) -> Outcome:
    """`oracle-diff`: run and compare with the oracle; no checks, no serialization."""
    trace, run_ns = _run(cs, scenario)
    return Outcome(run_ns, agrees_with_oracle(cs, scenario, trace), trace)


def corpus(cs, seed, size: int = CORPUS_SIZE):
    """The acceptance-criterion-3 corpus shape: 2-5 nodes, horizon 64."""
    return [
        cs.fuzzing.seeded_scenario(seed, i, nodes=2 + i % 4, horizon=CORPUS_HORIZON)
        for i in range(size)
    ]


def saturated_scenario(cs, rng: random.Random, nodes: int, horizon: int, per_node: int):
    """Every node gets `per_node` messages on its first odd ticks.

    With more messages than frames fit in the horizon the bus stays busy to
    the end, and every node still holding a message loses arbitration again
    at each frame.
    """
    ids = rng.sample(range(cs.fuzzing.ID_POOL), nodes * per_node)
    injections = tuple(
        cs.core.Injection(node, 2 * k + 1, cs.core.AMessage(
            ids[(node - 1) * per_node + k], rng.randbytes(rng.randint(1, 8))))
        for node in range(1, nodes + 1)
        for k in range(per_node)
    )
    return cs.core.Scenario(nodes, horizon, injections)


def wide_bus(cs, seed, nodes: int = WIDE_NODES, horizon: int = WIDE_HORIZON,
             count: int = WIDE_SCENARIOS):
    rng = random.Random(f"wide_bus:{seed}")
    return [saturated_scenario(cs, rng, nodes, horizon, WIDE_MESSAGES_PER_NODE) for _ in range(count)]


def curve_scenario(cs, seed, nodes: int, horizon: int = CURVE_HORIZON):
    """Saturated traffic for the node-count scaling curve."""
    per_node = max(WIDE_MESSAGES_PER_NODE, horizon // (2 * nodes) + 2)
    return saturated_scenario(cs, random.Random(f"curve:{seed}:{nodes}"), nodes, horizon, per_node)


def exhaustive_pairs(cs):
    """The fixed two-node enumeration of acceptance criterion 4.

    Up to two messages per node, distinct identifiers 1-4, injection ticks
    0-2, horizon 16: the same 2005 scenarios as scripts/exhaustive_oracle.py
    with its defaults.
    """
    ids, ticks = (1, 2, 3, 4), (0, 1, 2)
    out = []
    for k1 in range(3):
        for k2 in range(3):
            for id_sel in permutations(ids, k1 + k2):
                for t1 in permutations(ticks, k1):
                    for t2 in permutations(ticks, k2):
                        inj = tuple(
                            cs.core.Injection(node, tick, cs.core.AMessage(ident, bytes([0x10 + ident])))
                            for node, tick, ident in
                            [(1, t1[j], id_sel[j]) for j in range(k1)]
                            + [(2, t2[j], id_sel[k1 + j]) for j in range(k2)]
                        )
                        out.append(cs.core.Scenario(2, 16, inj))
    if len(out) != EXHAUSTIVE_COUNT:
        raise AssertionError(f"enumeration produced {len(out)} scenarios, expected {EXHAUSTIVE_COUNT}")
    return out


def rotated(items: list, seed: int) -> list:
    """The same items, starting at a seed-chosen offset."""
    k = seed % len(items)
    return items[k:] + items[:k]


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[Any, int, bool], list]  # (cs, seed, smoke) -> scenarios
    pipeline: Callable[[Any, Any], Outcome]
    checks: bool
    serializes: bool
    traced_count: int  # scenarios in the traced run (smoke runs use a tenth, at least one)
    side_count: int  # traced traces also put through the layers the path skips
    bytes_count: int  # scenarios serialized to measure trace bytes per tick
    reference: Callable[[Any], list]  # fixed inputs of the behaviour digest


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "corpus_roundtrip",
            lambda cs, seed, smoke: corpus(cs, seed, 20 if smoke else CORPUS_SIZE),
            roundtrip_path, checks=True, serializes=True,
            traced_count=100, side_count=0, bytes_count=100,
            reference=lambda cs: corpus(cs, "accept3", 100),
        ),
        Workload(
            "wide_bus",
            lambda cs, seed, smoke: wide_bus(cs, seed, 8, 64, 2) if smoke else wide_bus(cs, seed),
            fuzz_path, checks=True, serializes=False,
            traced_count=2, side_count=1, bytes_count=1,
            reference=lambda cs: wide_bus(cs, "reference", count=1),
        ),
        Workload(
            "exhaustive_pairs",
            lambda cs, seed, smoke: rotated(exhaustive_pairs(cs), seed)[: 100 if smoke else None],
            oracle_diff_path, checks=False, serializes=False,
            traced_count=EXHAUSTIVE_COUNT, side_count=200, bytes_count=200,
            reference=exhaustive_pairs,
        ),
    )
}


def behaviour_digest(cs, scenarios) -> str:
    """Hash of what the simulation did, independent of the trace format.

    Covers every node's delivery log, every node's request ticks and the
    count of each bus-access row, so a change that alters simulated
    behaviour changes the digest while a new trace encoding does not.
    """
    h = hashlib.sha256()
    for scenario in scenarios:
        trace = cs.system.run_scenario(scenario)
        nodes = range(1, trace.node_count + 1)
        record = {
            "deliveries": [
                [[t, m.id, m.data.hex()] for t, m in cs.system.delivery_log(trace, node)]
                for node in nodes
            ],
            "requests": [
                [t for t, cell in enumerate(trace.node_stream("r", node).cells) if cell]
                for node in nodes
            ],
            "rows": sorted(Counter(r for per_tick in trace.rows for r in per_tick).items()),
        }
        h.update(json.dumps(record, separators=(",", ":")).encode())
    return h.hexdigest()


def sim_stats(traces) -> dict[str, float]:
    """Exact simulated statistics over the given traces."""
    rows = Counter(r for trace in traces for per_tick in trace.rows for r in per_tick)
    ticks = sum(trace.horizon for trace in traces)
    busy = sum(1 for trace in traces for cell in trace.wire.cells if cell)
    out = {
        "sim.deliveries": sum(1 for trace in traces for cell in trace.streams["ar"][0].cells if cell),
        "sim.win_ratio": rows[4] / (rows[4] + rows[5]) if rows[4] + rows[5] else 0.0,
        "sim.bus_utilisation": busy / ticks if ticks else 0.0,
        "sim.max_queue_depth": max(
            (len(b.buf) for trace in traces for snap in trace.states for b in snap["buffers"]),
            default=0,
        ),
    }
    out.update({f"sim.row{k}_count": rows[k] for k in range(1, 6)})
    return out
