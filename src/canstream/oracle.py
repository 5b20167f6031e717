"""Reference model of correct bus behaviour, for equivalence tests.

The oracle knows nothing about encoders, wires, or per-tick symbols. It keeps,
per node, a committed message (the one being offered for transmission) and a
priority backlog, and applies the delivery rules directly: at every odd tick
the smallest committed identifier wins and is delivered two ticks later; the
winner commits its next message in the following tick; losers keep offering.
A node with nothing committed is ready, and commits an arriving message
immediately.

It deliberately shares no machinery with the simulator (its own insertion and
minimum handling via the bisect and heapq modules), so agreement between the
two is evidence rather than tautology. Each identifier belongs to one sender (the
scenario's `duplicate-identifier` rule), so the smallest committed identifier
is always unique. Every node starts with nothing committed, so it is ready
from tick 0, as the simulator primes every buffer at tick 0. A kernel that
stalls (the paper's literal row 2, or a buffer that never takes a request)
disagrees with the oracle, which states what a correct bus would deliver.
"""
from __future__ import annotations

import itertools
from bisect import insort
from dataclasses import dataclass
from heapq import heappop, heappush

from .core import FRAME_LATENCY, AMessage, Scenario, Trace, require_valid
from .system import delivery_log, run_scenario


def oracle_run(scenario: Scenario) -> list[tuple[int, AMessage]]:
    """Expected delivery log [(tick, message), ...] for a scenario; an invalid one raises ScenarioError."""
    require_valid(scenario)
    return _delivery_log(scenario)


def _delivery_log(scenario: Scenario) -> list[tuple[int, AMessage]]:
    """oracle_run's log of a scenario already validated.

    At tick t only two kinds of node can change, so only they are visited: a
    node with an arrival at t, and the winner of t - 1, which commits its next
    message at t. The winner's offer leaves the heap when it wins, since a
    node that commits later in that tick may offer a smaller identifier.
    """
    horizon = scenario.horizon
    arrivals: dict[int, dict[int, AMessage | None]] = {}  # tick -> node index -> the message it receives
    for inj in scenario.injections:
        arrivals.setdefault(inj.tick, {})[inj.node - 1] = inj.message
    counter = itertools.count()
    committed: list[AMessage | None] = [None] * scenario.node_count
    backlog: list[list[tuple[int, int, AMessage]]] = [[] for _ in committed]
    offers: list[tuple[int, int]] = []  # heap of (identifier, node index) of each committed message that may still win
    log: list[tuple[int, AMessage]] = []
    winner = None
    for t in range(horizon):
        handoff, winner = winner, None
        if t % 2 == 1 and offers:
            _, winner = heappop(offers)
            if t + FRAME_LATENCY < horizon:
                log.append((t + FRAME_LATENCY, committed[winner]))
        arrived = arrivals.get(t, {})
        if handoff is not None and handoff not in arrived:
            arrived = {**arrived, handoff: None}
        for i, msg in arrived.items():
            queue = backlog[i]
            if msg is not None:
                insort(queue, (msg.id, next(counter), msg))
            if i == handoff or committed[i] is None:  # the node requests: it commits the head of its backlog
                head = committed[i] = queue.pop(0)[2] if queue else None
                if head is not None:
                    heappush(offers, (head.id, i))
    return log


@dataclass(frozen=True, slots=True)
class CompareResult:
    """Outcome of an oracle-versus-simulator comparison.

    divergent_node is the first node whose delivery log differs from the
    oracle's (None when every node agrees). simulator_log is that node's
    log, or node 1's when all agree; first_divergence indexes into it.
    """

    equivalent: bool
    simulator_log: tuple[tuple[int, AMessage], ...]
    oracle_log: tuple[tuple[int, AMessage], ...]
    first_divergence: int | None
    trace: Trace
    divergent_node: int | None = None


def compare_with_simulator(scenario: Scenario) -> CompareResult:
    """Run both models and compare every node's delivery sequence exactly."""
    trace = run_scenario(scenario)  # validates the scenario
    expected = tuple(_delivery_log(scenario))
    logs = [tuple(delivery_log(trace, node)) for node in range(1, trace.node_count + 1)]
    node = next((k for k, sim in enumerate(logs, start=1) if sim != expected), None)
    sim = logs[0 if node is None else node - 1]
    divergence = None
    if node is not None:
        divergence = next(
            (k for k in range(min(len(sim), len(expected))) if sim[k] != expected[k]),
            min(len(sim), len(expected)),
        )
    return CompareResult(
        equivalent=node is None,
        simulator_log=sim,
        oracle_log=expected,
        first_divergence=divergence,
        trace=trace,
        divergent_node=node,
    )
