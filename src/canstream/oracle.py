"""Brute-force reference model of correct bus behaviour, for equivalence tests.

The oracle knows nothing about encoders, wires, or per-tick symbols. It keeps,
per node, a committed message (the one being offered for transmission), a
priority backlog, and a readiness flag, and applies the delivery rules
directly: at every odd tick the smallest committed identifier wins and is
delivered two ticks later; the winner commits its next message in the
following tick; losers keep offering. A node with nothing committed is ready,
and commits an arriving message immediately.

It deliberately shares no machinery with the simulator (its own insertion and
minimum handling via the bisect module), so agreement between the two is
evidence rather than tautology. Each identifier belongs to one sender (the
scenario's `duplicate-identifier` rule), so the smallest committed identifier
is always unique. Stalling configurations (no priming, literal row 2) are
ignored here on purpose: the oracle states what a correct bus would deliver,
which is exactly what makes the stalls visible in a comparison.
"""
from __future__ import annotations

import itertools
from bisect import insort
from dataclasses import dataclass

from .core import FRAME_LATENCY, AMessage, Scenario, Trace, require_valid
from .system import delivery_log, run_scenario


def oracle_run(scenario: Scenario) -> list[tuple[int, AMessage]]:
    """Expected delivery log [(tick, message), ...] for a scenario; an invalid one raises ScenarioError."""
    require_valid(scenario)
    return _delivery_log(scenario)


def _delivery_log(scenario: Scenario) -> list[tuple[int, AMessage]]:
    """oracle_run's log of a scenario already validated."""
    n = scenario.node_count
    horizon = scenario.horizon
    boot = scenario.options.bootstrap_request_tick
    bootstrap = 0 if boot is None else boot

    arrivals: dict[tuple[int, int], AMessage] = {
        (inj.node - 1, inj.tick): inj.message for inj in scenario.injections
    }
    counter = itertools.count()
    committed: list[AMessage | None] = [None] * n
    backlog: list[list[tuple[int, int, AMessage]]] = [[] for _ in range(n)]
    ready = [False] * n
    handoff_due = [-1] * n  # tick at which a winner commits its next message
    log: list[tuple[int, AMessage]] = []

    for t in range(horizon):
        if t % 2 == 1:
            contenders = [i for i in range(n) if committed[i] is not None]
            if contenders:
                w = min(contenders, key=lambda i: committed[i].id)
                if t + FRAME_LATENCY < horizon:
                    log.append((t + FRAME_LATENCY, committed[w]))
                handoff_due[w] = t + 1

        for i in range(n):
            arrived = arrivals.get((i, t))
            has_request = ready[i] or handoff_due[i] == t or t == bootstrap
            if has_request:
                if not backlog[i]:
                    committed[i] = arrived
                else:
                    if arrived is not None:
                        insort(backlog[i], (arrived.id, next(counter), arrived))
                    _, _, head = backlog[i].pop(0)
                    committed[i] = head
                ready[i] = committed[i] is None
            elif arrived is not None:
                insort(backlog[i], (arrived.id, next(counter), arrived))
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
