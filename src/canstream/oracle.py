"""Reference model of correct bus behaviour, and the judge of a trace's deliveries.

The oracle knows nothing about encoders, wires, or per-tick symbols. It keeps,
per node, a committed message (the one being offered for transmission) and a
priority backlog, and applies the delivery rules directly: at every odd tick
the smallest committed identifier wins and is delivered two ticks later; the
winner commits its next message in the following tick; losers keep offering.
A node with nothing committed is ready, and commits an arriving message
immediately.

It deliberately shares no machinery with the simulator: it imports only core's
values and its reading of a trace's deliveries, and does its own insertion and
minimum handling via the bisect and heapq modules, so agreement between the
two is evidence rather than tautology. `divergence` judges a Trace, run or
loaded, and never runs the kernel. Each identifier belongs to one sender (the
scenario's `duplicate-identifier` rule), so the smallest committed identifier
is always unique. Every node starts with nothing committed, so it is ready
from tick 0, as the simulator primes every buffer at tick 0. A kernel that
stalls (the paper's literal row 2, or a buffer that never takes a request)
disagrees with the oracle, which states what a correct bus would deliver.
"""
from __future__ import annotations

from bisect import insort
from heapq import heappop, heappush
from itertools import count, zip_longest

from .core import FRAME_LATENCY, AMessage, Scenario, Trace, delivery_log, require_valid


def oracle_run(scenario: Scenario) -> list[tuple[int, AMessage]]:
    """Expected delivery log [(tick, message), ...] for a scenario; an invalid one raises ScenarioError.

    At tick t only two kinds of node can change, so only they are visited: a
    node with an arrival at t, and the winner of t - 1, which commits its next
    message at t. The winner's offer leaves the heap when it wins, since a
    node that commits later in that tick may offer a smaller identifier.
    """
    require_valid(scenario)
    horizon = scenario.horizon
    arrivals: dict[int, dict[int, AMessage | None]] = {}  # tick -> node index -> the message it receives
    for inj in scenario.injections:
        arrivals.setdefault(inj.tick, {})[inj.node - 1] = inj.message
    counter = count()
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


def divergence(trace: Trace) -> tuple[int, int, tuple[int, AMessage] | None, tuple[int, AMessage] | None] | None:
    """None if every node's delivery log in `trace` equals oracle_run(trace.scenario); else the first node whose log
    differs, the index k of its first differing entry, and the node's and the oracle's entry k, either None past the
    end of its log."""
    expected = oracle_run(trace.scenario)
    for node in range(1, trace.node_count + 1):
        log = delivery_log(trace, node)
        if log != expected:
            return next((node, k, got, want) for k, (got, want) in enumerate(zip_longest(log, expected)) if got != want)
    return None
