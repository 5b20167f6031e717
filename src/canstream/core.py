"""Message universe, stream container, and scenario/trace records.

Everything here is an immutable value: components and checkers never share
mutable state, so traces and states can be passed around freely.
"""
from __future__ import annotations

from dataclasses import dataclass

# Largest payload a scenario may carry: the 8-octet data field of CAN 2.0.
# Nothing in the model inspects payload contents beyond equality.
MAX_PAYLOAD = 8

# The request token. Request cells carry this single constant value.
REQ = 0

# Ticks from a frame's start (its identifier on the bus) to its delivery.
FRAME_LATENCY = 2


class ModelViolation(Exception):
    """A protocol-level contract was broken during a run."""


class AssumptionViolation(ModelViolation):
    """A component received inputs outside its stated assumptions."""


class MixingViolation(AssumptionViolation):
    """Identifier and data symbols were offered to the bus in the same tick."""


class FormatViolation(ModelViolation):
    """A message stream broke the identifier-then-data frame format."""


class InputCollision(ModelViolation):
    """The encoder was handed a new message while still emitting the last one."""


class ScenarioError(ValueError):
    """A scenario failed validation and cannot be run."""


@dataclass(frozen=True, slots=True)
class AMessage:
    """Application-level message: identifier plus opaque payload.

    A lower identifier value means a higher priority on the bus.
    """

    id: int
    data: bytes


@dataclass(frozen=True, slots=True)
class IdSym:
    """Arbitration-phase wire symbol carrying a frame identifier."""

    value: int


@dataclass(frozen=True, slots=True)
class DataSym:
    """Data-phase wire symbol carrying an opaque payload."""

    value: bytes


# An operator union, not typing.Union: that one caches its arguments and so
# would keep every re-imported copy of this module alive.
Message = IdSym | DataSym

# A cell is what a stream carries in one tick: a finite (usually 0- or
# 1-element) sequence of messages. Cells are plain tuples.
Cell = tuple


@dataclass(frozen=True, slots=True)
class TimedStream:
    """Map from tick to the finite list of messages observed in that interval."""

    cells: tuple[Cell, ...]


@dataclass(frozen=True, slots=True)
class Injection:
    """One application message handed to one node at one tick."""

    node: int
    tick: int
    message: AMessage


@dataclass(frozen=True, slots=True)
class Scenario:
    """A complete, deterministic run description, and a run's only input: every node is primed at tick 0."""

    node_count: int
    horizon: int
    injections: tuple[Injection, ...] = ()


@dataclass(frozen=True, slots=True)
class ScenarioViolation:
    rule: str
    node: int | None
    tick: int | None
    detail: str


def _need(value, least: int) -> str | None:
    """What a count or tick must be, if `value` is not an integer (as the loader reads one) of at least `least`."""
    if type(value) is not int:
        return "an integer"
    return None if value >= least else f">= {least}"


def validate_scenario(s: Scenario) -> list[ScenarioViolation]:
    """Return all rule violations in a scenario; empty means runnable."""
    out: list[ScenarioViolation] = []
    nodes, horizon, injections = s.node_count, s.horizon, s.injections
    for rule, name, value, least in (("node-count", "nodeCount", nodes, 1), ("horizon", "horizon", horizon, 0)):
        need = _need(value, least)
        if need:
            out.append(ScenarioViolation(rule, None, None, f"{name} must be {need}, got {value!r}"))
    if type(injections) is not tuple:
        out.append(ScenarioViolation("injections", None, None, f"injections must be a tuple, got {injections!r}"))
    seen: set[tuple[int, int]] = set()
    senders: dict[int, int] = {}  # identifier -> the node that first injects it
    for inj in injections if type(injections) is tuple else ():
        if type(inj) is not Injection or type(inj.message) is not AMessage:
            out.append(ScenarioViolation("injections", None, None,
                                         f"injection must be an Injection of an AMessage, got {inj!r}"))
            continue
        node, tick, msg = inj.node, inj.tick, inj.message
        if type(node) is not int:
            out.append(ScenarioViolation("node-range", node, tick, f"node must be an integer, got {node!r}"))
        elif type(nodes) is int and not 1 <= node <= nodes:
            out.append(ScenarioViolation("node-range", node, tick, f"node {node} outside [1..{nodes}]"))
        if type(tick) is not int:
            out.append(ScenarioViolation("out-of-horizon", node, tick,
                                         f"injection tick must be an integer, got {tick!r}"))
        elif type(horizon) is int and not 0 <= tick < horizon:
            out.append(ScenarioViolation("out-of-horizon", node, tick,
                                         f"injection tick {tick} outside [0..{horizon - 1}]"))
        if type(msg.id) is not int:
            out.append(ScenarioViolation("identifier", node, tick, f"identifier must be an integer, got {msg.id!r}"))
        elif msg.id < 0:
            out.append(ScenarioViolation("identifier", node, tick, f"identifier {msg.id} is negative"))
        if type(msg.data) is not bytes:
            out.append(ScenarioViolation("payload", node, tick, f"payload must be bytes, got {msg.data!r}"))
        elif len(msg.data) > MAX_PAYLOAD:
            out.append(ScenarioViolation("payload", node, tick,
                                         f"payload of {len(msg.data)} octets exceeds {MAX_PAYLOAD}"))
        if not type(node) is type(tick) is type(msg.id) is int:
            continue  # the pairing rules below compare only well-typed values
        key = (node, tick)
        if key in seen:
            out.append(ScenarioViolation("duplicate-injection", node, tick,
                                         f"two injections at node {node}, tick {tick}"))
        seen.add(key)
        # Arbitration lets the smallest identifier win, so each identifier
        # belongs to one sender (CAN 2.0); one node may repeat it.
        sender = senders.setdefault(msg.id, node)
        if sender != node:
            out.append(ScenarioViolation("duplicate-identifier", node, tick,
                                         f"identifier {msg.id} is injected at nodes {sender} and {node}"))
    return out


def require_valid(s: Scenario) -> None:
    """Raise a ScenarioError naming each broken rule, if the scenario breaks any."""
    problems = validate_scenario(s)
    if problems:
        raise ScenarioError("; ".join(f"{v.rule}: {v.detail}" for v in problems))


def arrivals(scenario: Scenario) -> tuple[tuple[Cell, ...], ...]:
    """Each tick's arrival row of a valid scenario, its application cells a: node i+1's cell at tick t holds the
    message injected at node i+1 and tick t, else it is empty. The ticks without an injection share one row."""
    quiet: tuple[Cell, ...] = ((),) * scenario.node_count
    busy: dict[int, list[Cell]] = {}
    for inj in scenario.injections:
        busy.setdefault(inj.tick, list(quiet))[inj.node - 1] = (inj.message,)
    rows = [quiet] * scenario.horizon
    for t, row in busy.items():
        rows[t] = tuple(row)
    return tuple(rows)


# Stream families recorded per node in every trace: the application input a,
# the buffer's offer as, the delivery ar, the request r, and the symbol streams.
PER_NODE_FAMILIES = ("a", "as", "ar", "r", "ms", "mr", "ws")


@dataclass(frozen=True, slots=True)
class Trace:
    """The full record of one run: every named stream plus per-tick states.

    streams maps a family name ("a", "as", "ar", "r", "ms", "mr", "ws") to one
    TimedStream per node (index 0 is node 1). wire is the shared bus stream.
    rows[t][i] is the bus-access table row that fired for node i+1 at tick t.
    states[t], from tick t's record, is the snapshot of the buffer states
    entering it; the other component states follow from the streams.
    The node count is the scenario's, and the horizon the number of ticks
    recorded, which for a run is the scenario's.
    """

    scenario: Scenario
    streams: dict[str, tuple[TimedStream, ...]]
    wire: TimedStream
    rows: tuple[tuple[int, ...], ...]
    states: tuple[dict, ...]

    @property
    def node_count(self) -> int:
        return self.scenario.node_count

    @property
    def horizon(self) -> int:
        return len(self.wire.cells)

    def node_stream(self, family: str, node: int) -> TimedStream:
        if family == "wr":
            return self.wire
        if family not in self.streams:
            raise ValueError(f"unknown stream family {family!r}")
        if not 1 <= node <= self.node_count:
            raise ValueError(f"node {node} outside [1..{self.node_count}]")
        return self.streams[family][node - 1]


def assemble_trace(scenario: Scenario, records) -> Trace:
    """The Trace of a run's per-tick records, one for each tick of its horizon.

    A record holds, per family of PER_NODE_FAMILIES in that order, one cell
    per node, then the wire cell, the tuple of rows and the snapshot of the
    buffer states entering its tick (see system.tick_system).
    """
    if not records:
        return Trace(scenario, {f: (TimedStream(()),) * scenario.node_count for f in PER_NODE_FAMILIES},
                     TimedStream(()), (), ())
    *families, wire, rows, states = zip(*records)
    streams = {f: tuple(map(TimedStream, zip(*ticks))) for f, ticks in zip(PER_NODE_FAMILIES, families)}
    return Trace(scenario, streams, TimedStream(wire), rows, states)
