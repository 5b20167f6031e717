"""Message universe, stream container, and scenario/trace records.

Everything here is an immutable value: components and checkers never share
mutable state, so traces and states can be passed around freely.
"""
from __future__ import annotations

from dataclasses import dataclass, field

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

    @property
    def horizon(self) -> int:
        return len(self.cells)


@dataclass(frozen=True, slots=True)
class Injection:
    """One application message handed to one node at one tick."""

    node: int
    tick: int
    message: AMessage


@dataclass(frozen=True, slots=True)
class RunOptions:
    """Executor knobs.

    bootstrap_request_tick primes each node's buffer with one initial request
    (None disables priming entirely, which demonstrably stalls the system).
    fidelity_row2 switches the bus-access table to its literal non-transmitting
    identifier row, another deliberately stalling variant. The request delay
    and the frame latency are not options: each has one value under which the
    protocol works (see system.py and FRAME_LATENCY).
    """

    bootstrap_request_tick: int | None = 0
    fidelity_row2: bool = False


@dataclass(frozen=True, slots=True)
class Scenario:
    """A complete, deterministic run description."""

    node_count: int
    horizon: int
    injections: tuple[Injection, ...] = ()
    options: RunOptions = field(default_factory=RunOptions)


@dataclass(frozen=True, slots=True)
class ScenarioViolation:
    rule: str
    node: int | None
    tick: int | None
    detail: str


def validate_scenario(s: Scenario) -> list[ScenarioViolation]:
    """Return all rule violations in a scenario; empty means runnable."""
    out: list[ScenarioViolation] = []
    if s.node_count < 1:
        out.append(ScenarioViolation("node-count", None, None, f"nodeCount must be >= 1, got {s.node_count}"))
    if s.horizon < 0:
        out.append(ScenarioViolation("horizon", None, None, f"horizon must be >= 0, got {s.horizon}"))
    boot = s.options.bootstrap_request_tick
    if boot is not None and boot < 0:
        out.append(ScenarioViolation("bootstrap", None, None, f"bootstrapRequestTick must be >= 0, got {boot}"))
    seen: set[tuple[int, int]] = set()
    senders: dict[int, int] = {}  # identifier -> the node that first injects it
    for inj in s.injections:
        if not 1 <= inj.node <= s.node_count:
            out.append(ScenarioViolation("node-range", inj.node, inj.tick,
                                         f"node {inj.node} outside [1..{s.node_count}]"))
        if not 0 <= inj.tick < s.horizon:
            out.append(ScenarioViolation("out-of-horizon", inj.node, inj.tick,
                                         f"injection tick {inj.tick} outside [0..{s.horizon - 1}]"))
        if inj.message.id < 0:
            out.append(ScenarioViolation("identifier", inj.node, inj.tick,
                                         f"identifier {inj.message.id} is negative"))
        if len(inj.message.data) > MAX_PAYLOAD:
            out.append(ScenarioViolation("payload", inj.node, inj.tick,
                                         f"payload of {len(inj.message.data)} octets exceeds {MAX_PAYLOAD}"))
        key = (inj.node, inj.tick)
        if key in seen:
            out.append(ScenarioViolation("duplicate-injection", inj.node, inj.tick,
                                         f"two injections at node {inj.node}, tick {inj.tick}"))
        seen.add(key)
        # Arbitration lets the smallest identifier win, so each identifier
        # belongs to one sender (CAN 2.0); one node may repeat it.
        sender = senders.setdefault(inj.message.id, inj.node)
        if sender != inj.node:
            out.append(ScenarioViolation("duplicate-identifier", inj.node, inj.tick,
                                         f"identifier {inj.message.id} is injected at nodes {sender} and {inj.node}"))
    return out


def require_valid(s: Scenario) -> None:
    """Raise a ScenarioError naming each broken rule, if the scenario breaks any."""
    problems = validate_scenario(s)
    if problems:
        raise ScenarioError("; ".join(f"{v.rule}: {v.detail}" for v in problems))


# Stream families recorded per node in every trace: the application input a,
# the buffer's offer as, the delivery ar, the request r, and the symbol streams.
PER_NODE_FAMILIES = ("a", "as", "ar", "r", "ms", "mr", "ws")


@dataclass(frozen=True, slots=True)
class Trace:
    """The full record of one run: every named stream plus per-tick states.

    streams maps a family name ("a", "as", "ar", "r", "ms", "mr", "ws") to one
    TimedStream per node (index 0 is node 1). wire is the shared bus stream.
    rows[t][i] is the bus-access table row that fired for node i+1 at tick t.
    states[t] is the snapshot of every component state entering tick t.
    The node count is the scenario's, and the horizon the number of ticks
    recorded, which is fewer than the scenario's when the run failed.
    """

    scenario: Scenario
    streams: dict[str, tuple[TimedStream, ...]]
    wire: TimedStream
    rows: tuple[tuple[int, ...], ...]
    states: tuple[dict, ...]
    error: dict | None = None

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


def assemble_trace(scenario: Scenario, records, states, error: dict | None = None) -> Trace:
    """The Trace of a run's per-tick records and the state snapshots entering those ticks.

    A record holds, per family of PER_NODE_FAMILIES in that order, one cell
    per node, then the wire cell and the tuple of rows (see system.tick_system).
    """
    if not records:
        return Trace(scenario, {f: (TimedStream(()),) * scenario.node_count for f in PER_NODE_FAMILIES},
                     TimedStream(()), (), tuple(states), error)
    *families, wire, rows = zip(*records)
    streams = {f: tuple(map(TimedStream, zip(*ticks))) for f, ticks in zip(PER_NODE_FAMILIES, families)}
    return Trace(scenario, streams, TimedStream(wire), rows, tuple(states), error)
