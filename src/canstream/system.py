"""Composition of buffers, controllers, and the bus into one synchronous system.

One kernel, `tick_system`, advances the system by one tick, and one driver,
`run_scenario`, steps it with each node's buffer fed from a scenario's
injections. Every run therefore has buffers, and every trace records the
application stream `a`, the buffer snapshots and the scenario it ran.

Within a tick the bus first emits from its latch. Then each node in turn runs
its whole chain: buffer emission, encoder, bus-access layer, decoder, request
stream and buffer update. Last, the bus latches every node's offer. This
gives the same values as the phase order (all buffers emit, then all
encoders, then the bus, then all bus-access layers, all decoders, and finally
all state updates), because the components are pure and nodes interact within
a tick only through the wire's unit-delayed latch and the update phase of the
buffers. Every node reads the latch of the previous tick, emitted once before
the first node runs, and this tick's offers are latched only after the last
node. A buffer's update consumes only its own node's request and comes after
that node's emission. These are also the only feedback cycles (bus-access ->
wire -> bus-access, and the request path back into the buffers), so the order
is causally well defined.

Request flow: a controller raises its transmit-success request during the data
phase of a won frame; the owning buffer consumes it in that same tick's state
update, which releases the offer slot before the next odd tick (otherwise the
frame would be re-offered and delivered twice). A request that finds nothing
to hand over stays pending until a message arrives, so nodes wake up when new
traffic appears. One bootstrap request primes each node's buffer; without it
nothing ever flows. The externally recorded request stream r_i shows each
success request one tick after it is raised, which places it FRAME_LATENCY
ticks after the frame start, where the transmission contract looks for it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .components import (
    REQ_CELL,
    _EMPTY_WIRE,
    _IDLE_DECODER,
    _IDLE_ENCODER,
    BufferState,
    DecoderState,
    EncoderState,
    LogicalLayerState,
    WireState,
    buffer_emission,
    buffer_step,
    decoder_step,
    dispatch_row,
    encoder_step,
    logical_layer_step,
    wire_emission,
    wire_latch,
)
from .core import (
    PER_NODE_FAMILIES,
    AMessage,
    Cell,
    ModelViolation,
    RunOptions,
    Scenario,
    TimedStream,
    Trace,
    require_valid,
)


@dataclass(frozen=True, slots=True)
class SystemState:
    """All component states plus the executor's request bookkeeping.

    raised holds each node's success request of the previous tick, () or
    REQ_CELL, which the observable request stream shows this tick.
    req_pending marks nodes whose last request is still waiting for a message
    to hand over.
    """

    buffers: tuple[BufferState, ...]
    encoders: tuple[EncoderState, ...]
    decoders: tuple[DecoderState, ...]
    llayers: tuple[LogicalLayerState, ...]
    wire: WireState
    raised: tuple[Cell, ...]
    req_pending: tuple[bool, ...]


@dataclass(slots=True)
class Columns:
    """The trace under construction, and the run's record of its last steps.

    tick_system appends one cell per node to every family, plus the wire
    cell, the row tuple and the state snapshot of the tick it runs. It reuses
    the step calls kept in last_steps while their inputs repeat; an empty
    record gives the same run without reuse across ticks.
    """

    streams: dict[str, list[list[Cell]]]
    wire: list[Cell] = field(default_factory=list)
    rows: list[tuple[int, ...]] = field(default_factory=list)
    states: list[dict] = field(default_factory=list)
    last_steps: list[tuple] = field(default_factory=list)

    @classmethod
    def for_state(cls, state: SystemState) -> "Columns":
        return cls({family: [[] for _ in state.encoders] for family in PER_NODE_FAMILIES},
                   last_steps=[(None, None, None)] * (2 * len(state.encoders) + 1))

    def truncate(self, horizon: int) -> None:
        """Drop everything from tick `horizon` on, including a half-written tick."""
        for per_node in self.streams.values():
            for column in per_node:
                del column[horizon:]
        del self.wire[horizon:], self.rows[horizon:], self.states[horizon:]

    def trace(self, scenario: Scenario, error: dict | None = None) -> Trace:
        return Trace(
            scenario=scenario,
            node_count=len(self.streams["as"]),
            horizon=len(self.wire),
            streams={
                family: tuple(TimedStream(tuple(column)) for column in per_node)
                for family, per_node in self.streams.items()
            },
            wire=TimedStream(tuple(self.wire)),
            rows=tuple(self.rows),
            states=tuple(self.states),
            error=error,
        )


class RunError(ModelViolation):
    """A component contract failed mid-run; carries the partial trace."""

    def __init__(self, message: str, trace: Trace):
        super().__init__(message)
        self.trace = trace


def initial_state(node_count: int) -> SystemState:
    """Every node idle: the components' shared idle values, so a state that stays idle stays the same object."""
    return SystemState(
        buffers=(BufferState(),) * node_count,
        encoders=(_IDLE_ENCODER,) * node_count,
        decoders=(_IDLE_DECODER,) * node_count,
        llayers=(LogicalLayerState(),) * node_count,
        wire=_EMPTY_WIRE,
        raised=((),) * node_count,
        req_pending=(False,) * node_count,
    )


def tick_system(
    state: SystemState,
    cells: Sequence[Cell],
    t: int,
    options: RunOptions,
    columns: Columns,
) -> SystemState:
    """Advance the system by one tick, appending every stream cell to columns.

    cells[i] is node i+1's application cell a at tick t, which its buffer
    takes in. Returns the next state. If a component raises, columns may hold
    part of tick t (see Columns.truncate).

    Slot 2*i + p of columns.last_steps keeps node i's last encoder_step call at
    tick parity p as (state, cell, result), the last slot the last decoder_step
    call. A call with the same state and cell objects as its slot takes the
    slot's result: a node re-offering a lost frame repeats its calls of two
    ticks before, and all decoders share one state and one wire cell. This is
    exact: the steps are pure and the record keeps the objects it compares alive.
    """
    buffers = state.buffers
    columns.states.append({
        "buffers": buffers,
        "encoders": state.encoders,
        "decoders": state.decoders,
        "llayers": state.llayers,
        "wire": state.wire,
    })
    wr = wire_emission(state.wire, t)
    columns.wire.append(wr)

    streams = columns.streams
    a_col, as_col, ar_col, r_col = streams["a"], streams["as"], streams["ar"], streams["r"]
    ms_col, mr_col, ws_col = streams["ms"], streams["mr"], streams["ws"]
    boot = t == options.bootstrap_request_tick
    literal_row2 = options.fidelity_row2
    rows, ws_all, encoders, decoders, llayers, raised_all, new_buffers, pending = [], [], [], [], [], [], [], []
    last = columns.last_steps or [(None, None, None)] * (2 * len(buffers) + 1)
    parity = t & 1
    for i, enc in enumerate(state.encoders):
        a_col[i].append(cells[i])
        as_cell = buffer_emission(buffers[i], t)
        seen = last[2 * i + parity]
        if seen[0] is not enc or seen[1] is not as_cell:
            seen = last[2 * i + parity] = (enc, as_cell, encoder_step(enc, as_cell, t))
        ms, enc = seen[2]
        ll = state.llayers[i]
        rows.append(dispatch_row(ms, wr, ll.lid))
        mr, ws, raised, ll = logical_layer_step(ll, ms, wr, t, literal_row2=literal_row2)
        dec = state.decoders[i]
        seen = last[-1]
        if seen[0] is not dec or seen[1] is not mr:
            seen = last[-1] = (dec, mr, decoder_step(dec, mr, t))
        ar, dec = seen[2]

        # Observable request stream: bootstrap priming plus the success
        # request raised in the previous tick.
        r = REQ_CELL + state.raised[i] if boot else state.raised[i]

        # Buffer update: a success request acts in the tick it is raised, and
        # an unconsumed request stands until it can hand a message over.
        has_req = boot or state.req_pending[i] or bool(raised)
        _, buf = buffer_step(buffers[i], cells[i], REQ_CELL if has_req else (), t)
        new_buffers.append(buf)
        pending.append(has_req and not buf.b)

        as_col[i].append(as_cell)
        ms_col[i].append(ms)
        mr_col[i].append(mr)
        ws_col[i].append(ws)
        ar_col[i].append(ar)
        r_col[i].append(r)
        ws_all.append(ws)
        encoders.append(enc)
        llayers.append(ll)
        decoders.append(dec)
        raised_all.append(raised)
    columns.rows.append(tuple(rows))
    return SystemState(
        buffers=tuple(new_buffers),
        encoders=tuple(encoders),
        decoders=tuple(decoders),
        llayers=tuple(llayers),
        wire=wire_latch(ws_all, t),
        raised=tuple(raised_all),
        req_pending=tuple(pending),
    )


def run_scenario(scenario: Scenario) -> Trace:
    """Run a validated scenario to completion; identical inputs give identical traces.

    A component failure raises RunError carrying the trace up to the failing tick.
    """
    require_valid(scenario)
    n = scenario.node_count
    quiet: tuple[Cell, ...] = ((),) * n
    arrivals: dict[int, list[Cell]] = {}
    for inj in scenario.injections:
        arrivals.setdefault(inj.tick, list(quiet))[inj.node - 1] = (inj.message,)
    state = initial_state(n)
    columns = Columns.for_state(state)
    for t in range(scenario.horizon):
        try:
            state = tick_system(state, arrivals.get(t, quiet), t, scenario.options, columns)
        except ModelViolation as exc:
            columns.truncate(t)
            partial = columns.trace(scenario, error={"tick": t, "message": str(exc)})
            raise RunError(f"tick {t}: {exc}", partial) from exc
    return columns.trace(scenario)


def delivery_log(trace: Trace, node: int = 1) -> list[tuple[int, AMessage]]:
    """The (tick, message) sequence delivered to one node's application."""
    stream = trace.node_stream("ar", node)
    return [(t, cell[0]) for t, cell in enumerate(stream.cells) if cell]
