"""Composition of buffers, controllers, and the bus into one synchronous system.

One kernel, `tick_system`, advances the system by one tick, and one driver,
`run_scenario`, steps it with each node's buffer fed from a scenario's
injections. Every run therefore has buffers, and every trace records the
application stream `a`, the buffer snapshots and the scenario it ran.

Like each component, the kernel maps a state and the inputs of tick t to the
outputs of tick t and the next state: it returns the next state and the
tick's record, its stream cells and the states it was given. `run_scenario`
keeps the records, and `core.assemble_trace` turns them into the Trace. A
validated scenario runs to its horizon; a component whose contract breaks
raises its ModelViolation, which names the tick, and no trace is made.

Within a tick the bus first emits from its latch, the previous tick's ws row.
Then each node in turn runs its whole chain: buffer emission, encoder,
bus-access layer, decoder, request stream and buffer update. Last, this tick's
ws row becomes the latch of the next state. This gives the same values as the
phase order (all buffers emit, then all encoders, then the bus, then all
bus-access layers, all decoders, and finally all state updates), because the
components are pure and nodes interact within a tick only through the wire's
unit-delayed latch and the update phase of the buffers. Every node reads the
latch of the previous tick, emitted once before the first node runs, and this
tick's offers are latched only after the last node. A buffer's update consumes
only its own node's request and comes after that node's emission. These are
also the only feedback cycles (bus-access -> wire -> bus-access, and the
request path back into the buffers), so the order is causally well defined.
A buffer, encoder or decoder step given the very objects of an earlier call
takes that call's result from the reuse record (see tick_system); the
bus-access layer and its table's dispatch run at every node-tick.

Request flow: a controller raises its transmit-success request during the data
phase of a won frame; the owning buffer consumes it in that same tick's state
update, which releases the offer slot before the next odd tick (otherwise the
frame would be re-offered and delivered twice). A node requests while its
offer slot is empty, so nodes wake up when new traffic appears; no separate
record of pending requests is kept. The externally recorded request stream r_i
shows each request one tick after it is raised: the bootstrap request, raised
before tick 0, at tick 0, and each success request FRAME_LATENCY ticks after
the frame start, where the transmission contract looks for it.
"""
from __future__ import annotations

from itertools import compress
from typing import NamedTuple, Sequence

from .components import (
    REQ_CELL,
    _IDLE_BUFFER,
    _IDLE_DECODER,
    _IDLE_ENCODER,
    _IDLE_LLAYER,
    BufferState,
    DecoderState,
    EncoderState,
    LogicalLayerState,
    buffer_emission,
    buffer_step,
    decoder_step,
    dispatch_row,
    encoder_step,
    logical_layer_step,
    wire_emission,
)
from .core import (
    AMessage,
    Cell,
    Scenario,
    Trace,
    arrivals,
    assemble_trace,
    require_valid,
)


class SystemState(NamedTuple):
    """All component states plus the executor's request bookkeeping.

    wire is the previous tick's ws row, which the bus emits from this tick
    (all empty before tick 0). raised holds each node's success request of the
    previous tick, () or REQ_CELL, which the observable request stream shows
    this tick; before tick 0 it holds every node's bootstrap request.
    """

    buffers: tuple[BufferState, ...]
    encoders: tuple[EncoderState, ...]
    decoders: tuple[DecoderState, ...]
    llayers: tuple[LogicalLayerState, ...]
    wire: tuple[Cell, ...]
    raised: tuple[Cell, ...]


# A reuse-record slot before its first call: no state or cell is None.
_UNSEEN = (None, None, None)


def initial_state(node_count: int) -> SystemState:
    """Every node idle, with its bootstrap request raised; the idle states are the components' shared idle values, so
    a state that stays idle stays the same object."""
    return SystemState((_IDLE_BUFFER,) * node_count, (_IDLE_ENCODER,) * node_count, (_IDLE_DECODER,) * node_count,
                       (_IDLE_LLAYER,) * node_count, ((),) * node_count, (REQ_CELL,) * node_count)


def tick_system(
    state: SystemState,
    cells: Sequence[Cell],
    t: int,
    last: list[tuple] | None = None,
) -> tuple[SystemState, tuple]:
    """Advance the system by one tick: the next state and the tick's record.

    cells holds one cell per node (else ValueError): cells[i] is node i+1's
    application cell a at tick t, which its buffer takes in. The record holds,
    per family of PER_NODE_FAMILIES in that order, one cell per node, then the
    wire cell wr, the tuple of rows that fired and the snapshot {"buffers"} of
    `state`, whose other states follow from the streams (see serialize);
    assemble_trace turns a run's records into its Trace. Only t's parity sets
    the tick's values.

    `last` is the reuse record, 4*n + 1 slots for n nodes. For node i and tick
    parity p, slot 4*i + p keeps its last encoder_step call as (state, cell,
    result), and slot 4*i + 2 + p its last buffer calls as (state, emission,
    arrival cell, request cell, next state); the last slot keeps the last
    decoder_step call. A step whose state and inputs are the slot's objects
    takes the slot's result: an idle node repeats its buffer calls of two
    ticks before, a node re-offering a lost frame its encoder calls too, and
    all decoders share one state and one wire cell. The bus-access layer is
    not reused: logical_layer_step and dispatch_row run at every node-tick.
    This is exact: the steps are pure and the record keeps the objects it
    compares alive. A caller that keeps one `last` across its ticks reuses
    steps across them; without one, steps are reused within the tick only.
    `last` is the only thing this writes to.
    """
    buffers = state.buffers
    n = len(buffers)
    wr = wire_emission(state.wire, t)
    if last is None:
        last = [_UNSEEN] * (4 * n + 1)
    k = t & 1  # node i's encoder slot is 4*i + k, its buffer slot 4*i + 2 + k
    nodes = []
    for buf, enc, dec, ll, a in zip(buffers, state.encoders, state.decoders, state.llayers, cells, strict=True):
        seen_buf = last[k + 2]
        if seen_buf[0] is not buf:  # a new state: emit now; no cell is None, so it steps below
            seen_buf = (buf, buffer_emission(buf, t), None, None, None)
        as_cell = seen_buf[1]
        seen = last[k]
        if seen[0] is not enc or seen[1] is not as_cell:
            seen = last[k] = (enc, as_cell, encoder_step(enc, as_cell, t))
        ms, enc = seen[2]
        row = dispatch_row(ms, wr, ll.lid)
        mr, ws, raised, ll = logical_layer_step(ll, ms, wr, t)
        seen = last[-1]
        if seen[0] is not dec or seen[1] is not mr:
            seen = last[-1] = (dec, mr, decoder_step(dec, mr, t))
        ar, dec = seen[2]

        # Buffer update: a success request acts in the tick it is raised, and
        # a node requests while its offer slot is empty.
        req = REQ_CELL if raised or not buf.b else ()
        if seen_buf[2] is not a or seen_buf[3] is not req:
            seen_buf = last[k + 2] = (buf, as_cell, a, req, buffer_step(buf, a, req, t)[1])
        nodes.append((as_cell, ar, ms, mr, ws, row, seen_buf[4], enc, dec, ll, raised))
        k += 4
    as_, ar, ms, mr, ws, rows, next_buffers, encoders, decoders, llayers, raised = zip(*nodes)
    return SystemState(next_buffers, encoders, decoders, llayers, ws, raised), (
        tuple(cells), as_, ar, state.raised, ms, mr, ws, wr, rows, {"buffers": buffers})


def run_scenario(scenario: Scenario) -> Trace:
    """Run a validated scenario to completion; identical inputs give identical traces.

    A broken component contract leaves as its own ModelViolation.
    """
    require_valid(scenario)
    n = scenario.node_count
    state = initial_state(n)
    last, records = [_UNSEEN] * (4 * n + 1), []
    for t, cells in enumerate(arrivals(scenario)):
        state, record = tick_system(state, cells, t, last)
        records.append(record)
    return assemble_trace(scenario, records)


def delivery_log(trace: Trace, node: int = 1) -> list[tuple[int, AMessage]]:
    """The (tick, message) sequence delivered to one node's application."""
    cells = trace.node_stream("ar", node).cells
    return [(t, cell[0]) for t, cell in compress(enumerate(cells), cells)]
