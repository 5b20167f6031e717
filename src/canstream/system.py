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

Request flow: a controller raises its transmit-success request during the data
phase of a won frame; the owning buffer consumes it in that same tick's state
update, which releases the offer slot before the next odd tick (otherwise the
frame would be re-offered and delivered twice). A primed node requests while
its offer slot is empty, so nodes wake up when new traffic appears; no
separate record of pending requests is kept. One bootstrap request primes each
node's buffer at the options' bootstrap_request_tick; before it nothing flows.
The externally recorded request stream r_i shows each success request one tick
after it is raised, which places it FRAME_LATENCY ticks after the frame start,
where the transmission contract looks for it.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Sequence

from .components import (
    REQ_CELL,
    _IDLE_DECODER,
    _IDLE_ENCODER,
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
    RunOptions,
    Scenario,
    Trace,
    assemble_trace,
    require_valid,
)


@dataclass(frozen=True, slots=True)
class SystemState:
    """All component states plus the executor's request bookkeeping.

    wire is the previous tick's ws row, which the bus emits from this tick
    (all empty before tick 0). raised holds each node's success request of the
    previous tick, () or REQ_CELL, which the observable request stream shows
    this tick.
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
    """Every node idle: the components' shared idle values, so a state that stays idle stays the same object."""
    return SystemState(
        buffers=(BufferState(),) * node_count,
        encoders=(_IDLE_ENCODER,) * node_count,
        decoders=(_IDLE_DECODER,) * node_count,
        llayers=(LogicalLayerState(),) * node_count,
        wire=((),) * node_count,
        raised=((),) * node_count,
    )


def tick_system(
    state: SystemState,
    cells: Sequence[Cell],
    t: int,
    options: RunOptions,
    last: list[tuple] | None = None,
) -> tuple[SystemState, tuple]:
    """Advance the system by one tick: the next state and the tick's record.

    cells[i] is node i+1's application cell a at tick t, which its buffer
    takes in. The record holds, per family of PER_NODE_FAMILIES in that order,
    one cell per node, then the wire cell wr, the tuple of rows that fired and
    the snapshot {"buffers", "encoders", "decoders", "llayers"} of `state`;
    assemble_trace turns a run's records into its Trace.

    Slot 2*i + p of `last` keeps node i's last encoder_step call at tick parity
    p as (state, cell, result), the last slot the last decoder_step call. A call
    with the same state and cell objects as its slot takes the slot's result: a
    node re-offering a lost frame repeats its calls of two ticks before, and all
    decoders share one state and one wire cell. This is exact: the steps are
    pure and the record keeps the objects it compares alive. A caller that keeps
    one `last` across its ticks reuses steps across them; without one, steps
    are reused within the tick only. `last` is the only thing this writes to.
    """
    buffers = state.buffers
    wr = wire_emission(state.wire, t)
    boot_tick = options.bootstrap_request_tick
    boot = t == boot_tick
    primed = t >= boot_tick
    if last is None:
        last = [_UNSEEN] * (2 * len(buffers) + 1)
    parity = t & 1
    nodes = []
    for i, enc in enumerate(state.encoders):
        as_cell = buffer_emission(buffers[i], t)
        seen = last[2 * i + parity]
        if seen[0] is not enc or seen[1] is not as_cell:
            seen = last[2 * i + parity] = (enc, as_cell, encoder_step(enc, as_cell, t))
        ms, enc = seen[2]
        ll = state.llayers[i]
        row = dispatch_row(ms, wr, ll.lid)
        mr, ws, raised, ll = logical_layer_step(ll, ms, wr, t)
        dec = state.decoders[i]
        seen = last[-1]
        if seen[0] is not dec or seen[1] is not mr:
            seen = last[-1] = (dec, mr, decoder_step(dec, mr, t))
        ar, dec = seen[2]

        # Observable request stream: the bootstrap priming, or the success
        # request raised in the previous tick (none is raised before priming).
        r = REQ_CELL if boot else state.raised[i]

        # Buffer update: a success request acts in the tick it is raised, and
        # a primed node requests while its offer slot is empty.
        has_req = raised or (primed and not buffers[i].b)
        _, buf = buffer_step(buffers[i], cells[i], REQ_CELL if has_req else (), t)
        nodes.append((cells[i], as_cell, ar, r, ms, mr, ws, row, buf, enc, dec, ll, raised))
    a, as_, ar, r, ms, mr, ws, rows, buffers, encoders, decoders, llayers, raised = zip(*nodes)
    next_state = SystemState(buffers=buffers, encoders=encoders, decoders=decoders, llayers=llayers,
                             wire=ws, raised=raised)
    return next_state, (a, as_, ar, r, ms, mr, ws, wr, rows, {"buffers": state.buffers, "encoders": state.encoders,
                                                             "decoders": state.decoders, "llayers": state.llayers})


def run_scenario(scenario: Scenario) -> Trace:
    """Run a validated scenario to completion; identical inputs give identical traces.

    A broken component contract leaves as its own ModelViolation.
    """
    require_valid(scenario)
    n = scenario.node_count
    quiet: tuple[Cell, ...] = ((),) * n
    arrivals: dict[int, list[Cell]] = {}
    for inj in scenario.injections:
        arrivals.setdefault(inj.tick, list(quiet))[inj.node - 1] = (inj.message,)
    state = initial_state(n)
    last, records = [_UNSEEN] * (2 * n + 1), []
    for t in range(scenario.horizon):
        state, record = tick_system(state, arrivals.get(t, quiet), t, scenario.options, last)
        records.append(record)
    return assemble_trace(scenario, records)


def delivery_log(trace: Trace, node: int = 1) -> list[tuple[int, AMessage]]:
    """The (tick, message) sequence delivered to one node's application."""
    cells = trace.node_stream("ar", node).cells
    return [(t, cell[0]) for t, cell in compress(enumerate(cells), cells)]
