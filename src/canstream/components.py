"""The five protocol components as deterministic Mealy-style state machines.

Every step function is pure: it maps (state, inputs at tick t) to (outputs at
tick t, next state). Outputs never depend on anything later than t, and the
next state is what the component carries into tick t+1. States are immutable
values, so a step that changes nothing hands back the state it was given, and
the idle state of each component is one shared value.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import (
    REQ,
    AMessage,
    AssumptionViolation,
    Cell,
    DataSym,
    FormatViolation,
    IdSym,
    InputCollision,
    Message,
    MixingViolation,
)
from .primitives import broadcast, collect_elements, pr_add


@dataclass(frozen=True, slots=True)
class BufferState:
    """buf is the id-sorted waiting queue; b is the one-slot transmit offer."""

    buf: tuple[AMessage, ...] = ()
    b: tuple[AMessage, ...] = ()


@dataclass(frozen=True, slots=True)
class EncoderState:
    """e marks an encoding in progress; pending caches the payload to emit next."""

    e: bool = False
    pending: bytes | None = None


@dataclass(frozen=True, slots=True)
class DecoderState:
    """d marks a decoding in progress; last_id caches the frame's identifier."""

    d: bool = False
    last_id: int | None = None


@dataclass(frozen=True, slots=True)
class LogicalLayerState:
    """lid is the identifier of the frame this node last put up for arbitration."""

    lid: int = 0


_IDLE_BUFFER = BufferState()
_IDLE_ENCODER = EncoderState()
_IDLE_DECODER = DecoderState()
_IDLE_LLAYER = LogicalLayerState()
REQ_CELL: Cell = (REQ,)


def _not_unary(cell: Sequence, name: str, t: int) -> AssumptionViolation:
    return AssumptionViolation(f"{name} carries {len(cell)} messages at tick {t}")


def buffer_emission(state: BufferState, t: int) -> Cell:
    """Buffer output at tick t: silent on even ticks, the offer slot on odd."""
    return () if t % 2 == 0 else state.b


def buffer_step(state: BufferState, a: Sequence[AMessage], r: Sequence[int], t: int) -> tuple[Cell, BufferState]:
    """One buffer tick.

    The output only depends on parity and the offer slot. The update is
    request-driven: without a request the arrival (if any) is queued by
    priority and the slot keeps its value; with a request the slot is
    reloaded, either directly from the arrival when the queue is empty or
    from the head of the updated queue.
    """
    if len(a) > 1:
        raise _not_unary(a, "buffer input a", t)
    out = buffer_emission(state, t)
    if not a and not r:
        return out, state
    newbuf = state.buf if not a else pr_add(state.buf, a[0])
    if not r:
        nxt = BufferState(buf=newbuf, b=state.b)
    elif not state.buf:
        # An idle node's standing request changes nothing: keep the state.
        nxt = BufferState(buf=(), b=tuple(a)) if a or state.b else state
    else:
        nxt = BufferState(buf=newbuf[1:], b=(newbuf[0],))
    return out, nxt


def encoder_step(state: EncoderState, as_cell: Sequence[AMessage], t: int) -> tuple[Cell, EncoderState]:
    """One encoder tick: identifier first, cached payload one tick later.

    A fresh message while the previous payload is still pending has no
    consistent encoding, so it is rejected rather than silently dropped; the
    buffer's odd-tick cadence keeps composed runs clear of this.
    """
    if len(as_cell) > 1:
        raise _not_unary(as_cell, "encoder input", t)
    if state.e:
        if as_cell:
            raise InputCollision(f"encoder got a new message at tick {t} while mid-frame")
        return (DataSym(state.pending),), _IDLE_ENCODER
    if not as_cell:
        return (), state
    msg = as_cell[0]
    return (IdSym(msg.id),), EncoderState(e=True, pending=msg.data)


def decoder_step(state: DecoderState, mr: Sequence[Message], t: int) -> tuple[Cell, DecoderState]:
    """One decoder tick: remember the identifier, deliver on the data symbol."""
    if len(mr) > 1:
        raise _not_unary(mr, "decoder input", t)
    if not mr:
        return (), _IDLE_DECODER
    sym = mr[0]
    if isinstance(sym, IdSym):
        if state.d:
            raise FormatViolation(f"identifier symbol at tick {t} while already decoding")
        return (), DecoderState(d=True, last_id=sym.value)
    if not state.d:
        raise FormatViolation(f"data symbol at tick {t} with no preceding identifier")
    return (AMessage(state.last_id, sym.value),), _IDLE_DECODER


def dispatch_row(ms: Sequence[Message], wr: Sequence[Message], lid: int) -> int:
    """Which row of the bus-access table fires for (ms, wr, lid)."""
    if not ms:
        return 1
    if isinstance(ms[0], IdSym):
        return 2
    if not wr:
        return 3
    verdict = wr[0]
    if verdict.__class__ is IdSym and verdict.value == lid:
        return 4
    return 5


def logical_layer_step(state: LogicalLayerState, ms: Sequence[Message], wr: Sequence[Message],
                       t: int) -> tuple[Cell, Cell, Cell, LogicalLayerState]:
    """One bus-access tick; returns (mr, ws, r, next state).

    mr always mirrors wr. Identifier symbols are put up for arbitration (row 2)
    and remembered in lid; a data symbol is driven onto the bus with a success
    request exactly when the bus's arbitration verdict matches lid (row 4),
    and swallowed when it does not (rows 3 and 5).

    The paper's table literally leaves ws empty in row 2; then no identifier
    reaches the bus and arbitration starves (acceptance criterion 5 (a)).
    """
    if len(ms) > 1:
        raise _not_unary(ms, "bus-access input ms", t)
    if len(wr) > 1:
        raise _not_unary(wr, "bus-access input wr", t)
    mr = tuple(wr)
    row = dispatch_row(ms, wr, state.lid)
    if row == 2:
        lid = ms[0].value
        return mr, tuple(ms), (), state if lid == state.lid else LogicalLayerState(lid=lid)
    if row == 4:
        return mr, tuple(ms), REQ_CELL, state
    return mr, (), (), state


def wire_emission(offers: Sequence[Cell], t: int) -> Cell:
    """Bus output at tick t: the previous tick's ws row, collected and resolved (unit delay).

    Before tick 0 every offer is empty, so the bus is silent at tick 0. A cell
    of more than one symbol is reported for the lowest such node; a mix of
    symbol kinds names the offering nodes, highest first, in collection order.
    """
    if not any(offers):
        return ()
    latch = collect_elements(len(offers), offers)
    if len(latch) > len(offers) - offers.count(()):
        i = next(i for i, cell in enumerate(offers, start=1) if len(cell) > 1)
        raise _not_unary(offers[i - 1], f"ws_{i}", t - 1)
    try:
        return broadcast(latch)
    except MixingViolation as exc:
        raise MixingViolation(
            f"bus offers from tick {t - 1} mix identifier and data symbols "
            f"(nodes {[i for i in range(len(offers), 0, -1) if offers[i - 1]]})"
        ) from exc
