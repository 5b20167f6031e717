"""The recursive primitive functions the component semantics are built on.

Each function follows its defining equations exactly; the iterative bodies are
unfoldings of the recursions.
"""
from __future__ import annotations

from typing import Sequence

from .core import AMessage, IdSym, Message, MixingViolation


def collect_elements(i: int, streams: Sequence[Sequence]) -> tuple:
    """Concatenate the nonempty cells among streams[0..i-1], highest index first.

    The descending order follows from the recursion: the step for i+1 puts
    stream i+1's contents in front of the collection of the first i streams.
    """
    if not 0 <= i <= len(streams):
        raise ValueError(f"arity {i} outside [0..{len(streams)}]")
    out: list = []
    for j in range(i, 0, -1):
        cell = streams[j - 1]
        if cell:
            out.extend(cell)
    return tuple(out)


def min_nat_list(a: int, values: Sequence[int]) -> int:
    """Minimum of {a} and the members of a finite list of naturals."""
    best = a
    for x in values:
        if x < best:
            best = x
    return best


def pr_add(buf: Sequence[AMessage], msg: AMessage) -> tuple[AMessage, ...]:
    """Insert msg into an id-sorted buffer, before the first strictly larger id.

    Equal identifiers keep arrival order: the comparison is strict, so the new
    message lands after existing messages of the same priority.
    """
    for k, existing in enumerate(buf):
        if msg.id < existing.id:
            return tuple(buf[:k]) + (msg,) + tuple(buf[k:])
    return tuple(buf) + (msg,)


def broadcast(cell: Sequence[Message]) -> tuple[Message, ...]:
    """Resolve one tick of bus traffic into at most one wire symbol.

    An identifier at the head arbitrates: the smallest identifier in the cell
    wins. Any data symbol hiding behind an identifier head means two frames
    are in incompatible phases, which the bus contract forbids.
    A data symbol at the head passes through unchanged.
    """
    if not cell:
        return ()
    head = cell[0]
    if isinstance(head, IdSym):
        rest: list[int] = []
        for m in cell[1:]:
            if not isinstance(m, IdSym):
                raise MixingViolation("identifier and data symbols offered in the same tick")
            rest.append(m.value)
        return (IdSym(min_nat_list(head.value, rest)),)
    return (head,)
