"""Thread extraction: the behavior graph denoted by an instruction sequence.

Two variants share one engine.  Functional extraction treats jumps as
transparent control transfers; mechanistic extraction charges one delay
node per executed jump instruction, regardless of the counter value.
In both, a finite sequence behaves as if a divergence jump were appended,
``!`` terminates, a basic action continues at the next position on either
reply, tests branch to the next position or the one after, and ``#0``
deadlocks at no cost.  A cycle of jumps that never emits anything is
deadlock functionally and a delay loop mechanistically.

The engine works on flat lists.  Each node stands for a key, the
canonical position of its instruction or ``n + m`` (prefix plus cycle
length) for the shared D node, and a list indexed by key holds its id.
Functionally, the key of every position comes from one table, filled from
the last position to the first, so a jump onto a later slot reads the
landing already known there; only a jump that wraps the cycle chases its
chain.  Mechanistically only ``#0`` is transparent, and each successor is
checked for it as it is met, with no pass over all positions first, so a
small sequence pays only for what it reaches.
"""

from __future__ import annotations

from .instructions import BASIC, JUMP, NEG_TEST, POS_TEST, TERMINATION, InstrSeq, _chase
from .threads import _D_ROW, _S_ROW, DELAY, POST, ThreadGraph

__all__ = ["extract_functional", "extract_mechanistic"]


def extract_functional(seq: InstrSeq) -> ThreadGraph:
    """Behavior with jump processing abstracted away."""
    return _extract(seq, with_delays=False)


def extract_mechanistic(seq: InstrSeq) -> ThreadGraph:
    """Behavior with one delay per executed jump instruction."""
    return _extract(seq, with_delays=True)


def _extract(seq: InstrSeq, with_delays: bool) -> ThreadGraph:
    code = seq.prefix + (seq.cycle or ())
    n = len(seq.prefix)
    size = len(code)
    m = size - n
    # Keys as the module docstring says, with ``size`` for the D node:
    # ``lands`` (functional only) is the key of each position up to two past
    # the end, ``index`` the id of each key met so far and ``order`` the key
    # of each id.  ``order`` is worked off first in, first out, so ids are
    # the graph constructor's breadth-first numbering and the graph's rows
    # are built once, never renumbered.  The loop calls no closure: a
    # closure that refers to itself holds its own cell, and that reference
    # cycle would keep the tables alive after the call until the cyclic
    # collector ran.
    if with_delays:
        lands = None
        root = size if code[0].counter == 0 else 0
    else:
        lands = _landings(code, n, m)
        root = lands[0]
    index = [-1] * (size + 1)
    index[root] = 0
    order = [root]
    rows: list[tuple] = []
    for p in order:  # also visits the keys appended meanwhile
        if p == size:
            rows.append(_D_ROW)
            continue
        ins = code[p]
        kind = ins.kind
        if kind == TERMINATION:
            rows.append(_S_ROW)
            continue
        # the successor for a true reply (or the jump's target) comes first;
        # only mechanistic extraction reaches a jump
        if kind == JUMP:
            q = p + ins.counter
        elif kind == NEG_TEST:
            q = p + 2
        else:
            q = p + 1
        if lands is not None:
            q = lands[q]
        elif q < size:
            if code[q].counter == 0:  # ``#0``
                q = size
        elif m:
            q = n + (q - n) % m
            if code[q].counter == 0:
                q = size
        else:  # a run off the end
            q = size
        t = index[q]
        if t < 0:
            t = index[q] = len(order)
            order.append(q)
        if kind == JUMP:  # a delay for the jump
            rows.append((DELAY, None, t, None, None))
            continue
        if kind == BASIC:  # either reply continues at the next position
            rows.append((POST, ins.action, None, t, t))
            continue
        q = p + 2 if kind == POS_TEST else p + 1
        if lands is not None:
            q = lands[q]
        elif q < size:
            if code[q].counter == 0:  # ``#0``
                q = size
        elif m:
            q = n + (q - n) % m
            if code[q].counter == 0:
                q = size
        else:  # a run off the end
            q = size
        f = index[q]
        if f < 0:
            f = index[q] = len(order)
            order.append(q)
        rows.append((POST, ins.action, None, t, f))
    return ThreadGraph._canonical(rows)


def _landings(code, n: int, m: int) -> list[int]:
    """The key of each position of the unfolding from 0 to two past the
    end when jumps are transparent: the position itself for an instruction
    that is not a jump, else where its chain of jumps lands, or ``n + m``
    (deadlock) for a run off the end, ``#0`` or a cycle of jumps.

    The table is filled from the last position to the first, so a jump onto
    a later position reads the landing already known there.  Only a jump
    that wraps into the cycle chases its chain, through ``_land``, which
    records every jump it passes, so the whole table costs linear time."""
    size = n + m
    lands = [size] * (size + 2)
    landing: dict[int, int] = {}
    for p in range(size - 1, -1, -1):
        k = code[p].counter
        if k is None:  # not a jump
            lands[p] = p
        elif k and p + k < size:
            lands[p] = lands[p + k]
        elif k and m:
            lands[p] = landing[p] if p in landing else _land(code, n, m, p, landing)
        # else ``#0``, or a jump off the end: deadlock
    if m:  # two past the end is the first two slots of the cycle again
        lands[size] = lands[n]
        lands[size + 1] = lands[n + (1 % m)]
    return lands


def _land(code, n: int, m: int, p: int, landing: dict[int, int]) -> int:
    """The key that the jump at canonical position ``p`` resolves to when
    jumps are transparent: the position where its chain of jumps lands, or
    ``n + m`` (deadlock) for a run off the end, ``#0`` or a cycle of jumps.
    Every jump of the chain is recorded in ``landing``, and a chain that
    reaches a recorded jump stops there, which keeps extraction linear."""
    passed: set[int] = set()
    t = _chase(code, n, m, p, landing, passed)
    if t in landing:
        key = landing[t]
    elif t is None or code[t].kind == JUMP:  # #0, or a passed jump: a cycle
        key = n + m
    else:
        key = t
    for q in passed:
        landing[q] = key
    landing[p] = key
    return key
