"""Thread extraction: the behavior graph denoted by an instruction sequence.

Two variants share one engine.  Functional extraction treats jumps as
transparent control transfers; mechanistic extraction charges one delay
node per executed jump instruction, regardless of the counter value.
In both, a finite sequence behaves as if a divergence jump were appended,
``!`` terminates, a basic action continues at the next position on either
reply, tests branch to the next position or the one after, and ``#0``
deadlocks at no cost.  A cycle of jumps that never emits anything is
deadlock functionally and a delay loop mechanistically.
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
    n, m = seq.prefix_len, seq.cycle_len
    # Each node stands for a key: the canonical position of its instruction,
    # or -1 for the shared D node, which a run off the end, ``#0`` and a
    # cycle of transparent jumps all reach.  Each successor position is
    # resolved to its key (functionally, a jump resolves to where its chain
    # lands) before the id lookup in ``ids``; a key met for the first time
    # takes the next id and joins ``order``.  ``order`` is worked off first
    # in, first out, so ids are the graph constructor's breadth-first
    # numbering and the graph's rows are built once, never renumbered.  The loop
    # calls no closure: a closure that refers to itself holds its own cell,
    # and that reference cycle would keep the tables alive after the call
    # until the cyclic collector ran.
    landing: dict[int, int] = {}  # jump position -> key of its landing
    root = 0
    ins = code[0]
    if ins.kind == JUMP and not (with_delays and ins.counter):
        root = _land(code, n, m, 0, landing)
    order = [root]  # the key of each node, in id order
    ids = {root: 0}
    rows: list[tuple] = []
    for p in order:  # also visits the keys appended meanwhile
        if p < 0:
            rows.append(_D_ROW)
            continue
        ins = code[p]
        kind = ins.kind
        if kind == TERMINATION:
            rows.append(_S_ROW)
            continue
        # the successor for a true reply (or the jump's target) comes first
        if kind == JUMP:
            q = p + ins.counter
        elif kind == NEG_TEST:
            q = p + 2
        else:
            q = p + 1
        if q >= n:
            q = n + (q - n) % m if m else -1
        if q >= 0:
            target = code[q]
            if target.kind == JUMP and not (with_delays and target.counter):
                q = landing[q] if q in landing else _land(code, n, m, q, landing)
        t = ids.get(q)
        if t is None:
            t = ids[q] = len(order)
            order.append(q)
        if kind == JUMP:  # a delay for the jump
            rows.append((DELAY, None, t, None, None))
            continue
        if kind == BASIC:  # either reply continues at the next position
            rows.append((POST, ins.action, None, t, t))
            continue
        q = p + 2 if kind == POS_TEST else p + 1
        if q >= n:
            q = n + (q - n) % m if m else -1
        if q >= 0:
            target = code[q]
            if target.kind == JUMP and not (with_delays and target.counter):
                q = landing[q] if q in landing else _land(code, n, m, q, landing)
        f = ids.get(q)
        if f is None:
            f = ids[q] = len(order)
            order.append(q)
        rows.append((POST, ins.action, None, t, f))
    return ThreadGraph._canonical(rows)


def _land(code, n: int, m: int, p: int, landing: dict[int, int]) -> int:
    """The key that the jump at canonical position ``p`` resolves to when
    jumps are transparent: the position where its chain of jumps lands, or
    -1 (deadlock) for a run off the end, ``#0`` or a cycle of jumps.  Every
    jump of the chain is recorded in ``landing``, and a chain that reaches
    a recorded jump stops there, which keeps extraction linear."""
    passed: set[int] = set()
    t = _chase(code, n, m, p, landing, passed)
    if t in landing:
        key = landing[t]
    elif t is None or code[t].kind == JUMP:  # #0, or a passed jump: a cycle
        key = -1
    else:
        key = t
    for q in passed:
        landing[q] = key
    landing[p] = key
    return key
