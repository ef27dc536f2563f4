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

from .instructions import (
    JUMP,
    TERMINATION,
    InstrSeq,
    _branches,
    _chase,
    _slot,
)
from .threads import _D_NODE, _S_NODE, DELAY, POST, Node, ThreadGraph, _new

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
    # ids are handed out in the order of the graph constructor's
    # breadth-first renumbering: the root first, then the new successors of
    # each post or delay node in id order, as ``fill`` is worked off first
    # in, first out; so the graph is built once and never renumbered.
    # ``node_at`` does not call itself: a closure that refers to itself
    # holds its own cell, and that reference cycle would keep ``nodes``,
    # ``memo`` and ``fill`` alive after the call until the cyclic collector
    # ran, so a transparent jump builds the node it lands on in place
    nodes: list = []  # post and delay nodes are None until filled
    memo: dict[int, int] = {}
    fill: list[tuple[int, int]] = []  # (position, id) of post and delay nodes
    d_id = -1

    def alloc(node) -> int:
        nodes.append(node)
        return len(nodes) - 1

    def shared_d() -> int:
        nonlocal d_id
        if d_id < 0:
            d_id = alloc(_D_NODE)
        return d_id

    def node_at(p: int) -> int:
        p = _slot(n, m, p)
        if p is None:
            return shared_d()
        if p in memo:
            return memo[p]
        ins = code[p]
        if ins.kind == TERMINATION:
            nid = alloc(_S_NODE)
        elif ins.kind != JUMP:
            nid = alloc(None)
            fill.append((p, nid))
        elif ins.counter == 0:
            nid = shared_d()
        elif with_delays:
            nid = alloc(None)
            fill.append((p, nid))
        else:
            # transparent jump: every jump of the chain shares the node it
            # lands on, and a chain that reaches a memoized position stops
            # there, which keeps extraction linear; a cycle of jumps is
            # deadlock.  Any other landing holds ``!`` or an action
            passed: set[int] = set()
            t = _chase(code, n, m, p, memo, passed)
            if t in memo:
                nid = memo[t]
            elif t is None or t in passed or code[t].kind == JUMP:  # or #0
                nid = shared_d()
            elif code[t].kind == TERMINATION:
                nid = memo[t] = alloc(_S_NODE)
            else:
                nid = memo[t] = alloc(None)
                fill.append((t, nid))
            for q in passed:
                memo[q] = nid
        memo[p] = nid
        return nid

    node_at(0)
    for p, nid in fill:  # also visits the entries node_at appends meanwhile
        ins = code[p]
        if ins.kind == JUMP:  # delay for a jump
            nodes[nid] = _new(Node, (DELAY, None, node_at(p + ins.counter), None, None))
        else:
            t, f = _branches(p, ins)
            nodes[nid] = _new(Node, (POST, ins.action, None, node_at(t), node_at(f)))
    return ThreadGraph._canonical(nodes)
