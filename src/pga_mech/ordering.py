"""Decision procedures for comparing behaviors.

Functional equivalence erases delays and checks bisimilarity.  The
improvement preorder additionally compares delay budgets: one behavior
improves another when, matching their branching structure pointwise, it
never spends more delays at any matched occurrence.  Divergent regions
absorb delays, so any tower of delays over deadlock is interchangeable
with deadlock.

Every relation here reads one normal form per graph, its delay
resolution (``threads._delay_resolution``): each node written as a delay
count plus a delay-free core, with divergent nodes resolved to deadlock.
No relation builds a new graph.  Behavior graphs are deterministic, so a
relation holds at the roots exactly when no bad pair of cores can be
reached from the pair of roots; one walk over the reachable pairs decides
functional equivalence and improvement in both directions at once.
"""

from __future__ import annotations

from enum import Enum

from .extraction import extract_mechanistic
from .instructions import InstrSeq
from .threads import (
    POST,
    ThreadGraph,
    _delay_resolution,
    bisimilar,
)

__all__ = [
    "ComparisonVerdict",
    "compare",
    "functionally_equivalent",
    "improves",
    "is_implementation",
    "is_pre_extraction",
    "strictly_improves",
]


class ComparisonVerdict(Enum):
    EQUAL = "equal"
    STRICTLY_IMPROVES = "improves"
    STRICTLY_IMPROVED_BY = "improved-by"
    MUTUALLY_EQUIVALENT = "mutually-equivalent"
    INCOMPARABLE = "incomparable"
    FUNCTIONALLY_DIFFERENT = "functionally-different"


# verdicts of ``compare(p, q)`` under which ``p`` improves ``q``
_IMPROVING = frozenset({
    ComparisonVerdict.EQUAL,
    ComparisonVerdict.STRICTLY_IMPROVES,
    ComparisonVerdict.MUTUALLY_EQUIVALENT,
})


def _walk(p: ThreadGraph, q: ThreadGraph) -> tuple[bool, bool, bool]:
    """Walk the pairs of cores reachable from the pair of roots of two
    graphs' delay resolutions.  Returns ``(functional, forward,
    backward)``: ``functional`` holds when no pair differs in kind or
    action, ``forward`` when moreover every traversed edge (the root
    included) spends no more delays on the left than on the right,
    ``backward`` the same with the sides swapped."""
    pnodes, pres = _delay_resolution(p)
    qnodes, qres = _delay_resolution(q)
    dp, a = pres[p.root]
    dq, b = qres[q.root]
    forward, backward = dp <= dq, dq <= dp
    seen = {(a, b)}
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        na, nb = pnodes[a], qnodes[b]
        if na.kind != nb.kind or na.action != nb.action:
            return False, False, False
        if na.kind != POST:
            continue
        for s, t in ((na.true, nb.true), (na.false, nb.false)):
            dp, a2 = pres[s]
            dq, b2 = qres[t]
            if dp > dq:
                forward = False
            elif dq > dp:
                backward = False
            if (a2, b2) not in seen:
                seen.add((a2, b2))
                stack.append((a2, b2))
    return True, forward, backward


def functionally_equivalent(p: ThreadGraph, q: ThreadGraph) -> bool:
    """True iff the delay-erased behaviors are bisimilar."""
    return _walk(p, q)[0]


def improves(p: ThreadGraph, q: ThreadGraph) -> bool:
    """Decide whether ``p`` improves ``q`` (spends no more delays anywhere
    while exhibiting the same functional branching)."""
    return _walk(p, q)[1]


def strictly_improves(p: ThreadGraph, q: ThreadGraph) -> bool:
    """Improvement together with delay-exact inequality."""
    return improves(p, q) and not bisimilar(p, q)


def compare(p: ThreadGraph, q: ThreadGraph) -> ComparisonVerdict:
    """Classify the relationship between two behaviors."""
    functional, forward, backward = _walk(p, q)
    if not functional:
        return ComparisonVerdict.FUNCTIONALLY_DIFFERENT
    if forward and backward:
        if bisimilar(p, q):
            return ComparisonVerdict.EQUAL
        return ComparisonVerdict.MUTUALLY_EQUIVALENT
    if forward:
        return ComparisonVerdict.STRICTLY_IMPROVES
    if backward:
        return ComparisonVerdict.STRICTLY_IMPROVED_BY
    return ComparisonVerdict.INCOMPARABLE


def is_implementation(x: InstrSeq, p: ThreadGraph) -> bool:
    """True iff ``p`` improves the mechanistic behavior of ``x``."""
    return improves(p, extract_mechanistic(x))


def is_pre_extraction(x: InstrSeq, p: ThreadGraph) -> bool:
    """True iff the mechanistic behavior of ``x`` equals ``p`` exactly."""
    return bisimilar(p, extract_mechanistic(x))
