"""Decision procedures for comparing behaviors.

Functional equivalence erases delays and checks bisimilarity.  The
improvement preorder additionally compares delay budgets: one behavior
improves another when, matching their branching structure pointwise, it
never spends more delays at any matched occurrence.  Divergent regions
absorb delays, so any tower of delays over deadlock is interchangeable
with deadlock.

Every relation here reads one normal form per graph, its delay
resolution (``threads._delay_resolution``): each node written as a delay
count plus a delay-free core, with divergent nodes resolved to deadlock
and counted by their divergence signature.  No relation builds a new
graph.  Behavior graphs are deterministic, so a relation holds at the
roots exactly when no bad pair of cores can be reached from the pair of
roots; one walk over the reachable pairs decides functional equivalence,
improvement in both directions and delay-exact bisimilarity at once.
``bisimilar`` and ``improves`` need one of those answers and stop the walk
at the first edge that decides it "no".
"""

from __future__ import annotations

from enum import Enum

from .extraction import extract_mechanistic
from .instructions import InstrSeq
from .threads import POST, ThreadGraph, _delay_resolution

__all__ = [
    "ComparisonVerdict",
    "bisimilar",
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


# the flags of a relation walk, by index
_FUNCTIONAL, _FORWARD, _BACKWARD, _EXACT = range(4)


def _walk_resolutions(pr, qr, stop: int = _FUNCTIONAL) -> list[bool]:
    """Walk the pairs of cores reachable from the pair of roots (node 0 of
    every ``ThreadGraph``), given two graphs' delay resolutions.  Returns
    the flags ``[functional, forward, backward, exact]``: ``functional``
    holds when no pair differs in kind or action, ``forward`` when moreover
    every traversed edge (the root included) spends no more delays on the
    left than on the right, ``backward`` the same with the sides swapped,
    and ``exact`` when every traversed edge has equal counts on both sides.
    ``forward`` and ``backward`` ignore the counts into deadlock, which are
    divergence signatures.

    The walk returns at the first edge that makes the flag ``stop`` False,
    leaving the other flags undecided.  A functional difference ends every
    walk with all four False, so the default ``stop`` decides them all."""
    prows, pres = pr
    qrows, qres = qr
    d_id = len(prows) - 1
    width = len(qrows)  # the pair (a, b) is seen as the key a * width + b
    flags = [True, True, True, True]
    seen = set()
    stack = [(0, 0)]  # edges, as the pairs of nodes they enter
    while stack:
        s, t = stack.pop()
        dp, a = pres[s]
        dq, b = qres[t]
        if dp != dq:
            flags[_EXACT] = False
            if a != d_id:
                flags[_FORWARD if dp > dq else _BACKWARD] = False
            if not flags[stop]:
                return flags
        key = a * width + b
        if key in seen:
            continue
        seen.add(key)
        kind, action, _, pt, pf = prows[a]
        qkind, qaction, _, qt, qf = qrows[b]
        if kind != qkind or action != qaction:
            return [False, False, False, False]
        if kind == POST:
            stack.append((pt, qt))
            stack.append((pf, qf))
    return flags


def _walk(p: ThreadGraph, q: ThreadGraph, stop: int = _FUNCTIONAL) -> list[bool]:
    """``_walk_resolutions`` on the delay resolutions of ``p`` and ``q``."""
    return _walk_resolutions(_delay_resolution(p), _delay_resolution(q), stop)


def bisimilar(p: ThreadGraph, q: ThreadGraph) -> bool:
    """Delay-exact bisimulation: related nodes have identical kind (and
    action), related delay nodes have related successors, related post nodes
    have pairwise related branch successors.  A delay is never absorbed.

    Two nodes are bisimilar exactly when their delay chains have equal
    counts and end in bisimilar cores, or both diverge with equal
    signatures.  Decided by one walk over the reachable pairs of cores,
    like ``compare``, that stops at the first unequal delay count: linear
    in those pairs, which can be the product of the two graphs, e.g. on
    cycles of coprime lengths.
    """
    return _walk(p, q, _EXACT)[_EXACT]


def functionally_equivalent(p: ThreadGraph, q: ThreadGraph) -> bool:
    """True iff the delay-erased behaviors are bisimilar."""
    return _walk(p, q)[_FUNCTIONAL]


def improves(p: ThreadGraph, q: ThreadGraph) -> bool:
    """Decide whether ``p`` improves ``q`` (spends no more delays anywhere
    while exhibiting the same functional branching).  The walk stops at the
    first edge where ``p`` spends more delays."""
    return _walk(p, q, _FORWARD)[_FORWARD]


def strictly_improves(p: ThreadGraph, q: ThreadGraph) -> bool:
    """Improvement together with delay-exact inequality.  It holds both ways
    between mutually equivalent graphs, such as the mechanistic behaviors
    of ``+a;!;#0`` and ``+a;!;#1;#0``."""
    _, forward, _, exact = _walk(p, q, _FORWARD)
    return forward and not exact


def compare(p: ThreadGraph, q: ThreadGraph) -> ComparisonVerdict:
    """Classify the relationship between two behaviors."""
    functional, forward, backward, exact = _walk(p, q)
    if not functional:
        return ComparisonVerdict.FUNCTIONALLY_DIFFERENT
    if exact:
        return ComparisonVerdict.EQUAL
    if forward and backward:
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
