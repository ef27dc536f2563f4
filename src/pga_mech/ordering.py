"""Decision procedures for comparing behaviors.

Functional equivalence erases delays and checks bisimilarity.  The
improvement preorder additionally compares delay budgets: one behavior
improves another when, matching their branching structure pointwise, it
never spends more delays at any matched occurrence.  Divergent regions
absorb delays, so any tower of delays over deadlock is interchangeable
with deadlock.

Every relation here works on one normal form per graph: the
divergence-collapsed graph together with its delay resolution, which
writes each node as a delay count plus a delay-free core.  The resolution
is ``threads._delay_resolution``, which ``functional_abstraction`` also
uses.  Behavior graphs are deterministic, so a relation holds at the roots
exactly when no bad pair of cores can be reached from the pair of roots;
one walk over the reachable pairs decides functional equivalence and
improvement in both directions at once.
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
    collapse_divergence,
)

__all__ = [
    "ComparisonVerdict",
    "compare",
    "functionally_equivalent",
    "improves",
    "is_implementation",
    "is_pre_extraction",
    "strictly_improved",
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


_NormalForm = tuple[ThreadGraph, list[tuple[int, int]]]


def _normal_form(g: ThreadGraph) -> _NormalForm:
    """The divergence-collapsed graph and its delay resolution."""
    core = collapse_divergence(g)
    return core, _delay_resolution(core)


def _walk(p_form: _NormalForm, q_form: _NormalForm) -> tuple[bool, bool, bool]:
    """Walk the pairs of cores reachable from the pair of roots of two
    normal forms.  Returns ``(functional, forward, backward)``:
    ``functional`` holds when no pair differs in kind or action,
    ``forward`` when moreover every traversed edge (the root included)
    spends no more delays on the left than on the right, ``backward`` the
    same with the sides swapped."""
    pg, pres = p_form
    qg, qres = q_form
    dp, a = pres[pg.root]
    dq, b = qres[qg.root]
    forward, backward = dp <= dq, dq <= dp
    seen = {(a, b)}
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        na, nb = pg.nodes[a], qg.nodes[b]
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
    return _walk(_normal_form(p), _normal_form(q))[0]


def improves(p: ThreadGraph, q: ThreadGraph) -> bool:
    """Decide whether ``p`` improves ``q`` (spends no more delays anywhere
    while exhibiting the same functional branching)."""
    return _walk(_normal_form(p), _normal_form(q))[1]


def _strictly_improves(p: ThreadGraph, p_form: _NormalForm,
                       q: ThreadGraph, q_form: _NormalForm) -> bool:
    """``strictly_improves`` for graphs whose normal forms are given."""
    return _walk(p_form, q_form)[1] and not bisimilar(p, q)


def strictly_improves(p: ThreadGraph, q: ThreadGraph) -> bool:
    """Improvement together with delay-exact inequality."""
    return _strictly_improves(p, _normal_form(p), q, _normal_form(q))


def strictly_improved(graphs: list[ThreadGraph]) -> list[bool]:
    """Per graph, whether another graph of the list strictly improves it.
    Each graph's normal form is computed once, not once per pair."""
    forms = [_normal_form(g) for g in graphs]
    return [any(_strictly_improves(graphs[j], forms[j], g, forms[i])
                for j in range(len(graphs)) if j != i)
            for i, g in enumerate(graphs)]


def compare(p: ThreadGraph, q: ThreadGraph) -> ComparisonVerdict:
    """Classify the relationship between two behaviors."""
    functional, forward, backward = _walk(_normal_form(p), _normal_form(q))
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
