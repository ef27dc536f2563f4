"""Bounded implementation search.

``search_implementations`` lists every instruction sequence within given
bounds that a behavior implements.  The search walks the minimal delay-free
target along each partial sequence and assigns a slot only when the walk
reaches it, so slots that no run executes are enumerated only when results
are emitted, under an explicit budget.  Exact prunes cut the walk without
changing its results.  The target is minimized.  A walk that pairs a slot
with two target nodes fails at once, since two nodes of a minimal graph are
never bisimilar, and so does a walk whose items wait on one unassigned slot
at two nodes.  An action instruction is offered only where its replies fit
the node's successors: replies that reach one slot need one successor, and
a reply that runs off the end needs D.  By pigeonhole, a branch is dropped
when the target's S and post nodes not yet paired outnumber the slots left
to pair them with, and a shape with fewer slots than those nodes is
skipped.  The ``max_candidates`` budget is one count across all shapes.

``pareto_front`` keeps the results whose mechanistic behavior no other
result strictly improves.  It is a skyline over the improvement preorder's
classes: one extraction per result, then one relation walk per distinct
mechanistic graph per class still in the window of classes that nothing
seen so far strictly improves, never more than one walk per pair of
distinct graphs.  For ``P = a . P`` over ``{a}`` at (3,2) and (2,3) that
is 0.12 s and 0.14 s, where a walk per pair took 6.0 s and 13.2 s.
Distinct graphs can outnumber the distinct behaviors: ``(a)^w`` and
``(a;a)^w`` are bisimilar but have different graphs.  Known limitation:
two results that improve each other without being bisimilar drop each
other, so the front can come out empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product

from .extraction import extract_mechanistic
from .instructions import (
    JUMP,
    TERMINATE,
    TERMINATION,
    _ACTION_RE,
    InstrSeq,
    Instruction,
    _branches,
    _chase,
    _slot,
    basic,
    jump,
    neg_test,
    pos_test,
)
from .ordering import _walk_resolutions, is_implementation
from .threads import (
    D,
    DELAY,
    POST,
    S,
    ThreadGraph,
    _delay_resolution,
    functional_abstraction,
    minimize,
)

__all__ = [
    "SearchBounds",
    "SearchBudgetExceeded",
    "pareto_front",
    "search_implementations",
]


class SearchBudgetExceeded(ValueError):
    """An implementation search would check or emit more sequences than
    its ``max_candidates`` budget."""


@dataclass(frozen=True)
class SearchBounds:
    """Desk-scale enumeration limits for implementation search."""

    max_prefix: int
    max_cycle: int
    alphabet: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        if self.max_prefix < 0 or self.max_cycle < 0:
            raise ValueError("bounds must be nonnegative")
        if self.max_prefix + self.max_cycle < 1:
            raise ValueError("bounds admit no sequence")
        if not self.alphabet:
            raise ValueError("alphabet must be nonempty")
        for action in self.alphabet:
            if not _ACTION_RE.match(action):
                raise ValueError(f"invalid action name {action!r}")


@cache
def _slot_options(total: int, alphabet: tuple[str, ...]) -> tuple[Instruction, ...]:
    # jump counters above the total length only duplicate smaller ones
    # (falling off the end / wrapping the cycle), so the universe is
    # complete with counters up to the candidate's length
    return (*(basic(a) for a in alphabet), *(pos_test(a) for a in alphabet),
            *(neg_test(a) for a in alphabet), TERMINATE,
            *(jump(k) for k in range(total + 1)))


@cache
def _allowed(n: int, m: int, s: int, kind: str, action: str | None, t_d: bool, f_d: bool,
             same: bool, alphabet: tuple[str, ...]) -> tuple[int, ...]:
    """Indices into ``_slot_options(n + m, alphabet)`` for slot ``s`` of
    prefix length ``n`` and cycle length ``m``, reached at a target node of
    ``kind`` and ``action`` whose true and false successors are D (``t_d``,
    ``f_d``) and are one node (``same``): ``!`` at S, every jump except,
    away from D, the ones that deadlock at once (#0, off the end, back onto
    ``s``), and at a post node an action instruction on its action whose
    replies fit the successors.  Replies that reach one slot need one
    successor, since a slot pairs with one target node; this rules out a
    basic action at a branching node and a test in a one-slot cycle.  A
    reply that runs off the end needs D."""
    allowed = []
    for i, ins in enumerate(_slot_options(n + m, alphabet)):
        if ins.kind == JUMP:
            fits = kind == D or (ins.counter and _slot(n, m, s + ins.counter) not in (None, s))
        elif ins.kind == TERMINATION:
            fits = kind == S
        elif kind == POST and action == ins.action:
            t, f = (_slot(n, m, q) for q in _branches(s, ins))
            fits = (same or t != f) and (t_d or t is not None) and (f_d or f is not None)
        else:
            fits = False
        if fits:
            allowed.append(i)
    return tuple(allowed)


class _ShapeSearch:
    """Demand-driven enumeration of the sequences that ``p`` improves:
    ``results(n, m)`` lists those of prefix length ``n`` and cycle length
    ``m``.  The target's facts and the budget's count span all shapes.

    The minimal delay-free target is walked along the partial sequence from
    position 0 and node 0, the target's root, jumps transparent, pairing
    positions with target nodes.  Each slot pairs with one target node, and
    each S or post node of the target needs a slot of its own; D needs none,
    as ``#0``, running off the end or a cycle of jumps gives it.  A slot
    stands for one target node even before it is assigned, so walk items
    that wait on one unassigned slot at two nodes fail the walk at once.
    Slots the finished walk never reached are don't-cares: no run executes
    them.  ``check`` is the behavior each finished walk is checked to
    improve on, or None when the walk alone decides.

    Invariant: ``slots`` and ``picks`` are the one record of the choices,
    assigned and cleared together: ``slots[s]`` holds the option numbered
    ``picks[s]``, or None and -1 where unassigned, and ``free`` counts the
    unassigned slots.  A slot is assigned only when the walk reaches it, to
    an option ``_allowed`` admits at the target node there, and the next
    walk meets it first, at that node, so the walk never checks a slot's
    fit.
    """

    def __init__(self, p: ThreadGraph, alphabet: tuple[str, ...],
                 max_candidates: int | None) -> None:
        delayed = any(node.kind == DELAY for node in p.nodes)
        # a delay-free p spends no delay anywhere, so improving on it is
        # functional equivalence, which every finished walk has established
        self.check = p if delayed else None
        # on a delay-free p, functional abstraction only merges D nodes,
        # which minimize merges as well
        target = minimize(functional_abstraction(p) if delayed else p)
        self.tnodes, self.alphabet = target.nodes, alphabet
        self.kinds = [node.kind for node in target.nodes]
        self.max_candidates, self.spent = max_candidates, 0
        # pigeonhole: each S or post node of the target needs a slot of its own
        self.need = sum(kind != D for kind in self.kinds)
        # each node's arguments to ``_allowed``: kind, action, whether its
        # true and false successors are D and whether they are one node
        self.facts = [
            (node.kind, node.action, False, False, False) if node.kind != POST else
            (POST, node.action, self.kinds[node.true] == D,
             self.kinds[node.false] == D, node.true == node.false)
            for node in target.nodes]

    def results(self, n: int, m: int) -> list[InstrSeq]:
        """Every matching sequence of the shape, by option indices."""
        self.n, self.m = n, m
        self.options = options = _slot_options(n + m, self.alphabet)
        # the canonical slot of each position a walk item starts at, 0 to
        # n + m + 1: the root, and the replies of an action instruction in
        # any slot; where a jump lands is left to ``_chase``
        self.at = [_slot(n, m, q) for q in range(n + m + 2)]
        # ``_allowed`` per slot and target node, filled on first use
        self.fits: list[list[tuple[int, ...] | None]] = [
            [None] * len(self.tnodes) for _ in range(n + m)]
        self.slots: list[Instruction | None] = [None] * (n + m)
        self.picks = [-1] * (n + m)
        self.free = n + m
        self.keys: list[tuple[int, ...]] = []
        self._walk({}, [(0, 0)])
        seq = InstrSeq._trusted
        out = []
        for key in sorted(self.keys):
            ins = [options[c] for c in key]
            out.append(seq(tuple(ins[:n]), tuple(ins[n:]) if m else None))
        return out

    def _spend(self, count: int) -> None:
        """Count ``count`` sequences checked or emitted against the budget."""
        self.spent += count
        if self.max_candidates is not None and self.spent > self.max_candidates:
            raise SearchBudgetExceeded(
                f"search exceeds max_candidates={self.max_candidates} sequences "
                f"checked or emitted (at prefix length {self.n}, cycle length {self.m})")

    def _walk(self, seen: dict[int, int], stack: list[tuple[int, int]]) -> None:
        """Continue the walk from ``stack`` (position, target node) items,
        then branch on the first unassigned slot it reached, or emit.
        ``seen`` pairs each slot the walk has matched with its target node."""
        # an item that lands on an unassigned slot waits there, in
        # ``waiting`` (slot: target node), while the rest of the walk goes on
        slots, at, kinds = self.slots, self.at, self.kinds
        waiting: dict[int, int] = {}
        while stack:
            start, tnode = stack.pop()
            s = at[start]
            ins = None if s is None else slots[s]
            if ins is not None and ins.kind == JUMP and ins.counter:
                s = _chase(slots, self.n, self.m, s)
                ins = None if s is None else slots[s]
            if ins is None and s is not None:  # an unassigned slot
                # two nodes would meet in it as a non-jump, or at one landing
                # of it as a jump; no two nodes of a minimal target are
                # bisimilar, and only one is D
                if waiting.setdefault(s, tnode) != tnode:
                    return
                continue
            if ins is None or ins.kind == JUMP:  # off the end, #0 or a cycle of jumps
                if kinds[tnode] != D:
                    return
                continue
            if s in seen:
                # a slot that had to behave as two nodes would make them
                # bisimilar, which no two nodes of a minimal target are
                if seen[s] != tnode:
                    return
                continue
            seen[s] = tnode
            if ins.kind != TERMINATION:
                node = self.tnodes[tnode]
                t, f = _branches(s, ins)
                stack.append((t, node.true))
                stack.append((f, node.false))
        if not waiting:
            self._emit()
            return
        first, tnode = next(iter(waiting.items()))
        # pigeonhole: each unpaired S or post node needs a free slot of its
        # own, and slot ``first`` can serve only its node, only as a non-jump
        paired = set(seen.values())
        free = self.free - 1
        unpaired = self.need - len(paired)
        jumps = unpaired <= free
        others = unpaired - (kinds[tnode] != D and tnode not in paired) <= free
        allowed = self.fits[first][tnode]
        if allowed is None:
            allowed = self.fits[first][tnode] = _allowed(
                self.n, self.m, first, *self.facts[tnode], self.alphabet)
        options, picks = self.options, self.picks
        items = [*reversed(waiting.items())]
        self.free = free
        for i in allowed:
            ins = options[i]
            if jumps if ins.kind == JUMP else others:
                slots[first], picks[first] = ins, i
                self._walk(dict(seen), items.copy())
        slots[first], picks[first] = None, -1
        self.free = free + 1

    def _emit(self) -> None:
        """Check the finished walk once and record every filling of its
        don't-cares."""
        n, m, options, picks = self.n, self.m, self.options, self.picks
        if self.check is not None:
            probe = [ins or options[0] for ins in self.slots]
            seq = InstrSeq._trusted(tuple(probe[:n]), tuple(probe[n:]) if m else None)
            if not is_implementation(seq, self.check):
                self._spend(1)
                return
        if not self.free:  # no don't-cares: one sequence
            self._spend(1)
            self.keys.append(tuple(picks))
            return
        free = [s for s, c in enumerate(picks) if c < 0]
        self._spend(len(options) ** len(free))
        key = picks.copy()
        for filling in product(range(len(options)), repeat=len(free)):
            for s, c in zip(free, filling):
                key[s] = c
            self.keys.append(tuple(key))


def search_implementations(p: ThreadGraph, bounds: SearchBounds,
                           max_candidates: int | None = None) -> list[InstrSeq]:
    """Enumerate every sequence within the bounds (prefix length, cycle
    length, alphabet, jump counters up to the candidate length) and return
    those whose mechanistic behavior ``p`` improves, in deterministic
    length-lexicographic order: by total length, then cycle length, then
    the per-slot option indices (basic actions, positive tests, negative
    tests, each by action name, then ``!``, then ``#0``, ``#1``, ...).

    Only the slots that the walk of the minimized delay-free ``p`` along
    the sequence reaches are branched on; a slot no run executes cannot
    change the behavior, so one improvement check covers every filling of
    those don't-cares, and each filling is returned.  A walk that pairs a
    slot with two target nodes, assigned or not, stops at once.  A slot
    takes an action instruction only where its replies fit the target
    node's successors, and any option only while the slots still free
    after it are at least as many as the target's S and post nodes that
    the option leaves unpaired; a shape with fewer slots than those nodes
    is skipped.  These prunes drop only branches that can never finish, so
    the results, their order and the budget's count are those of the
    unpruned walk.

    ``max_candidates`` bounds the sequences checked or emitted (a failed
    check counts one, a passed one every sequence it emits); the search
    raises ``SearchBudgetExceeded`` before exceeding it.  None means no
    bound.
    """
    search = _ShapeSearch(p, tuple(sorted(set(bounds.alphabet))), max_candidates)
    found: list[InstrSeq] = []
    for total in range(max(1, search.need), bounds.max_prefix + bounds.max_cycle + 1):
        for m in range(0, min(total, bounds.max_cycle) + 1):
            n = total - m
            if n <= bounds.max_prefix:
                found += search.results(n, m)
    return found


def pareto_front(seqs: list[InstrSeq]) -> list[InstrSeq]:
    """The members whose mechanistic behavior no other member strictly
    improves, in input order with repeats kept.

    Each member is extracted once, and its graph is numbered on first
    sight; equal graphs are bisimilar, so members that share a graph share
    its fate.  The distinct graphs then pass through a window of the
    preorder's classes that no graph seen so far strictly improves.  A
    class is held as its first graph's delay resolution, whether every
    member is bisimilar to that graph, and its members.  One relation walk
    against each window class places a new graph: it joins the class it
    improves both ways, it is dropped if a class strictly improves it, and
    it removes every class it strictly improves.  Strict improvement
    between classes is a strict partial order, so window classes never
    compare and the result does not depend on the order of arrival.  The
    front is the members of the window classes whose members are all
    bisimilar.  The cost is one extraction per member plus one walk per
    distinct graph per window class it meets, never more than one walk per
    pair of distinct graphs: for ``P = a . P`` over ``{a}``, the 1,456
    graphs at (3,2) take 0.12 s, not 6.0 s, and the 2,269 at (2,3) 0.14 s,
    not 13.2 s.  Bisimilar members can still have distinct graphs, such as
    those of ``(a)^w`` and ``(a;a)^w``.  Known limitation: two members that
    improve each other without being bisimilar drop each other, so the
    front can come out empty.
    """
    graphs = [extract_mechanistic(s) for s in seqs]
    ids: dict[ThreadGraph, int] = {}
    gids = [ids.setdefault(g, len(ids)) for g in graphs]
    window: list[list] = []  # [resolution, pure, graph ids] per class
    for i, h in enumerate(ids):
        hr = _delay_resolution(h)
        kept = []
        for cls in window:
            # forward: the class improves h; backward: h improves the class
            _, forward, backward, exact = _walk_resolutions(cls[0], hr)
            if forward:
                if backward:
                    cls[1] &= exact
                    cls[2].append(i)
                break  # h compares with no other window class
            if not backward:
                kept.append(cls)
        else:
            window = kept + [[hr, True, [i]]]
    front = {i for _, pure, members in window if pure for i in members}
    return [s for s, i in zip(seqs, gids) if i in front]
