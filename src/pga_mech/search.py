"""Bounded implementation search.

``search_implementations`` lists every instruction sequence within given
bounds that a behavior implements.  The search walks the minimal delay-free
target along each partial sequence and assigns a slot only when the walk
reaches it, so slots that no run executes are enumerated only when results
are emitted, under an explicit budget.  Exact prunes cut the walk without
changing its results.  The target is minimized.  A walk that pairs a slot
with two target nodes fails at once, since two nodes of a minimal graph are
never bisimilar, and so does a walk whose items wait on one unassigned slot
at two nodes.  One function, ``_classes``, decides which options fit a slot
and how they group.  An action instruction fits only where its replies fit
the node's successors: replies that reach one slot need one successor, and
a reply that runs off the end needs D.  Away from D, a jump fits only where
it does not deadlock at once.  Options that send every run to the same
slots, one delay per executed jump whatever its counter, are
interchangeable: the walk branches once per class of them and emits every
member.  By pigeonhole, a branch is dropped when the target's S and post
nodes not yet paired outnumber the slots left to pair them with, and a
shape with fewer slots than those nodes is skipped.  The
``max_candidates`` budget is one count across all shapes.

``pareto_front`` keeps the results whose mechanistic behavior no other
result strictly improves.  It is a skyline over the improvement preorder's
classes.  A list from one finished walk, or of one member, is its own front
and needs no extraction.  Otherwise there is one extraction per result, or
per finished walk for the list the search returned, then one relation walk
per distinct mechanistic graph per class still in the window of classes
that nothing seen so far strictly improves, never more than one walk per
pair of distinct graphs.  For ``P = a . P`` over ``{a}`` at (3,2) and (2,3)
that is 0.02 s and 0.03 s, where an extraction per result took 0.11 s and
0.15 s and a walk per pair 6.0 s and 13.2 s.  Distinct graphs can
outnumber the distinct behaviors: ``(a)^w`` and ``(a;a)^w`` are bisimilar
but have different graphs.  Known limitation: two results that improve
each other without being bisimilar drop each other, so the front can come
out empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product, repeat
from math import prod
from operator import is_

from .extraction import extract_mechanistic
from .instructions import (
    JUMP,
    TERMINATE,
    TERMINATION,
    InstrSeq,
    Instruction,
    _branches,
    _chase,
    _check_action,
    _slot,
    basic,
    jump,
    neg_test,
    pos_test,
)
from .ordering import _walk_resolutions, is_implementation
from .threads import (
    D,
    POST,
    S,
    ThreadGraph,
    _delay_resolution,
    _has_delay,
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
            _check_action(action)


@cache
def _slot_options(total: int, alphabet: tuple[str, ...]) -> tuple[Instruction, ...]:
    # jump counters above the total length only duplicate smaller ones
    # (falling off the end / wrapping the cycle), so the universe is
    # complete with counters up to the candidate's length
    return (*(basic(a) for a in alphabet), *(pos_test(a) for a in alphabet),
            *(neg_test(a) for a in alphabet), TERMINATE,
            *(jump(k) for k in range(total + 1)))


@cache
def _classes(n: int, m: int, s: int, kind: str, action: str | None, t_d: bool, f_d: bool,
             same: bool, alphabet: tuple[str, ...]) -> tuple[tuple[int, ...], ...]:
    """The options that fit slot ``s`` of prefix length ``n`` and cycle
    length ``m``, as indices into ``_slot_options(n + m, alphabet)``,
    grouped by their effect there, each class and its members in ascending
    order.  The slot is reached at a target node of ``kind`` and ``action``
    whose true and false successors are D (``t_d``, ``f_d``) and are one
    node (``same``).

    ``!`` fits at S and is a class of its own.  Every jump fits at D;
    elsewhere a jump fits unless it deadlocks at once, by running off the
    end or landing back on ``s`` as ``#0`` does.  A jump's effect is
    whether its counter is nonzero and the canonical slot it lands on.  At
    D, ``#0`` and a jump off the end both end the run, but the first gives
    D and the second a delay in front of it, so their classes differ.

    At a post node an action instruction on its action fits where its
    replies fit the successors, and its effect is the canonical slots of
    its true and false replies.  Replies that reach one slot need one
    successor, since a slot pairs with one target node; this rules out a
    basic action at a branching node and a test in a one-slot cycle.  A
    reply that runs off the end needs D.

    Members of a class send every run to the same slots at the same cost,
    one delay per executed jump whatever its counter, so they give the
    same walk and the same mechanistic graph."""
    classes: dict[tuple, list[int]] = {}
    for i, ins in enumerate(_slot_options(n + m, alphabet)):
        if ins.kind == JUMP:
            land = _slot(n, m, s + ins.counter)
            if kind != D and land in (None, s):
                continue
            effect = (JUMP, ins.counter > 0, land)
        elif ins.kind == TERMINATION:
            if kind != S:
                continue
            effect = (TERMINATION,)
        elif kind == POST and ins.action == action:
            t, f = (_slot(n, m, q) for q in _branches(s, ins))
            if not ((same or t != f) and (t_d or t is not None) and (f_d or f is not None)):
                continue
            effect = (POST, action, t, f)
        else:
            continue
        classes.setdefault(effect, []).append(i)
    return tuple(map(tuple, classes.values()))


class _ShapeSearch:
    """Demand-driven enumeration of the sequences that ``p`` improves:
    ``results(n, m)`` lists those of prefix length ``n`` and cycle length
    ``m``.  The target's facts, the budget's count and the numbering of
    finished walks span all shapes.

    The minimal delay-free target is walked along the partial sequence from
    position 0 and node 0, the target's root, jumps transparent, pairing
    positions with target nodes.  Each slot pairs with one target node, and
    each S or post node of the target needs a slot of its own; D needs none,
    as ``#0``, running off the end or a cycle of jumps gives it.  A slot
    stands for one target node even before it is assigned, so walk items
    that wait on one unassigned slot at two nodes fail the walk at once.
    A slot is branched on once per class of ``_classes``, as its first
    member; the other members give the same walk.  Slots the finished walk
    never reached are don't-cares: no run executes them.  Every sequence a
    finished walk stands for, any member of each assigned slot's class and
    any option in each don't-care, has one mechanistic graph.  ``check``
    is the behavior each finished walk is checked to improve on, or None
    when the walk alone decides.  ``walk_of`` holds the number of the
    finished walk of each result returned so far.

    Invariant: ``slots`` and ``picks`` are the one record of the choices,
    assigned and cleared together: ``picks[s]`` is the class assigned to
    slot ``s`` and ``slots[s]`` its first member, or both are None where
    unassigned.  A slot is assigned only when the walk reaches it, to a
    class ``_classes`` offers at the target node there, and the next walk
    meets it first, at that node, so the walk never checks a slot's fit.
    """

    def __init__(self, p: ThreadGraph, alphabet: tuple[str, ...],
                 max_candidates: int | None) -> None:
        delayed = _has_delay(p)
        # a delay-free p spends no delay anywhere, so improving on it is
        # functional equivalence, which every finished walk has established
        self.check = p if delayed else None
        # on a delay-free p, functional abstraction only merges D nodes,
        # which minimize merges as well
        target = minimize(functional_abstraction(p) if delayed else p)
        self.trows, self.alphabet = target._rows, alphabet
        self.kinds = [row[0] for row in self.trows]
        self.max_candidates, self.spent = max_candidates, 0
        self.walks, self.walk_of = 0, []
        # pigeonhole: each S or post node of the target needs a slot of its own
        self.need = sum(kind != D for kind in self.kinds)
        # each node's arguments to ``_classes``: kind, action, whether its
        # true and false successors are D and whether they are one node
        self.facts = [
            (kind, action, False, False, False) if kind != POST else
            (POST, action, self.kinds[t] == D, self.kinds[f] == D, t == f)
            for kind, action, _, t, f in self.trows]

    def results(self, n: int, m: int) -> list[InstrSeq]:
        """Every matching sequence of the shape, by option indices."""
        self.n, self.m = n, m
        self.options = options = _slot_options(n + m, self.alphabet)
        self.slots: list[Instruction | None] = [None] * (n + m)
        self.picks: list[tuple[int, ...] | None] = [None] * (n + m)
        self.keys: list[tuple[tuple[int, ...], int]] = []  # (option indices, walk)
        self._walk({}, [(0, 0)])
        seq = InstrSeq._trusted
        out = []
        for key, walk in sorted(self.keys):
            ins = [options[c] for c in key]
            out.append(seq(tuple(ins[:n]), tuple(ins[n:]) if m else None))
            self.walk_of.append(walk)
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
        slots, kinds, n, m = self.slots, self.kinds, self.n, self.m
        waiting: dict[int, int] = {}
        while stack:
            start, tnode = stack.pop()
            s = _chase(slots, n, m, start)
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
                _, _, _, node_t, node_f = self.trows[tnode]
                t, f = _branches(s, ins)
                stack.append((t, node_t))
                stack.append((f, node_f))
        if not waiting:
            self._emit()
            return
        first, tnode = next(iter(waiting.items()))
        # pigeonhole: each unpaired S or post node needs a free slot of its
        # own, and slot ``first`` can serve only its node, only as a non-jump
        options, picks = self.options, self.picks
        paired = set(seen.values())
        free = picks.count(None) - 1
        unpaired = self.need - len(paired)
        jumps = unpaired <= free
        others = unpaired - (kinds[tnode] != D and tnode not in paired) <= free
        items = [*reversed(waiting.items())]
        for members in _classes(n, m, first, *self.facts[tnode], self.alphabet):
            ins = options[members[0]]
            if jumps if ins.kind == JUMP else others:
                slots[first], picks[first] = ins, members
                self._walk(dict(seen), items.copy())
        slots[first] = picks[first] = None

    def _emit(self) -> None:
        """Check the finished walk once and record, as one walk, every
        sequence it stands for: each assigned slot filled with any member
        of its class and each don't-care with any option.  The budget
        counts what a walk per member would: a failed check one per
        combination of class members."""
        n, m, options, picks = self.n, self.m, self.options, self.picks
        if self.check is not None:
            probe = [ins or options[0] for ins in self.slots]
            seq = InstrSeq._trusted(tuple(probe[:n]), tuple(probe[n:]) if m else None)
            if not is_implementation(seq, self.check):
                self._spend(prod(len(c) for c in picks if c is not None))
                return
        every = range(len(options))
        choices = [every if c is None else c for c in picks]
        self._spend(prod(map(len, choices)))
        self.keys += zip(product(*choices), repeat(self.walks))
        self.walks += 1


class _Found(list):
    """The results of ``search_implementations``, which remember the
    finished walk each came from: the results of one walk share one
    mechanistic graph.  ``record`` holds the results as returned and the
    number of each one's walk; ``_walks`` trusts it only while the list
    still holds those results in that order."""

    def __init__(self, seqs: list[InstrSeq], walks: list[int]) -> None:
        super().__init__(seqs)
        self.record = (tuple(seqs), walks)


def _walks(seqs: list[InstrSeq]) -> list[int] | range:
    """A number per member of ``seqs`` that is shared only by members with
    one mechanistic graph: the finished walk of each, as the search
    recorded it, or else a number of its own."""
    if isinstance(seqs, _Found):
        members, walks = seqs.record
        if len(members) == len(seqs) and all(map(is_, members, seqs)):
            return walks
    return range(len(seqs))


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
    is skipped.  Options whose replies or landings reach the same slots,
    such as ``#2`` and ``#3`` off the end or ``a``, ``+a`` and ``-a`` with
    both replies at one slot, are walked once for all of them, and each is
    returned.  These prunes drop only branches that can never finish, so
    the results, their order and the budget's count are those of the
    unpruned walk.

    ``max_candidates`` bounds the sequences checked or emitted (a failed
    check counts one, a passed one every sequence it emits); the search
    raises ``SearchBudgetExceeded`` before exceeding it.  None means no
    bound.  The list returned also records which results share a finished
    walk, and so a mechanistic graph, which ``pareto_front`` uses while
    the list is unchanged.
    """
    search = _ShapeSearch(p, tuple(sorted(set(bounds.alphabet))), max_candidates)
    found: list[InstrSeq] = []
    for total in range(max(1, search.need), bounds.max_prefix + bounds.max_cycle + 1):
        for m in range(0, min(total, bounds.max_cycle) + 1):
            n = total - m
            if n <= bounds.max_prefix:
                found += search.results(n, m)
    return _Found(found, search.walk_of)


def pareto_front(seqs: list[InstrSeq]) -> list[InstrSeq]:
    """The members whose mechanistic behavior no other member strictly
    improves, in input order with repeats kept.

    Members of one finished walk share one mechanistic graph, so a list
    whose members all come from one walk, as ``search_implementations``
    recorded it, or that has one member, is its own front and is returned
    as it stands, with nothing extracted.  Otherwise each member is
    extracted once, or once per finished walk for a list as
    ``search_implementations`` returned it, and its graph is numbered on
    first sight; equal graphs are bisimilar, so members that share a graph
    share its fate.  The distinct graphs then pass through a window of the
    preorder's classes that no graph seen so far strictly improves.  A
    class is held as its first graph's delay resolution, whether every
    member is bisimilar to that graph, and its members.  One relation walk
    against each window class places a new graph: it joins the class it
    improves both ways, it is dropped if a class strictly improves it, and
    it removes every class it strictly improves.  Strict improvement
    between classes is a strict partial order, so window classes never
    compare and the result does not depend on the order of arrival.  The
    front is the members of the window classes whose members are all
    bisimilar.  The cost is one extraction per member, or per walk, plus
    one walk per distinct graph per window class it meets, never more than
    one walk per pair of distinct graphs: for ``P = a . P`` over ``{a}``,
    the 20,337 results at (3,2), from 2,138 walks and with 1,456 graphs,
    take 0.02 s, not 6.0 s, and the 21,057 at (2,3), from 3,888 walks and
    with 2,269 graphs, 0.03 s, not 13.2 s.  Bisimilar members can still
    have distinct graphs, such as those of ``(a)^w`` and ``(a;a)^w``.
    Known limitation: two members that improve each other without being
    bisimilar drop each other, so the front can come out empty.
    """
    walks = _walks(seqs)
    if len(set(walks)) < 2:
        return list(seqs)  # one walk, one graph: nothing to compare
    ids: dict[ThreadGraph, int] = {}
    by_walk: dict[int, int] = {}  # finished walk: graph id
    gids = []
    for s, walk in zip(seqs, walks):
        gid = by_walk.get(walk)
        if gid is None:
            gid = by_walk[walk] = ids.setdefault(extract_mechanistic(s), len(ids))
        gids.append(gid)
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
