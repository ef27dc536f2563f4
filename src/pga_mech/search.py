"""Bounded implementation search.

``search_implementations`` lists every instruction sequence within given
bounds that a behavior implements.  The search walks the delay-free target
along each partial sequence and assigns a slot only when the walk reaches
it, so slots that no run executes are enumerated only when results are
emitted, under an explicit budget.

``pareto_front`` keeps the results whose mechanistic behavior no other
result strictly improves.  It costs one extraction per result plus one
comparison per pair of distinct mechanistic graphs, which can outnumber the
distinct behaviors: ``(a)^w`` and ``(a;a)^w`` are bisimilar but have
different graphs.  Known limitation: two results
that improve each other without being bisimilar drop each other, so the
front can come out empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations, product

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
from .ordering import _walk, improves
from .threads import D, DELAY, POST, S, ThreadGraph, functional_abstraction

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


def _fits(ins: Instruction, kind: str, action: str | None) -> bool:
    """Whether a non-jump instruction can stand where the delay-free target
    is at a node of ``kind`` and ``action``: ``!`` at S, an action
    instruction on the node's action at a post node, nothing at D."""
    if ins.kind == TERMINATION:
        return kind == S
    return kind == POST and action == ins.action


@cache
def _allowed(n: int, m: int, s: int, kind: str, action: str | None,
             alphabet: tuple[str, ...]) -> tuple[int, ...]:
    """Indices into ``_slot_options(n + m, alphabet)`` for slot ``s`` of
    prefix length ``n`` and cycle length ``m``, reached at a target node of
    ``kind`` and ``action``: the options that fit the node, and every jump
    except, away from D, the ones that deadlock at once (#0, off the end,
    back onto ``s``)."""
    allowed = []
    for i, ins in enumerate(_slot_options(n + m, alphabet)):
        if ins.kind != JUMP:
            if _fits(ins, kind, action):
                allowed.append(i)
        elif kind == D or (ins.counter and _slot(n, m, s + ins.counter) not in (None, s)):
            allowed.append(i)
    return tuple(allowed)


class _ShapeSearch:
    """Demand-driven enumeration of the sequences of one shape: prefix
    length ``n`` and cycle length ``m``.

    The delay-free target is walked along the partial sequence from
    position 0, jumps transparent, pairing positions with target nodes.  A
    slot is assigned only when the walk reaches it, and only to the options
    that can match the target node there.  Slots the finished walk never
    reached are don't-cares: no run executes them.  ``check`` is the
    behavior each finished walk is checked to improve on, or None when the
    walk alone decides.
    """

    def __init__(self, check: ThreadGraph | None, target: ThreadGraph, n: int, m: int,
                 alphabet: tuple[str, ...], spend) -> None:
        self.check, self.target, self.tnodes = check, target, target.nodes
        self.n, self.m, self.alphabet, self.spend = n, m, alphabet, spend
        self.options = _slot_options(n + m, alphabet)
        self.slots: list[Instruction | None] = [None] * (n + m)
        self.chosen = [-1] * (n + m)  # option index per slot, -1 unassigned
        self.keys: list[tuple[int, ...]] = []

    def results(self) -> list[InstrSeq]:
        """Every matching sequence of the shape, by option indices."""
        self._walk(set(), [(0, self.target.root)])
        n, out = self.n, []
        for key in sorted(self.keys):
            ins = [self.options[c] for c in key]
            out.append(InstrSeq(tuple(ins[:n]), tuple(ins[n:]) if self.m else None))
        return out

    def _walk(self, seen: set[tuple[int, int]], stack: list[tuple[int, int]]) -> None:
        """Continue the walk from ``stack`` (position, target node) items,
        then branch on the first unassigned slot it reached, or emit."""
        # an item that lands on an unassigned slot waits in ``pending``
        # while the rest of the walk looks for a mismatch
        slots, n, m = self.slots, self.n, self.m
        pending: list[tuple[int, int, int]] = []
        while stack:
            start, tnode = stack.pop()
            s = _chase(slots, n, m, start)
            node = self.tnodes[tnode]
            ins = None if s is None else slots[s]
            if ins is None and s is not None:  # an unassigned slot
                pending.append((s, start, tnode))
                continue
            if ins is None or ins.kind == JUMP:  # off the end, #0 or a cycle of jumps
                if node.kind != D:
                    return
                continue
            if (s, tnode) in seen:
                continue
            seen.add((s, tnode))
            if not _fits(ins, node.kind, node.action):
                return
            if ins.kind != TERMINATION:
                t, f = _branches(s, ins)
                stack.append((t, node.true))
                stack.append((f, node.false))
        if not pending:
            self._emit()
            return
        s, _, tnode = pending[0]
        resume = [(start, t) for _, start, t in reversed(pending)]
        node = self.tnodes[tnode]
        for i in _allowed(n, m, s, node.kind, node.action, self.alphabet):
            self.slots[s], self.chosen[s] = self.options[i], i
            self._walk(set(seen), list(resume))
        self.slots[s], self.chosen[s] = None, -1

    def _emit(self) -> None:
        """Check the finished walk once and record every filling of its
        don't-cares."""
        n, m, options = self.n, self.m, self.options
        if self.check is not None:
            probe = [ins or options[0] for ins in self.slots]
            seq = InstrSeq(tuple(probe[:n]), tuple(probe[n:]) if m else None)
            if not improves(self.check, extract_mechanistic(seq)):
                self.spend(1, n, m)
                return
        free = [s for s, c in enumerate(self.chosen) if c < 0]
        self.spend(len(options) ** len(free), n, m)
        key = list(self.chosen)
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

    Only the slots that the walk of the delay-free ``p`` along the sequence
    reaches are branched on; a slot no run executes cannot change the
    behavior, so one improvement check covers every filling of those
    don't-cares, and each filling is returned.

    ``max_candidates`` bounds the sequences checked or emitted (a failed
    check counts one, a passed one every sequence it emits); the search
    raises ``SearchBudgetExceeded`` before exceeding it.  None means no
    bound.
    """
    target = functional_abstraction(p)
    # a delay-free p spends no delay anywhere, so improving on it is
    # functional equivalence, which every finished walk has established
    check = p if any(node.kind == DELAY for node in p.nodes) else None
    alphabet = tuple(sorted(set(bounds.alphabet)))
    spent = 0

    def spend(count: int, n: int, m: int) -> None:
        nonlocal spent
        spent += count
        if max_candidates is not None and spent > max_candidates:
            raise SearchBudgetExceeded(
                f"search exceeds max_candidates={max_candidates} sequences "
                f"checked or emitted (at prefix length {n}, cycle length {m})")

    found: list[InstrSeq] = []
    for total in range(1, bounds.max_prefix + bounds.max_cycle + 1):
        for m in range(0, min(total, bounds.max_cycle) + 1):
            n = total - m
            if n <= bounds.max_prefix:
                found += _ShapeSearch(check, target, n, m, alphabet, spend).results()
    return found


def pareto_front(seqs: list[InstrSeq]) -> list[InstrSeq]:
    """The members whose mechanistic behavior no other member strictly
    improves, in input order with repeats kept.

    Each member is extracted once and the members are grouped by graph.
    Extraction numbers nodes breadth-first and graphs compare on their
    nodes, so equal graphs are bisimilar and never strictly improve each
    other; the cost is one extraction per member plus one relation walk per
    pair of distinct graphs.  Bisimilar members can still have distinct
    graphs, such as those of ``(a)^w`` and ``(a;a)^w``.  Known limitation:
    two members that improve each other without being bisimilar drop each
    other, so the front can come out empty.
    """
    graphs = [extract_mechanistic(s) for s in seqs]
    dropped: set[ThreadGraph] = set()
    for g, h in combinations(dict.fromkeys(graphs), 2):
        # one walk decides ``strictly_improves`` both ways
        _, forward, backward, exact = _walk(g, h)
        if forward and not exact:
            dropped.add(h)
        if backward and not exact:
            dropped.add(g)
    return [s for s, g in zip(seqs, graphs) if g not in dropped]
