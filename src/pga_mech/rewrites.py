"""Verified rewrites on instruction sequences and code generation.

``unchain``, ``eliminate_jump_to_termination`` and ``improve_step`` return
each step with its evidence: the verdict of comparing the mechanistic
behavior after against the one before.  ``rewrite_negtest_jump`` checks
that the behavior is unchanged, and ``codegen`` that the thread improves
the behavior of the sequence it emits.  A verified rewrite that would
worsen or change the functional behavior raises instead of returning —
rules are verified, not trusted.  ``splice``, ``expand_test_chain`` and
``unroll`` are unverified building blocks.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .extraction import extract_mechanistic
from .instructions import (
    JUMP,
    NEG_TEST,
    POS_TEST,
    TERMINATION,
    TERMINATE,
    InstrSeq,
    Instruction,
    _chase,
    _successors,
    canonical_position,
    instruction_at,
    jump,
    jump_target,
    neg_test,
    pos_test,
    reachable_positions,
)
from .ordering import (_FORWARD, _IMPROVING, ComparisonVerdict, _walk_resolutions, compare,
                       is_implementation)
from .threads import (
    D,
    POST,
    S,
    ThreadGraph,
    _delay_resolution,
    _has_delay,
)

__all__ = [
    "RewriteError",
    "RewriteStep",
    "RewriteVerificationError",
    "codegen",
    "eliminate_jump_to_termination",
    "expand_test_chain",
    "improve_step",
    "rewrite_negtest_jump",
    "splice",
    "unchain",
    "unroll",
]


class RewriteError(ValueError):
    """A rewrite precondition does not hold."""


class RewriteVerificationError(RuntimeError):
    """A rewrite produced a sequence that fails its post-hoc comparison."""


@dataclass(frozen=True)
class RewriteStep:
    """One named, position-addressed transformation with its evidence."""

    rule: str
    site: int
    before: InstrSeq
    after: InstrSeq
    evidence: ComparisonVerdict

    def __post_init__(self) -> None:
        if self.evidence not in _IMPROVING:
            raise RewriteVerificationError(
                f"rewrite {self.rule!r} at {self.site} yielded verdict "
                f"{self.evidence.value!r}")


def _jump(counter: int) -> Instruction:
    """The jump of a counter that a rewrite computed; a counter that
    ``jump`` rejects, one too long to print, is a ``RewriteError``."""
    try:
        return jump(counter)
    except ValueError as exc:
        raise RewriteError(f"cannot write the rewritten jump: {exc}") from None


def _edit(seq: InstrSeq, at: int, count: int, new: tuple[Instruction, ...],
          code: tuple[Instruction, ...] | None = None) -> InstrSeq:
    """Replace the ``count`` instructions from canonical position ``at`` of
    the flat code ``prefix + cycle`` (or of ``code``, of the same length)
    by ``new``; the part that holds ``at`` takes up the change in length."""
    if code is None:
        code = seq.prefix + (seq.cycle or ())
    n = seq.prefix_len + (len(new) - count if at < seq.prefix_len else 0)
    code = code[:at] + new + code[at + count:]
    return InstrSeq(code[:n], None if seq.cycle is None else code[n:])


def _reachable(seq: InstrSeq) -> list[tuple[int, Instruction]]:
    """The reachable positions with their instructions, in position order."""
    return [(p, instruction_at(seq, p)) for p in sorted(reachable_positions(seq))]


# --- jump unchaining ---------------------------------------------------------

def _first_jump_onto(seq: InstrSeq, kind: str) -> int | None:
    """The first reachable jump that lands on an instruction of ``kind`` at
    another position."""
    for p, ins in _reachable(seq):
        if ins.kind != JUMP:
            continue
        t = jump_target(seq, p)
        if isinstance(t, int) and t != p and instruction_at(seq, t).kind == kind:
            return p
    return None


def _resolve_chain(seq: InstrSeq, p: int) -> InstrSeq:
    """Rewrite the chained jump at ``p`` to land directly.  A chain ending
    in divergence becomes #0 from the prefix and a full-cycle self-jump
    from inside the cycle (that keeps the delay loop a delay loop)."""
    code = seq.prefix + (seq.cycle or ())
    passed: set[int] = set()
    t = _chase(code, seq.prefix_len, seq.cycle_len, p, passed=passed)
    if t is None or code[t].kind != JUMP:
        k = sum(code[q].counter for q in passed)
    elif t in passed and p >= seq.prefix_len:  # a cycle of jumps
        k = seq.cycle_len
    else:
        k = 0
    return _edit(seq, p, 1, (_jump(k),))


def _jumps_onto(seq: InstrSeq, kind: str,
                rewrite) -> Iterator[tuple[int, InstrSeq, InstrSeq]]:
    """Apply ``rewrite(seq, p)`` to the first reachable jump onto ``kind``
    until none is left, yielding ``(site, before, after)`` per step,
    unverified."""
    while (p := _first_jump_onto(seq, kind)) is not None:
        after = rewrite(seq, p)
        yield p, seq, after
        seq = after


def _rewrite_jumps_onto(seq: InstrSeq, kind: str, rule: str,
                        rewrite) -> tuple[InstrSeq, list[RewriteStep]]:
    """The run of ``_jumps_onto``, verifying each step against the one
    before: each sequence of the run is extracted once."""
    steps: list[RewriteStep] = []
    graph = None
    for p, before, after in _jumps_onto(seq, kind, rewrite):
        if graph is None:
            graph = extract_mechanistic(before)
        after_graph = extract_mechanistic(after)
        steps.append(RewriteStep(rule, p, before, after, compare(after_graph, graph)))
        seq, graph = after, after_graph
    return seq, steps


def _terminate_at(seq: InstrSeq, p: int) -> InstrSeq:
    """Replace the jump at ``p`` by ``!``."""
    return _edit(seq, p, 1, (TERMINATE,))


def unchain(seq: InstrSeq) -> tuple[InstrSeq, list[RewriteStep]]:
    """Remove chained jumps: afterwards no reachable jump lands on a jump at
    another position.  Each step carries its verified evidence."""
    return _rewrite_jumps_onto(seq, JUMP, "unchain", _resolve_chain)


def eliminate_jump_to_termination(seq: InstrSeq) -> tuple[InstrSeq, list[RewriteStep]]:
    """Replace every reachable jump that lands on ``!`` by ``!`` itself."""
    return _rewrite_jumps_onto(seq, TERMINATION, "eliminate-jump-to-termination",
                               _terminate_at)


# --- local shape rewrites ----------------------------------------------------

def _region_span(seq: InstrSeq, p: int, length: int) -> tuple[Instruction, ...]:
    """The ``length`` instructions from ``p``; rejects spans that leave the
    prefix or wrap around the cycle."""
    n = seq.prefix_len
    if p >= n and seq.cycle is None:
        raise RewriteError("span starts past the end of a finite sequence")
    if p + length > (n if p < n else seq.total_len):
        raise RewriteError("span crosses prefix/cycle boundary")
    return seq.prefix[p:p + length] if p < n else seq.cycle[p - n:p - n + length]


def rewrite_negtest_jump(seq: InstrSeq, p: int) -> InstrSeq:
    """Turn ``-b;!;#k`` at ``p`` into ``+b;#(k+1);!``.

    Requires that no reachable control transfer lands inside the span
    (positions p+1 and p+2); the same runs then execute the same jumps, so
    the mechanistic behavior is unchanged, which is verified.
    """
    p = canonical_position(seq, p)
    i0, i1, i2 = _region_span(seq, p, 3)
    if (i0.kind != NEG_TEST or i1.kind != TERMINATION
            or i2.kind != JUMP or i2.counter < 1):
        raise RewriteError("site does not match the negative-test/termination/jump shape")
    interior = {p + 1, p + 2}
    for q, ins in _reachable(seq):
        if q != p and any(canonical_position(seq, t) in interior
                          for t in _successors(q, ins)):
            raise RewriteError("a jump targets the rewritten span" if ins.kind == JUMP
                               else "a test skips into the rewritten span")
    after = _edit(seq, p, 3, (pos_test(i0.action), _jump(i2.counter + 1), TERMINATE))
    verdict = compare(extract_mechanistic(after), extract_mechanistic(seq))
    if verdict is not ComparisonVerdict.EQUAL:
        raise RewriteVerificationError(
            f"negative-test rewrite at {p} changed behavior: {verdict.value}")
    return after


def unroll(seq: InstrSeq) -> InstrSeq:
    """Double the repeating part; the unfolding is unchanged."""
    if seq.cycle is None:
        raise RewriteError("finite sequence has no repetition")
    return InstrSeq(seq.prefix, seq.cycle + seq.cycle)


def splice(seq: InstrSeq, at: int, remove_count: int,
           replacement: tuple[Instruction, ...] | list[Instruction]) -> InstrSeq:
    """Replace ``remove_count`` instructions starting at ``at`` and
    recompute every other jump counter so its target is preserved under the
    position shift.  Jumps from outside into the removed span are errors."""
    at = canonical_position(seq, at)
    replacement = tuple(replacement)
    if remove_count < 0:
        raise RewriteError("negative removal count")
    _region_span(seq, at, remove_count)
    n, m = seq.prefix_len, seq.cycle_len
    in_prefix = at < n
    delta = len(replacement) - remove_count
    span_start, span_end = at, at + remove_count

    if in_prefix:
        if n + delta == 0 and seq.cycle is None:
            raise RewriteError("splice would empty the sequence")
    else:
        if m + delta == 0:
            raise RewriteError("splice would empty the repeating part")
    new_m = m + delta if not in_prefix else m

    def map_pos(x: int) -> int:
        return x if x < span_start else x + delta

    def remap(pos: int, ins: Instruction) -> Instruction:
        if ins.kind != JUMP or ins.counter == 0 or span_start <= pos < span_end:
            return ins
        target = pos + ins.counter
        copies = (target - n) // m if target >= n and m else 0
        canon_t = target - copies * m
        if span_start <= canon_t < span_end:
            raise RewriteError("jump into spliced region")
        # the target keeps its order relative to the jump under map_pos, and
        # a wrapped target gains a whole new cycle length per copy: k >= 1
        return _jump(map_pos(canon_t) + copies * new_m - map_pos(pos))

    code = seq.prefix + (seq.cycle or ())
    return _edit(seq, at, remove_count, replacement,
                 tuple(remap(pos, ins) for pos, ins in enumerate(code)))


def expand_test_chain(seq: InstrSeq, p: int, r: int, new_target: int) -> InstrSeq:
    """Replace ``+b;#k;!`` at ``p`` by ``r`` copies of ``-b;!`` followed by
    ``+b;#k';!`` whose jump lands on ``new_target`` (a test on the same
    action).  Passing ``new_target == p`` retargets the next cycle copy of
    the replaced site itself.  Flyover jumps are recomputed by ``splice``.
    """
    p = canonical_position(seq, p)
    if r < 1:
        raise RewriteError("expansion count must be at least 1")
    i0, i1, i2 = _region_span(seq, p, 3)
    if (i0.kind != POS_TEST or i1.kind != JUMP or i1.counter < 1
            or i2.kind != TERMINATION):
        raise RewriteError("site does not match the test/jump/termination shape")
    action = i0.action
    t = canonical_position(seq, new_target)
    if t != p:
        t_ins = instruction_at(seq, t)
        if (t_ins is None or t_ins.kind not in (POS_TEST, NEG_TEST)
                or t_ins.action != action):
            raise RewriteError("newTarget does not hold a matching test")
    n, m = seq.prefix_len, seq.cycle_len
    delta = 2 * r
    new_m = m if p < n else m + delta
    jump_pos_new = p + 2 * r + 1
    # the image of the target under the shift, moved into the first cycle
    # copy ahead of the new jump; the replaced site's image is its start
    target_new = t if t <= p else t + delta
    if t >= n and m:
        while target_new <= jump_pos_new:
            target_new += new_m
    elif target_new <= jump_pos_new:
        raise RewriteError("newTarget must lie ahead of the expanded site")
    k_prime = target_new - jump_pos_new
    replacement = (neg_test(action), TERMINATE) * r + (pos_test(action), _jump(k_prime), TERMINATE)
    return splice(seq, p, 3, replacement)


# --- improvement search ------------------------------------------------------

def _candidates(seq: InstrSeq) -> Iterator[tuple[str, int, InstrSeq]]:
    """The rewrite catalog's candidates for ``seq`` as (rule, site,
    candidate), built one at a time in the order ``improve_step`` tries
    them."""
    # the two jump rules run unverified here: improve_step verifies each
    # candidate itself, so per-step evidence would be thrown away; a run
    # that computes a counter it cannot write gives no candidate
    for rule, kind, rewrite in (("unchain", JUMP, _resolve_chain),
                                ("eliminate-jump-to-termination", TERMINATION, _terminate_at)):
        try:
            run = list(_jumps_onto(seq, kind, rewrite))
        except RewriteError:
            continue
        if run:
            yield rule, run[0][0], run[-1][2]
    for base in (seq,) if seq.cycle is None else (seq, unroll(seq)):
        reachable = _reachable(base)
        for p, site in reachable:
            if site.kind != POS_TEST:
                continue
            for t, ins in reachable:
                if ins.kind not in (POS_TEST, NEG_TEST) or ins.action != site.action:
                    continue
                for r in range(1, base.total_len + 1):
                    # expand_test_chain rejects a non-site or a pair that
                    # cannot splice whatever r is, so the first error ends it
                    try:
                        candidate = expand_test_chain(base, p, r, t)
                    except RewriteError:
                        break
                    yield "expand-test-chain", p, candidate


def improve_step(seq: InstrSeq) -> tuple[InstrSeq, RewriteStep] | None:
    """Search the rewrite catalog for the first strict improvement of the
    mechanistic behavior; None when the catalog finds nothing.

    The catalog order, with no candidate built once an earlier one is
    accepted: 1. unchain; 2. eliminate-jump-to-termination;
    3. expand-test-chain for each ``+b;#k;!`` site x matching test x ``r``
    = 1 up to the length, first on the sequence and then on its unrolling.
    ``expand_test_chain`` decides once per (site, target) whether it
    splices: what it rejects, it rejects for every ``r``.
    The unrolled pass is kept because it expands a cycle site's second copy
    alone, and that can be the only strict improvement: in
    ``+a;#4;!;(-b;!;+b;#4;!;#3;#1)^w`` the prefix jumps onto the site's
    first copy, so no expansion of the sequence itself splices.
    Each candidate costs an extraction and a walk over the product of its
    delay resolution with the sequence's, resolved once per step.  The
    walk stops at the first edge where the candidate spends more delays:
    on small random sequences a losing candidate stops after a fraction
    of its graph, but on long members of the ``(+a;#4;+b;#4;!)^w`` chain,
    which differ only late, it visits nearly all of it.
    ``rewrite_negtest_jump`` followed by unchain is not tried: its result
    is bisimilar to unchain's (the moved jump is entered only from its test
    and lands where the old one did), so it never improves when unchain
    does not.
    """
    before = _delay_resolution(extract_mechanistic(seq))
    for rule, site, candidate in _candidates(seq):
        # forward implies functional and exact implies backward, so the
        # candidate strictly improves exactly when forward and not backward
        _, forward, backward, _ = _walk_resolutions(
            _delay_resolution(extract_mechanistic(candidate)), before, _FORWARD)
        if forward and not backward:
            return candidate, RewriteStep(rule, site, seq, candidate,
                                          ComparisonVerdict.STRICTLY_IMPROVES)
    return None


# --- code generation ---------------------------------------------------------

def _layout(g: ThreadGraph) -> list[int] | None:
    """Nodes of the delay-free ``g`` in reverse postorder of a depth-first
    search from the root, or None when the search meets a cycle."""
    # successors walked last-to-first so the reversed postorder lays the
    # true branch out before the false branch
    rows = g._rows
    order: list[int] = []
    state = [0] * len(rows)  # 0 unseen, 1 on the stack, 2 done
    stack: list[tuple[int, int]] = [(g.root, 0)]
    state[g.root] = 1
    while stack:
        node, edge = stack[-1]
        kind, _, _, t, f = rows[node]
        succs = (f, t) if kind == POST else ()
        if edge == len(succs):
            state[node] = 2
            order.append(node)
            stack.pop()
            continue
        stack[-1] = (node, edge + 1)
        s = succs[edge]
        if state[s] == 1:
            return None
        if state[s] == 0:
            state[s] = 1
            stack.append((s, 0))
    order.reverse()
    return order


def codegen(p: ThreadGraph) -> InstrSeq:
    """Emit a fixed-width three-instruction block per node: ``!;!;!`` for S,
    ``#0;#0;#0`` for D, and ``+a;#jt;#jf`` for a branch, with jump counters
    wrapping through the repetition when the graph is cyclic.  The output
    is verified: unless it implements ``p`` (``is_implementation``),
    ``RewriteVerificationError`` is raised."""
    if _has_delay(p):
        raise RewriteError("thread contains delays")
    order = _layout(p)
    cyclic = order is None
    if cyclic:
        order = list(range(len(p)))
    block = {node: i for i, node in enumerate(order)}
    total = 3 * len(order)
    out: list[Instruction] = []
    for node_id in order:
        kind, action, _, t, f = p._rows[node_id]
        base = 3 * block[node_id]
        if kind == S:
            out.extend((TERMINATE, TERMINATE, TERMINATE))
        elif kind == D:
            out.extend((jump(0), jump(0), jump(0)))
        else:
            jt = 3 * block[t] - (base + 1)
            jf = 3 * block[f] - (base + 2)
            if jt <= 0:
                jt += total
            if jf <= 0:
                jf += total
            out.extend((pos_test(action), jump(jt), jump(jf)))
    seq = InstrSeq((), tuple(out)) if cyclic else InstrSeq(tuple(out))
    if not is_implementation(seq, p):
        raise RewriteVerificationError("generated sequence failed its self-check")
    return seq
