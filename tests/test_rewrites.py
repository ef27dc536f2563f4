import itertools
import random
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from pga_mech import (
    ComparisonVerdict,
    RewriteError,
    RewriteStep,
    RewriteVerificationError,
    SearchBounds,
    SearchBudgetExceeded,
    TERMINATE,
    basic,
    bisimilar,
    codegen,
    compare,
    eliminate_jump_to_termination,
    expand_test_chain,
    extract_functional,
    extract_mechanistic,
    functional_abstraction,
    functionally_equivalent,
    has_adjacent_delays,
    improve_step,
    improves,
    is_implementation,
    jump,
    make_d,
    make_post,
    make_prefix,
    make_s,
    minimize,
    neg_test,
    pareto_front,
    parse_pga,
    parse_thread,
    pos_test,
    print_pga,
    reachable_positions,
    rewrite_negtest_jump,
    search_implementations,
    splice,
    strictly_improves,
    unchain,
    unroll,
)
from pga_mech import rewrites, search
from pga_mech.instructions import (
    JUMP,
    NEG_TEST,
    POS_TEST,
    TERMINATION,
    InstrSeq,
    instruction_at,
)
from pga_mech.search import _ShapeSearch, _classes, _slot_options
from pga_mech.threads import D, POST, S

from helpers import chain_witnesses, random_graph, random_seq, reference_pareto_front

_SAFE = {ComparisonVerdict.EQUAL, ComparisonVerdict.STRICTLY_IMPROVES,
         ComparisonVerdict.MUTUALLY_EQUIVALENT}


def test_unchain_golden():
    out, steps = unchain(parse_pga("#2;a;#1;b;!"))
    assert print_pga(out) == "#3;a;#1;b;!"
    assert len(steps) == 1 and steps[0].site == 0
    # one chain per way a chain can end: a jump loop inside the repeating
    # part, a jump loop entered from the prefix, falling off the end
    for text, expected in (("a;(#1;#1)^w", "a;(#2;#1)^w"),
                           ("#1;(#1;#1)^w", "#0;(#1;#1)^w"),
                           ("#1;#5;a", "#6;#5;a")):
        out, steps = unchain(parse_pga(text))
        assert print_pga(out) == expected, text
        assert len(steps) == 1, text


def test_unchain_no_jumps():
    out, steps = unchain(parse_pga("a;!"))
    assert out == parse_pga("a;!") and steps == []


def test_unchain_chain_into_divergence():
    out, steps = unchain(parse_pga("#1;#0;a"))
    assert print_pga(out) == "#0;#0;a"
    assert steps[0].evidence is ComparisonVerdict.MUTUALLY_EQUIVALENT


def test_unchain_postcondition_and_safety():
    rng = random.Random(51)
    for _ in range(400):
        s = random_seq(rng)
        out, steps = unchain(s)
        for p in reachable_positions(out):
            ins = instruction_at(out, p)
            if ins.kind == JUMP and ins.counter >= 1:
                t = instruction_at(out, p + ins.counter)
                from pga_mech import canonical_position
                if t is not None and t.kind == JUMP:
                    assert canonical_position(out, p + ins.counter) == p
        assert not has_adjacent_delays(extract_mechanistic(out))
        assert improves(extract_mechanistic(out), extract_mechanistic(s))
        assert functionally_equivalent(extract_mechanistic(out), extract_mechanistic(s))
        again, more = unchain(out)
        assert again == out and not more
        # each step is verified against the step before it
        befores = [s] + [st.after for st in steps]
        assert [st.before for st in steps] == befores[:-1] and befores[-1] == out
        for step in steps:
            assert step.evidence in _SAFE
            assert step.evidence is compare(extract_mechanistic(step.after),
                                            extract_mechanistic(step.before))


def test_eliminate_jump_to_termination():
    out, steps = eliminate_jump_to_termination(parse_pga("#2;a;!"))
    assert print_pga(out) == "!;a;!"
    assert steps[0].evidence is ComparisonVerdict.STRICTLY_IMPROVES
    out, steps = eliminate_jump_to_termination(parse_pga("a;!"))
    assert print_pga(out) == "a;!" and not steps
    out, steps = eliminate_jump_to_termination(parse_pga("(+a;#4;+b;#4;!)^w"))
    assert print_pga(out) == "(+a;#4;+b;#4;!)^w" and not steps


def test_eliminate_idempotent():
    rng = random.Random(52)
    for _ in range(300):
        s = random_seq(rng)
        out, _ = eliminate_jump_to_termination(s)
        again, more = eliminate_jump_to_termination(out)
        assert again == out and not more


def test_rewrite_negtest_jump_golden():
    assert print_pga(rewrite_negtest_jump(parse_pga("-b;!;#2;c;!"), 0)) == "+b;#3;!;c;!"
    assert print_pga(rewrite_negtest_jump(parse_pga("a;-b;!;#1;!"), 1)) == "a;+b;#2;!;!"


def test_rewrite_negtest_jump_equal_behavior():
    before = parse_pga("-b;!;#2;c;!")
    after = rewrite_negtest_jump(before, 0)
    assert compare(extract_mechanistic(after), extract_mechanistic(before)) is ComparisonVerdict.EQUAL


def test_rewrite_negtest_jump_failed_verification(monkeypatch):
    # with -b emitted for +b the rewrite swaps the two replies' runs
    monkeypatch.setattr(rewrites, "pos_test", neg_test)
    with pytest.raises(RewriteVerificationError,
                       match="^negative-test rewrite at 0 changed behavior: "):
        rewrite_negtest_jump(parse_pga("-b;!;#2;c;!"), 0)


def test_rewrite_negtest_jump_errors():
    with pytest.raises(RewriteError):
        rewrite_negtest_jump(parse_pga("-b;!;a"), 0)
    with pytest.raises(RewriteError):
        rewrite_negtest_jump(parse_pga("a;b;c"), 0)
    # a jump into the interior blocks the rewrite
    with pytest.raises(RewriteError):
        rewrite_negtest_jump(parse_pga("#2;-b;!;#2;c;!"), 1)


def _plant(rng, s, site):
    """``s`` with ``site`` inserted into its prefix or its repeating part."""
    in_cycle = s.cycle is not None and rng.random() < 0.5
    code = list(s.cycle if in_cycle else s.prefix)
    i = rng.randint(0, len(code))
    code[i:i] = site
    return InstrSeq(s.prefix, tuple(code)) if in_cycle else InstrSeq(tuple(code), s.cycle)


def test_negtest_jump_then_unchain_is_bisimilar_to_unchain():
    # the moved jump is entered only from its test and lands where the old
    # one did, so unchaining resolves it to the same chain end: the negtest
    # rule followed by unchain never beats unchain, which improve_step tries
    # first
    rng = random.Random(83)
    applied = 0
    for _ in range(1500):
        s = random_seq(rng, max_prefix=5, max_cycle=5, actions=("a", "b"))
        for _ in range(rng.randint(1, 3)):
            s = _plant(rng, s, (neg_test(rng.choice("ab")), TERMINATE,
                                jump(rng.randint(1, 8))))
        unchained = extract_mechanistic(unchain(s)[0])
        for p in range(s.total_len):
            try:
                after = rewrite_negtest_jump(s, p)
            except RewriteError:
                continue
            applied += 1
            assert bisimilar(extract_mechanistic(unchain(after)[0]), unchained), (s, p)
    assert applied > 1000


def test_unroll():
    assert print_pga(unroll(parse_pga("(a)^w"))) == "(a;a)^w"
    doubled = unroll(parse_pga("(+a;#6;-b;!;+b;#4;!)^w"))
    assert doubled.cycle_len == 14
    assert bisimilar(extract_mechanistic(doubled),
                     extract_mechanistic(parse_pga("(+a;#6;-b;!;+b;#4;!)^w")))
    with pytest.raises(RewriteError):
        unroll(parse_pga("a;!"))


def test_unroll_preserves_behavior_random():
    rng = random.Random(53)
    for _ in range(200):
        s = random_seq(rng)
        if s.cycle is None:
            continue
        assert bisimilar(extract_mechanistic(unroll(s)), extract_mechanistic(s))


def test_splice_flyover_golden():
    spliced = splice(parse_pga("(+a;#4;+b;#4;!)^w"), 2, 3,
                     [neg_test("b"), TERMINATE, pos_test("b"), jump(4), TERMINATE])
    assert print_pga(spliced) == "(+a;#6;-b;!;+b;#4;!)^w"


def test_splice_identity():
    s = parse_pga("(+a;#4;+b;#4;!)^w")
    assert splice(s, 2, 3, list(s.cycle[2:5])) == s


def test_splice_jump_into_span_error():
    with pytest.raises(RewriteError):
        # slot 1's jump lands on slot 3 inside the removed span
        splice(parse_pga("#2;a;b;c;!"), 2, 2, [TERMINATE])


def test_rewrite_input_checks():
    s = parse_pga("(+a;#4;+b;#4;!)^w")
    with pytest.raises(RewriteError, match="^negative removal count$"):
        splice(s, 2, -1, [])
    with pytest.raises(RewriteError, match="^expansion count must be at least 1$"):
        expand_test_chain(s, 2, 0, 2)
    for rewrite in (lambda seq: splice(seq, 5, 0, []),
                    lambda seq: rewrite_negtest_jump(seq, 5)):
        with pytest.raises(RewriteError,
                           match="^span starts past the end of a finite sequence$"):
            rewrite(parse_pga("a;!"))


def test_rewrites_reject_a_counter_they_cannot_write():
    # each rewrite computes a counter one past the largest that ``str``
    # prints; that is a rejected rewrite, not a plain ``ValueError``
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("no limit on the digits of an int")
    nines = "#" + "9" * limit
    message = f"^cannot write the rewritten jump: jump counter has more than {limit} digits$"
    for rewrite in (lambda: unchain(parse_pga(f"#1;{nines};!")),
                    lambda: rewrite_negtest_jump(parse_pga(f"-b;!;{nines}"), 0),
                    lambda: splice(parse_pga(f"{nines};a;!"), 1, 1, (basic("b"), basic("b"))),
                    lambda: expand_test_chain(parse_pga(f"{nines};+a;#1;!;+a;!"), 1, 1, 4)):
        with pytest.raises(RewriteError, match=message):
            rewrite()
    # a jump rule that cannot write its result is no candidate
    assert improve_step(parse_pga(f"#1;{nines};!")) is None


def test_splice_keeps_jumps_forward():
    # splice's remap has no check for a reversed jump; no kept jump of
    # counter >= 1 may come out with a counter < 1
    rng = random.Random(57)
    pool = (basic("x"), TERMINATE, jump(0), jump(1), jump(3))
    spliced = 0
    for _ in range(3000):
        s = random_seq(rng, max_prefix=6, max_cycle=6)
        n, m = s.prefix_len, s.cycle_len
        at = rng.randrange(n + m)
        rc = rng.randint(0, (n if at < n else n + m) - at)
        repl = [rng.choice(pool) for _ in range(rng.randint(0, 4))]
        try:
            out = splice(s, at, rc, repl)
        except RewriteError:
            continue
        spliced += 1
        delta = len(repl) - rc
        for p in range(n + m):
            ins = instruction_at(s, p)
            if ins.kind != JUMP or ins.counter < 1 or at <= p < at + rc:
                continue
            kept = instruction_at(out, p if p < at else p + delta)
            assert kept.kind == JUMP and kept.counter >= 1, (s, at, rc, repl)
    assert spliced > 1000


def test_splice_prefix_shift():
    out = splice(parse_pga("#2;a;!"), 1, 1, [basic("b"), basic("b")])
    # prefix grew by one, the flyover jump is stretched to keep its target
    assert print_pga(out) == "#3;b;b;!"


def test_splice_remap_preserves_targets():
    # every surviving jump must land on the image of its old target, in the
    # same cycle copy; the instruction found there has the same kind and
    # action as before.  The replacement is inserted as it is, jumps and
    # all, without remapping.
    rng = random.Random(54)
    from pga_mech import canonical_position
    pool = (basic("x"), TERMINATE, jump(0), jump(1), jump(2), jump(5))

    def copy(seq, t):
        # the cycle copy holding unfolding position t; -1 in the prefix
        return (t - seq.prefix_len) // seq.cycle_len if t >= seq.prefix_len else -1

    for _ in range(400):
        s = random_seq(rng, max_prefix=5, max_cycle=5)
        n, m = s.prefix_len, s.cycle_len
        at = rng.randrange(n + m)
        limit = (n - at) if at < n else (n + m - at)
        rc = rng.randint(0, limit)
        repl = [rng.choice(pool) for _ in range(rng.randint(0 if rc else 1, 3))]
        try:
            out = splice(s, at, rc, repl)
        except RewriteError:
            continue
        delta = len(repl) - rc
        assert [instruction_at(out, at + i) for i in range(len(repl))] == repl

        def map_pos(x):
            return x if x < at else x + delta

        for p in range(n + m):
            if at <= p < at + rc:
                continue
            ins = instruction_at(s, p)
            if ins.kind != JUMP or ins.counter == 0:
                continue
            old_t = p + ins.counter
            old_target = instruction_at(s, old_t)
            new_p = map_pos(p)
            new_ins = instruction_at(out, new_p)
            assert new_ins.kind == JUMP and new_ins.counter >= 1
            new_t = new_p + new_ins.counter
            new_target = instruction_at(out, new_t)
            if old_target is None:
                assert new_target is None
            else:
                assert new_target is not None
                assert new_target.kind == old_target.kind
                assert new_target.action == old_target.action
                assert canonical_position(out, new_t) == map_pos(canonical_position(s, old_t))
                assert copy(out, new_t) == copy(s, old_t)


def test_expand_test_chain_produces_chain_witnesses():
    x, y, z = chain_witnesses()
    assert expand_test_chain(x, 2, 1, 2) == y
    assert expand_test_chain(y, 4, 2, 2) == z
    assert strictly_improves(extract_mechanistic(y), extract_mechanistic(x))
    assert strictly_improves(extract_mechanistic(z), extract_mechanistic(y))


def test_expand_test_chain_on_doubled_cycle():
    # expanding inside a doubled cycle and retargeting the second copy keeps
    # the functional behavior and stretches the flyover jump by two
    y = parse_pga("(+a;#6;-b;!;+b;#4;!)^w")
    doubled = unroll(y)
    out = expand_test_chain(doubled, 4, 1, 9)
    assert out.cycle[1] == jump(8)
    assert functionally_equivalent(extract_mechanistic(out), extract_mechanistic(y))


def test_expand_test_chain_errors():
    x = parse_pga("(+a;#4;+b;#4;!)^w")
    with pytest.raises(RewriteError):
        expand_test_chain(x, 0, 1, 2)  # site does not match the shape
    with pytest.raises(RewriteError):
        expand_test_chain(x, 2, 1, 0)  # target tests a different action
    with pytest.raises(RewriteError):
        # a jump from outside lands inside the replaced span
        expand_test_chain(parse_pga("#2;b;+b;#2;!;+b;!"), 2, 1, 5)


def test_expand_test_chain_lands_on_target_image():
    # every site x every matching test x r <= 3: when the call returns, the
    # new jump lands on the image of the target under the shift (for the
    # site itself, on its start one cycle later) by the shortest forward
    # jump that does; a prefix target at or behind the new jump is an error
    from pga_mech import canonical_position
    rng = random.Random(57)

    def is_site(seq, p):
        end = seq.prefix_len if p < seq.prefix_len else seq.total_len
        if p + 3 > end:
            return False
        i0, i1, i2 = (instruction_at(seq, p + j) for j in range(3))
        return (i0.kind == POS_TEST and i1.kind == JUMP and i1.counter >= 1
                and i2.kind == TERMINATION)

    returned = raised_behind = 0
    for _ in range(600):
        s = random_seq(rng, max_prefix=4, max_cycle=4, actions=("a", "b"))
        # plant one site, in the prefix or in the repeating part
        s = _plant(rng, s, (pos_test(rng.choice("ab")), jump(rng.randint(1, 6)), TERMINATE))
        n = s.prefix_len
        for p in range(s.total_len):
            if not is_site(s, p):
                continue
            action = instruction_at(s, p).action
            for t in range(s.total_len):
                ins = instruction_at(s, t)
                if t != p and (ins.kind not in (POS_TEST, NEG_TEST) or ins.action != action):
                    continue
                for r in (1, 2, 3):
                    jump_pos = p + 2 * r + 1
                    image = t if t <= p else t + 2 * r
                    behind = t < n and image <= jump_pos
                    try:
                        out = expand_test_chain(s, p, r, t)
                    except RewriteError:
                        raised_behind += behind
                        continue  # behind, or a flyover lands in the span
                    assert not behind, (print_pga(s), p, r, t)
                    returned += 1
                    k = instruction_at(out, jump_pos).counter
                    goal = canonical_position(out, image)
                    assert canonical_position(out, jump_pos + k) == goal
                    assert all(canonical_position(out, jump_pos + j) != goal
                               for j in range(1, k))
                    if t == p:
                        assert jump_pos + k == p + out.cycle_len
                    elif t < n:
                        assert jump_pos + k == image
                    assert instruction_at(out, image) == (neg_test(action) if t == p else ins)
    assert returned > 1000 and raised_behind > 1000


def test_expand_test_chain_rejects_whatever_r_is():
    # improve_step stops a (site, target) pair at its first RewriteError,
    # which is sound because no check of expand_test_chain depends on r:
    # the site's shape, the target's test, a prefix target behind the site
    # and a flyover jump into the span; a pair raises for every r or none
    rng = random.Random(99)
    pairs = rejected = 0
    for _ in range(1400):
        s = random_seq(rng, max_prefix=4, max_cycle=4, actions=("a", "b"))
        s = _plant(rng, s, (pos_test(rng.choice("ab")), jump(rng.randint(1, 6)), TERMINATE))
        for seq in (s,) if s.cycle is None else (s, unroll(s)):
            reachable = sorted(reachable_positions(seq))
            every_r = set(range(1, seq.total_len + 1))
            for p in reachable:
                site = instruction_at(seq, p)
                if site.kind != POS_TEST:
                    continue
                for t in reachable:
                    ins = instruction_at(seq, t)
                    if ins.kind not in (POS_TEST, NEG_TEST) or ins.action != site.action:
                        continue
                    raised = set()
                    for r in every_r:
                        try:
                            expand_test_chain(seq, p, r, t)
                        except RewriteError:
                            raised.add(r)
                    assert raised in (set(), every_r), (print_pga(seq), p, t, sorted(raised))
                    pairs += 1
                    rejected += bool(raised)
    assert rejected > 5000 and pairs - rejected > 1000


def test_improve_step_chain():
    x, y, z = chain_witnesses()
    chain = [x]
    for _ in range(6):  # step k expands by 2**(k - 1) more copies of -b;!
        found = improve_step(chain[-1])
        assert found is not None, len(chain)
        nxt, step = found
        assert step.evidence is ComparisonVerdict.STRICTLY_IMPROVES
        assert strictly_improves(extract_mechanistic(nxt), extract_mechanistic(chain[-1]))
        assert functionally_equivalent(extract_mechanistic(nxt), extract_mechanistic(x))
        chain.append(nxt)
    assert chain[1:3] == [y, z]


def test_improve_step_none_for_pre_extraction():
    assert improve_step(parse_pga("a;!")) is None


# two of the six sequences, among 133,713 random cyclic ones with planted
# ``+x;#k;!`` sites (seed 11), where only the unrolled expansion pass finds
# a strict improvement: the prefix jumps onto the cycle's site, so no
# expansion of the sequence itself can be spliced, or its test skips into
# the site, so every one changes the function; in both, the site's second
# copy is entered only from within the cycle, and expanding it improves
@pytest.mark.parametrize("text, improved, site", [
    ("+a;#4;!;(-b;!;+b;#4;!;#3;#1)^w",
     "+a;#4;!;(-b;!;+b;#4;!;#3;#1;-b;!;-b;!;-b;!;+b;#4;!;#3;#1)^w", 12),
    ("-b;(+b;#5;!;+a;-a;a;-b;!)^w",
     "-b;(+b;#5;!;+a;-a;a;-b;!;-b;!;-b;!;+b;#13;!;+a;-a;a;-b;!)^w", 9),
])
def test_improve_step_needs_unrolled_pass(monkeypatch, text, improved, site):
    seq = parse_pga(text)
    out, step = improve_step(seq)
    assert print_pga(out) == improved
    assert (step.rule, step.site) == ("expand-test-chain", site)
    monkeypatch.setattr(rewrites, "unroll", lambda s: s)
    assert improve_step(seq) is None


def test_improve_step_functional_safety_random():
    rng = random.Random(55)
    for _ in range(60):
        s = random_seq(rng, max_prefix=4, max_cycle=4)
        found = improve_step(s)
        if found is None:
            continue
        out, step = found
        assert step.evidence is ComparisonVerdict.STRICTLY_IMPROVES
        assert functionally_equivalent(extract_mechanistic(out), extract_mechanistic(s))


def test_rewrite_step_rejects_bad_evidence():
    s = parse_pga("a;!")
    with pytest.raises(RewriteVerificationError):
        RewriteStep("bogus", 0, s, s, ComparisonVerdict.FUNCTIONALLY_DIFFERENT)
    with pytest.raises(RewriteVerificationError):
        RewriteStep("bogus", 0, s, s, ComparisonVerdict.STRICTLY_IMPROVED_BY)


def test_codegen_goldens():
    assert print_pga(codegen(make_prefix("a", make_s()))) == "+a;#2;#1;!;!;!"
    assert print_pga(codegen(make_d())) == "#0;#0;#0"
    loop = parse_thread("P = a ? P : Q\nQ = b . T\nT = S")
    out = codegen(loop)
    assert out.cycle is not None
    assert bisimilar(extract_functional(out), loop)
    assert is_implementation(out, loop)


def test_codegen_verifies_its_output(monkeypatch):
    ends = parse_thread("P = a ? Q : R\nQ = S\nR = D")
    assert print_pga(codegen(ends)) == "+a;#2;#4;!;!;!;#0;#0;#0"
    monkeypatch.setattr(rewrites, "pos_test", neg_test)
    with pytest.raises(RewriteVerificationError,
                       match="^generated sequence failed its self-check$"):
        codegen(ends)


def test_codegen_rejects_delays():
    with pytest.raises(RewriteError):
        codegen(parse_thread("P = sigma(Q)\nQ = S"))


def test_codegen_soundness_random():
    rng = random.Random(56)
    for _ in range(200):
        g = random_graph(rng, max_nodes=6, allow_delay=False)
        out = codegen(g)
        assert bisimilar(extract_functional(out), g)
        assert is_implementation(out, g)


def test_search_small():
    a_s = make_prefix("a", make_s())
    found = search_implementations(a_s, SearchBounds(2, 0, ("a",)))
    assert parse_pga("a;!") in found
    pre = extract_mechanistic(parse_pga("a;!"))
    for other in found:
        assert improves(pre, extract_mechanistic(other))
    assert search_implementations(a_s, SearchBounds(1, 0, ("a",))) == []


def test_search_finds_both_optimal_witnesses():
    p = make_post("a", make_prefix("b", make_s()), make_prefix("c", make_s()))
    found = search_implementations(p, SearchBounds(6, 0, ("a", "b", "c")))
    assert parse_pga("+a;#3;c;!;b;!") in found
    assert parse_pga("-a;#3;b;!;c;!") in found


def test_search_with_cycles():
    loop = parse_thread("P = a ? P : Q\nQ = S")
    found = search_implementations(loop, SearchBounds(1, 3, ("a",)))
    assert parse_pga("(+a;#2;!)^w") in found
    for s in found:
        assert is_implementation(s, loop)


# three pools of search results over {a}: a target with a deadlock branch,
# where many results improve each other without being bisimilar (delays in
# front of the deadlock); ``P = S``, where 90 results are 3 behaviors, so
# most members share a graph; and a cycle, where 159 results are 63
_PARETO_POOLS = tuple(
    search_implementations(parse_thread(text), SearchBounds(n, m, ("a",)))
    for text, n, m in (("P = a ? Q : R; Q = S; R = D", 4, 0),
                       ("P = S", 3, 0),
                       ("P = a . P", 1, 2)))
_PARETO_MEMBERS = [st.sampled_from(pool) for pool in _PARETO_POOLS]
# a fourth pool draws each member from one of the three or from the chain
# witnesses, so a list also holds functionally different members and
# classes that strictly improve each other
_PARETO_MEMBERS.append(st.one_of(*_PARETO_MEMBERS, st.sampled_from(chain_witnesses())))


@given(st.sampled_from(_PARETO_MEMBERS).flatmap(
    lambda members: st.lists(members, min_size=1, max_size=12)))
@example(_PARETO_POOLS[0])
@example(_PARETO_POOLS[1])
@example(_PARETO_POOLS[2])
@settings(max_examples=150)
def test_pareto_front_matches_pairwise_definition(seqs):
    # members may repeat; order and multiplicity must survive
    assert pareto_front(seqs) == reference_pareto_front(seqs)


def test_pareto_front_is_independent_of_arrival_order():
    # a strict chain (a class that arrives early leaves the front, one that
    # arrives late is dropped at once), two members that improve each
    # other without being bisimilar, and a functionally different member
    members = [*chain_witnesses(), parse_pga("+a;!;#0"), parse_pga("+a;!;#1;#0"),
               parse_pga("a;!")]
    for seqs in itertools.permutations(members):
        assert pareto_front(list(seqs)) == reference_pareto_front(list(seqs))


def test_search_budget():
    # a delay-free target needs no improvement check, so the budget counts
    # exactly the sequences returned
    target = parse_thread("P = a ? Q : R; Q = S; R = D")
    bounds = SearchBounds(3, 1, ("a",))
    found = search_implementations(target, bounds)
    assert search_implementations(target, bounds, max_candidates=len(found)) == found
    with pytest.raises(SearchBudgetExceeded, match=f"max_candidates={len(found) - 1}"):
        search_implementations(target, bounds, max_candidates=len(found) - 1)
    # the don't-care product is sized before it is built: after ``!`` in
    # the first slot the other six of ``P = S`` at (7, 0) are free
    with pytest.raises(ValueError, match="max_candidates=100000"):
        search_implementations(parse_thread("P = S"), SearchBounds(7, 0, ("a",)),
                               max_candidates=100000)


@pytest.mark.parametrize("text, results, spent", [
    # the last shape, (3, 1), emits 1,129 of the 1,320, so a budget that
    # restarted at each shape would let 1,319 through
    ("P = S", 1320, 1320),
    # a delayed target: each of the 58 failed checks counts one as well
    ("P = a . Q; Q = sigma(R); R = S", 80, 138),
])
def test_search_budget_counts_across_shapes(text, results, spent):
    target = parse_thread(text)
    bounds = SearchBounds(3, 1, ("a",))
    assert len(search_implementations(target, bounds, max_candidates=spent)) == results
    with pytest.raises(SearchBudgetExceeded,
                       match=rf"^search exceeds max_candidates={spent - 1} sequences checked "
                             r"or emitted \(at prefix length 3, cycle length 1\)$"):
        search_implementations(target, bounds, max_candidates=spent - 1)


def test_search_walk_is_pruned(monkeypatch):
    # no sequence of (4, 4) implements this target, so every branch of the
    # walk fails; an unpruned walk makes 637,511 steps before it is done,
    # the prunes leave 72,289, and walking each class of interchangeable
    # slot options once leaves exactly 16,026
    steps = 0
    walk = _ShapeSearch._walk

    def counted(self, *args):
        nonlocal steps
        steps += 1
        return walk(self, *args)

    monkeypatch.setattr(_ShapeSearch, "_walk", counted)
    target = parse_thread("P = a ? Q : R; Q = b ? P : T; R = c . P; T = S")
    bounds = SearchBounds(4, 4, ("a", "b", "c"))
    assert search_implementations(target, bounds, max_candidates=1000) == []
    assert steps == 16_026



# every set of node facts ``_classes`` takes over {a, b}
_NODE_FACTS = [(S, None, False, False, False), (D, None, False, False, False)] + [
    (POST, action, t_d, f_d, same) for action in ("a", "b")
    for t_d in (False, True) for f_d in (False, True) for same in (False, True)]


def test_search_option_classes_are_exact():
    # the walk takes one member per class; every other member, put in the
    # same slot of a random sequence, must give the same mechanistic graph
    rng = random.Random(2424)
    alphabet = ("a", "b")
    for _ in range(150):
        seq = random_seq(rng, max_prefix=3, max_cycle=3, actions=alphabet)
        n, m = seq.prefix_len, seq.cycle_len
        code = [*seq.prefix, *(seq.cycle or ())]
        options = _slot_options(n + m, alphabet)
        for s, original in enumerate(list(code)):
            checked = set()
            for facts in _NODE_FACTS:
                classes = _classes(n, m, s, *facts, alphabet)
                members = [i for c in classes for i in c]
                assert len(set(members)) == len(members)  # the classes are disjoint
                assert all(list(c) == sorted(c) for c in classes)
                assert [c[0] for c in classes] == sorted(c[0] for c in classes)
                for c in set(classes) - checked:
                    graphs = set()
                    for i in c:
                        code[s] = options[i]
                        graphs.add(extract_mechanistic(
                            InstrSeq(tuple(code[:n]), tuple(code[n:]) if m else None)))
                    assert len(graphs) == 1, (seq, s, [str(options[i]) for i in c])
                checked.update(classes)
            code[s] = original


def test_search_option_classes_keep_deadlock_apart_from_running_off():
    # at the last slot of a finite shape reached at D, ``#0`` deadlocks at
    # once, while ``#1`` and ``#2`` run off the end after a delay
    options = _slot_options(2, ("a",))
    classes = _classes(2, 0, 1, D, None, False, False, False, ("a",))
    assert [[str(options[i]) for i in c] for c in classes] == [["#0"], ["#1", "#2"]]
    assert extract_mechanistic(parse_pga("a;#0")) != extract_mechanistic(parse_pga("a;#1"))


def test_pareto_front_of_search_results_uses_their_walks(monkeypatch):
    # the results of one finished walk share a graph, so the front extracts
    # one member per walk, and none when there is one walk; the front of
    # the list the search returned is the front of the same plain list
    extracted = []
    extract = search.extract_mechanistic
    monkeypatch.setattr(search, "extract_mechanistic",
                        lambda seq: extracted.append(seq) or extract(seq))
    rng = random.Random(2525)
    cases = [(target, SearchBounds(4, 0, alphabet)) for alphabet in (("a", "b"), ("a", "b", "c"))
             for target in _tight_targets(rng, 4, 0, alphabet, 3)]
    cases += [(parse_thread(text), SearchBounds(n, m, ("a",))) for text, n, m in (
        ("P = a . P", 3, 2), ("P = S", 5, 0), ("P = a . Q; Q = sigma(R); R = S", 3, 1))]
    single = grouped = 0
    for target, bounds in cases:
        found = search_implementations(target, bounds)
        walks = len(set(found.record[1]))
        extracted.clear()
        front = pareto_front(found)
        assert len(extracted) == (walks if walks > 1 else 0)
        assert front == pareto_front(list(found))
        single += walks == 1
        grouped += walks < len(found)
    assert single >= 1 and grouped >= 3
    # a one-member plain list is its own front
    extracted.clear()
    assert pareto_front(found[:1]) == found[:1] and extracted == []
    # a list changed after the search no longer matches its walks
    found = search_implementations(parse_thread("P = S"), SearchBounds(3, 1, ("a",)))
    found[0], found[-1] = found[-1], found[0]
    assert pareto_front(found) == pareto_front(list(found)) != []


def _tight_targets(rng, n, m, alphabet, count):
    """Functional behaviors of random fully reachable sequences of shape
    (n, m) whose minimal graph needs all but at most one slot, as
    perfbench's search ops draw their targets."""
    targets = []
    while len(targets) < count:
        seq = random_seq(rng, max_prefix=n, max_cycle=m, actions=alphabet)
        if (seq.prefix_len, seq.cycle_len) != (n, m) or len(reachable_positions(seq)) < n + m:
            continue
        target = extract_functional(seq)
        if sum(node.kind != D for node in minimize(target).nodes) >= n + m - 1:
            targets.append(target)
    return targets


def test_search_results_are_well_formed_sequences():
    # the search builds its results unchecked; each must be the value the
    # checked constructor and the parser give, with the shape's cycle
    rng = random.Random(2323)
    cases = [(target, alphabet, 4, 0) for alphabet in (("a", "b"), ("a", "b", "c"))
             for target in _tight_targets(rng, 4, 0, alphabet, 4)]
    # ``P = S`` leaves don't-cares, and ``P = a . P`` needs a cycle
    cases += [(parse_thread("P = S"), ("a",), n, m) for n in range(4) for m in range(2) if n + m]
    cases += [(parse_thread("P = a . P"), ("a",), n, m) for n in range(3) for m in range(3) if n + m]
    seen = set()
    for target, alphabet, n, m in cases:
        for s in _ShapeSearch(target, alphabet, None).results(n, m):
            assert InstrSeq(s.prefix, s.cycle) == s
            assert hash(InstrSeq(s.prefix, s.cycle)) == hash(s)
            assert parse_pga(print_pga(s)) == s
            assert type(s.prefix) is tuple and len(s.prefix) == n
            assert (s.cycle is None) == (m == 0)
            assert m == 0 or (type(s.cycle) is tuple and len(s.cycle) == m)
            seen.add(m > 0)
    assert seen == {False, True}


@pytest.mark.parametrize("text, bounds", [
    # several D nodes, which functional abstraction merges
    ("P = a ? Q : R; Q = D; R = D", SearchBounds(2, 1, ("a",))),
    # two copies of one sub-thread, which only minimize merges
    ("P = a ? Q : R; Q = b . S1; R = b . S2; S1 = S; S2 = S", SearchBounds(4, 0, ("a", "b"))),
])
def test_search_of_delay_free_target_needs_no_functional_abstraction(text, bounds):
    p = parse_thread(text)
    found = search_implementations(p, bounds)
    assert found
    assert found == search_implementations(minimize(functional_abstraction(p)), bounds)


def _offered(n, m, s, kind, action=None, t_d=False, f_d=False, same=False, alphabet=("a",)):
    """The options ``_classes`` offers for slot ``s`` of shape (n, m) at a
    target node with the given facts, as text."""
    options = _slot_options(n + m, alphabet)
    return {str(options[i]) for c in _classes(n, m, s, kind, action, t_d, f_d, same, alphabet)
            for i in c}


def _allowed_actions(n, m, s, t_d, f_d, same):
    """The action instructions ``_classes`` offers for slot ``s`` of shape
    (n, m) at a post node on ``a`` with the given successor facts."""
    return {text for text in _offered(n, m, s, POST, "a", t_d, f_d, same) if text[0] not in "#!"}


def test_search_offers_only_fitting_actions():
    # a basic action sends both replies to one slot, so it needs one successor
    assert _allowed_actions(4, 0, 0, False, False, False) == {"+a", "-a"}
    assert _allowed_actions(4, 0, 0, False, False, True) == {"a", "+a", "-a"}
    # a reply that runs off the end of a finite shape needs D: at the last
    # slot both replies do, one slot earlier the one that skips does
    assert _allowed_actions(4, 0, 3, True, False, False) == set()
    assert _allowed_actions(4, 0, 3, False, False, True) == set()
    assert _allowed_actions(4, 0, 3, True, True, True) == {"a", "+a", "-a"}
    assert _allowed_actions(4, 0, 2, False, True, False) == {"+a"}
    assert _allowed_actions(4, 0, 2, True, False, False) == {"-a"}
    # in a one-slot cycle both replies of a test come back to the slot
    assert _allowed_actions(0, 1, 0, False, False, False) == set()
    assert _allowed_actions(0, 1, 0, False, False, True) == {"a", "+a", "-a"}
    # in a two-slot cycle a test's replies reach both slots
    assert _allowed_actions(0, 2, 0, False, False, False) == {"+a", "-a"}


def test_search_offers_only_jumps_that_move_on():
    # away from D a jump must land on another slot: at slot 2 of a finite
    # shape of 4, #0 deadlocks and #2 to #4 run off the end
    assert _offered(4, 0, 2, S) == {"!", "#1"}
    assert _offered(4, 0, 2, POST, "a", same=True) == {"a", "#1"}
    # in the cycle of (1, 2), #2 from slot 1 comes back onto slot 1, while
    # #3 wraps once more and lands on slot 2
    assert _offered(1, 2, 1, S) == {"!", "#1", "#3"}
    assert _offered(1, 2, 1, POST, "a", same=True) == {"a", "+a", "-a", "#1", "#3"}
    # at D every jump is offered, and nothing else
    assert _offered(4, 0, 2, D) == {"#0", "#1", "#2", "#3", "#4"}
    assert _offered(1, 2, 1, D) == {"#0", "#1", "#2", "#3"}


def test_search_offers_termination_only_at_s():
    for n, m in ((4, 0), (1, 2), (0, 1), (2, 3)):
        for s in range(n + m):
            for facts in _NODE_FACTS:
                offered = _offered(n, m, s, *facts, alphabet=("a", "b"))
                assert ("!" in offered) == (facts[0] == S), (n, m, s, facts)


def test_search_bounds_validation():
    with pytest.raises(ValueError):
        SearchBounds(0, 0, ("a",))
    for n, m in ((-1, 2), (2, -1)):
        with pytest.raises(ValueError, match="^bounds must be nonnegative$"):
            SearchBounds(n, m, ("a",))
    with pytest.raises(ValueError):
        SearchBounds(2, 0, ())
    for name in ("A", "1x", "a b", ""):
        with pytest.raises(ValueError, match=f"invalid action name {name!r}"):
            SearchBounds(2, 0, ("a", name))


def test_pre_extraction_is_optimal_within_bounds():
    # every enumerated sequence whose mechanistic behavior equals the target
    # improves every enumerated implementation
    target = make_prefix("a", make_prefix("b", make_s()))
    bounds = SearchBounds(3, 0, ("a", "b"))
    found = search_implementations(target, bounds)
    graphs = {s: extract_mechanistic(s) for s in found}
    pre_extractions = [s for s in found if bisimilar(graphs[s], target)]
    assert parse_pga("a;b;!") in pre_extractions
    for pre in pre_extractions:
        for other in found:
            assert improves(graphs[pre], graphs[other])
