"""Wall-clock budgets for the relations on the adversarial families: delay
chains ``#1ⁿ;a;!`` against ``#1ⁿ⁻¹;a;!`` and the delayed loop
``((a;#1)ⁿ;b)^w`` against ``(aⁿ;b)^w``.  Moore refinement is quadratic on
the first and the fixpoint preorder cubic on the second; the product walks
and the Hopcroft refinement of the delay resolution's cores are near
linear.  Also for implementation search on ``a ? b.S : c.S``, where
index-order enumeration spends most of its time on the options of slots
that a jump flies over, and at (5,5) on a target no sequence there
implements, where a walk per slot option rather than per class of
interchangeable options makes 3.9 million steps; for the Pareto front of
the 15,731 results of ``P = S`` at (5,0), which are 5 behaviors, where a
walk per pair of results takes minutes, and of ``P = a . P`` over ``{a}`` at
(3,2) and (2,3), whose 1,456 and 2,269 distinct graphs take 6.0 s and
13.2 s at a walk per pair of graphs; for functional extraction of many
jumps that land on one long jump chain, where a chase that re-walks the
chain from every jump is quadratic, and of a cycle of 10⁴ instructions,
most of them short jumps onto later jumps and some jumps that wrap the
cycle, where the landings are one pass from the last position to the
first and only a wrapping jump chases its chain; and for the delay resolution of
``#1ⁿ;a;(#1)^w``, a long delay chain in front of a delay loop, where a
resolution that chases from every node is quadratic, and of ``#1ⁿ;a;!``
and the delay loop ``(#1ⁿ)^w`` at n = 10⁴, which resolve in one reverse
pass and in the trail walk of the nodes it defers.  And for ``bisimilar``
and ``improves`` on ``#1;(a¹⁰⁰⁰)^w`` against ``(a¹⁰⁰¹)^w``, where the
delay on the root edge decides "no" but the cores pair up a million
ways.  And for ``improve_step`` from the 259-instruction member of the
``(+a;#4;+b;#4;!)^w`` chain, whose 128 candidates each cost a full product
walk when none stops early.  And for ``unchain`` and ``improve_step`` on
``(+a;#1;#1)²⁵⁰;!``, where each of the 250 steps finds its site by a
scan from the first position and extracts the whole after-sequence to
verify itself, so the rewrites are quadratic in their sites; the budgets
hold that cost until the rewrites become linear.  And for the per-node
layers of ``extract`` on a dense sequence of 10⁴ instructions: both
extractions, ``minimize``, the three renderers and ``parse_thread`` of the
printed equations, each linear or near it, so a budget of a second catches
a quadratic pass, not noise."""

import random
import time

from pga_mech import (
    ComparisonVerdict,
    SearchBounds,
    bisimilar,
    collapse_divergence,
    compare,
    extract_functional,
    extract_mechanistic,
    functional_abstraction,
    has_adjacent_delays,
    improve_step,
    improves,
    make_post,
    make_prefix,
    make_s,
    minimize,
    pareto_front,
    parse_pga,
    parse_thread,
    print_pga,
    print_thread,
    search_implementations,
    to_dot,
    to_json,
    unchain,
)

BUDGET_S = 1.0


def _chain(n: int) -> str:
    return ";".join(["#1"] * n + ["a", "!"])


def _loop(n: int, delayed: bool) -> str:
    body = ["a", "#1"] * n if delayed else ["a"] * n
    return "(" + ";".join(body + ["b"]) + ")^w"


def _timed(fn, *args, budget=BUDGET_S):
    start = time.perf_counter()
    result = fn(*args)
    elapsed = time.perf_counter() - start
    assert elapsed < budget, f"{fn.__name__} took {elapsed:.2f}s (budget {budget}s)"
    return result


def test_delay_chain_bisimilar_and_minimize_at_4000():
    n = 4000
    slow = extract_mechanistic(parse_pga(_chain(n)))
    fast = extract_mechanistic(parse_pga(_chain(n - 1)))
    assert _timed(bisimilar, slow, fast) is False
    assert _timed(bisimilar, slow, slow) is True
    assert len(_timed(minimize, slow)) == n + 2
    assert len(_timed(minimize, fast)) == n + 1


def test_delay_resolution_of_chain_and_loop_at_10000():
    # the chain resolves in its one reverse pass, each delay reading its
    # successor's entry; the loop's delays are all deferred to the trail
    # walk, since the last one points back to the first.  Each call takes
    # 3-8 ms on a 2 vCPU host; a resolution that chases from every node
    # takes seconds
    n = 10_000
    slow = extract_mechanistic(parse_pga(_chain(n)))
    fast = extract_mechanistic(parse_pga(_chain(n - 1)))
    assert _timed(bisimilar, slow, fast, budget=0.1) is False
    assert _timed(compare, slow, fast, budget=0.1) is ComparisonVerdict.STRICTLY_IMPROVED_BY
    assert _timed(compare, fast, slow, budget=0.1) is ComparisonVerdict.STRICTLY_IMPROVES
    loop = extract_mechanistic(parse_pga("(" + ";".join(["#1"] * n) + ")^w"))
    assert len(loop) == n
    assert print_thread(_timed(minimize, loop, budget=0.1)) == "T0 = sigma(T0)"


def test_delayed_loop_improves_and_compare_at_800():
    n = 800
    slow = extract_mechanistic(parse_pga(_loop(n, True)))
    fast = extract_mechanistic(parse_pga(_loop(n, False)))
    assert (len(slow), len(fast)) == (2 * n + 1, n + 1)
    assert _timed(improves, fast, slow) is True
    assert _timed(improves, slow, fast) is False
    assert _timed(compare, fast, slow) is ComparisonVerdict.STRICTLY_IMPROVES
    assert _timed(compare, slow, fast) is ComparisonVerdict.STRICTLY_IMPROVED_BY
    assert len(_timed(minimize, slow)) == 2 * n + 1
    assert len(_timed(minimize, fast)) == n + 1


def test_delayed_root_decides_bisimilar_and_improves_at_1000():
    slow = extract_mechanistic(parse_pga("#1;(" + ";".join(["a"] * 1000) + ")^w"))
    fast = extract_mechanistic(parse_pga("(" + ";".join(["a"] * 1001) + ")^w"))
    assert _timed(bisimilar, slow, fast, budget=0.05) is False
    assert _timed(improves, slow, fast, budget=0.05) is False


def _chain_member(copies: int) -> str:
    """The member of the ``(+a;#4;+b;#4;!)^w`` improvement chain with
    ``copies`` copies of ``-b;!``."""
    return f"(+a;#{2 * copies + 4};" + "-b;!;" * copies + "+b;#4;!)^w"


def test_improve_step_from_chain_member_of_259():
    seq = parse_pga(_chain_member(127))
    better, step = _timed(improve_step, seq)
    assert print_pga(better) == _chain_member(255)
    assert step.evidence is ComparisonVerdict.STRICTLY_IMPROVES


def test_unchain_and_improve_step_on_250_chained_jumps():
    seq = parse_pga(";".join(["+a;#1;#1"] * 250 + ["!"]))
    unchained = ";".join(["+a;#2;#1"] * 250 + ["!"])
    out, steps = _timed(unchain, seq, budget=2.0)
    assert print_pga(out) == unchained
    assert len(steps) == 250
    assert all(s.rule == "unchain" and s.evidence is ComparisonVerdict.STRICTLY_IMPROVES
               for s in steps)
    better, step = _timed(improve_step, seq)
    assert step.rule == "unchain" and print_pga(better) == unchained


def test_search_branching_target_at_6_and_7():
    # acceptance criterion 8's target
    target = make_post("a", make_prefix("b", make_s()), make_prefix("c", make_s()))
    at6 = _timed(search_implementations, target, SearchBounds(6, 0, ("a", "b", "c")), budget=0.5)
    assert parse_pga("+a;#3;c;!;b;!") in at6 and parse_pga("-a;#3;b;!;c;!") in at6
    at7 = _timed(search_implementations, target, SearchBounds(7, 0, ("a", "b", "c")), budget=5.0)
    assert len(at7) == 224
    assert at7[:len(at6)] == at6


def test_search_walk_with_no_result_at_5_5():
    # no sequence of (5, 5) implements this target, so the walk runs out
    # every branch; on a 2 vCPU host it takes 0.7 s with a walk per class
    # of interchangeable slot options and 7.3 s with a walk per option
    target = parse_thread("P = a ? Q : R; Q = b ? P : T; R = c . P; T = S")
    bounds = SearchBounds(5, 5, ("a", "b", "c"))
    assert _timed(search_implementations, target, bounds, 1000, budget=3.0) == []


def test_pareto_front_of_loose_target_at_5():
    # every filling after the first ``!`` is a result; the front keeps the
    # results whose behavior is S itself
    results = search_implementations(parse_thread("P = S"), SearchBounds(5, 0, ("a",)))
    assert len(results) == 15731
    front = _timed(pareto_front, results, budget=2.0)
    expected = [s for s in results if extract_mechanistic(s) == make_s()]
    assert len(expected) == 10801
    assert front == expected


def test_pareto_front_of_loop_target_at_3_2_and_2_3():
    loop = parse_thread("P = a . P")
    for (n, m), found, kept in (((3, 2), 20337, 480), ((2, 3), 21057, 507)):
        results = search_implementations(loop, SearchBounds(n, m, ("a",)))
        assert len(results) == found
        assert len(_timed(pareto_front, results, budget=1.0)) == kept


def test_converging_jump_chains_extract_functional_at_4000():
    # block i is +a;#(2n-2i-1), whose jump lands on the first of n #1s
    n = 4000
    blocks = [f"+a;#{2 * n - 2 * i - 1}" for i in range(n)]
    seq = parse_pga(";".join(blocks + ["#1"] * n + ["b", "!"]))
    assert len(_timed(extract_functional, seq)) == n + 2


def test_wrapping_jump_chains_extract_functional_at_10000():
    # a cycle of 10^4 instructions, four in five of them short jumps, so
    # most jumps land on later jumps and chains run long; one in fifty
    # jumps half the cycle or more, so chains also wrap it
    rng = random.Random(27)
    count = 10_000
    ins = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.2:
            ins.append(rng.choice(("a", "+b", "-c")))
        elif roll < 0.22:
            ins.append(f"#{rng.randint(count // 2, 2 * count)}")
        else:
            ins.append(f"#{rng.randint(1, 4)}")
    seq = parse_pga("+a;#3;(" + ";".join(ins) + ")^w")
    code = seq.prefix + seq.cycle
    targets = [p + i.counter for p, i in enumerate(code) if i.counter]
    assert sum(q < len(code) and code[q].counter is not None for q in targets) > len(targets) / 2
    assert sum(q >= len(code) for q in targets) > 100
    assert len(_timed(extract_functional, seq)) > 300


def test_delay_chain_into_delay_loop_resolves_at_4000():
    n = 4000
    slow = extract_mechanistic(parse_pga(";".join(["#1"] * n + ["a", "(#1)^w"])))
    fast = extract_mechanistic(parse_pga(";".join(["#1"] * (n - 1) + ["a", "(#1)^w"])))
    assert _timed(compare, slow, fast) is ComparisonVerdict.STRICTLY_IMPROVED_BY
    assert len(_timed(functional_abstraction, slow)) == 2
    assert len(_timed(collapse_divergence, slow)) == n + 2
    assert _timed(has_adjacent_delays, slow) is True


def test_dense_pipeline_at_10000():
    # actions, tests and short jumps, so nearly every position is reached
    rng = random.Random(16)
    pool = ("a", "b", "c.d", "+a", "-b", "+c", "#1", "#2", "#3")
    text = (";".join(rng.choice(pool) for _ in range(2_000)) + ";("
            + ";".join(rng.choice(pool) for _ in range(8_000)) + ";-a;!)^w")
    seq = parse_pga(text)
    assert len(_timed(extract_functional, seq)) > 5_000
    g = _timed(extract_mechanistic, seq)
    assert len(g) > 8_000
    assert len(_timed(minimize, g)) > 8_000
    for render in (print_thread, to_dot, to_json):
        assert len(_timed(render, g)) > len(g)
    assert _timed(parse_thread, print_thread(g)) == g
