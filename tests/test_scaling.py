"""Wall-clock budgets for the relations on the adversarial families: delay
chains ``#1ⁿ;a;!`` against ``#1ⁿ⁻¹;a;!`` and the delayed loop
``((a;#1)ⁿ;b)^w`` against ``(aⁿ;b)^w``.  Moore refinement is quadratic on
the first and the fixpoint preorder cubic on the second; the product walks
and Hopcroft refinement are near linear.  Also for implementation search on
``a ? b.S : c.S``, where index-order enumeration spends most of its time
on the options of slots that a jump flies over; for the Pareto front of
the 15,731 results of ``P = S`` at (5,0), which are 5 behaviors, where a
walk per pair of results takes minutes; for functional extraction of many
jumps that land on one long jump chain, where a chase that re-walks the
chain from every jump is quadratic; and for the delay resolution of
``#1ⁿ;a;(#1)^w``, a long delay chain in front of a delay loop, where a
resolution that chases from every node is quadratic.  And for ``bisimilar``
and ``improves`` on ``#1;(a¹⁰⁰⁰)^w`` against ``(a¹⁰⁰¹)^w``, where the
delay on the root edge decides "no" but the cores pair up a million
ways."""

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
    improves,
    make_post,
    make_prefix,
    make_s,
    minimize,
    pareto_front,
    parse_pga,
    parse_thread,
    search_implementations,
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


def test_search_branching_target_at_6_and_7():
    # acceptance criterion 8's target
    target = make_post("a", make_prefix("b", make_s()), make_prefix("c", make_s()))
    at6 = _timed(search_implementations, target, SearchBounds(6, 0, ("a", "b", "c")), budget=0.5)
    assert parse_pga("+a;#3;c;!;b;!") in at6 and parse_pga("-a;#3;b;!;c;!") in at6
    at7 = _timed(search_implementations, target, SearchBounds(7, 0, ("a", "b", "c")), budget=5.0)
    assert len(at7) == 224
    assert at7[:len(at6)] == at6


def test_pareto_front_of_loose_target_at_5():
    # every filling after the first ``!`` is a result; the front keeps the
    # results whose behavior is S itself
    results = search_implementations(parse_thread("P = S"), SearchBounds(5, 0, ("a",)))
    assert len(results) == 15731
    front = _timed(pareto_front, results, budget=2.0)
    expected = [s for s in results if extract_mechanistic(s) == make_s()]
    assert len(expected) == 10801
    assert front == expected


def test_converging_jump_chains_extract_functional_at_4000():
    # block i is +a;#(2n-2i-1), whose jump lands on the first of n #1s
    n = 4000
    blocks = [f"+a;#{2 * n - 2 * i - 1}" for i in range(n)]
    seq = parse_pga(";".join(blocks + ["#1"] * n + ["b", "!"]))
    assert len(_timed(extract_functional, seq)) == n + 2


def test_delay_chain_into_delay_loop_resolves_at_4000():
    n = 4000
    slow = extract_mechanistic(parse_pga(";".join(["#1"] * n + ["a", "(#1)^w"])))
    fast = extract_mechanistic(parse_pga(";".join(["#1"] * (n - 1) + ["a", "(#1)^w"])))
    assert _timed(compare, slow, fast) is ComparisonVerdict.STRICTLY_IMPROVED_BY
    assert len(_timed(functional_abstraction, slow)) == 2
    assert len(_timed(collapse_divergence, slow)) == n + 2
    assert _timed(has_adjacent_delays, slow) is True
