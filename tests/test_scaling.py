"""Wall-clock budgets for the relations on the adversarial families: delay
chains ``#1ⁿ;a;!`` against ``#1ⁿ⁻¹;a;!`` and the delayed loop
``((a;#1)ⁿ;b)^w`` against ``(aⁿ;b)^w``.  Moore refinement is quadratic on
the first and the fixpoint preorder cubic on the second; the product walks
and Hopcroft refinement are near linear."""

import time

from pga_mech import (
    ComparisonVerdict,
    bisimilar,
    compare,
    extract_mechanistic,
    improves,
    minimize,
    parse_pga,
)

BUDGET_S = 1.0


def _chain(n: int) -> str:
    return ";".join(["#1"] * n + ["a", "!"])


def _loop(n: int, delayed: bool) -> str:
    body = ["a", "#1"] * n if delayed else ["a"] * n
    return "(" + ";".join(body + ["b"]) + ")^w"


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    elapsed = time.perf_counter() - start
    assert elapsed < BUDGET_S, f"{fn.__name__} took {elapsed:.2f}s (budget {BUDGET_S}s)"
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
