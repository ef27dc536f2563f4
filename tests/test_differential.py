"""The product-walk relations, Hopcroft minimization, the one-pass delay
resolution and the demand-driven implementation search against the slow
reference algorithms in ``helpers``: Moore refinement, the
greatest-fixpoint preorder, the liveness-based divergence collapse and the
index-order search.

Independent random graphs are almost always functionally different, so
most pairs here are a graph against a delay-perturbed copy of itself,
which reaches every verdict.
"""

import random

from hypothesis import given, settings, strategies as st

from pga_mech import (
    ComparisonVerdict,
    SearchBounds,
    bisimilar,
    collapse_divergence,
    compare,
    extract_functional,
    extract_mechanistic,
    functional_abstraction,
    functionally_equivalent,
    has_adjacent_delays,
    improves,
    make_post,
    minimize,
    search_implementations,
)
from pga_mech.threads import D, DELAY, _delay_resolution

from helpers import (
    perturb_delays,
    random_graph,
    random_seq,
    reference_bisimilar,
    reference_collapse_divergence,
    reference_compare,
    reference_functional_abstraction,
    reference_functionally_equivalent,
    reference_has_adjacent_delays,
    reference_improves,
    reference_minimize,
    reference_search_implementations,
)


def _check_pair(p, q):
    verdict = compare(p, q)
    assert verdict is reference_compare(p, q), (p.nodes, q.nodes)
    assert improves(p, q) == reference_improves(p, q), (p.nodes, q.nodes)
    assert improves(q, p) == reference_improves(q, p), (p.nodes, q.nodes)
    assert bisimilar(p, q) == reference_bisimilar(p, q), (p.nodes, q.nodes)
    assert functionally_equivalent(p, q) == reference_functionally_equivalent(p, q)
    return verdict


def test_relations_match_reference_on_independent_pairs():
    rng = random.Random(3001)
    for _ in range(1500):
        p = random_graph(rng, max_nodes=rng.choice((2, 4, 7)))
        q = random_graph(rng, max_nodes=rng.choice((2, 4, 7)))
        _check_pair(p, q)


def test_relations_match_reference_on_delay_perturbed_pairs():
    # each graph also meets the previous one, an independent pair, so the
    # sample reaches FUNCTIONALLY_DIFFERENT as well
    rng = random.Random(3002)
    seen = set()
    previous = random_graph(rng)
    for k in range(1200):
        if k % 2:
            g = random_graph(rng, max_nodes=8)
        else:
            g = extract_mechanistic(random_seq(rng, max_prefix=6, max_cycle=5))
        h = perturb_delays(rng, g, moves=rng.randint(0, 3))
        seen.add(_check_pair(g, h))
        seen.add(_check_pair(h, perturb_delays(rng, g, moves=rng.randint(1, 3))))
        seen.add(_check_pair(previous, g))
        previous = g
    assert seen == set(ComparisonVerdict)


def test_minimize_matches_reference():
    rng = random.Random(3003)
    for k in range(1500):
        if k % 2:
            g = random_graph(rng, max_nodes=10)
        else:
            g = extract_mechanistic(random_seq(rng, max_prefix=8, max_cycle=8))
        g = perturb_delays(rng, g, moves=rng.randint(0, 3))
        assert minimize(g) == reference_minimize(g), g.nodes


def _chase(g, i):
    """Node ``i``'s delay count and core, read off its delay chain: the
    delays before the first S or post node and that node, or for a
    divergent chain its signature (the delays into D, or -1 on a delay
    loop) and the shared D node, ``len(g)``."""
    passed = []
    while g.nodes[i].kind == DELAY:
        if i in passed:
            return -1, len(g)
        passed.append(i)
        i = g.nodes[i].next
    return len(passed), len(g) if g.nodes[i].kind == D else i


def test_delay_resolution_matches_reference():
    # three random graphs under two posts (the constructors keep each one's
    # D nodes apart) with delay edits, and mechanistic extractions, so that
    # delay loops, delay chains into D and several D nodes are all common
    rng = random.Random(3004)
    shapes = set()
    for k in range(1500):
        if k % 3:
            parts = [random_graph(rng, max_nodes=8) for _ in range(3)]
            g = make_post("a", parts[0], make_post("b", parts[1], parts[2]))
        else:
            g = extract_mechanistic(random_seq(rng, max_prefix=6, max_cycle=6))
        g = perturb_delays(rng, g, moves=rng.randint(0, 3))
        chased = [_chase(g, i) for i in range(len(g))]
        assert _delay_resolution(g)[1] == chased + [(0, len(g))], g.nodes
        assert collapse_divergence(g) == reference_collapse_divergence(g), g.nodes
        assert functional_abstraction(g) == reference_functional_abstraction(g), g.nodes
        adjacent = has_adjacent_delays(g)
        assert adjacent == reference_has_adjacent_delays(g), g.nodes
        delay_loop = any(count == -1 for count, _ in chased)
        shapes.add((delay_loop, sum(node.kind == D for node in g.nodes) > 1, adjacent))
    assert len(shapes) == 8


@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=0, max_value=4))
@settings(max_examples=300)
def test_relations_match_reference_hypothesis(seed, moves):
    rng = random.Random(seed)
    g = random_graph(rng, max_nodes=9)
    h = perturb_delays(rng, g, moves=moves)
    _check_pair(g, h)
    assert minimize(h) == reference_minimize(h)


def test_search_matches_reference():
    # targets of at most 4 nodes: random delay-free graphs, the functional
    # behavior of a random sequence within the bounds (so the result is
    # rarely empty), and every third one a mechanistic behavior, with
    # delays where the sequence jumps (so the improvement check runs)
    rng = random.Random(3007)
    shapes = set()
    for k in range(50):
        alphabet = rng.choice((("a",), ("b",), ("a", "b")))
        n, m = rng.choice([(n, m) for n in range(4) for m in range(3) if n + m])
        bounds = SearchBounds(n, m, alphabet)
        while True:
            if k % 3 == 0:
                target = random_graph(rng, max_nodes=4, allow_delay=False)
            else:
                seq = random_seq(rng, max_prefix=n, max_cycle=m, actions=alphabet)
                target = (extract_functional if k % 3 == 1 else extract_mechanistic)(seq)
            if len(target) <= 4:
                break
        found = search_implementations(target, bounds)
        assert found == reference_search_implementations(target, bounds), (target.nodes, bounds)
        shapes.add((m > 0, bool(found)))
    assert shapes == {(False, False), (False, True), (True, False), (True, True)}
