"""The product-walk relations and Hopcroft minimization against the slow
reference algorithms in ``helpers``: Moore refinement and the
greatest-fixpoint preorder.

Independent random graphs are almost always functionally different, so
most pairs here are a graph against a delay-perturbed copy of itself,
which reaches every verdict.
"""

import random

from hypothesis import given, settings, strategies as st

from pga_mech import (
    ComparisonVerdict,
    bisimilar,
    compare,
    extract_mechanistic,
    functionally_equivalent,
    improves,
    minimize,
)

from helpers import (
    perturb_delays,
    random_graph,
    random_seq,
    reference_bisimilar,
    reference_compare,
    reference_functionally_equivalent,
    reference_improves,
    reference_minimize,
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


@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=0, max_value=4))
@settings(max_examples=300)
def test_relations_match_reference_hypothesis(seed, moves):
    rng = random.Random(seed)
    g = random_graph(rng, max_nodes=9)
    h = perturb_delays(rng, g, moves=moves)
    _check_pair(g, h)
    assert minimize(h) == reference_minimize(h)
