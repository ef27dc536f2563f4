import random

from pga_mech import (
    ComparisonVerdict,
    compare,
    extract_mechanistic,
    functionally_equivalent,
    improves,
    is_implementation,
    is_pre_extraction,
    make_d,
    make_delay,
    make_post,
    make_prefix,
    make_s,
    parse_pga,
    strictly_improves,
)
from pga_mech.threads import DELAY, Node, POST, ThreadGraph

from helpers import (
    closure_set_for_pair,
    oracle_closure,
    random_graph,
    random_term,
    term_to_graph,
)

A_THEN_S = make_prefix("a", make_s())
B_THEN_S = make_prefix("b", make_s())
C_THEN_S = make_prefix("c", make_s())


def test_functionally_equivalent_examples():
    assert functionally_equivalent(make_delay(A_THEN_S, 3), make_delay(A_THEN_S, 6))
    left = make_post("a", make_delay(B_THEN_S), C_THEN_S)
    right = make_post("a", B_THEN_S, make_delay(C_THEN_S))
    assert functionally_equivalent(left, right)
    assert not functionally_equivalent(A_THEN_S, B_THEN_S)


def test_improves_examples():
    assert improves(make_delay(A_THEN_S, 3), make_delay(A_THEN_S, 6))
    assert not improves(make_delay(A_THEN_S, 6), make_delay(A_THEN_S, 3))
    left = make_post("a", make_delay(B_THEN_S), C_THEN_S)
    right = make_post("a", B_THEN_S, make_delay(C_THEN_S))
    assert not improves(left, right) and not improves(right, left)
    assert improves(make_d(), make_delay(make_d()))
    assert improves(make_delay(make_d()), make_d())
    slow = extract_mechanistic(parse_pga("(+a;#6;-b;!;+b;#4;!)^w"))
    fast = extract_mechanistic(parse_pga("(+a;#4;+b;#4;!)^w"))
    assert improves(slow, fast)


def test_strictly_improves_examples():
    assert strictly_improves(make_delay(A_THEN_S), make_delay(A_THEN_S, 2))
    assert not strictly_improves(A_THEN_S, A_THEN_S)
    assert strictly_improves(make_delay(make_d()), make_d())


def test_compare_examples():
    x = extract_mechanistic(parse_pga("+a;#3;c;!;b;!"))
    y = extract_mechanistic(parse_pga("-a;#3;b;!;c;!"))
    assert compare(x, y) is ComparisonVerdict.INCOMPARABLE
    q = extract_mechanistic(parse_pga("(+a;#3;b;!)^w"))
    q_prime = extract_mechanistic(parse_pga("-a;#3;(+a;#3;b;!)^w"))
    assert compare(q, q_prime) is ComparisonVerdict.INCOMPARABLE
    assert compare(make_delay(make_d()), make_d()) is ComparisonVerdict.MUTUALLY_EQUIVALENT
    assert compare(A_THEN_S, A_THEN_S) is ComparisonVerdict.EQUAL
    assert compare(A_THEN_S, B_THEN_S) is ComparisonVerdict.FUNCTIONALLY_DIFFERENT
    assert compare(make_delay(A_THEN_S), make_delay(A_THEN_S, 2)) is ComparisonVerdict.STRICTLY_IMPROVES
    assert compare(make_delay(A_THEN_S, 2), make_delay(A_THEN_S)) is ComparisonVerdict.STRICTLY_IMPROVED_BY
    loop, loop2 = (extract_mechanistic(parse_pga(t)) for t in ("(#1)^w", "(#1;#1)^w"))
    assert compare(loop, loop2) is ComparisonVerdict.EQUAL
    spin, stop = (extract_mechanistic(parse_pga(t)) for t in ("a;(#1)^w", "a;#0"))
    assert compare(spin, stop) is ComparisonVerdict.MUTUALLY_EQUIVALENT


def test_is_implementation_examples():
    p = make_post("a", B_THEN_S, C_THEN_S)
    assert is_implementation(parse_pga("+a;#3;c;!;b;!"), p)
    assert is_implementation(parse_pga("a;!"), A_THEN_S)
    assert not is_implementation(parse_pga("b;!"), A_THEN_S)


def test_is_pre_extraction_examples():
    assert is_pre_extraction(parse_pga("a;!"), A_THEN_S)
    assert not is_pre_extraction(parse_pga("#1;a;!"), A_THEN_S)
    p = make_post("a", B_THEN_S, C_THEN_S)
    assert not is_pre_extraction(parse_pga("+a;#3;c;!;b;!"), p)


def test_preorder_properties_random():
    rng = random.Random(61)
    graphs = [random_graph(rng) for _ in range(25)]
    for g in graphs:
        assert improves(g, g)
    related = [(g, h) for g in graphs for h in graphs if improves(g, h)]
    for g, h in related:
        assert functionally_equivalent(g, h)
        for h2, k in related:
            if h is h2:
                assert improves(g, k)


def test_extra_delay_always_improvable():
    # wrapping any node in one more delay yields a behavior the original improves
    rng = random.Random(71)
    for _ in range(200):
        g = random_graph(rng)
        target = rng.randrange(len(g.nodes))
        nodes = list(g.nodes)
        delay_id = len(nodes)
        nodes.append(Node(DELAY, next=target))
        rerouted = []
        for node in nodes[:-1]:
            if node.kind == DELAY:
                rerouted.append(Node(DELAY, next=delay_id if node.next == target else node.next))
            elif node.kind == POST:
                rerouted.append(Node(POST, action=node.action,
                                     true=delay_id if node.true == target else node.true,
                                     false=delay_id if node.false == target else node.false))
            else:
                rerouted.append(node)
        rerouted.append(nodes[-1])
        delayed = ThreadGraph(rerouted, delay_id if g.root == target else g.root)
        assert improves(g, delayed)


def test_postconditional_congruence():
    rng = random.Random(83)
    for _ in range(150):
        p = random_graph(rng, max_nodes=4)
        q = random_graph(rng, max_nodes=4)
        p2 = make_delay(p, rng.randint(0, 2))
        q2 = make_delay(q, rng.randint(0, 2))
        if improves(p, p2) and improves(q, q2):
            assert improves(make_post("a", p, q), make_post("a", p2, q2))


def test_oracle_agreement_on_random_nested_terms():
    # nested branching terms exercise congruence within congruence
    rng = random.Random(123)
    for _ in range(60):
        s = random_term(rng)
        t = random_term(rng)
        terms = closure_set_for_pair(s, t)
        rows, idx = oracle_closure(terms)
        want = bool(rows[idx[s]] >> idx[t] & 1)
        got = improves(term_to_graph(s), term_to_graph(t))
        assert want == got, (s, t)
