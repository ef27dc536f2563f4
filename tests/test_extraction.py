import random

from hypothesis import given, settings, strategies as st

from pga_mech import (
    InstrSeq,
    TERMINATE,
    basic,
    bisimilar,
    canonicalize,
    extract_functional,
    extract_mechanistic,
    functional_abstraction,
    jump,
    make_d,
    make_delay,
    make_post,
    make_prefix,
    make_s,
    neg_test,
    parse_pga,
    parse_thread,
    pos_test,
)
from pga_mech.threads import DELAY, ThreadGraph

from helpers import random_seq, run_graph, run_sequence


A_THEN_S = make_prefix("a", make_s())


def test_functional_examples():
    assert bisimilar(extract_functional(parse_pga("#1;#1;a;!")), A_THEN_S)
    assert extract_functional(parse_pga("#1;#1;a;!")) == extract_functional(parse_pga("a;!"))
    assert extract_functional(parse_pga("(#2;a)^w")) == make_d()
    assert bisimilar(extract_functional(parse_pga("a")), make_prefix("a", make_d()))
    expected = make_post("a", make_prefix("b", make_s()), make_prefix("c", make_s()))
    assert bisimilar(extract_functional(parse_pga("+a;#3;c;!;b;!")), expected)


def test_mechanistic_examples():
    loop = parse_thread("P = sigma(Q)\nQ = a . P")
    assert bisimilar(extract_mechanistic(parse_pga("(#1;a)^w")), loop)
    assert bisimilar(extract_mechanistic(parse_pga("(#2;#1;a)^w")), loop)
    loop2 = parse_thread("P = sigma(P2)\nP2 = sigma(Q)\nQ = a . P")
    assert bisimilar(extract_mechanistic(parse_pga("(#1;#1;a)^w")), loop2)
    selfloop = parse_thread("P = sigma(P)")
    assert bisimilar(extract_mechanistic(parse_pga("(#2;a)^w")), selfloop)
    assert bisimilar(extract_mechanistic(parse_pga("#1;#1;a;!")), make_delay(A_THEN_S, 2))
    assert bisimilar(extract_mechanistic(parse_pga("#1;a;!")), make_delay(A_THEN_S, 1))
    branch_cost = make_post("a", make_delay(make_prefix("b", make_s())), make_prefix("c", make_s()))
    assert bisimilar(extract_mechanistic(parse_pga("+a;#3;c;!;b;!")), branch_cost)


def test_finite_fall_off_behaviors():
    # a jump off the end pays its delay, then deadlocks
    assert bisimilar(extract_mechanistic(parse_pga("#2;!")), make_delay(make_d()))
    assert extract_functional(parse_pga("#2;!")) == make_d()
    assert bisimilar(extract_mechanistic(parse_pga("a;#1")),
                     make_prefix("a", make_delay(make_d())))


def test_test_at_end_branches_to_deadlock():
    g = extract_functional(parse_pga("+a"))
    assert bisimilar(g, make_post("a", make_d(), make_d()))


def _dense_seq(rng: random.Random, n: int, m: int):
    """Actions and short jumps and no termination, so nearly every position
    is reached."""
    def instr():
        if rng.random() < 0.2:
            return jump(rng.randint(1, 3))
        return rng.choice((basic, pos_test, neg_test))(rng.choice("abc"))

    return InstrSeq(tuple(instr() for _ in range(n)), tuple(instr() for _ in range(m)))


def test_node_count_bound():
    # extraction numbers its nodes as the constructor would, which lets it
    # skip the constructor's renumbering
    rng = random.Random(11)
    dense = _dense_seq(rng, 1000, 9000)
    assert len(extract_mechanistic(dense)) > 9000
    seqs = [random_seq(rng, *sizes) for sizes in ((8, 6), (3, 3), (0, 12), (40, 30))
            for _ in range(100)]
    for s in seqs + [dense]:
        for extractor in (extract_functional, extract_mechanistic):
            g = extractor(s)
            assert len(g) <= s.total_len + 2
            assert ThreadGraph(g.nodes, g.root).nodes == g.nodes, s


def test_functional_is_abstraction_of_mechanistic():
    rng = random.Random(2024)
    for _ in range(2000):
        s = random_seq(rng)
        assert bisimilar(extract_functional(s),
                         functional_abstraction(extract_mechanistic(s))), s


_instr = st.one_of(
    st.sampled_from("abc").map(basic),
    st.sampled_from("abc").map(pos_test),
    st.sampled_from("abc").map(neg_test),
    st.just(TERMINATE),
    st.integers(min_value=0, max_value=9).map(jump),
)
_seqs = st.tuples(
    st.lists(_instr, max_size=6).map(tuple),
    st.one_of(st.none(), st.lists(_instr, min_size=1, max_size=5).map(tuple)),
).filter(lambda t: t[0] or t[1]).map(lambda t: InstrSeq(*t))


@given(_seqs)
@settings(max_examples=300)
def test_functional_is_abstraction_hypothesis(seq):
    assert bisimilar(extract_functional(seq),
                     functional_abstraction(extract_mechanistic(seq)))


def test_extraction_commutes_with_canonicalize():
    rng = random.Random(7)
    for _ in range(300):
        s = random_seq(rng)
        assert bisimilar(extract_mechanistic(canonicalize(s)), extract_mechanistic(s))


def test_delay_count_matches_interpreter():
    # one delay per executed jump: co-simulate on random reply streams
    rng = random.Random(4)
    for _ in range(400):
        s = random_seq(rng)
        g = extract_mechanistic(s)
        for _ in range(4):
            replies = [rng.random() < 0.5 for _ in range(64)]
            seq_events, seq_out = run_sequence(s, replies, 48)
            graph_events, graph_out = run_graph(g, replies, 48)
            assert seq_events == graph_events, s
            assert seq_out == graph_out, s


def test_functional_extraction_has_no_delays():
    rng = random.Random(13)
    for _ in range(300):
        s = random_seq(rng)
        assert all(n.kind != DELAY for n in extract_functional(s).nodes)
