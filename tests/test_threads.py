import json
import random

import pytest

from pga_mech import (
    ThreadSyntaxError,
    bisimilar,
    collapse_divergence,
    extract_functional,
    extract_mechanistic,
    functional_abstraction,
    graph_to_dict,
    make_d,
    make_delay,
    make_post,
    make_prefix,
    make_s,
    minimize,
    parse_pga,
    parse_thread,
    print_thread,
    to_dot,
    to_json,
)
from pga_mech.threads import D, DELAY, Node, POST, S, ThreadGraph, _numbered

from helpers import random_graph, random_seq, reference_parse_thread, reference_to_dot


def test_constructor_garbage_collects():
    nodes = [Node(S), Node(S), Node(POST, action="a", true=0, false=0)]
    g = ThreadGraph(nodes, 2)
    assert len(g) == 2  # the unreferenced S node is dropped
    assert g.root == 0


def test_node_constructor_validates():
    bad = [
        lambda: Node("loop"),  # unknown kind
        lambda: Node(POST, action="A", true=0, false=0),  # not an action name
        lambda: Node(POST, action="a"),  # post node without successors
        lambda: Node(DELAY),  # delay node without next
        lambda: Node(S, action="a"),  # termination with a payload
        lambda: Node(D, next=0),
        lambda: Node(DELAY, next=-1),
    ]
    for make in bad:
        with pytest.raises(ValueError):
            make()
    # a node is the tuple of its fields
    assert Node(S) == ("S", None, None, None, None)
    assert Node(POST, action="a", true=1, false=2).successors() == (1, 2)


def test_graph_constructor_checks():
    with pytest.raises(ValueError, match="^root is not a node$"):
        ThreadGraph([Node(S)], 1)
    # Node._make skips the node checks, so only the graph's can catch a
    # post node without successors
    for node in (Node(DELAY, next=1), Node._make((POST, "a", None, None, None))):
        with pytest.raises(ValueError, match="^edge target is not a node$"):
            ThreadGraph([node], 0)
    with pytest.raises(ValueError, match="^delay count must be nonnegative$"):
        make_delay(make_s(), -1)


def test_graph_constructor_takes_only_nodes():
    for entry, message in (((S, None, None, None, None),
                            "node 1 is not a Node: ('S', None, None, None, None)"),
                           (None, "node 1 is not a Node: None"),
                           ("S", "node 1 is not a Node: 'S'")):
        with pytest.raises(TypeError) as error:
            ThreadGraph([Node(S), entry, None], 0)
        assert str(error.value) == message
    # the entries are checked before the root and the edges
    with pytest.raises(TypeError) as error:
        ThreadGraph([Node(DELAY, next=7), (D,)], 5)
    assert str(error.value) == "node 1 is not a Node: ('D',)"


def test_parse_thread_shapes():
    g = parse_thread("P = sigma(Q)\nQ = a ? P : Q2\nQ2 = S")
    assert len(g) == 3
    assert g.nodes[0].kind == DELAY
    g2 = parse_thread("P = S")
    assert g2 == make_s()
    g3 = parse_thread(
        "P = a ? P1 : P2\nP1 = b ? P1b : P1s\nP1b = S\nP1s = S\n"
        "P2 = c ? C : C2\nC = S\nC2 = S")
    expected = make_post("a", make_post("b", make_s(), make_s()),
                         make_post("c", make_s(), make_s()))
    assert bisimilar(g3, expected)


def test_parse_thread_prefix_sugar():
    assert parse_thread("P = a . Q\nQ = S") == make_prefix("a", make_s())


def test_parse_thread_semicolon_separator():
    assert parse_thread("P = a ? P : Q; Q = S") == parse_thread("P = a ? P : Q\nQ = S")


def test_parse_thread_comments():
    g = parse_thread("# behavior\nP = S  # terminate")
    assert g == make_s()
    # a comment runs to the end of its line, ``;`` included
    assert parse_thread("P = a . Q  # run a; then stop\nQ = S") == make_prefix("a", make_s())
    with pytest.raises(ThreadSyntaxError) as undefined:
        parse_thread("P = a . Q # loop; Q = S")
    assert undefined.value.line == 1 and "undefined name 'Q'" in str(undefined.value)


def test_parse_thread_errors():
    for text, message in (("", "no equations"),
                          ("P = S\nP = D", "duplicate definition of 'P' at line 2"),
                          ("S = S", "'S' is reserved at line 1"),
                          ("P = a ?? Q : R", "cannot parse right-hand side 'a ?? Q : R' at line 1")):
        with pytest.raises(ThreadSyntaxError) as error:
            parse_thread(text)
        assert str(error.value) == message, text
    with pytest.raises(ThreadSyntaxError) as undefined:
        parse_thread("P = a ? Q : R\nQ = S")  # R undefined
    assert undefined.value.line == 1
    with pytest.raises(ThreadSyntaxError) as undefined:
        parse_thread("P = a . Q\nQ = sigma(R)\nT = b ? R : P")
    assert undefined.value.line == 2 and "'R'" in str(undefined.value)
    # a reserved name used as a reference names the form to write instead
    for text, name, form, line in (("P = a ? P : D", "D", "D", 1),
                                   ("P = a . Q\nQ = sigma(S)", "S", "S", 2),
                                   ("P = a . sigma", "sigma", "sigma(N)", 1)):
        with pytest.raises(ThreadSyntaxError) as reserved:
            parse_thread(text)
        assert reserved.value.line == line, text
        assert f"{name!r} is reserved" in str(reserved.value), text
        assert f"'X = {form}'" in str(reserved.value), text


_EQ_NAMES = ("P", "Q", "R", "T1", "x_y")
_BAD_NAMES = ("S", "D", "sigma", "U", "1P", "é", "")
_ACTIONS = ("a", "b", "x.y", "sigma", "a1_.b", "S", "A", "é", "a-b", "")
_SPACE = ("", "", "", " ", "  ", "\t", "\r", "\u00a0", "\u2003", "\x0b")
_SEPARATORS = ("\n", "\n", ";", " ; ", "\n\n", "  # note; P = S\n", "#\n")
_JUNK = ("#", ";", "=", "\n", "?", ":", ".", "(", ")", "??", "sigma", "S")


def _thread_soup(rng: random.Random) -> str:
    """Thread text from a soup of equations: mostly well-formed, with
    whitespace around every token, reserved, undefined or malformed names
    and actions at a small share, and now and then a junk token."""
    def sp() -> str:
        return rng.choice(_SPACE)

    names = _EQ_NAMES[:rng.randint(1, len(_EQ_NAMES))]

    def name() -> str:
        return rng.choice(_BAD_NAMES if rng.random() < 0.04 else names)

    def action() -> str:
        return rng.choice(_ACTIONS if rng.random() < 0.08 else _ACTIONS[:5])

    def rhs() -> str:
        roll = rng.random()
        if roll < 0.25:
            return rng.choice("SD")
        if roll < 0.4:
            return f"sigma{sp()}({sp()}{name()}{sp()})"
        if roll < 0.7:
            return f"{action()}{sp()}?{sp()}{name()}{sp()}:{sp()}{name()}"
        return f"{action()}{sp()}.{sp()}{name()}"

    lhs = [rng.choice(_BAD_NAMES) if rng.random() < 0.02 else n for n in names]
    if rng.random() < 0.05:
        lhs.append(rng.choice(names))
    rng.shuffle(lhs)
    text = "".join(f"{sp()}{n}{sp()}={sp()}{rhs()}{sp()}{rng.choice(_SEPARATORS)}" for n in lhs)
    if rng.random() < 0.1:
        at = rng.randrange(len(text) + 1)
        text = text[:at] + rng.choice(_JUNK) + text[at:]
    return text


def _parsed(parse, text):
    try:
        return parse(text).nodes
    except ThreadSyntaxError as exc:
        return str(exc), exc.line


def test_parse_thread_matches_reference():
    # the one-pattern parser must build the graph the form-by-form parser
    # builds, or raise its first error with the same message and line
    rng = random.Random(1501)
    valid = 0
    for _ in range(20_000):
        text = _thread_soup(rng)
        expected = _parsed(reference_parse_thread, text)
        assert _parsed(parse_thread, text) == expected, text
        valid += isinstance(expected[0], Node)
    assert 4_000 < valid < 16_000


def test_numbered_names_match_formatted_ones():
    # the renderers' names extend shorter names by a digit; each count
    # around a power of ten ends inside, or just past, a run of ten
    for n in [*range(0, 23), 99, 100, 101, 109, 110, 999, 1000, 1001, 10_009]:
        assert _numbered("T", n) == [f"T{i}" for i in range(n)], n
        assert _numbered("", n) == list(map(str, range(n))), n


def test_print_thread_examples():
    assert print_thread(make_s()) == "T0 = S"
    loop = extract_mechanistic(parse_pga("(#2;a)^w"))
    assert print_thread(loop) == "T0 = sigma(T0)"
    assert print_thread(make_post("a", make_s(), make_s())) == "T0 = a ? T1 : T2\nT1 = S\nT2 = S"


def test_print_parse_roundtrip_random():
    rng = random.Random(99)
    for _ in range(200):
        g = random_graph(rng)
        assert parse_thread(print_thread(g)) == g
        assert str(g) == print_thread(g)


def test_bisimilar_examples():
    a_s = make_prefix("a", make_s())
    assert bisimilar(make_delay(a_s), make_delay(a_s))
    assert not bisimilar(make_delay(make_d()), make_d())
    p1 = extract_mechanistic(parse_pga("(#1;a)^w"))
    p2 = extract_mechanistic(parse_pga("(#2;#1;a)^w"))
    assert bisimilar(p1, p2)
    # divergent chains match on their signatures: delay loops of any
    # length are one behavior, delay chains into D differ in length
    for left, right, expected in (("(#1)^w", "(#1;#1)^w", True),
                                  ("a;(#1)^w", "a;#1;(#1)^w", True),
                                  ("a;#1;#0", "a;#1;#1;#0", False),
                                  ("a;(#1)^w", "a;#0", False)):
        p, q = (extract_mechanistic(parse_pga(text)) for text in (left, right))
        assert bisimilar(p, q) is expected, (left, right)
        assert bisimilar(q, p) is expected, (left, right)


def test_bisimilar_is_equivalence():
    rng = random.Random(5)
    graphs = [random_graph(rng) for _ in range(30)]
    for g in graphs:
        assert bisimilar(g, g)
    for g in graphs:
        for h in graphs:
            assert bisimilar(g, h) == bisimilar(h, g)
    for g in graphs:
        for h in graphs:
            for k in graphs:
                if bisimilar(g, h) and bisimilar(h, k):
                    assert bisimilar(g, k)


def test_collapse_divergence_examples():
    loop = extract_mechanistic(parse_pga("(#2;a)^w"))
    assert collapse_divergence(loop) == make_d()
    assert collapse_divergence(make_delay(make_delay(make_d()))) == make_d()
    keep = make_post("a", make_delay(make_s()), make_d())
    assert collapse_divergence(keep) == keep


def test_collapse_divergence_idempotent_and_fa_stable():
    rng = random.Random(17)
    for _ in range(200):
        g = random_graph(rng)
        c = collapse_divergence(g)
        assert collapse_divergence(c) == c
        assert bisimilar(functional_abstraction(c), functional_abstraction(g))


def test_functional_abstraction_examples():
    a_s = make_prefix("a", make_s())
    assert functional_abstraction(make_delay(a_s)) == a_s
    deep = make_delay(a_s, 6)
    shallow = make_delay(a_s, 3)
    assert bisimilar(functional_abstraction(deep), functional_abstraction(shallow))
    loop = extract_mechanistic(parse_pga("(#2;a)^w"))
    assert functional_abstraction(loop) == make_d()


def test_functional_abstraction_removes_all_delays():
    rng = random.Random(23)
    for _ in range(200):
        g = random_graph(rng)
        fa = functional_abstraction(g)
        assert all(node.kind != DELAY for node in fa.nodes)
        assert bisimilar(functional_abstraction(fa), fa)


def test_minimize_examples():
    two_leaves = make_post("a", make_s(), make_s())
    assert len(minimize(two_leaves)) == 2
    g1 = minimize(extract_mechanistic(parse_pga("(a;a)^w")))
    g2 = minimize(extract_mechanistic(parse_pga("(a)^w")))
    assert g1 == g2
    chain = make_delay(make_delay(make_d()))
    assert len(minimize(chain)) == 3  # delay-exact: no collapse without normalization
    assert len(minimize(collapse_divergence(chain))) == 1


def test_minimize_on_delay_chains():
    # a delay node's class is its delay count and its core's class: delay
    # loops of any length are one self-loop, divergence signatures are
    # kept, D nodes merge, and chains into one core share their delays
    for loop in ("P = sigma(P)", "P = sigma(Q)\nQ = sigma(R)\nR = sigma(P)"):
        assert print_thread(minimize(parse_thread(loop))) == "T0 = sigma(T0)"
    once, twice = minimize(make_delay(make_d(), 1)), minimize(make_delay(make_d(), 2))
    assert (len(once), len(twice)) == (2, 3)
    assert once != twice
    two_ds = make_post("a", make_d(), make_d())
    assert len(two_ds) == 3
    assert print_thread(minimize(two_ds)) == "T0 = a ? T1 : T1\nT1 = D"
    rng = random.Random(41)
    for _ in range(100):
        g = random_graph(rng, allow_delay=False)
        h = make_post("a", make_delay(g, 2), make_delay(g, 3))
        assert len(minimize(h)) == len(minimize(g)) + 4
        assert bisimilar(minimize(h), h)


def test_minimize_preserves_and_shrinks():
    rng = random.Random(31)
    for _ in range(200):
        g = random_graph(rng)
        m = minimize(g)
        assert bisimilar(g, m)
        assert len(m) <= len(g)


def test_to_dot_shapes():
    assert to_dot(make_s()).count("label=\"S\"") == 1
    d = to_dot(make_post("a", make_s(), make_d()))
    assert d.startswith("digraph")
    assert "style=solid" in d and "style=dashed" in d
    loop = extract_mechanistic(parse_pga("(#1;a)^w"))
    dot = to_dot(loop)
    assert "σ" in dot


def test_to_dot_matches_two_pass_reference():
    rng = random.Random(37)
    graphs = [random_graph(rng) for _ in range(200)]
    graphs += [extract_mechanistic(random_seq(rng)) for _ in range(200)]
    kinds = set()
    for g in graphs:
        assert to_dot(g) == reference_to_dot(g), g.nodes
        kinds.update(node.kind for node in g.nodes)
    assert kinds == {S, D, DELAY, POST}


def test_json_schema():
    g = extract_mechanistic(parse_pga("(#1;a)^w"))
    payload = json.loads(to_json(g))
    assert payload == {
        "root": 0,
        "nodes": [
            {"id": 0, "kind": "delay", "next": 1},
            {"id": 1, "kind": "post", "action": "a", "true": 0, "false": 0},
        ],
    }
    assert graph_to_dict(make_s()) == {"root": 0, "nodes": [{"id": 0, "kind": "S"}]}


def _view_contract_graphs():
    """Factories of graphs from every public builder; each call builds a
    new graph whose ``nodes`` view has not been read."""
    rng = random.Random(41)
    seqs = [random_seq(rng) for _ in range(30)] + [parse_pga("+a;#2;!;b;#0"),
                                                   parse_pga("(#1;#1;a)^w")]
    texts = [print_thread(random_graph(rng)) for _ in range(30)]
    texts.append("P = a ? Q : R; Q = sigma(P)\nR = b . R")
    factories = []
    for seq in seqs:
        factories += [lambda seq=seq: extract_functional(seq),
                      lambda seq=seq: extract_mechanistic(seq),
                      lambda seq=seq: minimize(extract_mechanistic(seq)),
                      lambda seq=seq: collapse_divergence(extract_mechanistic(seq)),
                      lambda seq=seq: functional_abstraction(extract_mechanistic(seq))]
    for text in texts:
        factories += [lambda text=text: parse_thread(text),
                      lambda text=text: minimize(parse_thread(text))]
    factories += [
        make_s, make_d,
        lambda: make_delay(make_prefix("a", make_s()), 2),
        lambda: make_post("b", make_delay(make_d()), make_prefix("a", make_s())),
        lambda: ThreadGraph([Node(S), Node(DELAY, next=2),
                             Node(POST, action="a", true=1, false=0)], 2),
    ]
    return factories


def test_nodes_view_leaves_the_graph_unchanged():
    def observed(g):
        return (len(g), hash(g), print_thread(g), to_dot(g), to_json(g), graph_to_dict(g))

    kinds = set()
    for make in _view_contract_graphs():
        g, fresh = make(), make()
        # builders and renderers work on plain rows and build no Node
        before = observed(g)
        assert all(type(row) is tuple for row in g._rows)
        assert g == fresh and fresh == g
        nodes = g.nodes
        assert all(type(node) is Node for node in nodes)
        assert g.nodes is nodes
        with pytest.raises(AttributeError):
            g.nodes = nodes
        assert observed(g) == before
        assert g == fresh and fresh == g and hash(g) == hash(fresh)
        # a Node hashes like its plain tuple, so a graph hashes as the tuple
        # of its Nodes, whether or not the view has been built
        assert hash(g) == hash(nodes)
        kinds.update(node.kind for node in nodes)
    assert kinds == {S, D, DELAY, POST}
