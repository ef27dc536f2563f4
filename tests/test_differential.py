"""The product-walk relations, Hopcroft minimization, the one-pass delay
resolution, the demand-driven implementation search, the one-loop
extraction and the renderers against the slow reference algorithms in
``helpers``, the library's own slower forms and plain references here:
Moore refinement, the greatest-fixpoint preorder, the liveness-based
divergence collapse, the index-order search, the memoizing recursive
extraction, ``json.dumps`` of ``graph_to_dict`` and renderers written from
the ``Node`` view.

Independent random graphs are almost always functionally different, so
most pairs here are a graph against a delay-perturbed copy of itself,
which reaches every verdict.
"""

import json
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
    graph_to_dict,
    has_adjacent_delays,
    improves,
    make_d,
    make_delay,
    make_post,
    make_s,
    minimize,
    parse_pga,
    parse_thread,
    reachable_positions,
    print_thread,
    search_implementations,
    to_dot,
    to_json,
)
from pga_mech.extraction import _extract
from pga_mech.instructions import JUMP
from pga_mech.threads import D, DELAY, POST, S, Node, ThreadGraph, _delay_resolution

from helpers import (
    perturb_delays,
    random_graph,
    random_seq,
    reference_bisimilar,
    reference_collapse_divergence,
    reference_compare,
    reference_extract,
    reference_functional_abstraction,
    reference_functionally_equivalent,
    reference_has_adjacent_delays,
    reference_improves,
    reference_minimize,
    reference_search_implementations,
    split_node,
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


def _dense_seq(rng, count):
    """A sequence of about ``count`` instructions that keeps most positions
    reachable: tests skip one position, jumps are short and ``!`` is rare
    and follows a test."""
    def instr():
        roll, a = rng.random(), rng.choice("abc")
        if roll < 0.02:
            return f"-{a};!"
        if roll < 0.4:
            return a
        if roll < 0.6:
            return "+" + a
        if roll < 0.8:
            return "-" + a
        return f"#{rng.randint(1, 3)}"

    cut = rng.randint(1, count - 1)
    ins = [instr() for _ in range(count)]
    return parse_pga(";".join(ins[:cut]) + ";(" + ";".join(ins[cut:]) + ")^w")


def _check_minimize(g):
    m = minimize(g)
    assert m == reference_minimize(g), g.nodes
    # the result is already numbered breadth-first from root 0
    assert ThreadGraph(m.nodes, 0).nodes == m.nodes


def _delay_chain_tree(rng):
    """Posts over delay chains of 0-4 into sub-graphs that repeat (so the
    chains of several edges can share their delays) and into divergent
    ones (a delay loop of one or three nodes, D), with delay edits."""
    shared = random_graph(rng, max_nodes=8)
    parts = [shared, shared, random_graph(rng, max_nodes=8), make_s(), make_d(),
             parse_thread("P = sigma(P)"), parse_thread("P = sigma(Q); Q = sigma(R); R = sigma(P)")]
    g = make_delay(rng.choice(parts), rng.randint(0, 4))
    for _ in range(rng.randint(1, 4)):
        edges = [g, make_delay(rng.choice(parts), rng.randint(0, 4))]
        rng.shuffle(edges)
        g = make_post(rng.choice("ab"), *edges)
    return perturb_delays(rng, g, moves=rng.randint(0, 3))


def test_minimize_matches_reference():
    rng = random.Random(3003)
    for k in range(1500):
        if k % 2:
            g = random_graph(rng, max_nodes=10)
        else:
            g = extract_mechanistic(random_seq(rng, max_prefix=8, max_cycle=8))
        _check_minimize(perturb_delays(rng, g, moves=rng.randint(0, 3)))
    # larger graphs, where blocks split many times and splitters are still
    # queued when they split
    for _ in range(150):
        _check_minimize(random_graph(rng, max_nodes=60))
    for _ in range(40):
        count = rng.randint(20, 330)
        # an early ``!`` can leave most positions unreachable and the graph
        # tiny; as in perfbench's dense inputs, such a draw is drawn again
        seq = _dense_seq(rng, count)
        while len(reachable_positions(seq)) < 0.85 * seq.total_len:
            seq = _dense_seq(rng, count)
        g = extract_mechanistic(seq)
        for h in (g, collapse_divergence(g), functional_abstraction(g)):
            _check_minimize(h)
    # delay nodes whose chains share a core, and divergent chains, where a
    # delay node's class is its delay count and its core's class
    for _ in range(600):
        g = _delay_chain_tree(rng)
        for h in (g, collapse_divergence(g), functional_abstraction(g)):
            _check_minimize(h)


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


def _back_delay_graphs():
    """Graphs in which a delay node's successor has a smaller id, so the
    resolution's reverse pass defers it: a delay loop, loops of a post and
    delays where the last delay points back to the post, a delay loop
    entered mid-way and a delay chain into D numbered from its end, since
    50 posts enter it one node further each.  The three ``a;(#1ⁿ;a)^w``
    are loops too, but their delays point forward and their post back."""
    yield extract_mechanistic(parse_pga("(#1;#1;#1)^w"))
    for n in (1, 2, 5):
        yield extract_mechanistic(parse_pga("a;(" + "#1;" * n + "a)^w"))
        yield extract_mechanistic(parse_pga("a;(a" + ";#1" * n + ")^w"))
    # post 0 enters the loop 1 -> 2 -> 3 -> 4 -> 1 at 3
    loop = [Node(POST, "a", None, 3, 5), Node(DELAY, next=2), Node(DELAY, next=3),
            Node(DELAY, next=4), Node(DELAY, next=1), Node(S)]
    yield ThreadGraph(loop, 0)
    # posts 0..49 in a line; post i's false edge enters the chain
    # 50 -> 51 -> ... -> 99 -> D at node 99 - i, and post 49's true edge is S
    posts = [Node(POST, "a", None, i + 1 if i < 49 else 101, 99 - i) for i in range(50)]
    chain = [Node(DELAY, next=j + 1) for j in range(50, 100)]
    yield ThreadGraph(posts + chain + [Node(D), Node(S)], 0)


def test_delay_resolution_matches_reference():
    # three random graphs under two posts (the constructors keep each one's
    # D nodes apart) with delay edits, and mechanistic extractions, so that
    # delay loops, delay chains into D and several D nodes are all common;
    # then graphs whose delays point back to smaller ids
    rng = random.Random(3004)
    shapes = set()
    back = list(_back_delay_graphs())
    deferring = [any(n.kind == DELAY and n.next < i for i, n in enumerate(g.nodes)) for g in back]
    assert deferring.count(False) == 3
    for k in range(1500 + len(back)):
        if k >= 1500:
            g = back[k - 1500]
        else:
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
    # delays where the sequence jumps (so the improvement check runs);
    # each also with one node split in two, which the search must minimize;
    # a prefix of 4 only without a cycle, where replies run off the end
    # (cyclic shapes with a prefix of 4 take tight targets, below)
    rng = random.Random(3007)
    split_rng = random.Random(3008)
    shapes = set()
    non_minimal = set()
    for k in range(50):
        alphabet = rng.choice((("a",), ("b",), ("a", "b")))
        n, m = rng.choice([(n, m) for n in range(5) for m in range(3 if n < 4 else 1) if n + m])
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
        split = split_node(split_rng, target)
        split_found = search_implementations(split, bounds)
        assert split_found == reference_search_implementations(split, bounds), (split.nodes, bounds)
        fa = functional_abstraction(split)
        if len(minimize(fa)) < len(fa):
            non_minimal.add(bool(split_found))
    assert shapes == {(False, False), (False, True), (True, False), (True, True)}
    assert non_minimal == {False, True}


def test_search_matches_reference_prefix_4_with_cycle():
    # tight targets, as perfbench's search ops draw them: the behavior of a
    # random fully reachable sequence of the shape whose minimal functional
    # graph needs all but at most one of its slots.  A looser target leaves
    # slots free, and each free slot multiplies the result set, and the
    # reference's time, by the number of slot options.  Every third target
    # is mechanistic, with a delay, so the improvement check runs.
    rng = random.Random(3010)
    for k, (n, m) in enumerate(((4, 1), (4, 2), (4, 1), (4, 1), (4, 1), (4, 2))):
        alphabet = (("a",), ("b",), ("a", "b"))[k % 3]
        extract = extract_mechanistic if k % 3 == 2 else extract_functional
        while True:
            seq = random_seq(rng, max_prefix=n, max_cycle=m, actions=alphabet)
            if (seq.prefix_len, seq.cycle_len) != (n, m) or len(reachable_positions(seq)) < n + m:
                continue
            need = sum(node.kind != D for node in minimize(extract_functional(seq)).nodes)
            target = extract(seq)
            if need >= n + m - 1 and (extract is extract_functional
                                      or any(node.kind == DELAY for node in target.nodes)):
                break
        bounds = SearchBounds(n, m, alphabet)
        found = search_implementations(target, bounds)
        assert found  # seq's own shape implements its behavior
        assert found == reference_search_implementations(target, bounds), (target.nodes, bounds)



def test_functional_abstraction_of_delay_free_thread_minimizes_alike():
    # the search minimizes a delay-free target without abstracting it
    # first: on such a thread, functional abstraction only merges D nodes,
    # which minimize merges as well
    rng = random.Random(2324)
    several_d = merged_more = 0
    for _ in range(5000):
        g = random_graph(rng, max_nodes=8, allow_delay=False)
        fa = functional_abstraction(g)
        assert minimize(fa) == minimize(g), g.nodes
        several_d += sum(node.kind == D for node in g.nodes) > 1
        merged_more += len(minimize(g)) < len(fa)
    # the corpus has threads with several D nodes, and threads where
    # minimize merges more than D nodes
    assert several_d > 50 and merged_more > 300

def test_search_non_minimal_target():
    # P and Q are bisimilar, and the one slot of (a)^w stands for both: a
    # search that gives each slot one target node has to minimize first
    target = parse_thread("P = a . Q; Q = a . P")
    bounds = SearchBounds(0, 2, ("a",))
    found = search_implementations(target, bounds)
    assert len(found) == 18
    assert found[0] == parse_pga("(a)^w")
    assert found == reference_search_implementations(target, bounds)


def _check_extract(seq):
    for with_delays in (False, True):
        # graph equality includes the node numbering
        assert _extract(seq, with_delays) == reference_extract(seq, with_delays), \
            (str(seq), with_delays)


def _jump_dense_seq(rng):
    """A sequence of up to 18 instructions, most of them jumps: ``#0``,
    counters up to 3·(n+m), and jumps whose target is exactly position
    n+m or n+m+1 (the first two slots of the cycle again, or past the
    end)."""
    n = rng.randint(0, 8)
    m = rng.randint(1, 10) if rng.random() < 0.8 else 0
    if not n + m:
        n = 1
    size = n + m

    def instr(p):
        roll = rng.random()
        if roll < 0.25:
            return rng.choice(("a", "+a", "-b", "!"))
        if roll < 0.35:
            return "#0"
        if roll < 0.5:
            return f"#{size + rng.randint(0, 1) - p}"
        return f"#{rng.randint(1, 3 * size)}"

    ins = [instr(p) for p in range(size)]
    return parse_pga(";".join(ins[:n] + ([f"({';'.join(ins[n:])})^w"] if m else [])))


def _jump_shapes(seq):
    """What the jump chains of ``seq`` do, followed here position by
    position: land exactly on n+m or n+m+1, wrap the cycle, run off the
    end, and end in a cycle of jumps, entered in the cycle or from the
    prefix."""
    code = seq.prefix + (seq.cycle or ())
    n, m = seq.prefix_len, seq.cycle_len
    size = n + m
    shapes = set()
    for start, ins in enumerate(code):
        if ins.kind != JUMP or not ins.counter:
            continue
        p, passed = start, []
        while p is not None and code[p].kind == JUMP and code[p].counter and p not in passed:
            passed.append(p)
            q = p + code[p].counter
            if q in (size, size + 1):
                shapes.add(f"onto n+m+{q - size}")
            if q >= size:
                shapes.add("wraps" if m else "off the end")
                q = n + (q - n) % m if m else None
            p = q
        if p in passed:
            shapes.add("jump cycle in the cycle" if start >= n else "jump cycle from the prefix")
    return shapes


_JUMPY = ("a", "+a", "-b", "!", "#0", "#1", "#2", "#3", "#5", "#9")


def test_extract_matches_reference():
    rng = random.Random(3009)
    for _ in range(2000):
        _check_extract(random_seq(rng))
    # jump-heavy: #0, jumps off the end, cycles of jumps and chains of jumps
    # that converge on one landing, in the prefix, the cycle and across
    for text in ("#0", "#5;a", "(#1)^w", "a;(#2;#1;#3)^w", "+a;#2;#1;#1;b;!", "#9;(#1;#1;a)^w"):
        _check_extract(parse_pga(text))
    for _ in range(2000):
        prefix = [rng.choice(_JUMPY) for _ in range(rng.randint(0, 10))]
        cycle = [rng.choice(_JUMPY) for _ in range(rng.randint(0, 10))]
        if not prefix and not cycle:
            continue
        text = ";".join(prefix + ([f"({';'.join(cycle)})^w"] if cycle else []))
        _check_extract(parse_pga(text))
    # dense: actions, tests and short jumps, so nearly every position is
    # reached
    dense = ("a", "b", "+a", "-b", "+c", "#1", "#2", "#3")
    for count in (100, 300, 1000, 3000, 10_000):
        ins = [rng.choice(dense) for _ in range(count)]
        seq = parse_pga(";".join(ins[:count // 5]) + ";(" + ";".join(ins[count // 5:]) + ";-a;!)^w")
        _check_extract(seq)
        assert len(extract_mechanistic(seq)) > count // 2
    # jump-dense: every counter from #0 up to 3·(n+m), chains that wrap
    # the cycle (some more than once), and cycles of jumps inside the cycle
    # and entered from the prefix
    shapes = set()
    for _ in range(3000):
        seq = _jump_dense_seq(rng)
        shapes |= _jump_shapes(seq)
        _check_extract(seq)
    assert shapes == {"onto n+m+0", "onto n+m+1", "wraps", "off the end",
                      "jump cycle in the cycle", "jump cycle from the prefix"}


def _print_thread_reference(g):
    """``print_thread`` written from the ``Node`` view, one name per use."""
    lines = []
    for i, node in enumerate(g.nodes):
        if node.kind == POST:
            lines.append(f"T{i} = {node.action} ? T{node.true} : T{node.false}")
        elif node.kind == DELAY:
            lines.append(f"T{i} = sigma(T{node.next})")
        else:
            lines.append(f"T{i} = {node.kind}")
    return "\n".join(lines)


def _to_dot_reference(g):
    """``to_dot`` written from the ``Node`` view: the node lines, then
    the edge lines."""
    lines = ["digraph thread {"]
    for i, node in enumerate(g.nodes):
        label = "σ" if node.kind == DELAY else node.action if node.kind == POST else node.kind
        box = ", shape=box" if node.kind in (S, D) else ""
        lines.append(f'  n{i} [label="{label}"{box}];')
    for i, node in enumerate(g.nodes):
        if node.kind == POST:
            lines.append(f"  n{i} -> n{node.true} [style=solid];")
            lines.append(f"  n{i} -> n{node.false} [style=dashed];")
        elif node.kind == DELAY:
            lines.append(f"  n{i} -> n{node.next};")
    return "\n".join(lines + ["}"])


def test_renderers_match_references():
    # random graphs, extracted graphs of both kinds, and dense extractions
    # of thousands of nodes, where ids run to four and five digits
    rng = random.Random(3012)
    graphs = [random_graph(rng, max_nodes=12, actions=("a", "x.y", "b_2")) for _ in range(400)]
    for _ in range(200):
        seq = random_seq(rng, actions=("a.b", "c_1", "d2"))
        graphs += [extract_mechanistic(seq), extract_functional(seq)]
    dense = ("a", "b", "+a", "-b", "+c", "#1", "#2", "#3")
    for count in (300, 3000, 12_000):
        ins = [rng.choice(dense) for _ in range(count)]
        seq = parse_pga(";".join(ins[:count // 5]) + ";(" + ";".join(ins[count // 5:]) + ";-a;!)^w")
        graphs += [extract_mechanistic(seq), extract_functional(seq)]
    assert max(map(len, graphs)) > 10_000
    for g in graphs:
        text = print_thread(g)
        assert to_json(g) == json.dumps(graph_to_dict(g))
        assert to_dot(g) == _to_dot_reference(g)
        assert text == _print_thread_reference(g)
        assert parse_thread(text) == g


def test_to_json_matches_json_dumps():
    rng = random.Random(3010)
    for _ in range(500):
        g = random_graph(rng, max_nodes=8, actions=("a", "x.y", "b_2", "c3.d_4"))
        assert to_json(g) == json.dumps(graph_to_dict(g))
    kinds = set()
    for _ in range(500):
        g = extract_mechanistic(random_seq(rng, actions=("a.b", "c_1", "d2", "e.f_3.g4")))
        assert to_json(g) == json.dumps(graph_to_dict(g))
        kinds |= {node.kind for node in g.nodes}
    assert kinds == {S, D, DELAY, POST}
