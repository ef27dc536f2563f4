"""Shared test machinery: random generators, a reference interpreter for
co-simulation, the brute-force rule-closure oracle for the improvement
preorder on finite thread terms, and the slow reference algorithms (Moore
refinement, the liveness-based divergence collapse, the greatest-fixpoint
preorder, the index-order implementation search and the all-pairs Pareto
front) that the library is checked against."""

from __future__ import annotations

import random

from pga_mech import (
    ComparisonVerdict,
    InstrSeq,
    SearchBounds,
    ThreadGraph,
    basic,
    extract_mechanistic,
    improves,
    jump,
    make_d,
    make_delay,
    make_post,
    make_s,
    neg_test,
    parse_pga,
    pos_test,
    strictly_improves,
    TERMINATE,
)
from pga_mech.instructions import (
    BASIC,
    JUMP,
    NEG_TEST,
    POS_TEST,
    TERMINATION,
    Instruction,
    instruction_at,
)
from pga_mech.threads import D, DELAY, POST, S, Node

ACTIONS = ("a", "b", "c")

# the running example and its improvement chain; the chain members are the
# outputs of the expansion rewrite, each certified strictly improving
X_CHAIN_START = "(+a;#4;+b;#4;!)^w"
Y_WITNESS = "(+a;#6;-b;!;+b;#4;!)^w"
Z_WITNESS = "(+a;#10;-b;!;-b;!;-b;!;+b;#4;!)^w"


def random_seq(rng: random.Random, max_prefix: int = 8, max_cycle: int = 6,
               actions: tuple[str, ...] = ACTIONS) -> InstrSeq:
    while True:
        n = rng.randint(0, max_prefix)
        m = rng.randint(0, max_cycle)
        if n + m:
            break
    total = n + m

    def instr():
        roll = rng.random()
        if roll < 0.25:
            return basic(rng.choice(actions))
        if roll < 0.45:
            return pos_test(rng.choice(actions))
        if roll < 0.65:
            return neg_test(rng.choice(actions))
        if roll < 0.75:
            return TERMINATE
        return jump(rng.randint(0, total + 2))

    prefix = tuple(instr() for _ in range(n))
    cycle = tuple(instr() for _ in range(m)) if m else None
    return InstrSeq(prefix, cycle)


def random_graph(rng: random.Random, max_nodes: int = 6,
                 actions: tuple[str, ...] = ("a", "b"),
                 allow_delay: bool = True) -> ThreadGraph:
    count = rng.randint(1, max_nodes)
    nodes = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.2:
            nodes.append(Node(S))
        elif roll < 0.35:
            nodes.append(Node(D))
        elif allow_delay and roll < 0.5:
            nodes.append(Node(DELAY, next=rng.randrange(count)))
        else:
            nodes.append(Node(POST, action=rng.choice(actions),
                              true=rng.randrange(count), false=rng.randrange(count)))
    return ThreadGraph(nodes, 0)


# --- reference interpreter ---------------------------------------------------

def run_sequence(seq: InstrSeq, replies: list[bool], budget: int):
    """Execute a sequence; each executed jump is one 'delay' event, each
    action one ('act', name) event.  Returns (events, outcome)."""
    events = []
    pos = 0
    reply_idx = 0
    while len(events) < budget:
        ins = instruction_at(seq, pos)
        if ins is None:
            return events, "D"
        if ins.kind == TERMINATION:
            return events, "S"
        if ins.kind == BASIC:
            events.append(("act", ins.action))
            reply_idx += 1
            pos += 1
        elif ins.kind == POS_TEST:
            events.append(("act", ins.action))
            r = replies[reply_idx]
            reply_idx += 1
            pos += 1 if r else 2
        elif ins.kind == NEG_TEST:
            events.append(("act", ins.action))
            r = replies[reply_idx]
            reply_idx += 1
            pos += 2 if r else 1
        else:
            if ins.counter == 0:
                return events, "D"
            events.append("delay")
            pos += ins.counter
    return events, "ongoing"


def run_graph(g: ThreadGraph, replies: list[bool], budget: int):
    """Walk a behavior graph under the same reply stream and event budget."""
    events = []
    node = g.root
    reply_idx = 0
    while len(events) < budget:
        nd = g.nodes[node]
        if nd.kind == S:
            return events, "S"
        if nd.kind == D:
            return events, "D"
        if nd.kind == DELAY:
            events.append("delay")
            node = nd.next
        else:
            events.append(("act", nd.action))
            r = replies[reply_idx]
            reply_idx += 1
            node = nd.true if r else nd.false
    return events, "ongoing"


# --- finite thread terms and the rule-closure oracle -------------------------

S_T = ("S",)
D_T = ("D",)


def sig(t):
    return ("sig", t)


def postt(action, left, right):
    return ("post", action, left, right)


def sig_n(t, n):
    for _ in range(n):
        t = sig(t)
    return t


def term_to_graph(t) -> ThreadGraph:
    if t == S_T:
        return make_s()
    if t == D_T:
        return make_d()
    if t[0] == "sig":
        return make_delay(term_to_graph(t[1]))
    return make_post(t[1], term_to_graph(t[2]), term_to_graph(t[3]))


def subterms(t):
    yield t
    if t[0] == "sig":
        yield from subterms(t[1])
    elif t[0] == "post":
        yield from subterms(t[2])
        yield from subterms(t[3])


def term_universe():
    """All terms of constructor depth <= 4 over actions {a, b} with delay
    runs <= 2 and one branching layer; subterm-closed by construction."""
    atoms = [sig_n(c, i) for c in (S_T, D_T) for i in range(3)]
    terms = list(atoms)
    for x in "ab":
        for i in range(3):
            for j in range(3 - i):
                for k in range(3 - i):
                    for u in (S_T, D_T):
                        for v in (S_T, D_T):
                            terms.append(sig_n(postt(x, sig_n(u, j), sig_n(v, k)), i))
    return terms


def oracle_closure(terms):
    """Least fixpoint of the improvement rules over a finite term set:
    reflexivity, adding one delay on the right, delay-over-deadlock
    absorption, congruence under branching and under the delay operator,
    and transitivity.  Returns (rows, index) with rows[i] bit j set iff
    terms[i] improves terms[j]."""
    idx = {t: i for i, t in enumerate(terms)}
    n = len(terms)
    rows = [0] * n

    def add(i, j):
        rows[i] |= (1 << j)

    for i in range(n):
        add(i, i)
    for t, i in idx.items():
        if t[0] == "sig" and t[1] in idx:
            add(idx[t[1]], i)
    if sig(D_T) in idx:
        add(idx[sig(D_T)], idx[D_T])
    sigs = [(i, idx[t[1]]) for t, i in idx.items() if t[0] == "sig" and t[1] in idx]
    posts = [(i, t) for t, i in idx.items() if t[0] == "post"]
    while True:
        before = list(rows)
        for i1, u1 in sigs:
            for i2, u2 in sigs:
                if rows[u1] >> u2 & 1:
                    add(i1, i2)
        for i1, t1 in posts:
            for i2, t2 in posts:
                if t1[1] != t2[1]:
                    continue
                if (rows[idx[t1[2]]] >> idx[t2[2]] & 1) and (rows[idx[t1[3]]] >> idx[t2[3]] & 1):
                    add(i1, i2)
        for k in range(n):
            bit = 1 << k
            rk = rows[k]
            for i in range(n):
                if rows[i] & bit:
                    rows[i] |= rk
        if rows == before:
            return rows, idx


def strip_delays(t):
    n = 0
    while t[0] == "sig":
        n += 1
        t = t[1]
    return n, t


def closure_set_for_pair(s, t):
    """A term set over which the rule closure is complete for deciding
    ``s`` against ``t``: all subterms plus every delay tower (up to the
    tallest run seen plus one) over each stripped subterm."""
    base = set(subterms(s)) | set(subterms(t))
    height = 1
    for u in base:
        d, _ = strip_delays(u)
        height = max(height, d)
    out = set(base)
    for u in base:
        _, core = strip_delays(u)
        for c in range(height + 1):
            out.add(sig_n(core, c))
    return sorted(out, key=repr)


def random_term(rng: random.Random, depth: int = 4, max_run: int = 2):
    if depth <= 0:
        return rng.choice((S_T, D_T))
    roll = rng.random()
    if roll < 0.3:
        return rng.choice((S_T, D_T))
    if roll < 0.6:
        run = rng.randint(1, min(max_run, depth))
        inner = random_term_no_sig(rng, depth - run)
        return sig_n(inner, run)
    return postt(rng.choice("ab"), random_term(rng, depth - 1, max_run),
                 random_term(rng, depth - 1, max_run))


def random_term_no_sig(rng: random.Random, depth: int):
    if depth <= 0:
        return rng.choice((S_T, D_T))
    if rng.random() < 0.4:
        return rng.choice((S_T, D_T))
    return postt(rng.choice("ab"), random_term(rng, depth - 1),
                 random_term(rng, depth - 1))


def chain_witnesses():
    return (parse_pga(X_CHAIN_START), parse_pga(Y_WITNESS), parse_pga(Z_WITNESS))


# --- reference relations -----------------------------------------------------
# Moore refinement, the liveness-based divergence collapse and the
# greatest-fixpoint preorder: quadratic or worse, or a second pass where the
# library makes one, but simple enough to trust as oracles for the
# library's walks and its delay resolution.

def refine_blocks(nodes) -> list[int]:
    """Moore partition refinement; returns a block id per node.  Two nodes
    share a block iff they are bisimilar (delay steps matched one-for-one)."""
    keys = {}
    blocks = []
    for node in nodes:
        key = (node.kind, node.action)
        if key not in keys:
            keys[key] = len(keys)
        blocks.append(keys[key])
    while True:
        sigs = {}
        new_blocks = []
        for i, node in enumerate(nodes):
            signature = (blocks[i], tuple(blocks[s] for s in node.successors()))
            if signature not in sigs:
                sigs[signature] = len(sigs)
            new_blocks.append(sigs[signature])
        if new_blocks == blocks:
            return blocks
        blocks = new_blocks


def _disjoint_union(g1: ThreadGraph, g2: ThreadGraph) -> list[Node]:
    offset = len(g1.nodes)
    union = list(g1.nodes)
    for node in g2.nodes:
        if node.kind == DELAY:
            union.append(Node(DELAY, next=node.next + offset))
        elif node.kind == POST:
            union.append(Node(POST, action=node.action,
                              true=node.true + offset, false=node.false + offset))
        else:
            union.append(node)
    return union


def reference_bisimilar(g1: ThreadGraph, g2: ThreadGraph) -> bool:
    blocks = refine_blocks(_disjoint_union(g1, g2))
    return blocks[g1.root] == blocks[g2.root + len(g1.nodes)]


def reference_minimize(g: ThreadGraph) -> ThreadGraph:
    blocks = refine_blocks(g.nodes)
    rep: dict[int, int] = {}
    for i, b in enumerate(blocks):
        rep.setdefault(b, i)
    ids = {b: k for k, b in enumerate(sorted(rep))}
    nodes = []
    for b in sorted(rep):
        node = g.nodes[rep[b]]
        if node.kind == DELAY:
            nodes.append(Node(DELAY, next=ids[blocks[node.next]]))
        elif node.kind == POST:
            nodes.append(Node(POST, action=node.action, true=ids[blocks[node.true]],
                              false=ids[blocks[node.false]]))
        else:
            nodes.append(node)
    return ThreadGraph(nodes, ids[blocks[g.root]])


def reference_collapse_divergence(g: ThreadGraph) -> ThreadGraph:
    """Replace every node from which no S and no post node is reachable by a
    single shared D node, found by a backward liveness pass over the delay
    edges."""
    n = len(g.nodes)
    live = [False] * n
    stack = []
    delay_parents: dict[int, list[int]] = {}
    for i, node in enumerate(g.nodes):
        if node.kind in (S, POST):
            live[i] = True
            stack.append(i)
        elif node.kind == DELAY:
            delay_parents.setdefault(node.next, []).append(i)
    while stack:
        i = stack.pop()
        for parent in delay_parents.get(i, ()):
            if not live[parent]:
                live[parent] = True
                stack.append(parent)
    if not live[g.root]:
        return make_d()
    keep = [i if live[i] else n for i in range(n)]  # node n is the shared D
    # a live delay leads to a live node, so only post nodes have edges into
    # dead nodes; redirected, those edges leave every dead node unreachable
    nodes = [Node(POST, action=node.action, true=keep[node.true], false=keep[node.false])
             if node.kind == POST and not (live[node.true] and live[node.false])
             else node for node in g.nodes]
    return ThreadGraph(nodes + [Node(D)], g.root)


def _resolve_delays(g: ThreadGraph, i: int) -> tuple[int, int]:
    """(delays before the first non-delay node, that node) from node ``i``
    of a divergence-collapsed graph."""
    count = 0
    while g.nodes[i].kind == DELAY:
        count += 1
        i = g.nodes[i].next
    return count, i


def reference_functional_abstraction(g: ThreadGraph) -> ThreadGraph:
    """Collapse divergence, then send every edge to the first non-delay
    node on its delay chain."""
    g = reference_collapse_divergence(g)

    def core(i: int) -> int:
        return _resolve_delays(g, i)[1]

    nodes = [Node(POST, action=node.action, true=core(node.true), false=core(node.false))
             if node.kind == POST else node for node in g.nodes]
    return ThreadGraph(nodes, core(g.root))


def reference_has_adjacent_delays(g: ThreadGraph) -> bool:
    """Whether the divergence-collapsed graph has a delay into a delay."""
    g = reference_collapse_divergence(g)
    return any(node.kind == DELAY and g.nodes[node.next].kind == DELAY for node in g.nodes)


def reference_functionally_equivalent(p: ThreadGraph, q: ThreadGraph) -> bool:
    return reference_bisimilar(reference_functional_abstraction(p),
                               reference_functional_abstraction(q))


def reference_improves(p: ThreadGraph, q: ThreadGraph) -> bool:
    """Greatest fixpoint over all same-kind pairs of delay-free cores of the
    divergence-collapsed graphs, rescanned until nothing is removed."""
    pg, qg = reference_collapse_divergence(p), reference_collapse_divergence(q)
    p_cores = [i for i, node in enumerate(pg.nodes) if node.kind != DELAY]
    q_cores = [i for i, node in enumerate(qg.nodes) if node.kind != DELAY]
    rel = {(a, b) for a in p_cores for b in q_cores
           if (pg.nodes[a].kind, pg.nodes[a].action) == (qg.nodes[b].kind, qg.nodes[b].action)}
    changed = True
    while changed:
        changed = False
        for a, b in list(rel):
            na, nb = pg.nodes[a], qg.nodes[b]
            if na.kind != POST:
                continue
            dt_a, ct_a = _resolve_delays(pg, na.true)
            dt_b, ct_b = _resolve_delays(qg, nb.true)
            df_a, cf_a = _resolve_delays(pg, na.false)
            df_b, cf_b = _resolve_delays(qg, nb.false)
            if not (dt_a <= dt_b and df_a <= df_b
                    and (ct_a, ct_b) in rel and (cf_a, cf_b) in rel):
                rel.discard((a, b))
                changed = True
    dr_p, cr_p = _resolve_delays(pg, pg.root)
    dr_q, cr_q = _resolve_delays(qg, qg.root)
    return dr_p <= dr_q and (cr_p, cr_q) in rel


def reference_compare(p: ThreadGraph, q: ThreadGraph) -> ComparisonVerdict:
    if not reference_functionally_equivalent(p, q):
        return ComparisonVerdict.FUNCTIONALLY_DIFFERENT
    if reference_bisimilar(p, q):
        return ComparisonVerdict.EQUAL
    forward = reference_improves(p, q)
    backward = reference_improves(q, p)
    if forward and backward:
        return ComparisonVerdict.MUTUALLY_EQUIVALENT
    if forward:
        return ComparisonVerdict.STRICTLY_IMPROVES
    if backward:
        return ComparisonVerdict.STRICTLY_IMPROVED_BY
    return ComparisonVerdict.INCOMPARABLE


def perturb_delays(rng: random.Random, g: ThreadGraph, moves: int = 2) -> ThreadGraph:
    """Apply ``moves`` random delay edits to the edges of ``g`` (the root
    counts as an edge): add a delay in front of an edge's target, skip a
    delay an edge points to, or reroute a delay from one edge to another.
    The result is usually functionally equivalent to ``g``."""
    nodes = list(g.nodes)
    root = [g.root]

    def edges():
        out = [(None, "root")]
        for i, node in enumerate(nodes):
            if node.kind == DELAY:
                out.append((i, "next"))
            elif node.kind == POST:
                out += [(i, "true"), (i, "false")]
        return out

    def get(edge):
        i, slot = edge
        return root[0] if i is None else getattr(nodes[i], slot)

    def put(edge, target):
        i, slot = edge
        if i is None:
            root[0] = target
        else:
            node = nodes[i]
            fields = {"next": node.next, "true": node.true, "false": node.false}
            fields[slot] = target
            nodes[i] = Node(node.kind, action=node.action, **fields)

    def add(edge):
        nodes.append(Node(DELAY, next=get(edge)))
        put(edge, len(nodes) - 1)

    def skip(edge):
        target = get(edge)
        if nodes[target].kind == DELAY:
            put(edge, nodes[target].next)
            return True
        return False

    for _ in range(moves):
        roll = rng.random()
        if roll < 0.4:
            add(rng.choice(edges()))
        elif roll < 0.7:
            skip(rng.choice(edges()))
        elif skip(rng.choice(edges())):
            add(rng.choice(edges()))
    return ThreadGraph(nodes, root[0])


def split_node(rng: random.Random, g: ThreadGraph) -> ThreadGraph:
    """``g`` with a copy of one random node, and each edge into that node
    (the root counts as an edge) moved onto the copy with probability 1/2.
    The result is bisimilar to ``g`` and, when the copy is reachable, not
    minimal."""
    i = rng.randrange(len(g))
    nodes = list(g.nodes) + [g.nodes[i]]

    def moved(j):
        return len(g) if j == i and rng.random() < 0.5 else j

    for k, node in enumerate(nodes):
        if node.kind == DELAY:
            nodes[k] = Node(DELAY, next=moved(node.next))
        elif node.kind == POST:
            nodes[k] = Node(POST, action=node.action, true=moved(node.true),
                            false=moved(node.false))
    return ThreadGraph(nodes, moved(g.root))


# --- reference search --------------------------------------------------------
# Slot-by-slot enumeration in index order, re-walking the target from
# position 0 after every option: exponential in the slots a jump flies
# over, but it tries every sequence in the bounds in the order the library
# must reproduce.

def _reference_slot_options(total: int, alphabet: tuple[str, ...]) -> list[Instruction]:
    out: list[Instruction] = [basic(a) for a in alphabet]
    out.extend(pos_test(a) for a in alphabet)
    out.extend(neg_test(a) for a in alphabet)
    out.append(TERMINATE)
    out.extend(jump(k) for k in range(total + 1))
    return out


def _fa_consistent(slots: list, n: int, m: int, target: ThreadGraph) -> bool:
    """Conservative check that the (possibly partial) sequence can still
    denote the delay-erased ``target`` behavior.  Unassigned slots (the
    ``Ellipsis`` marker) pass; a definite mismatch on assigned slots fails."""

    def slot_of(pos: int) -> int | None:
        if pos < n:
            return pos
        if m == 0:
            return None  # off the end: deadlock
        return n + (pos - n) % m

    seen: set[tuple[int, int]] = set()
    stack: list[tuple[int, int]] = [(0, target.root)]
    while stack:
        pos, tnode = stack.pop()
        # resolve jumps transparently; None outcome means deadlock
        chase: set[int] = set()
        outcome = None
        while True:
            s = slot_of(pos)
            if s is None:
                outcome = None
                break
            ins = slots[s]
            if ins is Ellipsis:
                outcome = Ellipsis  # unassigned: no verdict on this branch
                break
            if ins.kind != JUMP:
                outcome = ins
                pos = s
                break
            if ins.counter == 0 or s in chase:
                outcome = None
                break
            chase.add(s)
            pos = s + ins.counter
        if outcome is Ellipsis:
            continue
        node = target.nodes[tnode]
        if outcome is None:
            if node.kind != D:
                return False
            continue
        if (pos, tnode) in seen:
            continue
        seen.add((pos, tnode))
        if outcome.kind == TERMINATION:
            if node.kind != S:
                return False
            continue
        # an action instruction
        if node.kind != POST or node.action != outcome.action:
            return False
        if outcome.kind == BASIC:
            stack.append((pos + 1, node.true))
            stack.append((pos + 1, node.false))
        elif outcome.kind == POS_TEST:
            stack.append((pos + 1, node.true))
            stack.append((pos + 2, node.false))
        else:
            stack.append((pos + 2, node.true))
            stack.append((pos + 1, node.false))
    return True


def reference_search_implementations(p: ThreadGraph, bounds: SearchBounds) -> list[InstrSeq]:
    """Every sequence within the bounds whose mechanistic behavior ``p``
    improves, in length-lexicographic order: by total length, then cycle
    length, then the per-slot option indices."""
    fa_target = reference_functional_abstraction(p)
    alphabet = tuple(sorted(set(bounds.alphabet)))
    found: list[InstrSeq] = []
    for total in range(1, bounds.max_prefix + bounds.max_cycle + 1):
        for m in range(0, min(total, bounds.max_cycle) + 1):
            n = total - m
            if n > bounds.max_prefix:
                continue
            options = _reference_slot_options(total, alphabet)
            slots: list = [Ellipsis] * total

            def assign(i: int) -> None:
                if i == total:
                    seq = InstrSeq(tuple(slots[:n]), tuple(slots[n:]) if m else None)
                    if improves(p, extract_mechanistic(seq)):
                        found.append(seq)
                    return
                for ins in options:
                    slots[i] = ins
                    if _fa_consistent(slots, n, m, fa_target):
                        assign(i + 1)
                slots[i] = Ellipsis

            assign(0)
    return found


# --- reference Pareto front ---------------------------------------------------

def reference_pareto_front(seqs: list[InstrSeq]) -> list[InstrSeq]:
    """The members no other member strictly improves, by definition: one
    ``strictly_improves`` per ordered pair of members."""
    graphs = [extract_mechanistic(s) for s in seqs]
    return [s for i, s in enumerate(seqs)
            if not any(strictly_improves(h, graphs[i]) for j, h in enumerate(graphs) if j != i)]
