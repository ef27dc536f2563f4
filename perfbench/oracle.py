"""Reference semantics that the benchmark checks the program's outputs against.

Everything here works on the instruction-sequence *text* and on plain
node tables, and shares no code with ``pga_mech``: its own parser, its
own interpreter, its own extractor.  A sequence is ``(prefix, cycle)``
where each instruction is one of ``("a", name)``, ``("+", name)``,
``("-", name)``, ``("!",)`` or ``("#", k)`` and ``cycle`` is ``None``
for a finite sequence.  A graph is ``(nodes, root)`` where ``nodes`` maps
an id to ``("S",)``, ``("D",)``, ``("sigma", next)`` or
``("post", action, on_true, on_false)``.
"""

from __future__ import annotations

import math
import random

INF = math.inf


# --- sequences ----------------------------------------------------------------

def _instr(tok: str) -> tuple:
    if tok == "!":
        return ("!",)
    if tok[0] == "#":
        return ("#", int(tok[1:]))
    if tok[0] in "+-":
        return (tok[0], tok[1:])
    return ("a", tok)


def parse_seq(text: str) -> tuple:
    """Parse the text grammar the benchmark writes (no whitespace, an
    optional final ``(...)^w`` group)."""
    text = text.strip()
    cycle = None
    if text.endswith(")^w"):
        open_at = text.rindex("(")
        cycle = [_instr(t) for t in text[open_at + 1:-3].split(";")]
        text = text[:open_at].rstrip(";")
    prefix = [_instr(t) for t in text.split(";")] if text else []
    return prefix, cycle


def _show(ins: tuple) -> str:
    if ins[0] == "!":
        return "!"
    if ins[0] == "#":
        return f"#{ins[1]}"
    if ins[0] == "a":
        return ins[1]
    return ins[0] + ins[1]


def show_seq(prefix: list, cycle: list | None) -> str:
    parts = [_show(i) for i in prefix]
    if cycle is not None:
        parts.append("(" + ";".join(_show(i) for i in cycle) + ")^w")
    return ";".join(parts)


def _canon(seq: tuple, p: int) -> int:
    prefix, cycle = seq
    n = len(prefix)
    if p < n or cycle is None:
        return p
    return n + (p - n) % len(cycle)


def _at(seq: tuple, p: int):
    prefix, cycle = seq
    if p < len(prefix):
        return prefix[p]
    if cycle is None:
        return None
    return cycle[p - len(prefix)]


def _succs(ins: tuple, p: int) -> tuple:
    """Successor positions of the instruction at canonical ``p``, as
    (on a true reply, on a false reply); jumps have one successor."""
    if ins[0] == "a":
        return (p + 1, p + 1)
    if ins[0] == "+":
        return (p + 1, p + 2)
    if ins[0] == "-":
        return (p + 2, p + 1)
    if ins[0] == "#" and ins[1] > 0:
        return (p + ins[1],)
    return ()


def reachable(seq: tuple) -> set:
    """Canonical positions some run executes."""
    seen = set()
    stack = [0]
    while stack:
        p = _canon(seq, stack.pop())
        if p in seen or _at(seq, p) is None:
            continue
        seen.add(p)
        stack.extend(_succs(_at(seq, p), p))
    return seen


def extract(seq: tuple, functional: bool) -> tuple:
    """The behavior graph of a sequence: one node per reachable position,
    one ``sigma`` per executed jump (mechanistic), or jumps chased away
    with a jump-only cycle read as deadlock (functional)."""
    nodes: dict = {}

    def target(p: int):
        p = _canon(seq, p)
        if not functional:
            return p if _at(seq, p) is not None else "D"
        seen = set()
        while True:
            ins = _at(seq, p)
            if ins is None or (ins[0] == "#" and (ins[1] == 0 or p in seen)):
                return "D"
            if ins[0] != "#":
                return p
            seen.add(p)
            p = _canon(seq, p + ins[1])

    root = target(0)
    stack = [root]
    while stack:
        p = stack.pop()
        if p in nodes:
            continue
        if p == "D":
            nodes[p] = ("D",)
            continue
        ins = _at(seq, p)
        if ins[0] == "!":
            nodes[p] = ("S",)
        elif ins[0] == "#" and ins[1] == 0:
            nodes[p] = ("D",)
        elif ins[0] == "#":
            nodes[p] = ("sigma", target(p + ins[1]))
            stack.append(nodes[p][1])
        else:
            t, f = (target(s) for s in _succs(ins, p))
            nodes[p] = ("post", ins[1], t, f)
            stack += [t, f]
    return nodes, root


def min_size(graph: tuple) -> int:
    """Branch nodes plus S nodes left after merging bisimilar nodes (Moore
    refinement): a lower bound on the non-jump instructions of any
    sequence with this behavior."""
    nodes, _ = graph
    block = {n: (node[0], node[1] if node[0] == "post" else None) for n, node in nodes.items()}
    while True:
        sig = {n: (block[n],) + tuple(block[s] for s in node[2:] if node[0] == "post")
               + ((block[node[1]],) if node[0] == "sigma" else ())
               for n, node in nodes.items()}
        if len(set(sig.values())) == len(set(block.values())):
            return len({block[n] for n, node in nodes.items() if node[0] in ("post", "S")})
        block = sig


def jump_lands_on(text: str, kind: str) -> bool:
    """Some reachable jump lands on an instruction of ``kind`` (``"#"`` or
    ``"!"``) at another position."""
    seq = parse_seq(text)
    for p in reachable(seq):
        ins = _at(seq, p)
        if ins[0] == "#" and ins[1] > 0:
            t = _canon(seq, p + ins[1])
            if t != p and (_at(seq, t) or ("",))[0] == kind:
                return True
    return False


def thread_text(graph: tuple) -> str:
    """Thread equations for a graph, root first."""
    nodes, root = graph

    def name(n) -> str:
        return f"N{n}"

    order = [root] + [n for n in nodes if n != root]
    lines = []
    for n in order:
        node = nodes[n]
        if node[0] in ("S", "D"):
            rhs = node[0]
        elif node[0] == "sigma":
            rhs = f"sigma({name(node[1])})"
        else:
            rhs = f"{node[1]} ? {name(node[2])} : {name(node[3])}"
        lines.append(f"{name(n)} = {rhs}")
    return "\n".join(lines)


def from_thread_graph(g) -> tuple:
    """Node table of a ``pga_mech`` ThreadGraph (reads its fields only)."""
    nodes = {}
    for i, node in enumerate(g.nodes):
        if node.kind in ("S", "D"):
            nodes[i] = (node.kind,)
        elif node.kind == "delay":
            nodes[i] = ("sigma", node.next)
        else:
            nodes[i] = ("post", node.action, node.true, node.false)
    return nodes, g.root


# --- runs -----------------------------------------------------------------------

def run_seq(seq: tuple, replies: list, budget: int) -> tuple:
    """Execute under a reply stream for at most ``budget`` actions.

    Returns ``(trace, outcome, trailing)``: ``trace`` lists (jumps executed
    since the previous action, action name); ``outcome`` is S, D or
    ongoing; ``trailing`` counts jumps after the last action (INF for a
    jump-only cycle, which never emits again)."""
    trace = []
    delays = 0
    p = 0
    jumped: set = set()
    while len(trace) < budget:
        p = _canon(seq, p)
        ins = _at(seq, p)
        if ins is None:
            return trace, "D", delays
        if ins[0] == "!":
            return trace, "S", delays
        if ins[0] == "#":
            if ins[1] == 0:
                return trace, "D", delays
            if p in jumped:
                return trace, "D", INF
            jumped.add(p)
            delays += 1
            p += ins[1]
            continue
        trace.append((delays, ins[1]))
        delays = 0
        jumped = set()
        t, f = _succs(ins, p)
        p = t if replies[len(trace) - 1] else f
    return trace, "ongoing", delays


def run_graph(graph: tuple, replies: list, budget: int) -> tuple:
    """Walk a node table; same result shape as ``run_seq``."""
    nodes, n = graph
    trace = []
    delays = 0
    stepped: set = set()
    while len(trace) < budget:
        node = nodes[n]
        if node[0] in ("S", "D"):
            return trace, node[0], delays
        if node[0] == "sigma":
            if n in stepped:
                return trace, "D", INF
            stepped.add(n)
            delays += 1
            n = node[1]
            continue
        trace.append((delays, node[1]))
        delays = 0
        stepped = set()
        n = node[2] if replies[len(trace) - 1] else node[3]
    return trace, "ongoing", delays


def same_function(a: tuple, b: tuple) -> bool:
    """Same actions and same outcome, delays ignored."""
    return [x[1] for x in a[0]] == [x[1] for x in b[0]] and a[1] == b[1]


def no_more_delays(a: tuple, b: tuple) -> bool:
    """Run ``a`` spends no more delays than run ``b`` at every matched
    point; delays in front of deadlock are absorbed."""
    if not same_function(a, b):
        return False
    if any(x[0] > y[0] for x, y in zip(a[0], b[0])):
        return False
    return a[1] == "D" or a[2] <= b[2]


def reply_streams(seed: int, count: int, length: int) -> list:
    rng = random.Random(seed)
    streams = [[True] * length, [False] * length]
    streams += [[rng.random() < 0.5 for _ in range(length)] for _ in range(count - 2)]
    return streams


STREAMS = reply_streams(20081008, 8, 64)
BUDGET = 48


def cosim(left, right, relation) -> bool:
    """Compare two behaviors under every fixed reply stream.  ``left`` and
    ``right`` are callables from a reply stream to a run."""
    return all(relation(left(r), right(r)) for r in STREAMS)


def seq_runner(text: str):
    seq = parse_seq(text)
    return lambda replies: run_seq(seq, replies, BUDGET)


def graph_runner(graph: tuple):
    return lambda replies: run_graph(graph, replies, BUDGET)


def exact(a: tuple, b: tuple) -> bool:
    return a == b


def equivalent_unequal_pair(texts: list) -> bool:
    """Two of the sequences improve each other on every stream, yet differ
    in the delays in front of a deadlock on some stream: behaviors that
    are mutually equivalent but not bisimilar."""
    groups: dict = {}
    for text in texts:
        runs = tuple((tuple(trace), outcome, trailing)
                     for trace, outcome, trailing in map(seq_runner(text), STREAMS))
        # mutual no_more_delays: all equal but the delays in front of D
        key = tuple((trace, outcome, None if outcome == "D" else trailing)
                    for trace, outcome, trailing in runs)
        groups.setdefault(key, set()).add(runs)
    return any(len(variants) > 1 for variants in groups.values())
