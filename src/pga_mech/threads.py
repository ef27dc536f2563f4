"""Behavior graphs: finite rooted graphs of termination, deadlock, delay
and branch-on-action nodes.

A graph denotes a (possibly infinite-unfolding) regular behavior.  Node
kinds: ``S`` successful termination, ``D`` deadlock, ``delay`` one unit of
unobservable processing before its successor, ``post`` perform an action
and branch on the Boolean reply.  A ``Node`` is a tuple of its five fields
(and compares equal to that plain tuple); its constructor validates the
kind, the action name and the successor fields.  Graphs are immutable; the
constructor garbage-collects unreachable nodes and renumbers breadth-first
from the root, so structurally equal graphs compare equal.
"""

from __future__ import annotations

import json
import re
from collections import namedtuple

from .instructions import _ACTION_RE, _NAME

__all__ = [
    "S",
    "D",
    "DELAY",
    "POST",
    "Node",
    "ThreadGraph",
    "ThreadSyntaxError",
    "collapse_divergence",
    "functional_abstraction",
    "graph_to_dict",
    "has_adjacent_delays",
    "make_d",
    "make_delay",
    "make_post",
    "make_prefix",
    "make_s",
    "minimize",
    "parse_thread",
    "print_thread",
    "to_dot",
    "to_json",
]

S = "S"
D = "D"
DELAY = "delay"
POST = "post"

_RESERVED_NAMES = {"S", "D", "sigma"}


def _is_id(s) -> bool:
    return isinstance(s, int) and s >= 0


class Node(namedtuple("Node", "kind action next true false", defaults=(None,) * 4)):
    """One graph node.  ``next`` is the delay successor; ``true``/``false``
    are the branch successors of a post node."""

    __slots__ = ()

    def __new__(cls, kind: str, action: str | None = None, next: int | None = None,
                true: int | None = None, false: int | None = None):
        if kind == POST:
            if not isinstance(action, str) or not _ACTION_RE.match(action):
                raise ValueError(f"invalid action name {action!r}")
            if next is not None or not (_is_id(true) and _is_id(false)):
                raise ValueError("a post node has a true and a false successor, no next")
        elif kind == DELAY:
            if action is not None or true is not None or false is not None or not _is_id(next):
                raise ValueError("a delay node has a next successor and nothing else")
        elif kind in (S, D):
            if action is not None or next is not None or true is not None or false is not None:
                raise ValueError(f"{kind} nodes carry no payload")
        else:
            raise ValueError(f"unknown node kind {kind!r}")
        return tuple.__new__(cls, (kind, action, next, true, false))

    def successors(self) -> tuple[int, ...]:
        if self.kind == DELAY:
            return (self.next,)
        if self.kind == POST:
            return (self.true, self.false)
        return ()


# library internals build nodes unchecked: ``_new(Node, (kind, action,
# next, true, false))``
_new = tuple.__new__
_S_NODE = Node(S)
_D_NODE = Node(D)


class ThreadGraph:
    """Finite rooted behavior graph, normalized at construction."""

    __slots__ = ("nodes", "root")

    def __init__(self, nodes, root: int):
        nodes = list(nodes)
        if not 0 <= root < len(nodes):
            raise ValueError("root is not a node")
        succ = [node.successors() for node in nodes]
        for targets in succ:
            for s in targets:
                if s is None or not 0 <= s < len(nodes):
                    raise ValueError("edge target is not a node")
        order = [root]
        index = {root: 0}
        for old in order:  # the loop also visits the ids appended here
            for s in succ[old]:
                if s not in index:
                    index[s] = len(order)
                    order.append(s)
        self.nodes: tuple[Node, ...] = tuple(_relabel(nodes[old], index) for old in order)
        self.root: int = 0

    @classmethod
    def _canonical(cls, nodes) -> ThreadGraph:
        """The graph of ``nodes`` as they stand: they must already be
        numbered breadth-first from root 0, as the constructor would number
        them, with every edge in range.  Nothing is checked or renumbered."""
        g = object.__new__(cls)
        g.nodes = tuple(nodes)
        g.root = 0
        return g

    def __len__(self) -> int:
        return len(self.nodes)

    def __eq__(self, other) -> bool:
        return isinstance(other, ThreadGraph) and self.nodes == other.nodes

    def __hash__(self) -> int:
        return hash(self.nodes)

    def __repr__(self) -> str:
        return f"ThreadGraph({len(self.nodes)} nodes)"

    def __str__(self) -> str:
        return print_thread(self)


def _relabel(node: Node, new_id) -> Node:
    """``node`` with each successor ``i`` renamed ``new_id[i]``; ``new_id``
    is any table indexed by node id (a list, a dict or a range)."""
    kind = node.kind
    if kind == POST:
        return _new(Node, (POST, node.action, None, new_id[node.true], new_id[node.false]))
    if kind == DELAY:
        return _new(Node, (DELAY, None, new_id[node.next], None, None))
    return node


# --- small constructors ----------------------------------------------------

def make_s() -> ThreadGraph:
    return ThreadGraph._canonical([_S_NODE])


def make_d() -> ThreadGraph:
    return ThreadGraph._canonical([_D_NODE])


def _shifted(g: ThreadGraph, shift: int) -> list[Node]:
    """The nodes of ``g`` with every id moved up by ``shift``."""
    new_id = range(shift, shift + len(g.nodes))
    return [_relabel(node, new_id) for node in g.nodes]


def make_delay(inner: ThreadGraph, count: int = 1) -> ThreadGraph:
    """Prepend ``count`` delay nodes to the root of ``inner``."""
    if count < 0:
        raise ValueError("delay count must be nonnegative")
    # a chain in front of a breadth-first graph keeps it breadth-first
    nodes = [_new(Node, (DELAY, None, i + 1, None, None)) for i in range(count)]
    return ThreadGraph._canonical(nodes + _shifted(inner, count))


def make_post(action: str, on_true: ThreadGraph, on_false: ThreadGraph) -> ThreadGraph:
    """Branch on ``action``: continue as ``on_true``/``on_false``."""
    f_shift = 1 + len(on_true.nodes)
    root = Node(POST, action=action, true=on_true.root + 1, false=on_false.root + f_shift)
    return ThreadGraph([root] + _shifted(on_true, 1) + _shifted(on_false, f_shift), 0)


def make_prefix(action: str, inner: ThreadGraph) -> ThreadGraph:
    """Action prefixing: perform ``action``, then continue as ``inner``
    regardless of the reply (both branches share one node)."""
    root = Node(POST, action=action, true=1, false=1)
    return ThreadGraph._canonical([root] + _shifted(inner, 1))


# --- minimization ----------------------------------------------------------

def _bisimulation_blocks(nodes: tuple[Node, ...]) -> list[int]:
    """Block id per node of the coarsest bisimulation, by Hopcroft's
    partition refinement over the letters next/true/false.

    Blocks are contiguous ranges ``first[b]:end[b]`` of ``elems``; marked
    members of a block sit in ``first[b]:mid[b]``.  Transitions are partial
    (only delay nodes have ``next``), so every initial block starts on the
    worklist (Valmari and Lehtinen, 2008).  A split always gives the new
    block the smaller half and queues it, which is Hopcroft's rule both when
    the old block is still queued and when it is not; a splitter is taken
    as the block's members at the time it is popped.
    """
    n = len(nodes)
    inverse: list[list[int]] = [[] for _ in range(n)]  # 3 * predecessor + letter
    by_label: dict[tuple, list[int]] = {}
    for i, node in enumerate(nodes):
        by_label.setdefault((node.kind, node.action), []).append(i)
        if node.kind == DELAY:
            inverse[node.next].append(3 * i)
        elif node.kind == POST:
            inverse[node.true].append(3 * i + 1)
            inverse[node.false].append(3 * i + 2)
    elems: list[int] = []
    first: list[int] = []
    end: list[int] = []
    block = [0] * n
    for members in by_label.values():
        b = len(first)
        first.append(len(elems))
        elems.extend(members)
        end.append(len(elems))
        for i in members:
            block[i] = b
    mid = list(first)
    loc = [0] * n
    for k, i in enumerate(elems):
        loc[i] = k
    work = list(range(len(first)))
    while work:
        b = work.pop()
        preds: tuple[list[int], ...] = ([], [], [])
        for i in elems[first[b]:end[b]]:
            for code in inverse[i]:
                preds[code % 3].append(code // 3)
        for letter_preds in preds:
            touched = []
            for i in letter_preds:
                c = block[i]
                k, m = loc[i], mid[c]
                if k < m:
                    continue
                j = elems[m]
                elems[k], elems[m] = j, i
                loc[j], loc[i] = k, m
                mid[c] = m + 1
                if m == first[c]:
                    touched.append(c)
            for c in touched:
                lo, m, hi = first[c], mid[c], end[c]
                mid[c] = lo
                if m == hi:
                    continue
                new = len(first)
                if m - lo <= hi - m:
                    first.append(lo)
                    end.append(m)
                    first[c] = mid[c] = m
                else:
                    first.append(m)
                    end.append(hi)
                    end[c] = m
                mid.append(first[new])
                for k in range(first[new], end[new]):
                    block[elems[k]] = new
                work.append(new)
    return block


def minimize(g: ThreadGraph) -> ThreadGraph:
    """Smallest graph bisimilar to ``g`` (quotient by bisimilarity).  The
    constructor's breadth-first renumbering makes the result canonical."""
    blocks = _bisimulation_blocks(g.nodes)
    rep: dict[int, int] = {}
    for i, b in enumerate(blocks):
        rep.setdefault(b, i)
    nodes = [_relabel(g.nodes[rep[b]], blocks) for b in range(len(rep))]
    return ThreadGraph(nodes, blocks[g.root])


# --- divergence and delay resolution ---------------------------------------
# Divergence (a delay loop, or a delay chain into D) behaves as deadlock.
# Every relation reads the one-pass resolution below; none builds a graph.

def _delay_resolution(g: ThreadGraph) -> tuple[tuple[Node, ...], list[tuple[int, int]]]:
    """``g.nodes`` plus the shared D node, and for each of those nodes the
    number of delays before the first S or post node on its delay chain
    and that node's id.  A divergent chain resolves to the shared D node,
    id ``len(g)``, with its divergence signature for a count: the number
    of delays into D, or -1 on a delay loop."""
    nodes = g.nodes
    d_id = len(nodes)
    out: list = [None if node.kind == DELAY else (0, d_id) if node.kind == D else (0, i)
                 for i, node in enumerate(nodes)]
    for start in range(d_id):
        if out[start] is not None:
            continue
        # each trail node is marked a delay loop before it is followed, so
        # a chain that loops back onto its own trail stays one
        trail = []
        i = start
        while out[i] is None:
            trail.append(i)
            out[i] = (-1, d_id)
            i = nodes[i].next
        count, core = out[i]
        if count >= 0:
            for j in reversed(trail):
                count += 1
                out[j] = (count, core)
    out.append((0, d_id))
    return nodes + (_D_NODE,), out


def has_adjacent_delays(g: ThreadGraph) -> bool:
    """True iff, after divergence collapse, some reachable delay node leads
    directly into another delay node (a two-delay residual)."""
    d_id = len(g)
    return any(count > 1 and core != d_id for count, core in _delay_resolution(g)[1])


def collapse_divergence(g: ThreadGraph) -> ThreadGraph:
    """Replace every node from which no S and no post node is reachable by a
    single shared D node.  Pure-delay loops and delay chains into D all
    become D; the functional behavior is unchanged."""
    nodes, resolution = _delay_resolution(g)
    d_id = len(g)
    keep = [d_id if core == d_id else i for i, (_, core) in enumerate(resolution)]
    # a live delay leads to a live node, so only post nodes have edges into
    # divergent nodes; redirected, those edges leave them all unreachable
    return ThreadGraph([_relabel(node, keep) if node.kind == POST
                        and (keep[node.true] == d_id or keep[node.false] == d_id) else node
                        for node in nodes], keep[g.root])


def functional_abstraction(g: ThreadGraph) -> ThreadGraph:
    """Erase all delays: route every edge into a delay node to that node's
    first non-delay descendant, and every divergent one to deadlock."""
    nodes, resolution = _delay_resolution(g)
    core = [c for _, c in resolution]
    # the delay nodes are left unreachable, and the constructor drops them
    return ThreadGraph([_relabel(node, core) for node in nodes], core[g.root])


# --- text format ------------------------------------------------------------

class ThreadSyntaxError(ValueError):
    """Malformed thread-equation text."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"{message} at line {line}"
        super().__init__(message)
        self.line = line


_EQ_NAME = r"([A-Za-z][A-Za-z0-9_]*)"  # an equation name, captured
_EQ_RE = re.compile(rf"\s*{_EQ_NAME}\s*=\s*(.*?)\s*\Z")
_SIGMA_RE = re.compile(rf"sigma\s*\(\s*{_EQ_NAME}\s*\)\Z")
_POST_RE = re.compile(rf"({_NAME})\s*\?\s*{_EQ_NAME}\s*:\s*{_EQ_NAME}\Z")
_PREFIX_RE = re.compile(rf"({_NAME})\s*\.\s*{_EQ_NAME}\Z")


def parse_thread(text: str) -> ThreadGraph:
    """Parse thread equations, one per line (``;`` also separates equations,
    ``#`` starts a comment that runs to the end of the line, ``;`` included).  The first equation's left-hand side is the
    root.  Forms: ``S``, ``D``, ``sigma(N)``, ``a ? N1 : N2`` and the
    action-prefix sugar ``a . N``."""
    defs: dict[str, tuple] = {}
    lines: dict[str, int] = {}
    order: list[str] = []
    for lineno, raw_line in enumerate(text.split("\n"), 1):
        for segment in raw_line.partition("#")[0].split(";"):
            if not segment.strip():
                continue
            m = _EQ_RE.match(segment)
            if not m:
                raise ThreadSyntaxError(f"expected 'NAME = ...', got {segment.strip()!r}", lineno)
            name, rhs = m.group(1), m.group(2)
            if name in _RESERVED_NAMES:
                raise ThreadSyntaxError(f"{name!r} is reserved", lineno)
            if name in defs:
                raise ThreadSyntaxError(f"duplicate definition of {name!r}", lineno)
            if rhs == "S":
                defs[name] = (S,)
            elif rhs == "D":
                defs[name] = (D,)
            elif (m2 := _SIGMA_RE.match(rhs)):
                defs[name] = (DELAY, m2.group(1))
            elif (m2 := _POST_RE.match(rhs)):
                defs[name] = (POST, m2.group(1), m2.group(2), m2.group(3))
            elif (m2 := _PREFIX_RE.match(rhs)):
                defs[name] = (POST, m2.group(1), m2.group(2), m2.group(2))
            else:
                raise ThreadSyntaxError(f"cannot parse right-hand side {rhs!r}", lineno)
            lines[name] = lineno
            order.append(name)
    if not order:
        raise ThreadSyntaxError("no equations")
    index = {name: i for i, name in enumerate(order)}

    def ref(name: str, user: str) -> int:
        if name in _RESERVED_NAMES:
            form = "sigma(N)" if name == "sigma" else name
            raise ThreadSyntaxError(f"{name!r} is reserved and cannot be referred to; "
                                    f"write 'X = {form}' and refer to X", lines[user])
        if name not in index:
            raise ThreadSyntaxError(f"undefined name {name!r}", lines[user])
        return index[name]

    nodes = []
    for name in order:
        d = defs[name]
        if d[0] == S:
            nodes.append(Node(S))
        elif d[0] == D:
            nodes.append(Node(D))
        elif d[0] == DELAY:
            nodes.append(Node(DELAY, next=ref(d[1], name)))
        else:
            nodes.append(Node(POST, action=d[1], true=ref(d[2], name), false=ref(d[3], name)))
    return ThreadGraph(nodes, 0)


def print_thread(g: ThreadGraph) -> str:
    """Render equations, one per node in graph order; round-trips with
    ``parse_thread`` up to node naming."""
    lines = []
    for i, node in enumerate(g.nodes):
        if node.kind == S:
            lines.append(f"T{i} = S")
        elif node.kind == D:
            lines.append(f"T{i} = D")
        elif node.kind == DELAY:
            lines.append(f"T{i} = sigma(T{node.next})")
        else:
            lines.append(f"T{i} = {node.action} ? T{node.true} : T{node.false}")
    return "\n".join(lines)


# --- exports ----------------------------------------------------------------

def to_dot(g: ThreadGraph) -> str:
    """DOT digraph: solid edge = true branch, dashed edge = false branch."""
    lines = ["digraph thread {"]
    for i, node in enumerate(g.nodes):
        if node.kind in (S, D):
            lines.append(f'  n{i} [label="{node.kind}", shape=box];')
        elif node.kind == DELAY:
            lines.append(f'  n{i} [label="σ"];')
        else:
            lines.append(f'  n{i} [label="{node.action}"];')
    for i, node in enumerate(g.nodes):
        if node.kind == DELAY:
            lines.append(f"  n{i} -> n{node.next};")
        elif node.kind == POST:
            lines.append(f"  n{i} -> n{node.true} [style=solid];")
            lines.append(f"  n{i} -> n{node.false} [style=dashed];")
    lines.append("}")
    return "\n".join(lines)


def graph_to_dict(g: ThreadGraph) -> dict:
    nodes = []
    for i, node in enumerate(g.nodes):
        entry: dict = {"id": i, "kind": node.kind}
        if node.kind == POST:
            entry["action"] = node.action
            entry["true"] = node.true
            entry["false"] = node.false
        elif node.kind == DELAY:
            entry["next"] = node.next
        nodes.append(entry)
    return {"root": g.root, "nodes": nodes}


def to_json(g: ThreadGraph) -> str:
    return json.dumps(graph_to_dict(g))
