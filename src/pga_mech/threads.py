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

A graph holds its nodes as rows: plain 5-tuples in ``Node`` field order
``(kind, action, next, true, false)``.  Every builder and reader in the
library works on the rows and builds no ``Node``; the public ``nodes``
view builds the ``Node``s on its first read and then replaces the rows.
A ``Node`` hashes and compares like its plain tuple, so a graph's length,
equality and hash are the same before and after that read.  Library code
whose rows are known to be valid and in range skips the checks:
``ThreadGraph._renumbered`` is the constructor's one-pass breadth-first
renumbering alone, which also builds ``minimize``'s quotient, and
``ThreadGraph._canonical`` takes rows already numbered that way, as
extraction builds them.  ``minimize`` refines only the cores of the delay
resolution (S, post and one shared D node): a delay node's class is the
key (its delay count, its core's block), so it costs two linear passes
plus O(c log c) for the c cores.

The delay resolution, which every relation and ``minimize`` read, is one
pass over the rows in reverse id order: a delay whose successor has a
larger id, as on every forward chain of jumps, reads its successor's
finished entry.  Only the delays that pass defers, those whose successor
has a smaller id or was deferred itself (back edges and delay loops), are
resolved by a walk along their trail, which visits each of them once.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Iterable, Iterator

from .instructions import _NAME, _check_action

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
            _check_action(action)
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


# ``_new(Node, row)`` builds a ``Node`` from a row unchecked
_new = tuple.__new__
# the rows of S and D, shared by every graph
_S_ROW = (S, None, None, None, None)
_D_ROW = (D, None, None, None, None)


class ThreadGraph:
    """Finite rooted behavior graph, normalized at construction.

    The graph holds its nodes as rows, plain tuples in ``Node`` field order
    ``(kind, action, next, true, false)``, numbered breadth-first from the
    root.  ``nodes`` is the read-only view of the same nodes as ``Node``s.
    It is built on its first read and then kept in place of the rows, so
    the graph never holds both.  ``len``, ``==`` and ``hash`` read the
    rows, and a ``Node`` hashes and compares like its plain tuple, so they
    give the same answers before and after the view is built."""

    __slots__ = ("_rows", "_nodes")  # ``_nodes`` is unset until the view is read
    root = 0  # the nodes are numbered breadth-first from the root

    def __init__(self, nodes, root: int):
        nodes = list(nodes)
        for i, node in enumerate(nodes):
            if not isinstance(node, Node):
                raise TypeError(f"node {i} is not a Node: {node!r}")
        if not 0 <= root < len(nodes):
            raise ValueError("root is not a node")
        for node in nodes:
            for s in node.successors():
                if s is None or not 0 <= s < len(nodes):
                    raise ValueError("edge target is not a node")
        self._rows = ThreadGraph._renumbered(nodes, root)._rows

    @property
    def nodes(self) -> tuple[Node, ...]:
        """The nodes as ``Node``s, in id order; the view replaces the rows."""
        try:
            return self._nodes
        except AttributeError:
            view = self._nodes = self._rows = tuple([_new(Node, row) for row in self._rows])
            return view

    @classmethod
    def _renumbered(cls, rows, root: int, via=None) -> ThreadGraph:
        """The graph of the rows reachable from ``root``, numbered
        breadth-first in one pass, as the constructor numbers it, with
        nothing checked: every edge must be in range.  With ``via``, a node
        id per node id, an edge into ``i`` (the root included) goes to
        ``via[i]`` instead.  The rows may be ``Node``s; the graph's rows
        are plain tuples."""
        if via is None:
            via = range(len(rows))
        root = via[root]
        order = [root]  # the old id of each new node
        index = [-1] * len(rows)  # the new id of each old node met so far
        index[root] = 0
        out = []
        for old in order:  # the loop also visits the ids appended here
            kind, action, nxt, t, f = rows[old]
            if kind == POST:
                t, f = via[t], via[f]
                new_t = index[t]
                if new_t < 0:
                    new_t = index[t] = len(order)
                    order.append(t)
                new_f = index[f]
                if new_f < 0:
                    new_f = index[f] = len(order)
                    order.append(f)
                out.append((POST, action, None, new_t, new_f))
            elif kind == DELAY:
                t = via[nxt]
                new_t = index[t]
                if new_t < 0:
                    new_t = index[t] = len(order)
                    order.append(t)
                out.append((DELAY, None, new_t, None, None))
            else:
                out.append(_S_ROW if kind == S else _D_ROW)
        return cls._canonical(out)

    @classmethod
    def _canonical(cls, rows) -> ThreadGraph:
        """The graph of ``rows`` as they stand: they must already be
        numbered breadth-first from root 0, as the constructor would number
        them, with every edge in range.  Nothing is checked or renumbered,
        and no ``Node`` is built."""
        g = object.__new__(cls)
        g._rows = tuple(rows)
        return g

    def __len__(self) -> int:
        return len(self._rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, ThreadGraph) and self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        return f"ThreadGraph({len(self._rows)} nodes)"

    def __str__(self) -> str:
        return print_thread(self)


# --- small constructors ----------------------------------------------------

def make_s() -> ThreadGraph:
    return ThreadGraph._canonical([_S_ROW])


def make_d() -> ThreadGraph:
    return ThreadGraph._canonical([_D_ROW])


def _shifted(g: ThreadGraph, shift: int) -> list[tuple]:
    """The rows of ``g`` with every id moved up by ``shift``."""
    out = []
    for kind, action, nxt, t, f in g._rows:
        if kind == POST:
            out.append((POST, action, None, t + shift, f + shift))
        elif kind == DELAY:
            out.append((DELAY, None, nxt + shift, None, None))
        else:
            out.append(_S_ROW if kind == S else _D_ROW)
    return out


def make_delay(inner: ThreadGraph, count: int = 1) -> ThreadGraph:
    """Prepend ``count`` delay nodes to the root of ``inner``."""
    if count < 0:
        raise ValueError("delay count must be nonnegative")
    # a chain in front of a breadth-first graph keeps it breadth-first
    rows = [(DELAY, None, i + 1, None, None) for i in range(count)]
    return ThreadGraph._canonical(rows + _shifted(inner, count))


def make_post(action: str, on_true: ThreadGraph, on_false: ThreadGraph) -> ThreadGraph:
    """Branch on ``action``: continue as ``on_true``/``on_false``."""
    _check_action(action)
    f_shift = 1 + len(on_true)
    root = (POST, action, None, on_true.root + 1, on_false.root + f_shift)
    return ThreadGraph._renumbered([root] + _shifted(on_true, 1) + _shifted(on_false, f_shift), 0)


def make_prefix(action: str, inner: ThreadGraph) -> ThreadGraph:
    """Action prefixing: perform ``action``, then continue as ``inner``
    regardless of the reply (both branches share one node)."""
    _check_action(action)
    return ThreadGraph._canonical([(POST, action, None, 1, 1)] + _shifted(inner, 1))


# --- minimization ----------------------------------------------------------

def _core_blocks(rows: tuple[tuple, ...], resolution: list[tuple[int, int]]) -> list[int]:
    """Block id per core of the delay resolution (S, post and the shared D
    node; -1 elsewhere) in the coarsest bisimulation, by Hopcroft's
    refinement over the letters true/false into the edges' cores.  A post
    starts in the block of its action and its edges' delay counts.

    Each block is a set of members.  Transitions are partial, so every
    initial block starts on the worklist (Valmari and Lehtinen, 2008).  A
    block that the splitter's predecessors over one letter hit only partly
    keeps its id for the larger part, and the smaller part takes a new id
    and is queued: Hopcroft's rule, whether or not the old block is queued.
    Only a letter with one predecessor splits without grouping its
    predecessors by block.
    """
    true_inverse, false_inverse = [[] for _ in rows], [[] for _ in rows]
    labels: dict = {}
    block = [-1] * len(rows)
    members: list[set[int]] = []
    for i, (row, (_, core)) in enumerate(zip(rows, resolution)):
        if core != i:
            continue
        label, action, _, t, f = row
        if label == POST:
            t_count, t = resolution[t]
            f_count, f = resolution[f]
            true_inverse[t].append(i)
            false_inverse[f].append(i)
            label = (action, t_count, f_count)
        b = block[i] = labels.setdefault(label, len(labels))
        if b == len(members):
            members.append(set())
        members[b].add(i)
    work = list(range(len(members)))
    while work:
        splitter = members[work.pop()]
        if len(splitter) == 1:
            (i,) = splitter
            letters = (true_inverse[i], false_inverse[i])
        else:  # both read before either letter splits the splitter
            letters = ([j for i in splitter for j in true_inverse[i]],
                       [j for i in splitter for j in false_inverse[i]])
        for hit_nodes in letters:
            if len(hit_nodes) == 1:  # most blocks end as singletons: no grouping
                j = hit_nodes[0]
                rest = members[block[j]]
                if len(rest) > 1:
                    rest.remove(j)
                    block[j] = len(members)
                    work.append(len(members))
                    members.append({j})
            if len(hit_nodes) < 2:
                continue
            # each node has at most one successor per letter, so no
            # predecessor is hit twice
            hit: dict[int, list[int]] = {}
            for j in hit_nodes:
                hit.setdefault(block[j], []).append(j)
            for c, part in hit.items():
                rest = members[c]
                if len(part) == len(rest):
                    continue
                smaller = set(part)
                if 2 * len(part) > len(rest):
                    smaller = rest - smaller
                rest -= smaller
                new = len(members)
                members.append(smaller)
                for j in smaller:
                    block[j] = new
                work.append(new)
    return block


def minimize(g: ThreadGraph) -> ThreadGraph:
    """Smallest graph bisimilar to ``g`` (quotient by bisimilarity): ``g``
    itself if it is minimal.  Only the cores of the delay resolution are
    refined; a node's class is its key (delay count, block of its core).
    The quotient is built in one breadth-first pass from the root's key, so
    it is canonical.  Cost: two linear passes plus O(c log c) in c cores."""
    rows, resolution = _delay_resolution(g)
    block = _core_blocks(rows, resolution)
    stride = len(block)  # above every block id, so (count, block) keys stay apart
    keys = [count * stride + block[core] for count, core in resolution]
    keys.pop()  # the shared D node's, which no edge of g reaches
    member = dict(zip(keys, range(len(keys))))  # the last node of each key
    if len(member) == len(g):
        return g  # no two nodes share a class, and every graph is canonical
    return ThreadGraph._renumbered(g._rows, g.root, list(map(member.__getitem__, keys)))


# --- divergence and delay resolution ---------------------------------------
# Divergence (a delay loop, or a delay chain into D) behaves as deadlock.
# Every relation and ``minimize`` read the one-pass resolution below.

def _delay_resolution(g: ThreadGraph) -> tuple[tuple[tuple, ...], list[tuple[int, int]]]:
    """The rows of ``g`` plus the shared D node's, and for each of those
    nodes the number of delays before the first S or post node on its
    delay chain and that node's id.  A divergent chain resolves to the
    shared D node, id ``len(g)``, with its divergence signature for a
    count: the number of delays into D, or -1 on a delay loop.

    One pass in reverse id order resolves every node but the delays whose
    successor has a smaller id or was itself deferred; the trail walk
    resolves those, each once, so the cost is linear in the nodes."""
    rows = g._rows
    d_id = len(rows)
    dead, loop = (0, d_id), (-1, d_id)
    out: list = [None] * d_id
    deferred = []
    i = d_id
    for kind, _, nxt, _, _ in reversed(rows):
        i -= 1
        if kind != DELAY:
            out[i] = dead if kind == D else (0, i)
        elif (entry := out[nxt]) is not None:
            # a successor with a smaller id is not resolved yet, and no
            # delay loop is resolved in this pass, so the count is >= 0
            count, core = entry
            out[i] = (count + 1, core)
        else:
            deferred.append(i)
    for start in deferred:
        if out[start] is not None:  # on the trail of a delay deferred before
            continue
        # each trail node is marked a delay loop before it is followed, so
        # a chain that loops back onto its own trail stays one
        trail = []
        i = start
        while out[i] is None:
            trail.append(i)
            out[i] = loop
            i = rows[i][2]
        count, core = out[i]
        if count >= 0:
            for j in reversed(trail):
                count += 1
                out[j] = (count, core)
    out.append(dead)
    return rows + (_D_ROW,), out


def _has_delay(g: ThreadGraph) -> bool:
    """True iff some node of ``g`` is a delay node."""
    return any(row[0] == DELAY for row in g._rows)


def has_adjacent_delays(g: ThreadGraph) -> bool:
    """True iff, after divergence collapse, some reachable delay node leads
    directly into another delay node (a two-delay residual)."""
    d_id = len(g)
    return any(count > 1 and core != d_id for count, core in _delay_resolution(g)[1])


def collapse_divergence(g: ThreadGraph) -> ThreadGraph:
    """Replace every node from which no S and no post node is reachable by a
    single shared D node.  Pure-delay loops and delay chains into D all
    become D; the functional behavior is unchanged."""
    rows, resolution = _delay_resolution(g)
    d_id = len(g)
    keep = [d_id if core == d_id else i for i, (_, core) in enumerate(resolution)]
    # redirected to D, the edges into divergent nodes leave them unreachable
    return ThreadGraph._renumbered(rows, g.root, keep)


def functional_abstraction(g: ThreadGraph) -> ThreadGraph:
    """Erase all delays: route every edge into a delay node to that node's
    first non-delay descendant, and every divergent one to deadlock."""
    rows, resolution = _delay_resolution(g)
    # redirected to their cores, the edges into delay nodes leave them
    # all unreachable
    return ThreadGraph._renumbered(rows, g.root, [c for _, c in resolution])


# --- text format ------------------------------------------------------------

class ThreadSyntaxError(ValueError):
    """Malformed thread-equation text."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"{message} at line {line}"
        super().__init__(message)
        self.line = line


_EQ_NAME = r"([A-Za-z][A-Za-z0-9_]*)"  # an equation name, captured
# groups: the name, S or D, the sigma target, the action, the true and
# false targets of a branch, and the target of an action prefix
_EQUATION_RE = re.compile(rf"\s*{_EQ_NAME}\s*=\s*(?:([SD])|sigma\s*\(\s*{_EQ_NAME}\s*\)|"
                          rf"({_NAME})\s*(?:\?\s*{_EQ_NAME}\s*:\s*{_EQ_NAME}|\.\s*{_EQ_NAME}))\s*\Z")
# a name and any right-hand side: words the error for a segment that
# ``_EQUATION_RE`` rejects
_EQ_RE = re.compile(rf"\s*{_EQ_NAME}\s*=\s*(.*?)\s*\Z")


def parse_thread(text: str) -> ThreadGraph:
    """Parse thread equations, one per line (``;`` also separates equations,
    ``#`` starts a comment that runs to the end of the line, ``;`` included).
    The first equation's left-hand side is the root.  Forms: ``S``, ``D``,
    ``sigma(N)``, ``a ? N1 : N2`` and the action-prefix sugar ``a . N``.

    Each equation is matched once, by one pattern for its name and every
    form, and its node is built at once: names are numbered on first
    sight, as a definition or a reference, so a reference may come before
    its definition.  The first malformed equation raises at its line; if
    none is, the first reference to a reserved or undefined name raises at
    the line of the equation that makes it."""
    # every name gets the next number on first sight, as a definition or a
    # reference; per number, ``rows`` holds the name's row once it is
    # defined, until then the line of the first equation referring to it
    index: dict[str, int] = {}
    rows: list = []
    for lineno, raw_line in enumerate(text.split("\n"), 1):
        for segment in raw_line.partition("#")[0].split(";"):
            m = _EQUATION_RE.match(segment)
            if m is None:
                if segment.strip():
                    raise _rejected(segment, lineno, index, rows)
                continue
            name, terminal, delay, action, true, false, prefix = m.groups()
            if name in _RESERVED_NAMES:
                raise _rejected(segment, lineno, index, rows)
            i = index.setdefault(name, len(rows))
            if i == len(rows):
                rows.append(None)
            elif type(rows[i]) is not int:  # defined before
                raise _rejected(segment, lineno, index, rows)
            if terminal:
                rows[i] = _S_ROW if terminal == S else _D_ROW
                continue
            # the pattern has checked the action name and every target is
            # numbered here, so the row needs no check
            t = index.setdefault(true or delay or prefix, len(rows))
            if t == len(rows):
                rows.append(lineno)
            if delay:
                rows[i] = (DELAY, None, t, None, None)
                continue
            f = t if prefix else index.setdefault(false, len(rows))
            if f == len(rows):
                rows.append(lineno)
            rows[i] = (POST, action, None, t, f)
    if not rows:
        raise ThreadSyntaxError("no equations")
    if int in map(type, rows):
        # the first name referred to and never defined, first referred to
        # before any other such name
        name, i = next((name, i) for name, i in index.items() if type(rows[i]) is int)
        if name in _RESERVED_NAMES:
            form = "sigma(N)" if name == "sigma" else name
            raise ThreadSyntaxError(f"{name!r} is reserved and cannot be referred to; "
                                    f"write 'X = {form}' and refer to X", rows[i])
        raise ThreadSyntaxError(f"undefined name {name!r}", rows[i])
    return ThreadGraph._renumbered(rows, 0)


def _rejected(segment: str, lineno: int, index: dict[str, int], rows: list) -> ThreadSyntaxError:
    """The error for a nonblank ``segment`` that ``parse_thread`` rejects:
    one ``_EQUATION_RE`` does not match, or one that defines a reserved
    name or a name defined before, given ``parse_thread``'s state."""
    m = _EQ_RE.match(segment)
    if not m:
        return ThreadSyntaxError(f"expected 'NAME = ...', got {segment.strip()!r}", lineno)
    name, rhs = m.groups()
    if name in _RESERVED_NAMES:
        return ThreadSyntaxError(f"{name!r} is reserved", lineno)
    if name in index and type(rows[index[name]]) is not int:
        return ThreadSyntaxError(f"duplicate definition of {name!r}", lineno)
    return ThreadSyntaxError(f"cannot parse right-hand side {rhs!r}", lineno)


# Each format has one implementation: a generator of its text's lines
# (entries, in json) in lists of ``size`` nodes, which one separator
# joins into the text.  The public renderer asks for one list and joins
# it once; the CLI writes lists of a fixed number of nodes one by one, so
# that it never holds the whole text.


def _spans(names: list[str], rows: list, size: int) -> Iterator[zip]:
    """``zip(names, rows)`` in runs of ``size`` rows."""
    if size >= len(rows):
        yield zip(names, rows)  # one run: no copy of the lists
        return
    for start in range(0, len(rows), size):
        yield zip(names[start:start + size], rows[start:start + size])


def _numbered(prefix: str, n: int) -> list[str]:
    """``[f"{prefix}{i}" for i in range(n)]``, built without formatting a
    number: the string of i >= 10 is that of i // 10 and i's last digit,
    one concatenation each, which costs about half of formatting i."""
    digits = "0123456789"
    out = [prefix + d for d in digits][:n]
    lo = 1  # out[lo:] are the strings that the next digit extends
    while len(out) < n:
        hi = len(out)
        stop = min(hi, lo + (n - hi + 9) // 10)
        out += [s + d for s in out[lo:stop] for d in digits]
        lo = hi
    del out[n:]
    return out


def _joined(chunks: Iterable[list[str]], sep: str) -> str:
    """``sep.join`` of all the lines in ``chunks``."""
    lines = []
    for chunk in chunks:
        lines += chunk
    return sep.join(lines)


def _thread_chunks(g: ThreadGraph, size: int) -> Iterator[list[str]]:
    """The lines of ``print_thread(g)`` in lists of ``size`` nodes.  Each
    node's name is built once, and an edge reads it by the node's id."""
    rows = g._rows
    names = _numbered("T", len(rows))
    for span in _spans(names, rows, size):
        lines = []
        for name, (kind, action, nxt, t, f) in span:
            if kind == POST:
                lines.append(f"{name} = {action} ? {names[t]} : {names[f]}")
            elif kind == DELAY:
                lines.append(f"{name} = sigma({names[nxt]})")
            else:
                lines.append(f"{name} = {kind}")
        yield lines


def print_thread(g: ThreadGraph) -> str:
    """Render equations, one per node in graph order; round-trips with
    ``parse_thread`` up to node naming.  The CLI writes the same text in
    pieces, which concatenate to ``print_thread(g)``."""
    return _joined(_thread_chunks(g, len(g._rows)), "\n")


# --- exports ----------------------------------------------------------------

def _dot_chunks(g: ThreadGraph, size: int) -> Iterator[list[str]]:
    """The lines of ``to_dot(g)``: the first line, the node lines in lists
    of ``size`` nodes, then their edge lines in lists of the edges of
    ``size`` nodes, then the last line.  Each node's name is built
    once, and an edge reads it by the node's id; a post's two edge lines
    are one string."""
    rows = g._rows
    names = _numbered("n", len(rows))
    yield ["digraph thread {"]
    for span in _spans(names, rows, size):
        heads = []
        for name, (kind, action, _, _, _) in span:
            if kind == POST:
                heads.append(f'  {name} [label="{action}"];')
            elif kind == DELAY:
                heads.append(f'  {name} [label="σ"];')
            else:
                heads.append(f'  {name} [label="{kind}", shape=box];')
        yield heads
    for span in _spans(names, rows, size):
        edges = []
        for name, (kind, _, nxt, t, f) in span:
            if kind == POST:
                edges.append(f"  {name} -> {names[t]} [style=solid];\n"
                             f"  {name} -> {names[f]} [style=dashed];")
            elif kind == DELAY:
                edges.append(f"  {name} -> {names[nxt]};")
        yield edges
    yield ["}"]


def to_dot(g: ThreadGraph) -> str:
    """DOT digraph: solid edge = true branch, dashed edge = false branch.
    The CLI writes the same text in pieces, which concatenate to
    ``to_dot(g)``."""
    return _joined(_dot_chunks(g, len(g._rows)), "\n")


def graph_to_dict(g: ThreadGraph) -> dict:
    """The graph as JSON data: the root and one entry per node."""
    nodes = []
    for i, (kind, action, nxt, t, f) in enumerate(g._rows):
        if kind == POST:
            nodes.append({"id": i, "kind": kind, "action": action, "true": t, "false": f})
        elif kind == DELAY:
            nodes.append({"id": i, "kind": kind, "next": nxt})
        else:
            nodes.append({"id": i, "kind": kind})
    return {"root": g.root, "nodes": nodes}


def _json_chunks(g: ThreadGraph, size: int) -> Iterator[list[str]]:
    """The parts of ``to_json(g)`` that ``", "`` joins, in lists of
    ``size`` nodes: one entry per node, the first led by the object's
    opening and the last followed by its close.  Each id is built once,
    and an edge reads it by the node's id."""
    rows = g._rows
    ids = _numbered("", len(rows))
    opening, left = f'{{"root": {g.root}, "nodes": [', len(rows)
    for span in _spans(ids, rows, size):
        entries = []
        for i, (kind, action, nxt, t, f) in span:
            if kind == POST:
                entries.append(f'{{"id": {i}, "kind": "post", "action": "{action}", '
                               f'"true": {ids[t]}, "false": {ids[f]}}}')
            elif kind == DELAY:
                entries.append(f'{{"id": {i}, "kind": "delay", "next": {ids[nxt]}}}')
            else:
                entries.append(f'{{"id": {i}, "kind": "{kind}"}}')
        entries[0] = opening + entries[0]
        opening, left = "", left - len(entries)
        if not left:
            entries[-1] += "]}"
        yield entries


def to_json(g: ThreadGraph) -> str:
    """``json.dumps(graph_to_dict(g))``, written directly: kinds are fixed
    words and action names need no escaping.  The CLI writes the same
    text in pieces, which concatenate to ``to_json(g)``."""
    return _joined(_json_chunks(g, len(g._rows)), ", ")
