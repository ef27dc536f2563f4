"""Seeded operation lists for the three workloads.

Each ``build_*`` function returns a fixed list of ``Op``.  The sizes of
the ops follow a fixed ladder and only their contents come from the seed,
so the total work moves little from seed to seed while the inputs differ.
Every op makes its library calls through ``tracer.call``; ``check`` judges
an output against ``oracle``, which shares no code with ``pga_mech``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import click

import pga_mech
from pga_mech import cli

import oracle

MIN_REACH = 0.85  # share of reachable positions in the dense inputs of relations
KNOWN_BUG = "known bug (ROADMAP item 4): pareto_front returned an empty front"


@dataclass
class Op:
    label: str
    run: Callable            # run(tracer) -> output, compared across rounds with ==
    check: Callable          # check(output) -> None, or the reason it is wrong
    inputs: list             # (instructions, reachable nodes) per input text
    replay: Callable | None = None   # cli only: the library calls the command makes
    counts: Callable = field(default=lambda out: {})  # deterministic work counts


def _ladder(rng: random.Random, count: int, lo: float, hi: float) -> list[int]:
    """``count`` sizes spaced geometrically from lo to hi, each moved by up
    to 2 % by the seed."""
    if count == 1:
        return [int(lo)]
    ratio = (hi / lo) ** (1 / (count - 1))
    return [max(1, round(lo * ratio ** i * rng.uniform(0.98, 1.02))) for i in range(count)]


def _seq_input(text: str) -> tuple[int, int]:
    seq = oracle.parse_seq(text)
    return len(seq[0]) + len(seq[1] or ()), len(oracle.reachable(seq))


def _thread_input(graph: tuple) -> tuple[int, int]:
    return 0, len(graph[0])


# --- sequence families --------------------------------------------------------

def chain(n: int, action: str) -> str:
    """``#1ⁿ;a;!``: n delays before one action."""
    return ";".join(["#1"] * n + [action, "!"])


def loop(n: int, a: str, b: str, delayed: bool) -> str:
    """``((a;#1)ⁿ;b)^w`` when delayed, else ``(aⁿ;b)^w``."""
    body = [a, "#1"] * n if delayed else [a] * n
    return "(" + ";".join(body + [b]) + ")^w"


def dense_instrs(rng: random.Random, count: int, actions: str, jump_rate: float = 0.2,
                 term_rate: float = 0.05, max_jump: int = 3) -> list[str]:
    """Instructions that keep most positions reachable: tests skip one
    position, jumps are short, and ``!`` only follows a test.  Every ``!``
    may end the reachable part, so long sequences take ``term_rate=0``."""
    out: list[str] = []
    while len(out) < count:
        r = rng.random()
        a = rng.choice(actions)
        if r < term_rate:
            out += ["-" + a, "!"]
        elif r < 1 - jump_rate - 0.4:
            out.append(a)
        elif r < 1 - jump_rate - 0.2:
            out.append("+" + a)
        elif r < 1 - jump_rate:
            out.append("-" + a)
        else:
            out.append(f"#{rng.randint(1, max_jump)}")
    return out[:count]


def seq_text(prefix: list[str], cycle: list[str]) -> str:
    """Sequence text from instruction tokens; an empty cycle means none."""
    return ";".join(prefix + (["(" + ";".join(cycle) + ")^w"] if cycle else []))


def dense(rng: random.Random, prefix: int, cycle: int, actions: str = "abc",
          min_reach: float = 0.0, **kw) -> str:
    """A dense sequence, drawn again until at least ``min_reach`` of its
    positions are reachable: about one draw in ten reaches only a few, and
    the size of an op should not hang on the seed."""
    while True:
        ins = dense_instrs(rng, prefix + cycle, actions, **kw)
        text = seq_text(ins[:prefix], ins[prefix:])
        if len(oracle.reachable(oracle.parse_seq(text))) >= min_reach * (prefix + cycle):
            return text


def variant(rng: random.Random, text: str, doubled: bool) -> str:
    """The same unfolding written differently: the cycle doubled, or the
    cycle rotated so that its first instructions move into the prefix.
    The caller picks which, so that the size of an op does not hang on
    the seed."""
    prefix, cycle = oracle.parse_seq(text)
    if doubled:
        return oracle.show_seq(prefix, cycle + cycle)
    r = rng.randrange(1, len(cycle))
    return oracle.show_seq(prefix + cycle[:r], cycle[r:] + cycle[:r])


def _parse(tr, text):
    return tr.call("instructions.parse_pga", pga_mech.parse_pga, text, work=len(text.split(";")))


def _extraction_ok(text: str, g) -> bool:
    graph = oracle.graph_runner(oracle.from_thread_graph(g))
    return oracle.cosim(oracle.seq_runner(text), graph, oracle.exact)


# --- relate -------------------------------------------------------------------

RELATE_KINDS = ("compare", "improves", "bisimilar", "minimize")


def _relate_pair(rng: random.Random, family: str, size: int,
                 flip: bool) -> tuple[str, str, dict]:
    """Two sequences and the verdicts known by construction for (p, q).
    ``flip`` doubles the cycle of a dense pair's variant, and puts the
    slower side first in the other families."""
    a, b = rng.sample("abc", 2)
    if family == "dense":
        p = dense(rng, max(2, size // 10), size, "abc", MIN_REACH, term_rate=0.01)
        return p, variant(rng, p, flip), {"compare": "equal", "improves": True,
                                          "bisimilar": True}
    if family == "chain":
        slow, fast = chain(size, a), chain(size - 1, a)
        sizes = (size + 2, size + 1)
    else:
        slow, fast = loop(size, a, b, True), loop(size, a, b, False)
        sizes = (2 * size + 1, size + 1)
    if flip:
        return slow, fast, {"compare": "improved-by", "improves": False, "bisimilar": False,
                            "sizes": sizes}
    return fast, slow, {"compare": "improves", "improves": True, "bisimilar": False,
                        "sizes": sizes[::-1]}


def _relate_op(kind: str, p: str, q: str, expect: dict) -> Op:
    def run(tr):
        gp, gq = (tr.call("extraction.extract_mechanistic", pga_mech.extract_mechanistic,
                          _parse(tr, text), work=len) for text in (p, q))
        if kind == "compare":
            result = tr.call("ordering.compare", pga_mech.compare, gp, gq).value
        elif kind == "improves":
            result = tr.call("ordering.improves", pga_mech.improves, gp, gq)
        elif kind == "bisimilar":
            result = tr.call("threads.bisimilar", pga_mech.bisimilar, gp, gq)
        else:
            result = (tr.call("threads.minimize", pga_mech.minimize, gp),
                      tr.call("threads.minimize", pga_mech.minimize, gq))
        return result, gp, gq

    def check(out):
        result, gp, gq = out
        if not (_extraction_ok(p, gp) and _extraction_ok(q, gq)):
            return "extraction disagrees with the reference interpreter"
        if kind != "minimize":
            if result != expect[kind]:
                return f"{kind} gave {result!r}, expected {expect[kind]!r}"
            return None
        mp, mq = result
        if not (_extraction_ok(p, mp) and _extraction_ok(q, mq)):
            return "minimized graph disagrees with the reference interpreter"
        if "sizes" in expect:
            return None if (len(mp), len(mq)) == expect["sizes"] else "minimized sizes differ"
        return None if mp == mq else "minimal graphs of one unfolding differ"

    return Op(f"relate.{kind}", run, check, [_seq_input(p), _seq_input(q)])


def build_relate(rng: random.Random, scale: float, workdir: str) -> list[Op]:
    """Relation code on the ROADMAP's adversarial families and on dense
    cyclic sequences paired with a rewriting of the same unfolding."""
    per = max(1, round(scale * 34))  # ops per family, spread over the four kinds
    sizes = {"chain": _ladder(rng, per, 40, 120), "loop": _ladder(rng, per, 12, 40),
             "dense": _ladder(rng, per, 60, 300)}
    ops = []
    for family, ladder in sizes.items():
        for i, size in enumerate(ladder):
            # each kind meets both values of flip, at the same sizes for every seed
            p, q, expect = _relate_pair(rng, family, size, i // 4 % 2 == 0)
            ops.append(_relate_op(RELATE_KINDS[i % 4], p, q, expect))
    rng.shuffle(ops)
    return ops


# --- search -------------------------------------------------------------------

# (prefix bound, cycle bound, alphabet size, ops).  Longer or cyclic
# bounds are left out: a (5, 0) op takes 120 ms and a cyclic one swings
# from 10 to 300 ms with the target, as pareto_front is quadratic in the
# results, so a few of them would make the totals depend on the seed.
SEARCH_CLASSES = ((4, 0, 2, 100), (4, 0, 3, 100))


def _search_target(rng: random.Random, n: int, m: int, actions: str) -> tuple[str, tuple]:
    """A sequence of shape (n, m) with every position reachable whose
    functional behavior has 2 to 5 nodes and needs all but at most one of
    its instructions, and that behavior.  A looser target leaves slots
    free, its result set grows by a factor of the slot options per free
    slot, and pareto_front, quadratic in the results, takes seconds."""
    total = n + m
    while True:
        ins = []
        for _ in range(total):
            r = rng.random()
            a = rng.choice(actions)
            if r < 0.25:
                ins.append(a)
            elif r < 0.5:
                ins.append("+" + a)
            elif r < 0.7:
                ins.append("-" + a)
            elif r < 0.85:
                ins.append("!")
            else:
                ins.append(f"#{rng.randint(1, total)}")
        text = seq_text(ins[:n], ins[n:])
        seq = oracle.parse_seq(text)
        graph = oracle.extract(seq, functional=True)
        if (len(oracle.reachable(seq)) == total and 2 <= len(graph[0]) <= 5
                and oracle.min_size(graph) >= total - 1):
            return text, graph


def _search_op(n: int, m: int, actions: str, witness: str, graph: tuple) -> Op:
    text = oracle.thread_text(graph)
    bounds = pga_mech.SearchBounds(n, m, tuple(actions))

    def run(tr):
        target = tr.call("threads.parse_thread", pga_mech.parse_thread, text)
        results = tr.call("rewrites.search_implementations", pga_mech.search_implementations,
                          target, bounds, work=len)
        front = tr.call("rewrites.pareto_front", pga_mech.pareto_front, results, work=len)
        return results, front

    def check(out):
        results, front = out
        texts = [pga_mech.print_pga(s) for s in results]
        if witness not in texts:
            return f"search missed {witness}, which implements the target within the bounds"
        target = oracle.graph_runner(graph)
        if not all(oracle.cosim(target, oracle.seq_runner(t), oracle.no_more_delays) for t in texts):
            return "a search result is not implemented by the target"
        if any(s not in results for s in front):
            return "pareto front holds a non-result"
        if results and not front:
            if oracle.equivalent_unequal_pair(texts):  # the cause the known bug names
                return KNOWN_BUG
            return "pareto front of a nonempty result set is empty"
        return None

    return Op("search", run, check, [_seq_input(witness), _thread_input(graph)],
              counts=lambda out: {"rewrites.search.results": len(out[0]),
                                  "rewrites.pareto.front": len(out[1])})


def build_search(rng: random.Random, scale: float, workdir: str) -> list[Op]:
    """Bounded search on delay-free targets of 2-5 nodes drawn as the
    behavior of a random fully reachable sequence that fills the bounds,
    so the target is implementable and that sequence must be found."""
    ops = []
    for n, m, k, count in SEARCH_CLASSES:
        for _ in range(max(1, round(scale * count))):
            actions = "".join(rng.sample("abc", k))
            witness, graph = _search_target(rng, n, m, actions)
            ops.append(_search_op(n, m, actions, witness, graph))
    rng.shuffle(ops)
    return ops


# --- cli ----------------------------------------------------------------------

# click caches a wrapper per output stream and that wrapper keeps the
# stream alive, so a fresh StringIO per call would keep every output
# forever; the captures reuse one buffer each instead.
_STDOUT, _STDERR = io.StringIO(), io.StringIO()


def invoke(args: list[str]) -> tuple[int, str]:
    """One in-process CLI call: (exit code, stdout)."""
    for buf in (_STDOUT, _STDERR):
        buf.seek(0)
        buf.truncate()
    code = 0
    with contextlib.redirect_stdout(_STDOUT), contextlib.redirect_stderr(_STDERR):
        try:
            cli.main(args, standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except click.ClickException as exc:
            code = exc.exit_code
    return code, _STDOUT.getvalue()


def _render(g, fmt: str, tr) -> str:
    fn = {"dot": pga_mech.to_dot, "json": pga_mech.to_json}.get(fmt, pga_mech.print_thread)
    return tr.call("threads.render", fn, g)


def read_graph(text: str, fmt: str) -> tuple:
    """Node table from the ``extract`` command's eqn, dot or json output."""
    nodes = {}
    if fmt == "json":
        data = json.loads(text)
        for e in data["nodes"]:
            if e["kind"] == "post":
                nodes[e["id"]] = ("post", e["action"], e["true"], e["false"])
            elif e["kind"] == "delay":
                nodes[e["id"]] = ("sigma", e["next"])
            else:
                nodes[e["id"]] = (e["kind"],)
        return nodes, data["root"]
    if fmt == "eqn":
        for line in text.splitlines():
            lhs, rhs = line.split(" = ")
            i = int(lhs[1:])
            if rhs in ("S", "D"):
                nodes[i] = (rhs,)
            elif rhs.startswith("sigma("):
                nodes[i] = ("sigma", int(rhs[7:-1]))
            else:
                action, rest = rhs.split(" ? ")
                t, f = rest.split(" : ")
                nodes[i] = ("post", action, int(t[1:]), int(f[1:]))
        return nodes, 0
    labels, edges = {}, {}
    for line in text.splitlines()[1:-1]:
        line = line.strip()
        if " -> " in line:
            src, rest = line.split(" -> ")
            dst = int(rest.split(" ")[0].rstrip(";")[1:])
            edges.setdefault(int(src[1:]), {})["f" if "dashed" in rest else "t"] = dst
        else:
            labels[int(line.split(" ")[0][1:])] = line.split('"')[1]
    for i, label in labels.items():
        if label in ("S", "D"):
            nodes[i] = (label,)
        elif label == "σ":
            nodes[i] = ("sigma", edges[i]["t"])
        else:
            nodes[i] = ("post", label, edges[i]["t"], edges[i]["f"])
    return nodes, 0


def _cli_op(command: str, args: list[str], expect_code: int, check_out, inputs, replay=None,
            counts=lambda out: {}) -> Op:
    def run(tr):
        return invoke(args)  # traced rounds wrap each op in a span named by its label

    def check(out):
        code, stdout = out
        if code != expect_code:
            return f"{command} exited {code}, expected {expect_code}"
        return check_out(stdout) if check_out else None

    return Op(f"cli.{command}", run, check, inputs, replay, counts)


def _cli_extract(text: str, functional: bool, fmt: str, do_min: bool) -> Op:
    args = ["extract", "--functional" if functional else "--mechanistic", "--pga", text,
            "--format", fmt] + (["--minimize"] if do_min else [])

    def replay(tr):
        seq = _parse(tr, text)
        if functional:
            g = tr.call("extraction.extract_functional", pga_mech.extract_functional, seq, work=len)
        else:
            g = tr.call("extraction.extract_mechanistic", pga_mech.extract_mechanistic, seq, work=len)
        if do_min:
            g = tr.call("threads.minimize", pga_mech.minimize, g)
        _render(g, fmt, tr)

    def check_out(stdout):
        graph = read_graph(stdout, fmt)
        relation = oracle.same_function if functional else oracle.exact
        if not oracle.cosim(oracle.seq_runner(text), oracle.graph_runner(graph), relation):
            return "extract output disagrees with the reference interpreter"
        return None

    return _cli_op("extract", args, 0, check_out, [_seq_input(text)], replay)


def _cli_compare(p: str, q_text: str, q_is_thread: bool, functional: bool, verdict: str) -> Op:
    args = ["compare", "--pga", p, "--thread" if q_is_thread else "--pga", q_text]
    args += ["--functional"] if functional else []
    code = 0 if verdict in ("equal", "improves", "mutually-equivalent") else 1

    def replay(tr):
        gs = [tr.call("extraction.extract_mechanistic", pga_mech.extract_mechanistic,
                      _parse(tr, p), work=len)]
        if q_is_thread:
            gs.append(tr.call("threads.parse_thread", pga_mech.parse_thread, q_text))
        else:
            gs.append(tr.call("extraction.extract_mechanistic", pga_mech.extract_mechanistic,
                              _parse(tr, q_text), work=len))
        if functional:
            gs = [tr.call("threads.functional_abstraction", pga_mech.functional_abstraction, g)
                  for g in gs]
        tr.call("ordering.compare", pga_mech.compare, *gs)

    def check_out(stdout):
        if stdout.strip() != verdict:
            return f"compare printed {stdout.strip()!r}, expected {verdict!r}"
        return None

    inputs = [_seq_input(p), (0, len(q_text.splitlines())) if q_is_thread else _seq_input(q_text)]
    return _cli_op("compare", args, code, check_out, inputs, replay)


def _write(workdir: str, name: str, text: str) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as out:
        out.write(text)
    return path


def _cli_check(relation: str, p: str, thread: str, path: str, held: bool) -> Op:
    args = ["check", relation, "--pga", p, "--thread-file", path]

    def replay(tr):
        seq = _parse(tr, p)
        g = tr.call("threads.parse_thread", pga_mech.parse_thread, thread)
        if relation == "implements":
            tr.call("ordering.is_implementation", pga_mech.is_implementation, seq, g)
        else:
            tr.call("ordering.is_pre_extraction", pga_mech.is_pre_extraction, seq, g)

    def check_out(stdout):
        if stdout.strip() != ("yes" if held else "no"):
            return "check printed the wrong answer"
        return None

    return _cli_op("check", args, 0 if held else 1, check_out,
                   [_seq_input(p), (0, thread.count("\n") + 1)], replay)


def _cli_rewrite(operation: str, text: str, steps: int = 1) -> Op:
    args = ["rewrite", operation, "--pga", text, "--trace"]
    args += ["--steps", str(steps)] if operation == "improve" else []

    def replay(tr):
        seq = _parse(tr, text)
        if operation == "unchain":
            seq, _ = tr.call("rewrites.unchain", pga_mech.unchain, seq)
        elif operation == "no-jump-to-term":
            seq, _ = tr.call("rewrites.eliminate_jump_to_termination",
                             pga_mech.eliminate_jump_to_termination, seq)
        else:
            for _ in range(steps):
                step = tr.call("rewrites.improve_step", pga_mech.improve_step, seq,
                               work=lambda r: r is not None)
                if step is None:
                    break
                seq = step[0]
        tr.call("instructions.print_pga", pga_mech.print_pga, seq)

    def check_out(stdout):
        after = stdout.splitlines()[0]
        if not oracle.cosim(oracle.seq_runner(after), oracle.seq_runner(text), oracle.no_more_delays):
            return f"rewrite {operation} output does not improve its input"
        if operation == "unchain" and oracle.jump_lands_on(after, "#"):
            return "unchain left a chained jump"
        if operation == "no-jump-to-term" and oracle.jump_lands_on(after, "!"):
            return "a jump to termination is left"
        return None

    def counts(out):
        lines = out[1].splitlines()[1:]
        return {"rewrites.steps_applied": sum(1 for line in lines if " @" in line)}

    return _cli_op("rewrite", args, 0, check_out, [_seq_input(text)], replay, counts)


def random_thread(rng: random.Random, count: int, actions: str = "abc") -> tuple:
    """A delay-free node table of ``count`` nodes rooted at a branch."""
    nodes = {}
    for i in range(count):
        r = rng.random()
        if i > 0 and r < 0.12:
            nodes[i] = ("S",)
        elif i > 0 and r < 0.2:
            nodes[i] = ("D",)
        else:
            # the true branch moves to the next node so all are reachable
            nodes[i] = ("post", rng.choice(actions), (i + 1) % count, rng.randrange(count))
    return nodes, 0


def _cli_codegen(graph: tuple, path: str, text: str) -> Op:
    def replay(tr):
        g = tr.call("threads.minimize", pga_mech.minimize,
                    tr.call("threads.parse_thread", pga_mech.parse_thread, text))
        seq = tr.call("rewrites.codegen", pga_mech.codegen, g)
        tr.call("threads.bisimilar", pga_mech.bisimilar,
                tr.call("extraction.extract_functional", pga_mech.extract_functional, seq,
                        work=len), g)
        tr.call("ordering.is_implementation", pga_mech.is_implementation, seq, g)
        tr.call("instructions.print_pga", pga_mech.print_pga, seq)

    def check_out(stdout):
        if not oracle.cosim(oracle.graph_runner(graph), oracle.seq_runner(stdout.strip()),
                            oracle.same_function):
            return "codegen output does not implement its thread"
        return None

    return _cli_op("codegen", ["codegen", "--thread-file", path], 0, check_out,
                   [_thread_input(graph)], replay)


IMPROVE_START = "(+{a};#4;+{b};#4;!)^w"  # the paper's non-optimality chain


def build_cli(rng: random.Random, scale: float, workdir: str) -> list[Op]:
    """The CLI commands a user runs, in process: extraction and rendering
    of large sequences, small relations, verified rewrites, code
    generation, and malformed input that must exit 2."""
    def n(k):
        return max(1, round(scale * k))

    ops = []
    formats = ("eqn", "dot", "json")
    for i, size in enumerate(_ladder(rng, n(20), 1000, 10000)):
        text = dense(rng, size // 10, size - size // 10, term_rate=0)
        ops.append(_cli_extract(text, i % 2 == 1, formats[i % 3], size <= 2500 and i % 2 == 0))
    for i, size in enumerate(_ladder(rng, n(16), 12, 28)):
        a, b = rng.sample("abc", 2)
        kind = i % 4
        if kind == 0:
            p, q, verdict = chain(size, a), chain(size + 1, a), "improves"
        elif kind == 1:
            p, q, verdict = loop(size, a, b, True), loop(size, a, b, False), "improved-by"
        else:
            p = dense(rng, 4, 2 * size, min_reach=MIN_REACH, term_rate=0.01)
            q, verdict = variant(rng, p, i // 4 % 2 == 0), "equal"
        functional = kind == 1 and i % 8 == 1
        if functional:
            verdict = "equal"
        if kind == 3:
            q = oracle.thread_text(oracle.extract(oracle.parse_seq(q), functional=False))
        ops.append(_cli_compare(p, q, kind == 3, functional, verdict))
    for i, size in enumerate(_ladder(rng, n(16), 12, 40)):
        a = rng.choice("abc")
        relation = ("implements", "pre-extracts")[i % 2]
        if i % 4 < 2:
            p = dense(rng, 4, 2 * size, min_reach=MIN_REACH, term_rate=0.01)
            thread, held = oracle.extract(oracle.parse_seq(p), functional=False), True
        else:
            # the thread has one delay fewer: it implements, but is not, p
            p = chain(size, a)
            thread = oracle.extract(oracle.parse_seq(chain(size - 1, a)), functional=False)
            held = relation == "implements"
        text = oracle.thread_text(thread)
        path = _write(workdir, f"check{i}.thread", text)
        ops.append(_cli_check(relation, p, text, path, held))
    for size in _ladder(rng, n(12), 12, 32):
        text = dense(rng, size // 4, size - size // 4, jump_rate=0.5, term_rate=0.01)
        ops.append(_cli_rewrite("unchain", text))
    for size in _ladder(rng, n(8), 8, 24):
        text = dense(rng, size, 0, jump_rate=0.3)
        ops.append(_cli_rewrite("no-jump-to-term", text + ";!;" + text + ";!"))
    for i in range(n(12)):
        a, b = rng.sample("abc", 2)
        ops.append(_cli_rewrite("improve", IMPROVE_START.format(a=a, b=b), 1 + i % 3))
    for i, size in enumerate(_ladder(rng, n(10), 5, 40)):
        graph = random_thread(rng, size)
        text = oracle.thread_text(graph)
        ops.append(_cli_codegen(graph, _write(workdir, f"codegen{i}.thread", text), text))
    bad = _write(workdir, "bad.thread", "P = a ? Q\n")
    errors = [["extract", "--mechanistic", "--pga", "a;;b"],
              ["extract", "--pga", "a;!"],
              ["compare", "--pga", "a;!"],
              ["check", "implements", "--pga", "a;!", "--thread-file", bad],
              ["rewrite", "unroll", "--pga", "a;!"],
              ["codegen", "--thread-file", os.path.join(workdir, "missing.thread")]]
    for args in errors[:n(len(errors))]:
        ops.append(_cli_op(args[0], args, 2, None, []))
    rng.shuffle(ops)
    return ops


WORKLOADS = {"relate": build_relate, "search": build_search, "cli": build_cli}
