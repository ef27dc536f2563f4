"""Command-line interface.

Exit codes: 0 success / relation holds, 1 relation does not hold,
2 usage or parse error, 3 internal verification failure of a rewrite.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Iterable
from typing import NoReturn

import click

from .extraction import extract_functional, extract_mechanistic
from .instructions import PgaSyntaxError, parse_pga, print_pga
from .ordering import (
    _IMPROVING,
    compare,
    is_implementation,
    is_pre_extraction,
)
from .rewrites import (
    RewriteError,
    RewriteVerificationError,
    codegen,
    eliminate_jump_to_termination,
    improve_step,
    unchain,
    unroll,
)
from .search import (
    SearchBounds,
    SearchBudgetExceeded,
    pareto_front,
    search_implementations,
)
from .threads import (
    POST,
    ThreadSyntaxError,
    _dot_chunks,
    _has_delay,
    _json_chunks,
    _thread_chunks,
    functional_abstraction,
    minimize as minimize_graph,
    parse_thread,
)


def _fail(code: int, message: str) -> NoReturn:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _read(path: str) -> str:
    """The UTF-8 text of the file at ``path``; an unreadable file exits 2."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        _fail(2, str(exc))
    except UnicodeDecodeError as exc:
        _fail(2, f"{path!r} is not UTF-8: {exc.reason} at offset {exc.start}")


_PIECE_ROWS = 1000  # nodes or results per piece of output

# each ``extract --format``: its renderer's lines in lists of a given
# number of nodes, and the separator that joins them
_FORMATS = {"eqn": (_thread_chunks, "\n"), "dot": (_dot_chunks, "\n"), "json": (_json_chunks, ", ")}


def _echo_chunks(chunks: Iterable[list[str]], sep: str) -> None:
    """Write ``sep.join`` of the lines in ``chunks``, then a newline, to
    stdout, one piece per nonempty list, so that no command holds its
    whole output.  The pieces go straight to the stream that ``click.echo``
    writes to, without its pass that strips ANSI codes: an action name
    holds no escape character, so no output of this module can.  A reader
    that closes the pipe early ends the output with exit status 0 and
    nothing on stderr: stdout is pointed at the null device, so that the
    interpreter's final flush has nowhere to fail."""
    try:
        out = click.get_text_stream("stdout")
        lead = ""
        for lines in chunks:
            if lines:
                out.write(lead)
                out.write(sep.join(lines))
                lead = sep
        out.write("\n")
        out.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


class _Main(click.Group):
    """The command group; it maps the library's input errors to exit 2
    and a failed rewrite verification to exit 3."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (PgaSyntaxError, ThreadSyntaxError, RewriteError) as exc:
            _fail(2, str(exc))
        except RewriteVerificationError as exc:
            _fail(3, str(exc))


@click.group(cls=_Main)
def main() -> None:
    """Analyze, compare and rewrite single-pass instruction sequences."""


@main.command("extract")
@click.option("--functional", "mode", flag_value="functional")
@click.option("--mechanistic", "mode", flag_value="mechanistic")
@click.option("--pga", "pga_text", default=None, help="Instruction sequence text.")
@click.option("--file", "path", default=None, type=click.Path(), help="Read the sequence from a file.")
@click.option("--format", "fmt", type=click.Choice(["eqn", "dot", "json"]), default="eqn")
@click.option("--minimize", "do_minimize", is_flag=True)
def cmd_extract(mode, pga_text, path, fmt, do_minimize) -> None:
    """Print the behavior extracted from an instruction sequence."""
    if mode is None:
        _fail(2, "one of --functional/--mechanistic is required")
    if (pga_text is None) == (path is None):
        _fail(2, "exactly one of --pga/--file is required")
    seq = parse_pga(pga_text if path is None else _read(path))
    graph = extract_functional(seq) if mode == "functional" else extract_mechanistic(seq)
    if do_minimize:
        graph = minimize_graph(graph)
    chunks, sep = _FORMATS[fmt]
    _echo_chunks(chunks(graph, _PIECE_ROWS), sep)


@main.command("compare")
@click.option("--pga", "pga_texts", multiple=True)
@click.option("--thread", "thread_texts", multiple=True)
@click.option("--functional", "functional", is_flag=True,
              help="Compare delay-erased behaviors instead of mechanistic ones.")
def cmd_compare(pga_texts, thread_texts, functional) -> None:
    """Compare two behaviors; sequence inputs are extracted first.

    With one --pga and one --thread, the sequence is the left side.
    """
    if len(pga_texts) + len(thread_texts) != 2:
        _fail(2, "exactly two inputs are required (--pga/--thread)")
    graphs = [extract_mechanistic(parse_pga(text)) for text in pga_texts]
    graphs.extend(parse_thread(text) for text in thread_texts)
    if functional:
        graphs = [functional_abstraction(g) for g in graphs]
    verdict = compare(graphs[0], graphs[1])
    click.echo(verdict.value)
    sys.exit(0 if verdict in _IMPROVING else 1)


@main.command("check")
@click.argument("relation", type=click.Choice(["implements", "pre-extracts"]))
@click.option("--pga", "pga_text", required=True)
@click.option("--thread-file", "thread_path", required=True, type=click.Path())
def cmd_check(relation, pga_text, thread_path) -> None:
    """Check whether a sequence implements / pre-extracts a thread."""
    seq = parse_pga(pga_text)
    graph = parse_thread(_read(thread_path))
    held = (is_implementation(seq, graph) if relation == "implements"
            else is_pre_extraction(seq, graph))
    click.echo("yes" if held else "no")
    sys.exit(0 if held else 1)


@main.command("rewrite")
@click.argument("operation", type=click.Choice(["unchain", "no-jump-to-term", "unroll", "improve"]))
@click.option("--pga", "pga_text", required=True)
@click.option("--steps", "steps", default=1, type=click.IntRange(min=1), show_default=True,
              help="Improvement iterations (improve only).")
@click.option("--trace", "trace", is_flag=True)
def cmd_rewrite(operation, pga_text, steps, trace) -> None:
    """Apply a rewrite and print the result."""
    seq = parse_pga(pga_text)
    applied = []
    if operation == "unchain":
        seq, applied = unchain(seq)
    elif operation == "no-jump-to-term":
        seq, applied = eliminate_jump_to_termination(seq)
    elif operation == "unroll":
        seq = unroll(seq)
    else:
        for _ in range(steps):
            step = improve_step(seq)
            if step is None:
                break
            seq, record = step
            applied.append(record)
    click.echo(print_pga(seq))
    if operation == "improve" and not applied:
        click.echo("no improvement found")
    if trace:
        for record in applied:
            click.echo(f"{record.rule} @{record.site}: {record.evidence.value}")


@main.command("codegen")
@click.option("--thread-file", "thread_path", required=True, type=click.Path())
@click.option("--fa", "apply_fa", is_flag=True,
              help="Erase delays from the input thread first.")
def cmd_codegen(thread_path, apply_fa) -> None:
    """Emit a sequence whose functional behavior is the given thread."""
    graph = parse_thread(_read(thread_path))
    if _has_delay(graph):
        if not apply_fa:
            _fail(2, "thread contains delays; apply functional abstraction first (--fa)")
        graph = functional_abstraction(graph)
    graph = minimize_graph(graph)
    click.echo(print_pga(codegen(graph)))


@main.command("search")
@click.option("--thread-file", "thread_path", required=True, type=click.Path())
@click.option("--max-prefix", "max_prefix", required=True, type=int)
@click.option("--max-cycle", "max_cycle", required=True, type=int)
@click.option("--alphabet", "alphabet", required=True,
              help="Comma-separated action names.")
@click.option("--pareto", "pareto", is_flag=True,
              help="Keep only sequences no other found sequence strictly improves.")
@click.option("--max-candidates", "max_candidates", default=100000, show_default=True,
              type=click.IntRange(min=0),
              help="Most sequences the search may check or emit before it gives up.")
def cmd_search(thread_path, max_prefix, max_cycle, alphabet, pareto, max_candidates) -> None:
    """List every implementation of a thread within the bounds."""
    graph = parse_thread(_read(thread_path))
    names = tuple(part.strip() for part in alphabet.split(",") if part.strip())
    try:
        bounds = SearchBounds(max_prefix, max_cycle, names)
    except ValueError as exc:
        _fail(2, str(exc))
    missing = sorted({row[1] for row in graph._rows if row[0] == POST} - set(names))
    if missing:
        _fail(2, f"the thread uses action {missing[0]!r}, which is not in --alphabet")
    try:
        results = search_implementations(graph, bounds, max_candidates)
    except SearchBudgetExceeded as exc:
        _fail(2, f"{exc}; raise --max-candidates or tighten the bounds")
    if pareto:
        results = pareto_front(results)
    if results:
        _echo_chunks((list(map(print_pga, results[i:i + _PIECE_ROWS]))
                      for i in range(0, len(results), _PIECE_ROWS)), "\n")


if __name__ == "__main__":
    main()
