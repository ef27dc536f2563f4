import contextlib
import json
import os
import random
import subprocess
import sys
import tracemalloc

from click.testing import CliRunner

import pga_mech
from pga_mech import (
    SearchBounds,
    extract_mechanistic,
    neg_test,
    parse_pga,
    parse_thread,
    print_pga,
    print_thread,
    rewrites,
    search_implementations,
    to_dot,
    to_json,
)
from pga_mech.cli import _FORMATS, _PIECE_ROWS, _echo_chunks, main

_RENDERERS = {"eqn": print_thread, "dot": to_dot, "json": to_json}


def run(*args, **kwargs):
    return CliRunner().invoke(main, list(args), **kwargs)


def dense_text(seed: int, count: int) -> str:
    """A seeded sequence of about ``count`` instructions whose positions
    are mostly reachable: an S and a D branch first, then actions, tests
    and short jumps, with a cycle of nine tenths of them."""
    rng = random.Random(seed)
    tokens = [rng.choice(("a", "b", "+a", "-b", "#2", "#3")) for _ in range(count)]
    k = count // 10
    return f"+a;!;+b;#0;{';'.join(tokens[:k])};({';'.join(tokens[k:])})^w"


def assert_same_text(got: str, want: str, label) -> None:
    """``got == want``; a mismatch names the first differing character
    rather than have pytest diff texts of a megabyte."""
    if got != want:
        i = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        raise AssertionError(f"{label}: the texts differ at character {i}: "
                             f"{got[i - 30:i + 30]!r} != {want[i - 30:i + 30]!r}")


def test_extract_mechanistic_eqn():
    result = run("extract", "--mechanistic", "--pga", "(#1;a)^w", "--format", "eqn")
    assert result.exit_code == 0
    assert result.stdout == "T0 = sigma(T1)\nT1 = a ? T0 : T0\n"


def test_extract_functional_default_format():
    result = run("extract", "--functional", "--pga", "#1;#1;a;!")
    assert result.exit_code == 0
    assert result.stdout == "T0 = a ? T1 : T1\nT1 = S\n"


def test_extract_parse_error_exit_2():
    result = run("extract", "--functional", "--pga", "a;;b")
    assert result.exit_code == 2
    assert result.stdout == ""


def test_extract_non_ascii_exit_2():
    for text, column in (("aω;!", 2), ("+é;!", 1), ("#²;!", 1), ("a;#١;!", 3)):
        result = run("extract", "--mechanistic", "--pga", text)
        assert result.exit_code == 2, text
        assert result.stdout == ""
        assert result.stderr.startswith("error: ")
        assert result.stderr.endswith(f" at line 1, column {column}\n"), result.stderr


def test_overlong_jump_counter_exit_2():
    # a counter that ``int`` cannot read is a located syntax error, not a
    # crash that ``compare`` would report as its exit 1, "no"
    counter = "#" + "9" * 5000
    for args, column in ((["extract", "--mechanistic", "--pga", counter + ";!"], 1),
                         (["compare", "--pga", counter + ";!", "--pga", "a;!"], 1),
                         (["compare", "--pga", "a;!", "--pga", f"a;({counter})^w"], 4)):
        result = run(*args)
        assert result.exit_code == 2, args
        assert not isinstance(result.exception, ValueError), args
        assert result.stdout == ""
        assert result.stderr == f"error: jump counter too long at line 1, column {column}\n"


def test_extract_requires_mode_and_source():
    assert run("extract", "--pga", "a;!").exit_code == 2
    assert run("extract", "--functional").exit_code == 2


def test_extract_json_and_dot():
    result = run("extract", "--mechanistic", "--pga", "(#1;a)^w", "--format", "json")
    payload = json.loads(result.stdout)
    assert payload["root"] == 0 and payload["nodes"][0]["kind"] == "delay"
    result = run("extract", "--mechanistic", "--pga", "(#1;a)^w", "--format", "dot")
    assert result.stdout.startswith("digraph")


def test_extract_prints_every_piece():
    # the CLI writes the renderers' pieces one by one: the bytes across
    # piece boundaries must be the renderer's string and one newline
    long = dense_text(5, 4_000)
    assert len(extract_mechanistic(parse_pga(long))) > 2 * _PIECE_ROWS
    short = dense_text(6, 2_200)
    # each leading action adds one node
    exact = "a;" * (-len(extract_mechanistic(parse_pga(short))) % _PIECE_ROWS) + short
    assert len(extract_mechanistic(parse_pga(exact))) == 2 * _PIECE_ROWS
    for text in (long, exact):
        g = extract_mechanistic(parse_pga(text))
        for fmt, render in _RENDERERS.items():
            result = run("extract", "--mechanistic", "--pga", text, "--format", fmt)
            assert result.exit_code == 0
            assert_same_text(result.stdout, render(g) + "\n", fmt)


def test_pieces_of_any_size_join_to_the_renderer(capsys):
    # a complete tree of posts over eight S leaves: in dot, a span of
    # leaves has no edge lines, and its empty list adds no separator;
    # sizes 1 and 7 leave a last span of one node
    eqs = [f"N{i} = a ? N{2 * i} : N{2 * i + 1}" for i in range(1, 8)]
    g = parse_thread("\n".join(eqs + [f"N{i} = S" for i in range(8, 16)]))
    for fmt, render in _RENDERERS.items():
        chunks, sep = _FORMATS[fmt]
        for size in (1, 4, 7, 15, 16):
            _echo_chunks(chunks(g, size), sep)
            assert_same_text(capsys.readouterr().out, render(g) + "\n", (fmt, size))


def test_extract_memory_is_that_of_extraction():
    # written piece by piece, the output costs no copy of the whole text:
    # the command's peak stays near that of parsing and extracting alone
    text = dense_text(7, 20_000)

    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    base = peak(lambda: extract_mechanistic(parse_pga(text)))
    with open(os.devnull, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
        main(["extract", "--mechanistic", "--pga", "a;!"], standalone_mode=False)
        for fmt in _RENDERERS:
            args = ["extract", "--mechanistic", "--pga", text, "--format", fmt]
            used = peak(lambda: main(args, standalone_mode=False))
            assert used < 1.5 * base, (fmt, used, base)


def test_extract_to_closed_pipe_exits_0(tmp_path):
    # a reader that stops early, as ``| head -n 1`` does, is not a failure
    path = tmp_path / "big.pga"
    path.write_text(dense_text(7, 20_000))
    src = os.path.dirname(os.path.dirname(pga_mech.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.Popen([sys.executable, "-m", "pga_mech.cli", "extract", "--mechanistic",
                             "--file", str(path), "--format", "dot"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"digraph thread {\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


def test_extract_minimize():
    result = run("extract", "--mechanistic", "--pga", "(#1;#1)^w", "--format", "eqn",
                 "--minimize")
    assert result.stdout == "T0 = sigma(T0)\n"


def test_extract_from_file(tmp_path):
    path = tmp_path / "prog.pga"
    path.write_text("a;!\n")
    result = run("extract", "--functional", "--file", str(path))
    assert result.exit_code == 0
    assert result.stdout == "T0 = a ? T1 : T1\nT1 = S\n"


def test_compare_improves():
    result = run("compare", "--pga", "#1;a;!", "--pga", "#1;#1;a;!")
    assert result.stdout == "improves\n"
    assert result.exit_code == 0


def test_compare_incomparable_exit_1():
    result = run("compare", "--pga", "+a;#3;c;!;b;!", "--pga", "-a;#3;b;!;c;!")
    assert result.stdout == "incomparable\n"
    assert result.exit_code == 1


def test_compare_equal():
    result = run("compare", "--pga", "a;!", "--pga", "a;!")
    assert result.stdout == "equal\n"
    assert result.exit_code == 0


def test_compare_threads_and_mixed():
    result = run("compare", "--thread", "P = a . Q; Q = S",
                 "--thread", "P = sigma(R); R = a . Q; Q = S")
    assert result.stdout == "improves\n"
    result = run("compare", "--pga", "a;!", "--thread", "P = a . Q; Q = S")
    assert result.stdout == "equal\n"


def test_compare_functional_flag():
    result = run("compare", "--functional", "--pga", "#1;a;!", "--pga", "a;!")
    assert result.stdout == "equal\n"


def test_compare_needs_two_inputs():
    result = run("compare", "--pga", "a;!")
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == "error: exactly two inputs are required (--pga/--thread)\n"


def test_check_implements(tmp_path):
    path = tmp_path / "p.thread"
    path.write_text("P = a ? Q : R\nQ = b . QS\nR = c . RS\nQS = S\nRS = S\n")
    result = run("check", "implements", "--pga", "+a;#3;c;!;b;!", "--thread-file", str(path))
    assert result.stdout == "yes\n" and result.exit_code == 0
    result = run("check", "pre-extracts", "--pga", "+a;#3;c;!;b;!", "--thread-file", str(path))
    assert result.stdout == "no\n" and result.exit_code == 1


def test_check_wrong_action(tmp_path):
    path = tmp_path / "p.thread"
    path.write_text("P = a . Q\nQ = S\n")
    result = run("check", "implements", "--pga", "b;!", "--thread-file", str(path))
    assert result.stdout == "no\n" and result.exit_code == 1


def test_rewrite_unchain_golden():
    result = run("rewrite", "unchain", "--pga", "#2;a;#1;b;!")
    assert result.stdout == "#3;a;#1;b;!\n"
    assert result.exit_code == 0


def test_rewrite_no_jump_to_term_trace():
    result = run("rewrite", "no-jump-to-term", "--pga", "+a;#2;#3;!;b;!", "--trace")
    assert result.exit_code == 0
    assert result.stdout == ("+a;!;!;!;b;!\n"
                             "eliminate-jump-to-termination @1: improves\n"
                             "eliminate-jump-to-termination @2: improves\n")


def test_rewrite_improve_trace():
    result = run("rewrite", "improve", "--steps", "2",
                 "--pga", "(+a;#4;+b;#4;!)^w", "--trace")
    assert result.exit_code == 0
    lines = result.stdout.strip().split("\n")
    assert lines[0] == "(+a;#10;-b;!;-b;!;-b;!;+b;#4;!)^w"
    assert len(lines) == 3
    assert all("improves" in line for line in lines[1:])
    # each further member of the chain needs a longer expansion
    result = run("rewrite", "improve", "--steps", "6",
                 "--pga", "(+a;#4;+b;#4;!)^w", "--trace")
    assert result.exit_code == 0
    assert result.stdout.count(": improves\n") == 6


def test_rewrite_improve_nothing_found():
    result = run("rewrite", "improve", "--pga", "a;!")
    assert result.stdout == "a;!\nno improvement found\n"
    assert result.exit_code == 0


def test_rewrite_improve_steps_must_be_positive():
    for steps in ("0", "-2"):
        result = run("rewrite", "improve", "--steps", steps, "--pga", "(+a;#4;+b;#4;!)^w")
        assert result.exit_code == 2, steps
        assert result.stdout == ""


def test_rewrite_unroll_on_finite_is_usage_error():
    assert run("rewrite", "unroll", "--pga", "a;!").exit_code == 2


def test_codegen(tmp_path):
    path = tmp_path / "p.thread"
    path.write_text("P = a ? Q : R\nQ = S\nR = S\n")
    result = run("codegen", "--thread-file", str(path))
    assert result.stdout == "+a;#2;#1;!;!;!\n"
    assert result.exit_code == 0
    d_path = tmp_path / "d.thread"
    d_path.write_text("P = D\n")
    assert run("codegen", "--thread-file", str(d_path)).output == "#0;#0;#0\n"
    loop_path = tmp_path / "loop.thread"
    loop_path.write_text("P = a ? Q : P\nQ = b . P\n")
    result = run("codegen", "--thread-file", str(loop_path))
    assert result.stdout == "(+a;#2;#4;+b;#2;#1)^w\n"
    assert result.exit_code == 0


def test_codegen_failed_self_check_exit_3(tmp_path, monkeypatch):
    # a code generator that emits -a for +a swaps every branch
    monkeypatch.setattr(rewrites, "pos_test", neg_test)
    path = tmp_path / "p.thread"
    path.write_text("P = a ? Q : R\nQ = S\nR = D\n")
    result = run("codegen", "--thread-file", str(path))
    assert result.exit_code == 3
    assert result.stdout == ""
    assert result.stderr == "error: generated sequence failed its self-check\n"


def test_codegen_delays_require_fa(tmp_path):
    path = tmp_path / "p.thread"
    path.write_text("P = sigma(Q)\nQ = a . R\nR = S\n")
    result = run("codegen", "--thread-file", str(path))
    assert result.exit_code == 2
    result = run("codegen", "--thread-file", str(path), "--fa")
    assert result.exit_code == 0
    assert result.stdout == "+a;#2;#1;!;!;!\n"


def test_search(tmp_path):
    path = tmp_path / "p.thread"
    path.write_text("P = a . Q\nQ = S\n")
    result = run("search", "--thread-file", str(path), "--max-prefix", "2",
                 "--max-cycle", "0", "--alphabet", "a")
    assert result.exit_code == 0
    assert "a;!" in result.stdout.split("\n")
    result = run("search", "--thread-file", str(path), "--max-prefix", "0",
                 "--max-cycle", "0", "--alphabet", "a")
    assert result.exit_code == 2


def test_search_pareto(tmp_path):
    path = tmp_path / "p.thread"
    path.write_text("P = a ? Q : R\nQ = b . QS\nR = c . RS\nQS = S\nRS = S\n")
    result = run("search", "--thread-file", str(path), "--max-prefix", "6",
                 "--max-cycle", "0", "--alphabet", "a,b,c", "--pareto")
    lines = [line for line in result.stdout.split("\n") if line]
    assert sorted(lines) == ["+a;#3;c;!;b;!", "-a;#3;b;!;c;!"]


def test_search_pareto_loose_target(tmp_path):
    # 15,731 results, 5 behaviors: the front is every result that
    # terminates at once
    path = tmp_path / "p.thread"
    path.write_text("P = S\n")
    result = run("search", "--thread-file", str(path), "--max-prefix", "5",
                 "--max-cycle", "0", "--alphabet", "a", "--pareto")
    assert result.exit_code == 0
    lines = result.stdout.split("\n")[:-1]
    assert len(lines) == 10801
    assert lines[0] == "!"


def test_search_prints_every_piece(tmp_path):
    path = tmp_path / "p.thread"
    path.write_text("P = S\n")
    results = search_implementations(parse_thread("P = S"), SearchBounds(4, 0, ("a",)))
    assert len(results) > _PIECE_ROWS
    result = run("search", "--thread-file", str(path), "--max-prefix", "4",
                 "--max-cycle", "0", "--alphabet", "a")
    assert result.exit_code == 0
    assert_same_text(result.stdout, "\n".join(map(print_pga, results)) + "\n", "search")
    path.write_text("P = a . P\n")
    result = run("search", "--thread-file", str(path), "--max-prefix", "2",
                 "--max-cycle", "0", "--alphabet", "a")
    assert result.exit_code == 0
    assert result.stdout == ""


def test_search_budget_exit_2(tmp_path):
    path = tmp_path / "p.thread"
    path.write_text("P = S\n")

    def search(prefix, *extra):
        return run("search", "--thread-file", str(path), "--max-prefix", prefix,
                   "--max-cycle", "0", "--alphabet", "a", *extra)

    result = search("7")
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "max_candidates=100000" in result.output
    result = search("2", "--max-candidates", "9")
    assert result.exit_code == 0
    assert result.stdout.split("\n")[:3] == ["!", "!;a", "!;+a"]
    assert search("2", "--max-candidates", "8").exit_code == 2


def test_search_alphabet_must_cover_thread(tmp_path):
    path = tmp_path / "p.thread"
    path.write_text("P = a ? Q : R\nQ = b . QS\nR = c . RS\nQS = S\nRS = S\n")
    result = run("search", "--thread-file", str(path), "--max-prefix", "6",
                 "--max-cycle", "0", "--alphabet", "a,b")
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "'c'" in result.output and "--alphabet" in result.output


def test_search_invalid_action_name_exit_2(tmp_path):
    path = tmp_path / "p.thread"
    path.write_text("P = a . Q\nQ = S\n")
    for alphabet, name in (("a,A", "A"), ("a,1x", "1x")):
        result = run("search", "--thread-file", str(path), "--max-prefix", "1",
                     "--max-cycle", "0", "--alphabet", alphabet)
        assert result.exit_code == 2, alphabet
        assert result.stdout == ""
        assert result.stderr == f"error: invalid action name {name!r}\n"


def test_non_utf8_file_exit_2(tmp_path):
    path = tmp_path / "bad.thread"
    path.write_bytes(b"P = \xff\n")
    for args in (["extract", "--functional", "--file", str(path)],
                 ["check", "implements", "--pga", "a;!", "--thread-file", str(path)],
                 ["codegen", "--thread-file", str(path)],
                 ["search", "--thread-file", str(path), "--max-prefix", "1",
                  "--max-cycle", "0", "--alphabet", "a"]):
        result = run(*args)
        assert result.exit_code == 2, args[0]
        assert result.stdout == ""
        assert result.stderr == f"error: {str(path)!r} is not UTF-8: invalid start byte at offset 4\n"


def test_missing_thread_file_exit_2(tmp_path):
    path = tmp_path / "missing.thread"
    result = run("check", "implements", "--pga", "a;!", "--thread-file", str(path))
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == f"error: [Errno 2] No such file or directory: {str(path)!r}\n"


def test_deterministic_output():
    first = run("extract", "--mechanistic", "--pga", "(+a;#4;+b;#4;!)^w", "--format", "json")
    second = run("extract", "--mechanistic", "--pga", "(+a;#4;+b;#4;!)^w", "--format", "json")
    assert first.stdout == second.stdout


def test_reserved_name_reference_exit_2():
    for thread, name in (("P = a ? P : D", "D"), ("Q = sigma(S)", "S")):
        result = run("compare", "--thread", thread, "--pga", "a;!")
        assert result.exit_code == 2, thread
        assert result.stdout == ""
        assert result.stderr == (f"error: {name!r} is reserved and cannot be referred to; "
                                 f"write 'X = {name}' and refer to X at line 1\n")
