import gc
import random
import re
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from pga_mech import (
    InstrSeq,
    Instruction,
    JumpResolution,
    PgaSyntaxError,
    SearchBounds,
    TERMINATE,
    basic,
    bisimilar,
    canonical_position,
    canonicalize,
    extract_mechanistic,
    instruction_at,
    jump,
    jump_target,
    make_prefix,
    make_s,
    neg_test,
    parse_pga,
    pos_test,
    print_pga,
    reachable_positions,
)
from pga_mech.instructions import (
    BASIC,
    JUMP,
    POS_TEST,
    TERMINATION,
    _PIECES_KEPT,
    _parse_tokens,
    _pieces,
)

from helpers import random_seq


def test_parse_finite():
    s = parse_pga("+a;#3;c;!;b;!")
    assert s.prefix == (pos_test("a"), jump(3), basic("c"), TERMINATE, basic("b"), TERMINATE)
    assert s.cycle is None


def test_parse_cycle():
    s = parse_pga("(+a;#4;+b;#4;!)^w")
    assert s.prefix == ()
    assert s.cycle == (pos_test("a"), jump(4), pos_test("b"), jump(4), TERMINATE)


def test_parse_single_termination():
    s = parse_pga("!")
    assert s.prefix == (TERMINATE,)
    assert s.cycle is None


def test_parse_omega_synonym():
    assert parse_pga("(#1;a)^ω") == parse_pga("(#1;a)^w")


def test_parse_whitespace_insensitive():
    assert parse_pga(" + a ; #3 ;\n c ; ! ; b ; ! ".replace(" + a", "+a")) == parse_pga("+a;#3;c;!;b;!")
    assert parse_pga(" a ;\n( #1 ; b ) ^ ω ") == parse_pga("a;(#1;b)^w")


def test_parse_errors():
    with pytest.raises(PgaSyntaxError):
        parse_pga("")
    with pytest.raises(PgaSyntaxError):
        parse_pga("   ")
    with pytest.raises(PgaSyntaxError):
        parse_pga("a;;b")
    with pytest.raises(PgaSyntaxError):
        parse_pga("(a)^w;b")
    with pytest.raises(PgaSyntaxError):
        parse_pga("(a)^w;(b)^w")
    with pytest.raises(PgaSyntaxError):
        parse_pga("(a;b")
    with pytest.raises(PgaSyntaxError):
        parse_pga("a;#")
    with pytest.raises(PgaSyntaxError):
        parse_pga("A")
    # whitespace may surround punctuation but not split a token
    with pytest.raises(PgaSyntaxError):
        parse_pga("+ a;!")
    with pytest.raises(PgaSyntaxError):
        parse_pga("a;# 3")


def test_parse_error_location():
    try:
        parse_pga("a;;b")
    except PgaSyntaxError as exc:
        assert exc.line == 1 and exc.column == 3
    else:
        pytest.fail("expected a syntax error")


@pytest.mark.parametrize("text, column", [("aω;!", 2), ("+é;!", 1), ("#²;!", 1), ("a;#١;!", 3)])
def test_non_ascii_letters_and_digits_are_located_errors(text, column):
    # names and counters are ASCII: a letter or digit of another script is
    # neither read as one nor left to fail later without a location
    with pytest.raises(PgaSyntaxError) as exc:
        parse_pga(text)
    assert (exc.value.line, exc.value.column) == (1, column)


_SPACE = ("", "", "", " ", "\n", "\t", " \n  ", "\u00a0", "\u2003")
_INSTR = ("a", "b", "w", "ab.c_1", "+a", "-b", "+w", "!", "#0", "#1", "#3", "#03", "#12")
_JUNK = ("+ a", "# 3", "- b", "aω", "é", "+é", "#²", "#١", "A", "ω", "a b", "!!", "#", "+",
         "(", ")", "^", "(a)", "))", "((", "^w", ";", "")
_CLOSE = (")^w", ")^ω", ")^", ")^wx", ")^w;b", ")^w)", ")^w(", ")^w a", ")", ")w", ")^^w",
          ")^w;(b)^w")


def _soup_text(rng: random.Random) -> str:
    """Text from a token soup: mostly well-formed instructions with
    whitespace around every token, junk tokens at a small share, and an
    optional repetition group whose closing is sometimes malformed."""
    def sp() -> str:
        return rng.choice(_SPACE)

    def instr() -> str:
        return rng.choice(_JUNK if rng.random() < 0.06 else _INSTR)

    def sep() -> str:
        return sp() + ";" + sp()

    parts = [instr() for _ in range(rng.randrange(0 if rng.random() < 0.5 else 1, 6))]
    text = sep().join(sp() + part + sp() for part in parts)
    if rng.random() < 0.6:
        cycle = sep().join(instr() for _ in range(rng.randrange(1, 5)))
        close = _CLOSE[rng.randrange(2)] if rng.random() < 0.5 else rng.choice(_CLOSE)
        text += (sep() if parts else sp()) + "(" + sp() + cycle + sp() + sp().join(close) + sp()
    if rng.random() < 0.15:
        at = rng.randrange(len(text) + 1)
        text = text[:at] + rng.choice(_JUNK + (";;", "\n")) + text[at:]
    return text


def _outcome(parse, text):
    try:
        return parse(text)
    except PgaSyntaxError as exc:
        return str(exc), exc.line, exc.column


def test_parse_matches_token_walk():
    # the piece-wise parser must accept exactly what the token walk accepts,
    # build the same sequence, and leave every error to the token walk; the
    # corpus runs twice, once with an empty memo of spellings and once with
    # the memo that the first pass left
    _pieces.clear()
    for _ in range(2):
        rng = random.Random(1303)
        valid = 0
        for _ in range(20_000):
            text = _soup_text(rng)
            expected = _outcome(_parse_tokens, text)
            assert _outcome(parse_pga, text) == expected, text
            valid += isinstance(expected, InstrSeq)
        assert 5_000 < valid < 15_000


def test_parse_memo_stays_within_its_bound():
    # more distinct spellings than the memo keeps: the sequence is still
    # the token walk's, and the memo holds no more than its bound
    text = ";".join(f"#{k}" for k in range(_PIECES_KEPT + 905))
    assert parse_pga(text) == _parse_tokens(text)
    assert len(_pieces) <= _PIECES_KEPT


def test_parse_memo_keeps_no_rejected_piece():
    _pieces.clear()
    for text, column in (("a; + b", 4), ("a; + b", 4), ("c;d;(a; + b)^w", 9)):
        with pytest.raises(PgaSyntaxError) as exc:
            parse_pga(text)
        assert str(exc.value) == f"expected action name after '+' at line 1, column {column}"
    # only the valid pieces "a", "c" and "d" were kept
    assert len(_pieces) == 3


def test_parse_memo_keeps_no_long_piece():
    # a padded piece is kept by its stripped spelling, and a piece longer
    # than the memo keeps is built without it, so neither text stays alive
    # in the memo once its sequence is gone
    gc.collect()
    tracemalloc.start()
    try:
        padded = parse_pga(" " * 10**7 + "a;!")
        named = parse_pga("b;" + "c" * 10**7 + ";!")
        # built from the stripped spelling, which is kept and shared
        assert padded.prefix[0] is parse_pga(" a ;!").prefix[0]
        assert padded == parse_pga("a;!")
        assert len(named.prefix[1].action) == 10**7
        del padded, named
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 2**20


def test_parse_shares_instructions_across_calls():
    # a spelling's instruction is built once per process, not once per call
    assert parse_pga("a;b").prefix[0] is parse_pga("c;a").prefix[1]


def test_overlong_jump_counter_is_a_located_error():
    # a counter that ``int`` cannot read under the process's digit limit is
    # a syntax error at its '#', on the memo's path and the token walk's
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("no limit on the digits of an int")
    digits = "9" * (limit + 700)
    for text, column in ((f"#{digits};!", 1), (f"a;(b; #{digits} )^w", 7)):
        for parse in (parse_pga, _parse_tokens):
            with pytest.raises(PgaSyntaxError) as exc:
                parse(text)
            assert str(exc.value) == f"jump counter too long at line 1, column {column}"
    # the longest counter that ``str`` prints parses and prints back
    longest = parse_pga("#" + "9" * limit)
    assert print_pga(longest) == "#" + "9" * limit


def test_jump_counter_must_print():
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("no limit on the digits of an int")
    for make in (jump, lambda counter: Instruction(JUMP, counter=counter)):
        with pytest.raises(ValueError, match=f"^jump counter has more than {limit} digits$"):
            make(10**limit)
        assert str(make(10**limit - 1)) == "#" + "9" * limit


def test_parse_memory_is_linear_and_small():
    # 100,000 instructions: one regex over the whole text that repeats a
    # group would keep backtracking state per repetition, tens of MB
    rng = random.Random(7)
    pool = ("a", "+b", "-c", "!", "#2", "#0", "d.e")
    prefix = ";".join(rng.choice(pool) for _ in range(1_000))
    cycle = ";".join(rng.choice(pool) for _ in range(99_000))
    text = f"{prefix};({cycle})^w"
    tracemalloc.start()
    try:
        seq = parse_pga(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (seq.prefix_len, seq.cycle_len) == (1_000, 99_000)
    assert peak < 10 * 2**20


def test_empty_sequence_is_not_a_value():
    with pytest.raises(ValueError):
        InstrSeq(())
    with pytest.raises(ValueError):
        InstrSeq((), ())


def test_print_examples():
    assert print_pga(InstrSeq((basic("a"), TERMINATE))) == "a;!"
    assert print_pga(InstrSeq((), (jump(1), basic("a")))) == "(#1;a)^w"
    seq = InstrSeq((neg_test("a"), jump(3)),
                   (pos_test("a"), jump(3), basic("b"), TERMINATE))
    assert print_pga(seq) == "-a;#3;(+a;#3;b;!)^w"


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
@settings(max_examples=200)
def test_roundtrip(seq):
    assert parse_pga(print_pga(seq)) == seq
    assert str(seq) == print_pga(seq)


def test_instruction_at():
    assert instruction_at(InstrSeq((basic("a"), TERMINATE)), 1) == TERMINATE
    assert instruction_at(InstrSeq((), (jump(1), basic("a"))), 7) == basic("a")
    assert instruction_at(InstrSeq((basic("a"),)), 3) is None


def test_instruction_field_checks():
    for args, message in (
            ((BASIC, None), "invalid action name None"),
            ((POS_TEST, "a", 1), "action instructions carry no counter"),
            ((JUMP, "a", 1), "jumps carry no action"),
            ((JUMP, None, -1), "jump counter must be a natural number"),
            ((JUMP, None, 1.5), "jump counter must be a natural number"),
            ((TERMINATION, "a"), "termination carries no payload"),
            (("halt",), "unknown instruction kind 'halt'")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Instruction(*args)


def test_action_names_are_checked_alike():
    # instructions, thread nodes and search alphabets share one check, which
    # raises the same error for a name that is not a string
    entry_points = (basic, lambda a: make_prefix(a, make_s()), lambda a: SearchBounds(1, 0, (a,)))
    for name in (5, b"a", "A"):
        for make in entry_points:
            with pytest.raises(ValueError, match=f"^{re.escape(f'invalid action name {name!r}')}$"):
                make(name)


def test_negative_positions_are_rejected():
    seq = parse_pga("a;!")
    for look_up in (canonical_position, instruction_at):
        with pytest.raises(ValueError, match="^positions are natural numbers$"):
            look_up(seq, -1)


def test_canonical_position_wraps():
    seq = InstrSeq((basic("a"),), (basic("b"), basic("c")))
    assert canonical_position(seq, 0) == 0
    assert canonical_position(seq, 1) == 1
    assert canonical_position(seq, 3) == 1
    assert canonical_position(seq, 4) == 2


def test_jump_target():
    seq = parse_pga("#2;a;#1;b;!")
    assert jump_target(seq, 0) == 2
    assert jump_target(parse_pga("#0;a"), 0) is JumpResolution.IMMEDIATE_DIVERGENCE
    assert jump_target(parse_pga("a;#5;b"), 1) is JumpResolution.FALLS_OFF_END
    with pytest.raises(ValueError):
        jump_target(seq, 1)


def test_reachable_positions():
    assert reachable_positions(parse_pga("#3;a;#1;b;!")) == {0, 3, 4}
    assert reachable_positions(parse_pga("a;!")) == {0, 1}
    assert reachable_positions(parse_pga("(+a;#4;+b;#4;!)^w")) == {0, 1, 2, 3, 4}


def test_canonicalize_examples():
    assert canonicalize(parse_pga("(a;a)^w")) == parse_pga("(a)^w")
    assert canonicalize(parse_pga("(#7;a)^w")) == parse_pga("(#1;a)^w")
    # a full-cycle self-jump keeps its delay loop; the counter stays m
    assert canonicalize(parse_pga("(#2;a)^w")) == parse_pga("(#2;a)^w")


def test_canonicalize_iterates_to_fixpoint():
    assert canonicalize(parse_pga("(#7;a;#7;a)^w")) == parse_pga("(#1;a)^w")


def test_canonicalize_leaves_prefix_alone():
    seq = parse_pga("#9;a;(b;b)^w")
    out = canonicalize(seq)
    assert out.prefix == seq.prefix
    assert out.cycle == (basic("b"),)


def test_canonicalize_properties_random():
    rng = random.Random(4242)
    for _ in range(300):
        s = random_seq(rng)
        c = canonicalize(s)
        assert canonicalize(c) == c
        assert bisimilar(extract_mechanistic(c), extract_mechanistic(s))
        # minimized counters stay within one cycle round and a nonzero
        # counter never collapses to 0
        for orig, ins in zip(s.cycle or (), c.cycle or ()):
            if ins.kind == "jump":
                assert ins.counter <= c.cycle_len
                if orig.kind == "jump" and orig.counter > 0:
                    assert ins.counter > 0
