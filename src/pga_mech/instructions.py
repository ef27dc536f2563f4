"""Single-pass instruction sequences: data model, text syntax, positions.

An instruction sequence is a nonempty run of primitive instructions,
optionally followed by a repeating cycle that unfolds forever.  The five
primitive forms are basic actions, positive/negative tests, termination
and forward jumps.  Positions index the infinite unfolding; two positions
landing on the same cycle slot are interchangeable, and
``canonical_position`` maps every index into the first cycle copy.
"""

from __future__ import annotations

import re
import sys
import threading
from dataclasses import dataclass
from enum import Enum

__all__ = [
    "BASIC",
    "POS_TEST",
    "NEG_TEST",
    "TERMINATION",
    "JUMP",
    "Instruction",
    "InstrSeq",
    "JumpResolution",
    "PgaSyntaxError",
    "TERMINATE",
    "basic",
    "canonical_position",
    "canonicalize",
    "instruction_at",
    "jump",
    "jump_target",
    "neg_test",
    "parse_pga",
    "pos_test",
    "print_pga",
    "reachable_positions",
]

BASIC = "basic"
POS_TEST = "pos-test"
NEG_TEST = "neg-test"
TERMINATION = "termination"
JUMP = "jump"

_NAME = r"[a-z][A-Za-z0-9_.]*"  # an action name; ASCII only
_ACTION_RE = re.compile(_NAME + r"\Z")


def _check_action(action) -> None:
    """Raise ``ValueError`` unless ``action`` is a string that is an action name."""
    if not isinstance(action, str) or not _ACTION_RE.match(action):
        raise ValueError(f"invalid action name {action!r}")


# CPython's limit on the digits of an int that ``str`` prints and ``int``
# reads, global to the process; 0, or no such setting, means no limit
_int_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _check_counter(counter: int) -> None:
    """Raise ``ValueError`` if ``str`` cannot print ``counter`` under the
    process's current limit on the digits of an int."""
    limit = _int_max_str_digits()
    # fewer than 3 * limit bits make fewer than limit digits: 8**limit < 10**limit
    if limit and counter.bit_length() > 3 * limit and counter >= 10 ** limit:
        raise ValueError(f"jump counter has more than {limit} digits")


class PgaSyntaxError(ValueError):
    """Malformed instruction-sequence text."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"{message} at line {line}, column {column}"
        super().__init__(message)
        self.line = line
        self.column = column


@dataclass(frozen=True)
class Instruction:
    """One primitive instruction.

    ``kind`` selects the form; ``action`` is set for basic/test
    instructions, ``counter`` for jumps (0 means divergence).
    """

    kind: str
    action: str | None = None
    counter: int | None = None

    def __post_init__(self) -> None:
        if self.kind in (BASIC, POS_TEST, NEG_TEST):
            _check_action(self.action)
            if self.counter is not None:
                raise ValueError("action instructions carry no counter")
        elif self.kind == JUMP:
            if self.action is not None:
                raise ValueError("jumps carry no action")
            if not isinstance(self.counter, int) or self.counter < 0:
                raise ValueError("jump counter must be a natural number")
            _check_counter(self.counter)
        elif self.kind == TERMINATION:
            if self.action is not None or self.counter is not None:
                raise ValueError("termination carries no payload")
        else:
            raise ValueError(f"unknown instruction kind {self.kind!r}")

    def __str__(self) -> str:
        if self.kind == BASIC:
            return self.action
        if self.kind == POS_TEST:
            return "+" + self.action
        if self.kind == NEG_TEST:
            return "-" + self.action
        if self.kind == TERMINATION:
            return "!"
        return "#" + str(self.counter)


def basic(action: str) -> Instruction:
    return Instruction(BASIC, action=action)


def pos_test(action: str) -> Instruction:
    return Instruction(POS_TEST, action=action)


def neg_test(action: str) -> Instruction:
    return Instruction(NEG_TEST, action=action)


def jump(counter: int) -> Instruction:
    return Instruction(JUMP, counter=counter)


TERMINATE = Instruction(TERMINATION)


@dataclass(frozen=True)
class InstrSeq:
    """A finite prefix plus an optional nonempty repeating cycle.

    Denotes ``prefix`` followed by ``cycle`` repeated forever when the
    cycle is present, otherwise just the finite ``prefix``.  The fully
    empty sequence is not a value.
    """

    prefix: tuple[Instruction, ...]
    cycle: tuple[Instruction, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "prefix", tuple(self.prefix))
        if self.cycle is not None:
            object.__setattr__(self, "cycle", tuple(self.cycle))
            if not self.cycle:
                raise ValueError("repeating part must be nonempty")
        if not self.prefix and self.cycle is None:
            raise ValueError("instruction sequence must be nonempty")

    @classmethod
    def _trusted(cls, prefix: tuple[Instruction, ...],
                 cycle: tuple[Instruction, ...] | None) -> InstrSeq:
        """The sequence of ``prefix`` and ``cycle`` as they stand: a tuple
        of instructions and None or a nonempty tuple, not both empty, as
        the constructor would leave them.  Nothing is checked or copied."""
        seq = object.__new__(cls)
        object.__setattr__(seq, "prefix", prefix)
        object.__setattr__(seq, "cycle", cycle)
        return seq

    @property
    def prefix_len(self) -> int:
        return len(self.prefix)

    @property
    def cycle_len(self) -> int:
        return len(self.cycle) if self.cycle is not None else 0

    @property
    def total_len(self) -> int:
        return self.prefix_len + self.cycle_len

    def __str__(self) -> str:
        return print_pga(self)


# --- text syntax -----------------------------------------------------------

# one group per token kind, named by ``_TOKEN_KINDS`` (group 1 is
# whitespace, and a punctuation token is its own kind); the digit and name
# classes are ASCII, so a digit or letter from another script is an error
_TOKEN_RE = re.compile(rf"(\s+)|([;()^!])|(ω)|#([0-9]+)|\+({_NAME})|-({_NAME})|({_NAME})")
_TOKEN_KINDS = (None, None, None, "omega", "jump", "pos", "neg", "ident")


def _located(text: str, message: str, offset: int) -> PgaSyntaxError:
    """The error ``message`` at line and column of ``offset`` in ``text``."""
    line = text.count("\n", 0, offset) + 1
    return PgaSyntaxError(message, line, offset - text.rfind("\n", 0, offset))


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """``(kind, value, offset)`` per token; the value of a jump is its
    digits."""
    tokens: list[tuple[str, str, int]] = []
    match = _TOKEN_RE.match
    pos = 0
    length = len(text)
    while pos < length:
        m = match(text, pos)
        if m is None:
            ch = text[pos]
            if ch == "#":
                raise _located(text, "expected digits after '#'", pos)
            if ch in "+-":
                raise _located(text, f"expected action name after {ch!r}", pos)
            raise _located(text, f"unexpected character {ch!r}", pos)
        group = m.lastindex
        if group != 1:
            value = m[group]
            tokens.append((_TOKEN_KINDS[group] or value, value, pos))
        pos = m.end()
    return tokens


_BUILD = {"!": lambda _: TERMINATE, "jump": lambda digits: jump(int(digits)),
          "pos": pos_test, "neg": neg_test, "ident": basic}


def _unchecked(kind: str, action: str | None = None, counter: int | None = None) -> Instruction:
    """The instruction of fields already known to be valid, built without
    the checks of the ``Instruction`` constructor."""
    ins = object.__new__(Instruction)
    # set one field at a time, as the constructor does: filling ``__dict__``
    # at once would leave the instance a dict that reads its fields slower
    object.__setattr__(ins, "kind", kind)
    object.__setattr__(ins, "action", action)
    object.__setattr__(ins, "counter", counter)
    return ins


# one ``;``-piece of the text, stripped, that holds exactly one
# instruction, one group per kind; per group, the piece's instruction from
# that group's text, built unchecked, since the pattern has checked the
# action name and the digits; and what may follow the ``)`` that closes
# the repetition group
_PIECE_RE = re.compile(rf"(?:(!)|#([0-9]+)|\+({_NAME})|-({_NAME})|({_NAME}))\Z")
_PIECE_BUILD = (None, lambda _: TERMINATE, lambda digits: _unchecked(JUMP, counter=int(digits)),
                lambda action: _unchecked(POS_TEST, action),
                lambda action: _unchecked(NEG_TEST, action),
                lambda action: _unchecked(BASIC, action))
_TAIL_RE = re.compile(r"\s*\^\s*(?:w|ω)\s*\Z")
_PIECES_KEPT = 4096  # the most spellings whose instructions the process keeps
_PIECE_KEPT_LEN = 64  # the longest spelling kept
# the instruction of each ``;``-piece spelling kept, as written, whitespace
# included, and stripped; emptied when it reaches ``_PIECES_KEPT`` entries.
# Reads take no lock; the lock keeps the bound when threads add at once
_pieces: dict[str, Instruction] = {}
_pieces_lock = threading.Lock()


def _keep(piece: str, ins: Instruction) -> None:
    """Keep ``ins`` as the instruction of ``piece`` unless ``piece`` is too
    long to keep; a full memo is emptied first."""
    if len(piece) <= _PIECE_KEPT_LEN:
        with _pieces_lock:
            if len(_pieces) >= _PIECES_KEPT:
                _pieces.clear()
            _pieces[piece] = ins


def _piece_instructions(pieces: list[str]) -> tuple[Instruction, ...] | None:
    """The instruction of each of ``pieces``, or None if one of them holds
    no single instruction.  A piece missing from the memo is built from
    its stripped spelling, taken from the memo when that is kept, and both
    spellings are kept, each if it is short enough; a rejected piece is
    never kept."""
    code = []
    for piece in pieces:
        ins = _pieces.get(piece)
        if ins is None:
            spelling = piece.strip()
            ins = _pieces.get(spelling)
            if ins is None:
                match = _PIECE_RE.match(spelling)
                if match is None:
                    return None
                group = match.lastindex
                try:
                    ins = _PIECE_BUILD[group](match[group])
                except ValueError:  # a counter with more digits than ``int`` reads
                    return None
                _keep(spelling, ins)
            if spelling is not piece:
                _keep(piece, ins)
        code.append(ins)
    return tuple(code)


def parse_pga(text: str) -> InstrSeq:
    """Parse instruction-sequence text.

    Grammar: instructions separated by ``;``, with an optional final
    ``(...)^w`` repetition group; ``ω`` is accepted for ``w``.  Material
    after a repetition group is rejected.  Whitespace may surround ``;``,
    ``(``, ``)``, ``^`` and ``w``/``ω`` but may not split a token.

    The text is cut at its first ``(``, its last ``)`` and every ``;``, and
    each piece's instruction is taken from a process-wide memo of
    spellings, so a spelling is checked and built once, not once per call.
    The memo is one plain dict, bounded: it keeps pieces of at most 64
    characters, both as written and stripped of whitespace, and it is
    emptied when it reaches ``_PIECES_KEPT`` spellings.  A longer piece is
    built on each call from its stripped spelling, so padding or a long
    action name does not outlive the sequence.  Instructions are therefore
    shared: equal kept spellings give the same object, within one sequence
    and across calls until the memo is emptied, so ``is`` may hold between
    instructions of different sequences; equality is unchanged.  Only when
    a piece holds no instruction, a jump counter too long for ``int``
    included, does the token walk read the text, to raise the error with
    its line and column.
    """
    head, paren, rest = text.partition("(")
    pieces = head.split(";")
    n = len(pieces)
    if paren:
        body, close, tail = rest.rpartition(")")
        gap = pieces.pop()  # between the last ';' of the prefix and '('
        if not close or (gap and not gap.isspace()) or not _TAIL_RE.match(tail):
            return _parse_tokens(text)
        n -= 1
        pieces += body.split(";")
    try:
        code = tuple(map(_pieces.__getitem__, pieces))
    except KeyError:
        code = _piece_instructions(pieces)
        if code is None:
            return _parse_tokens(text)
    # no piece is empty, so a cycle is nonempty and so is a sequence
    return InstrSeq._trusted(code[:n], code[n:] if paren else None)


def _parse_tokens(text: str) -> InstrSeq:
    """``parse_pga`` by a walk over the tokens; it owns every syntax error
    message and location."""
    tokens = _tokenize(text)
    if not tokens:
        raise PgaSyntaxError("empty instruction sequence")
    last = len(tokens) - 1
    tokens.append(("end", "", tokens[-1][2]))  # sentinel, located at the last token
    built: dict[tuple[str, str], Instruction] = {}  # one instance per spelling
    pos = 0

    def error(message: str) -> PgaSyntaxError:
        if pos > last:
            message += " (at end of input)"
        return _located(text, message, tokens[pos][2])

    def instruction() -> Instruction:
        nonlocal pos
        kind, value, _ = tokens[pos]
        ins = built.get((kind, value))
        if ins is None:
            if kind not in _BUILD:
                raise error("expected instruction")
            try:
                ins = built[kind, value] = _BUILD[kind](value)
            except ValueError:  # only a jump's digits can fail here
                raise error("jump counter too long") from None
        pos += 1
        return ins

    def expect(kind: str, message: str) -> None:
        nonlocal pos
        if tokens[pos][0] != kind:
            raise error(message)
        pos += 1

    prefix: list[Instruction] = []
    while tokens[pos][0] != "(":
        prefix.append(instruction())
        if tokens[pos][0] == "end":
            return InstrSeq(tuple(prefix))
        expect(";", "expected ';'")
    pos += 1
    cycle = [instruction()]
    while tokens[pos][0] == ";":
        pos += 1
        cycle.append(instruction())
    expect(")", "expected ')'")
    expect("^", "expected '^' after ')'")
    kind, value, _ = tokens[pos]
    if kind != "omega" and (kind, value) != ("ident", "w"):
        raise error("expected 'w' after '^'")
    pos += 1
    if tokens[pos][0] == ";":
        pos += 1  # located at what follows the ';', or at the end
        raise error("instructions after repetition")
    if tokens[pos][0] != "end":
        raise error("instructions after repetition")
    return InstrSeq(tuple(prefix), tuple(cycle))


def print_pga(seq: InstrSeq) -> str:
    """Render a sequence; round-trips with ``parse_pga``."""
    parts = [str(ins) for ins in seq.prefix]
    if seq.cycle is not None:
        parts.append("(" + ";".join(str(ins) for ins in seq.cycle) + ")^w")
    return ";".join(parts)


# --- positions -------------------------------------------------------------

def _slot(n: int, m: int, p: int) -> int | None:
    """The canonical slot of position ``p`` of the unfolding of a prefix of
    length ``n`` and a cycle of length ``m`` (0 for none): ``p`` itself in
    the prefix, its place in the first cycle copy after it, or None when
    the run falls off the end."""
    if p < n:
        return p
    if not m:
        return None
    return n + (p - n) % m


def canonical_position(seq: InstrSeq, p: int) -> int:
    """Map an unfolding index into the prefix or the first cycle copy."""
    if p < 0:
        raise ValueError("positions are natural numbers")
    s = _slot(seq.prefix_len, seq.cycle_len, p)
    return p if s is None else s


def instruction_at(seq: InstrSeq, p: int) -> Instruction | None:
    """Instruction at position ``p`` of the unfolding, or None past the end."""
    if p < 0:
        raise ValueError("positions are natural numbers")
    n = seq.prefix_len
    s = _slot(n, seq.cycle_len, p)
    if s is None:
        return None
    return seq.prefix[s] if s < n else seq.cycle[s - n]


class JumpResolution(Enum):
    IMMEDIATE_DIVERGENCE = "immediate-divergence"
    FALLS_OFF_END = "falls-off-end"


def jump_target(seq: InstrSeq, p: int) -> int | JumpResolution:
    """Resolve the jump at ``p``: a canonical target position, immediate
    divergence for counter 0, or falling off the end of a finite sequence."""
    ins = instruction_at(seq, p)
    if ins is None or ins.kind != JUMP:
        raise ValueError("not a jump")
    if ins.counter == 0:
        return JumpResolution.IMMEDIATE_DIVERGENCE
    target = _slot(seq.prefix_len, seq.cycle_len, canonical_position(seq, p) + ins.counter)
    return JumpResolution.FALLS_OFF_END if target is None else target


def _branches(p: int, ins: Instruction) -> tuple[int, int]:
    """Where a run continues after the action instruction ``ins`` at ``p``:
    the positions for a true and for a false reply."""
    if ins.kind == POS_TEST:
        return p + 1, p + 2
    if ins.kind == NEG_TEST:
        return p + 2, p + 1
    return p + 1, p + 1


def _successors(p: int, ins: Instruction) -> tuple[int, ...]:
    """Positions a run can execute right after the instruction ``ins`` at ``p``."""
    if ins.kind == JUMP:
        return (p + ins.counter,) if ins.counter else ()
    if ins.kind == TERMINATION:
        return ()
    return _branches(p, ins)


def _chase(code, n: int, m: int, p: int, stop=(), passed: set[int] | None = None) -> int | None:
    """Follow the jumps from position ``p`` of the unfolding of ``code``,
    the prefix (length ``n``) then the cycle (length ``m``, 0 for none).

    Returns the canonical position of the first entry that is not a jump
    (an unassigned None entry included), is ``#0``, is in ``stop`` or was
    passed before, which makes a cycle of jumps; None when the run falls
    off the end.  Every jump passed on the way is added to ``passed``.
    """
    while True:
        if p >= n:
            p = _slot(n, m, p)
            if p is None:
                return None
        ins = code[p]
        if ins is None or ins.kind != JUMP or not ins.counter or p in stop:
            return p
        if passed is None:
            passed = {p}
        elif p in passed:
            return p
        else:
            passed.add(p)
        p += ins.counter


def reachable_positions(seq: InstrSeq) -> set[int]:
    """Canonical positions executed by at least one run (some reply choice)."""
    code = seq.prefix + (seq.cycle or ())
    n, m = seq.prefix_len, seq.cycle_len
    seen: set[int] = set()
    stack = [0]  # a sequence is nonempty, so position 0 is its first slot
    while stack:
        p = stack.pop()
        if p in seen:
            continue
        seen.add(p)
        for s in _successors(p, code[p]):
            s = _slot(n, m, s)
            if s is not None and s not in seen:
                stack.append(s)
    return seen


# --- canonical form --------------------------------------------------------

def canonicalize(seq: InstrSeq) -> InstrSeq:
    """Normalize the cycle: minimize jump counters modulo the cycle length
    and reduce the cycle to its minimal literal period.

    A counter k >= m becomes k mod m when nonzero, else m; mapping to 0
    would turn a delay loop into immediate deadlock, which differs.  The
    prefix is left untouched.  Idempotent.
    """
    if seq.cycle is None:
        return seq
    cur = list(seq.cycle)
    while True:
        changed = False
        m = len(cur)
        for i, ins in enumerate(cur):
            if ins.kind == JUMP and ins.counter >= m:
                k = ins.counter % m
                if k == 0:
                    k = m
                if k != ins.counter:
                    cur[i] = jump(k)
                    changed = True
        m = len(cur)
        for d in range(1, m):
            if m % d == 0 and cur == cur[:d] * (m // d):
                cur = cur[:d]
                changed = True
                break
        if not changed:
            break
    return InstrSeq(seq.prefix, tuple(cur))
