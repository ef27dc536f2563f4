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

_ACTION_RE = re.compile(r"[a-z][A-Za-z0-9_.]*\Z")


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
            if self.action is None or not _ACTION_RE.match(self.action):
                raise ValueError(f"invalid action name {self.action!r}")
            if self.counter is not None:
                raise ValueError("action instructions carry no counter")
        elif self.kind == JUMP:
            if self.action is not None:
                raise ValueError("jumps carry no action")
            if self.counter is None or self.counter < 0:
                raise ValueError("jump counter must be a natural number")
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

def _tokenize(text: str) -> list[tuple[str, str | int, int, int]]:
    tokens: list[tuple[str, str | int, int, int]] = []
    line, col = 1, 1
    i = 0
    length = len(text)
    while i < length:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        start_col = col
        if ch in ";()^!":
            tokens.append((ch, ch, line, start_col))
            i += 1
            col += 1
            continue
        if ch == "ω":  # ω, synonym for the repetition marker w
            tokens.append(("omega", ch, line, start_col))
            i += 1
            col += 1
            continue
        if ch == "#":
            j = i + 1
            while j < length and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise PgaSyntaxError("expected digits after '#'", line, start_col)
            tokens.append(("jump", int(text[i + 1:j]), line, start_col))
            col += j - i
            i = j
            continue
        if ch in "+-":
            j = i + 1
            if j >= length or not text[j].islower():
                raise PgaSyntaxError(f"expected action name after {ch!r}", line, start_col)
            k = j + 1
            while k < length and (text[k].isalnum() or text[k] in "_."):
                k += 1
            kind = "pos" if ch == "+" else "neg"
            tokens.append((kind, text[j:k], line, start_col))
            col += k - i
            i = k
            continue
        if ch.islower():
            k = i + 1
            while k < length and (text[k].isalnum() or text[k] in "_."):
                k += 1
            tokens.append(("ident", text[i:k], line, start_col))
            col += k - i
            i = k
            continue
        raise PgaSyntaxError(f"unexpected character {ch!r}", line, start_col)
    return tokens


def parse_pga(text: str) -> InstrSeq:
    """Parse instruction-sequence text.

    Grammar: instructions separated by ``;``, with an optional final
    ``(...)^w`` repetition group; ``ω`` is accepted for ``w``.  Material
    after a repetition group is rejected.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise PgaSyntaxError("empty instruction sequence")
    pos = 0

    def peek() -> tuple[str, str | int, int, int] | None:
        return tokens[pos] if pos < len(tokens) else None

    def error(message: str) -> PgaSyntaxError:
        if pos < len(tokens):
            _, _, line, col = tokens[pos]
            return PgaSyntaxError(message, line, col)
        _, _, line, col = tokens[-1]
        return PgaSyntaxError(message + " (at end of input)", line, col)

    def parse_instruction() -> Instruction:
        nonlocal pos
        tok = peek()
        if tok is None:
            raise error("expected instruction")
        kind, value, line, col = tok
        pos += 1
        if kind == "!":
            return TERMINATE
        if kind == "jump":
            return jump(value)
        if kind == "pos":
            return pos_test(value)
        if kind == "neg":
            return neg_test(value)
        if kind == "ident":
            return basic(value)
        pos -= 1
        raise error("expected instruction")

    def parse_repetition() -> tuple[Instruction, ...]:
        nonlocal pos
        pos += 1  # consume '('
        body = [parse_instruction()]
        while peek() is not None and peek()[0] == ";":
            pos += 1
            body.append(parse_instruction())
        if peek() is None or peek()[0] != ")":
            raise error("expected ')'")
        pos += 1
        if peek() is None or peek()[0] != "^":
            raise error("expected '^' after ')'")
        pos += 1
        tok = peek()
        if tok is None or not (tok[0] == "omega" or (tok[0] == "ident" and tok[1] == "w")):
            raise error("expected 'w' after '^'")
        pos += 1
        return tuple(body)

    prefix: list[Instruction] = []
    cycle: tuple[Instruction, ...] | None = None
    while True:
        tok = peek()
        if tok is None:
            raise error("expected instruction")
        if cycle is not None:
            raise error("instructions after repetition")
        if tok[0] == "(":
            cycle = parse_repetition()
        else:
            prefix.append(parse_instruction())
        tok = peek()
        if tok is None:
            break
        if tok[0] != ";":
            if cycle is not None:
                raise error("instructions after repetition")
            raise error("expected ';'")
        pos += 1
        if cycle is not None:
            raise error("instructions after repetition")
    return InstrSeq(tuple(prefix), cycle)


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
