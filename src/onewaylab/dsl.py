"""Textual pattern format: tokenizer, parser, and serializer.

The format stores commands in execution order (first line runs first):

    pattern teleport {
      space: 1, 2, 3;
      input: 1;
      output: 3;
      seq:
        E(1,2);
        E(2,3);
        M(1, 7/4 pi);
        M(2, 3/2 pi, s=s[1]);
        Z(3, s[1]);
        X(3, s[2]);
    }

Qubit labels are integers or words (primed labels like ``2'`` allowed).
Angles are exact multiples of pi (``0``, ``pi``, ``1/2 pi``) or decimal
radians; signals are sums like ``1 + s[1] + s[2]``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .angles import Angle
from .commands import CorrectX, CorrectZ, Entangle, Measure, Shift
from .patterns import Pattern, PatternError
from .signals import LABEL_WORD, Qubit, Signal, qubit_key


class DslError(ValueError):
    """Syntax or structural error in pattern text, with location."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column


@dataclass(frozen=True)
class PatternDocument:
    """A named pattern as read from (or written to) text."""

    name: str
    pattern: Pattern


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<float>[+-]?(?:\d+\.\d*|\.\d+)(?:[eE][+-]?\d+)?|[+-]?\d+[eE][+-]?\d+)
  | (?P<int>"""
    + LABEL_WORD
    + r""")
  | (?P<punct>[{}();:,=/\[\]+-])
    """,
    re.VERBOSE,
)


class _Token(NamedTuple):
    kind: str  # "word", "float", "punct", "eof"
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos, line, line_start = 0, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise DslError(f"unexpected character {text[pos]!r}", line, pos - line_start + 1)
        kind = m.lastgroup
        chunk = m.group()
        col = pos - line_start + 1
        if kind == "float":
            tokens.append(_Token("float", chunk, line, col))
        elif kind == "int":
            tokens.append(_Token("word", chunk, line, col))
        elif kind == "punct":
            tokens.append(_Token("punct", chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            line_start = pos + chunk.rindex("\n") + 1
        pos = m.end()
    tokens.append(_Token("eof", "", line, len(text) - line_start + 1))
    return tokens


_QUBIT_SIGNAL_COMMANDS = {"X": CorrectX, "Z": CorrectZ, "S": Shift}


def _qubit_from_word(word: str) -> Qubit:
    return int(word) if word.isdigit() else word


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, message: str, tok: _Token | None = None):
        tok = tok or self.peek()
        raise DslError(message, tok.line, tok.column)

    def expect(self, text: str) -> _Token:
        tok = self.next()
        if tok.text != text:
            found = tok.text or "end of input"
            self.fail(f"expected {text!r}, found {found!r}", tok)
        return tok

    def word(self, what: str) -> _Token:
        tok = self.next()
        if tok.kind != "word":
            found = tok.text or "end of input"
            self.fail(f"expected {what}, found {found!r}", tok)
        return tok

    # grammar pieces -------------------------------------------------

    def qubit(self) -> Qubit:
        return _qubit_from_word(self.word("a qubit label").text)

    def qubit_list(self) -> list[_Token]:
        """The label tokens of a comma-separated list, possibly empty."""
        tokens = []
        if self.peek().text == ";":
            return tokens
        tokens.append(self.word("a qubit label"))
        while self.peek().text == ",":
            self.next()
            tokens.append(self.word("a qubit label"))
        return tokens

    def interface(self, what: str, space: frozenset) -> tuple:
        """An ``input:`` or ``output:`` list, each label checked where it stands."""
        qubits = []
        for tok in self.qubit_list():
            q = _qubit_from_word(tok.text)
            if q not in space:
                self.fail(f"{what} qubit {q} not in space", tok)
            if q in qubits:
                self.fail(f"duplicate {what} qubit {q}", tok)
            qubits.append(q)
        return tuple(qubits)

    def end(self):
        tok = self.next()
        if tok.kind != "eof":
            self.fail(f"unexpected trailing {tok.text!r}", tok)

    def integer(self) -> int:
        tok = self.word("an integer")
        if not tok.text.isdigit():
            self.fail(f"expected an integer, found {tok.text!r}", tok)
        return int(tok.text)

    def denominator(self) -> int:
        tok = self.peek()
        den = self.integer()
        if den == 0:
            self.fail("angle denominator is zero", tok)
        return den

    def radians(self, negative: bool, tok: _Token) -> Angle:
        value = float(tok.text)
        if not math.isfinite(value):
            self.fail(f"angle {tok.text!r} is not a finite number", tok)
        return Angle.from_radians(-value if negative else value)

    def angle(self) -> Angle:
        """``0`` | ``[-]pi`` | ``[-]p/q pi`` | ``[-]p pi`` | ``[-]pi/q`` | float radians."""
        negative = False
        if self.peek().text == "-":
            self.next()
            negative = True
        tok = self.peek()
        if tok.kind == "float":
            self.next()
            return self.radians(negative, tok)
        if tok.text == "pi":
            self.next()
            num, den = 1, 1
            if self.peek().text == "/":
                self.next()
                den = self.denominator()
            frac = Fraction(num, den)
            return Angle.exact(-frac if negative else frac)
        if tok.kind == "word" and tok.text.isdigit():
            self.next()
            num = int(tok.text)
            den = 1
            if self.peek().text == "/":
                self.next()
                den = self.denominator()
            if self.peek().text == "pi":
                self.next()
                frac = Fraction(num, den)
                return Angle.exact(-frac if negative else frac)
            if den != 1:
                self.fail("fractional angle must be followed by 'pi'", tok)
            if num == 0:
                return Angle.exact(0)
            return self.radians(negative, tok)
        found = tok.text or "end of input"
        self.fail(f"expected an angle, found {found!r}", tok)

    def signal(self) -> Signal:
        support: set = set()
        constant = 0
        while True:
            tok = self.peek()
            if tok.text == "s":
                self.next()
                self.expect("[")
                support ^= {self.qubit()}
                self.expect("]")
            elif tok.kind == "word" and tok.text.isdigit():
                self.next()
                constant ^= int(tok.text) % 2
            else:
                found = tok.text or "end of input"
                self.fail(f"expected a signal term, found {found!r}", tok)
            if self.peek().text != "+":
                return Signal(frozenset(support), constant)
            self.next()

    def command(self):
        tok = self.word("a command (E, M, X, Z, S)")
        kind = tok.text
        self.expect("(")
        if kind == "E":
            i = self.qubit()
            self.expect(",")
            make, args = Entangle, (i, self.qubit())
        elif kind == "M":
            q = self.qubit()
            self.expect(",")
            angle = self.angle()
            s = t = Signal()
            while self.peek().text == ",":
                self.next()
                name = self.word("'s' or 't'")
                if name.text not in ("s", "t"):
                    self.fail(f"expected 's' or 't', found {name.text!r}", name)
                self.expect("=")
                if name.text == "s":
                    s = self.signal()
                else:
                    t = self.signal()
            make, args = Measure, (q, angle, s, t)
        elif kind in _QUBIT_SIGNAL_COMMANDS:
            q = self.qubit()
            self.expect(",")
            make, args = _QUBIT_SIGNAL_COMMANDS[kind], (q, self.signal())
        else:
            self.fail(f"unknown command {kind!r}", tok)
        self.expect(")")
        try:
            return make(*args)
        except ValueError as exc:
            raise DslError(str(exc), tok.line, tok.column) from exc

    def document(self) -> PatternDocument:
        self.expect("pattern")
        name = self.word("a pattern name").text
        self.expect("{")
        self.expect("space")
        self.expect(":")
        space = frozenset(_qubit_from_word(tok.text) for tok in self.qubit_list())
        self.expect(";")
        self.expect("input")
        self.expect(":")
        inputs = self.interface("input", space)
        self.expect(";")
        self.expect("output")
        self.expect(":")
        outputs = self.interface("output", space)
        self.expect(";")
        self.expect("seq")
        self.expect(":")
        commands, starts = [], []
        while self.peek().text not in ("}", ""):
            starts.append(self.peek())
            commands.append(self.command())
            self.expect(";")
        self.expect("}")
        self.end()
        try:
            pattern = Pattern(space, inputs, outputs, tuple(commands))
        except PatternError as exc:
            # the interface lists are checked above, so a command is at fault
            self.fail(
                f"command {format_command(exc.command)} refers to a qubit outside the space",
                starts[commands.index(exc.command)],
            )
        return PatternDocument(name, pattern)


def parse_document(text: str) -> PatternDocument:
    return _Parser(text).document()


def parse(text: str) -> Pattern:
    return parse_document(text).pattern


def parse_angle(text: str) -> Angle:
    """One angle in the grammar of ``M(q, angle)``, and nothing after it."""
    parser = _Parser(text)
    angle = parser.angle()
    parser.end()
    return angle


# serialization ------------------------------------------------------


def format_angle(angle: Angle) -> str:
    if not angle.is_exact:
        # repr is the shortest decimal that parses back to the same float
        return repr(angle.radians)
    frac = angle.fraction
    if frac == 0:
        return "0"
    if frac == 1:
        return "pi"
    if frac.denominator == 1:
        return f"{frac.numerator} pi"
    return f"{frac.numerator}/{frac.denominator} pi"


def format_signal(sig: Signal) -> str:
    return str(sig)


def format_command(cmd) -> str:
    if isinstance(cmd, Entangle):
        return f"E({cmd.i},{cmd.j})"
    if isinstance(cmd, Measure):
        parts = [str(cmd.qubit), format_angle(cmd.angle)]
        if cmd.s:
            parts.append(f"s={format_signal(cmd.s)}")
        if cmd.t:
            parts.append(f"t={format_signal(cmd.t)}")
        return f"M({', '.join(parts)})"
    if isinstance(cmd, CorrectX):
        return f"X({cmd.qubit}, {format_signal(cmd.signal)})"
    if isinstance(cmd, CorrectZ):
        return f"Z({cmd.qubit}, {format_signal(cmd.signal)})"
    if isinstance(cmd, Shift):
        return f"S({cmd.qubit}, {format_signal(cmd.signal)})"
    raise TypeError(f"unknown command {cmd!r}")


def serialize(pattern: Pattern, name: str = "p", paper_order: bool = False) -> str:
    """Render a pattern document.

    With ``paper_order`` the command list is printed reversed (rightmost
    command first in the usual written notation); such output is for reading
    alongside hand derivations, not for parsing back.
    """
    commands = list(pattern.commands)
    if paper_order:
        commands.reverse()
    lines = [f"pattern {name} {{"]
    lines.append("  space: " + ", ".join(map(str, sorted(pattern.space, key=qubit_key))) + ";")
    lines.append("  input: " + ", ".join(map(str, pattern.inputs)) + ";")
    lines.append("  output: " + ", ".join(map(str, pattern.outputs)) + ";")
    lines.append("  seq:")
    for cmd in commands:
        lines.append(f"    {format_command(cmd)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
