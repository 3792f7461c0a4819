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

``parse_document`` first matches the text one whole command at a time
(``_fast_document``).  Any text that path does not cover, and any text with
an error, goes to the token-by-token ``_Parser``, which alone reports
errors, so every ``DslError`` and its location are the located parser's.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction

from ._values import Value
from .angles import Angle
from .commands import CorrectX, CorrectZ, Entangle, Measure, Shift
from .patterns import Pattern, PatternError
from .signals import LABEL_WORD, Qubit, Signal, qubit_key


class DslError(ValueError):
    """Syntax or structural error in pattern text, with location."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self._message = message
        self.line = line
        self.column = column

    def __reduce__(self):
        # unpickling calls the constructor, which needs the location
        return type(self), (self._message, self.line, self.column)


class PatternDocument(Value):
    """A named pattern as read from (or written to) text."""

    __slots__ = ("name", "pattern")

    def __init__(self, name: str, pattern: Pattern):
        self._set_fields(name, pattern)


# One scan cuts the whole text into tokens.  A token is the ``re.Match`` of
# its group: ``lastgroup`` is its kind, ``tok[0]`` its text and ``start()``
# its offset.  ``bad`` is a character the format has no token for, and
# ``eof`` the empty match at the end of the text.
_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<float>(?:\d+\.\d*|\.\d+)(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+)
  | (?P<word>"""
    + LABEL_WORD
    + r""")
  | (?P<punct>[{}();:,=/\[\]+-])
  | (?P<eof>\Z)
  | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)


_QUBIT_SIGNAL_COMMANDS = {"X": CorrectX, "Z": CorrectZ, "S": Shift}
_COMMAND_LETTERS = {kind: letter for letter, kind in _QUBIT_SIGNAL_COMMANDS.items()}


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = [tok for tok in _TOKEN_RE.finditer(text) if tok.lastgroup != "ws"]
        self.pos = 0
        # the whole text is scanned first, so a stray character is reported
        # ahead of any grammar error
        for tok in self.tokens:
            if tok.lastgroup == "bad":
                self.fail(f"unexpected character {tok[0]!r}", tok)

    def peek(self) -> re.Match:
        return self.tokens[self.pos]

    def next(self) -> re.Match:
        tok = self.tokens[self.pos]
        if tok.lastgroup != "eof":
            self.pos += 1
        return tok

    def error(self, message: str, tok: re.Match) -> DslError:
        """A ``DslError`` at ``tok``, its line and column worked out from its offset."""
        offset = tok.start()
        line = self.text.count("\n", 0, offset) + 1
        return DslError(message, line, offset - self.text.rfind("\n", 0, offset))

    def fail(self, message: str, tok: re.Match):
        raise self.error(message, tok)

    def expect(self, text: str) -> re.Match:
        tok = self.next()
        if tok[0] != text:
            found = tok[0] or "end of input"
            self.fail(f"expected {text!r}, found {found!r}", tok)
        return tok

    def word(self, what: str) -> re.Match:
        tok = self.next()
        if tok.lastgroup != "word":
            found = tok[0] or "end of input"
            self.fail(f"expected {what}, found {found!r}", tok)
        return tok

    def digits(self, tok: re.Match) -> int:
        """The value of an all-digit word; one too long for ``int`` fails at ``tok``."""
        try:
            return int(tok[0])
        except ValueError:
            self.fail(f"integer of {len(tok[0])} digits is too long", tok)

    def label(self, tok: re.Match) -> Qubit:
        return self.digits(tok) if tok[0].isdigit() else tok[0]

    # grammar pieces -------------------------------------------------

    def qubit(self) -> Qubit:
        return self.label(self.word("a qubit label"))

    def qubit_list(self) -> list[re.Match]:
        """The label tokens of a comma-separated list, possibly empty."""
        tokens = []
        if self.peek()[0] == ";":
            return tokens
        tokens.append(self.word("a qubit label"))
        while self.peek()[0] == ",":
            self.next()
            tokens.append(self.word("a qubit label"))
        return tokens

    def interface(self, what: str, space: frozenset) -> tuple:
        """An ``input:`` or ``output:`` list, each label checked where it stands."""
        qubits = []
        for tok in self.qubit_list():
            q = self.label(tok)
            if q not in space:
                self.fail(f"{what} qubit {q} not in space", tok)
            if q in qubits:
                self.fail(f"duplicate {what} qubit {q}", tok)
            qubits.append(q)
        return tuple(qubits)

    def end(self):
        tok = self.next()
        if tok.lastgroup != "eof":
            self.fail(f"unexpected trailing {tok[0]!r}", tok)

    def integer(self) -> int:
        tok = self.word("an integer")
        if not tok[0].isdigit():
            self.fail(f"expected an integer, found {tok[0]!r}", tok)
        return self.digits(tok)

    def denominator(self) -> int:
        tok = self.peek()
        den = self.integer()
        if den == 0:
            self.fail("angle denominator is zero", tok)
        return den

    def radians(self, start: re.Match, tok: re.Match) -> Angle:
        """The angle of radians ``tok``; ``start`` is the angle's first token,
        a minus that negates it or ``tok`` itself."""
        value = float(tok[0])
        if not math.isfinite(value):
            text = self.text[start.start():tok.end()]
            self.fail(f"angle {text!r} is not a finite number", start)
        return Angle.from_radians(-value if start is not tok else value)

    def angle(self) -> Angle:
        """``0`` | ``[-]pi`` | ``[-]p/q pi`` | ``[-]p pi`` | ``[-]pi/q`` | float radians."""
        start = self.peek()
        negative = start[0] == "-"
        if negative:
            self.next()
        tok = self.peek()
        if tok.lastgroup == "float":
            self.next()
            return self.radians(start, tok)
        if tok[0] == "pi":
            self.next()
            num, den = 1, 1
            if self.peek()[0] == "/":
                self.next()
                den = self.denominator()
            frac = Fraction(num, den)
            return Angle.exact(-frac if negative else frac)
        if tok.lastgroup == "word" and tok[0].isdigit():
            self.next()
            num = self.digits(tok)
            den = 1
            if self.peek()[0] == "/":
                self.next()
                den = self.denominator()
            if self.peek()[0] == "pi":
                self.next()
                frac = Fraction(num, den)
                return Angle.exact(-frac if negative else frac)
            if den != 1:
                self.fail("fractional angle must be followed by 'pi'", tok)
            if num == 0:
                return Angle.exact(0)
            return self.radians(start, tok)
        found = tok[0] or "end of input"
        self.fail(f"expected an angle, found {found!r}", tok)

    def signal(self) -> Signal:
        support: set = set()
        constant = 0
        while True:
            tok = self.peek()
            if tok[0] == "s":
                self.next()
                self.expect("[")
                support ^= {self.qubit()}
                self.expect("]")
            elif tok.lastgroup == "word" and tok[0].isdigit():
                self.next()
                constant ^= self.digits(tok) % 2
            else:
                found = tok[0] or "end of input"
                self.fail(f"expected a signal term, found {found!r}", tok)
            if self.peek()[0] != "+":
                return Signal(frozenset(support), constant)
            self.next()

    def command(self):
        tok = self.word("a command (E, M, X, Z, S)")
        kind = tok[0]
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
            while self.peek()[0] == ",":
                self.next()
                name = self.word("'s' or 't'")
                if name[0] not in ("s", "t"):
                    self.fail(f"expected 's' or 't', found {name[0]!r}", name)
                self.expect("=")
                if name[0] == "s":
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
            raise self.error(str(exc), tok) from exc

    def document(self) -> PatternDocument:
        self.expect("pattern")
        name = self.word("a pattern name")[0]
        self.expect("{")
        self.expect("space")
        self.expect(":")
        space = frozenset(self.label(tok) for tok in self.qubit_list())
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
        while self.peek()[0] not in ("}", ""):
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


# The fast path builds the same objects through the same constructors as
# ``_Parser``, on a subset of its grammar: ASCII digits and whitespace
# (``re.ASCII``), no comments, and angles in the forms ``serialize`` writes
# plus ``pi/q``.  Labels are ``signals.LABEL_WORD``.  Each piece below
# ends where a token of ``_TOKEN_RE`` must end, so a match never splits the
# text into tokens other than the located parser's.
_FAST_LABEL = rf"(?:{LABEL_WORD})"
_FAST_LIST = rf"(?:{_FAST_LABEL}(?:\s*,\s*{_FAST_LABEL})*)?"
_FAST_TERM = rf"(?:s\s*\[\s*{_FAST_LABEL}\s*\]|[0-9]+)"
_FAST_SIGNAL = rf"{_FAST_TERM}(?:\s*\+\s*{_FAST_TERM})*"
_FAST_DECIMAL = r"(?:[0-9]+\.[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|[0-9]+[eE][+-]?[0-9]+"
_FAST_ANGLE = rf"(?:-\s*)?(?:pi(?:\s*/\s*[0-9]+)?|[0-9]+(?:\s*/\s*[0-9]+)?\s*pi|0+|{_FAST_DECIMAL})"

_FAST_HEADER_RE = re.compile(
    rf"""\s*pattern\s+({_FAST_LABEL})\s*\{{
    \s*space\s*:\s*({_FAST_LIST})\s*;
    \s*input\s*:\s*({_FAST_LIST})\s*;
    \s*output\s*:\s*({_FAST_LIST})\s*;
    \s*seq\s*:""",
    re.VERBOSE | re.ASCII,
)
# One match per command with its ';'.  Where no command matches, the last
# group takes the text up to the next non-space character, and the text is
# declined.
_FAST_COMMAND_RE = re.compile(
    rf"""\s*(?:
        E\s*\(\s*({_FAST_LABEL})\s*,\s*({_FAST_LABEL})\s*\)
      | M\s*\(\s*({_FAST_LABEL})\s*,\s*({_FAST_ANGLE})
          (?:\s*,\s*s\s*=\s*({_FAST_SIGNAL}))?(?:\s*,\s*t\s*=\s*({_FAST_SIGNAL}))?\s*\)
      | ([XZS])\s*\(\s*({_FAST_LABEL})\s*,\s*({_FAST_SIGNAL})\s*\)
    )\s*;
  | (\s*\S)""",
    re.VERBOSE | re.ASCII,
)
_FAST_LABEL_RE = re.compile(_FAST_LABEL, re.ASCII)
# the pieces of a signal and of an angle that the command matched whole
_FAST_TERM_RE = re.compile(rf"s\s*\[\s*({_FAST_LABEL})\s*\]|([0-9]+)", re.ASCII)
_FAST_ANGLE_RE = re.compile(
    rf"(?:(-)\s*)?(?:pi(?:\s*/\s*([0-9]+))?|([0-9]+)(?:\s*/\s*([0-9]+))?\s*pi|(0+)|({_FAST_DECIMAL}))",
    re.ASCII,
)


def _fast_signal(text: str, labels: dict) -> Signal:
    support: set = set()
    constant = 0
    for label, digits in _FAST_TERM_RE.findall(text):
        if label:
            support ^= {labels[label]}
        else:
            constant ^= int(digits) % 2
    return Signal(frozenset(support), constant)


# Angles are immutable and a corpus writes few distinct angle texts, so they
# are interned across documents; signal texts name labels, so they are read
# again in each document.
@functools.lru_cache(maxsize=1024)
def _fast_angle(text: str) -> Angle:
    negative, pi_den, num, den, zero, decimal = _FAST_ANGLE_RE.fullmatch(text).groups()
    if decimal:
        value = float(decimal)
        return Angle.from_radians(-value if negative else value)
    if zero:
        int(zero)  # refuses as long a run of zeros as the located parser does
        return Angle.exact(0)
    frac = Fraction(int(num or 1), int(den or pi_den or 1))
    return Angle.exact(-frac if negative else frac)


def _fast_document(text: str) -> PatternDocument | None:
    """``text``'s document when all of it is in the fast path's subset, else None.

    A label must be written as in the ``space:`` list, so ``01`` for ``1``
    is declined too.
    """
    head = _FAST_HEADER_RE.match(text)
    body = text.rstrip()
    if head is None or body[-1] != "}":
        return None
    # the body ends before the spaces ahead of '}', which no match can take
    body_end = len(body[:-1].rstrip())
    name, space, inputs, outputs = head.groups()
    signals = {"": Signal()}
    try:
        words = _FAST_LABEL_RE.findall(space)
        labels = {word: int(word) if word.isdigit() else word for word in words}
        inputs = tuple(labels[word] for word in _FAST_LABEL_RE.findall(inputs))
        outputs = tuple(labels[word] for word in _FAST_LABEL_RE.findall(outputs))
        commands = []
        for e1, e2, mq, angle, s, t, kind, q, signal, bad in _FAST_COMMAND_RE.findall(
            text, head.end(), body_end
        ):
            if e1:
                cmd = Entangle(labels[e1], labels[e2])
            elif mq:
                for key in (s, t):
                    if key not in signals:
                        signals[key] = _fast_signal(key, labels)
                cmd = Measure(labels[mq], _fast_angle(angle), signals[s], signals[t])
            elif kind:
                if signal not in signals:
                    signals[signal] = _fast_signal(signal, labels)
                cmd = _QUBIT_SIGNAL_COMMANDS[kind](labels[q], signals[signal])
            else:
                return None
            commands.append(cmd)
        pattern = Pattern(frozenset(labels.values()), inputs, outputs, tuple(commands))
    except (KeyError, ValueError, ZeroDivisionError):
        return None
    return PatternDocument(name, pattern)


def parse_document(text: str) -> PatternDocument:
    return _fast_document(text) or _Parser(text).document()


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
    num, den = frac.numerator, frac.denominator
    if den != 1:
        return f"{num}/{den} pi"
    if num == 0:
        return "0"
    return "pi" if num == 1 else f"{num} pi"


def format_command(cmd) -> str:
    return _format_command(cmd, str)


def _format_command(cmd, signal_text) -> str:
    """``cmd`` as text, each of its signals written by ``signal_text``."""
    if isinstance(cmd, Entangle):
        return f"E({cmd.i},{cmd.j})"
    if isinstance(cmd, Measure):
        parts = [str(cmd.qubit), format_angle(cmd.angle)]
        if cmd.s:
            parts.append(f"s={signal_text(cmd.s)}")
        if cmd.t:
            parts.append(f"t={signal_text(cmd.t)}")
        return f"M({', '.join(parts)})"
    letter = _COMMAND_LETTERS.get(type(cmd))
    if letter is not None:
        return f"{letter}({cmd.qubit}, {signal_text(cmd.signal)})"
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
    # each distinct signal is written once for this document, keyed by its
    # fields, whose tuple hashes faster than the signal does
    texts = {}

    def signal_text(signal: Signal) -> str:
        key = (signal.support, signal.constant)
        text = texts.get(key)
        if text is None:
            text = texts[key] = str(signal)
        return text

    for cmd in commands:
        lines.append(f"    {_format_command(cmd, signal_text)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
