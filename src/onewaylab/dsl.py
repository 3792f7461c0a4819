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

``parse_document`` first matches the structure of the text one command at
a time (``_fast_document``), and reads each angle and signal in it with
``_Parser``'s own rules.  Any text that path does not cover, and any text
with an error, goes to the token-by-token ``_Parser``, which alone reports
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
from .signals import LABEL_WORD, ZERO, Qubit, Signal, qubit_key


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

    def unexpected(self, what: str, tok: re.Match):
        found = tok[0] or "end of input"
        self.fail(f"expected {what}, found {found!r}", tok)

    def expect(self, text: str) -> re.Match:
        tok = self.next()
        if tok[0] != text:
            self.unexpected(repr(text), tok)
        return tok

    def accept(self, text: str) -> bool:
        """Take the next token if it is ``text``."""
        if self.peek()[0] != text:
            return False
        self.next()
        return True

    def word(self, what: str) -> re.Match:
        tok = self.next()
        if tok.lastgroup != "word":
            self.unexpected(what, tok)
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
        if self.peek()[0] == ";":
            return []
        tokens = [self.word("a qubit label")]
        while self.accept(","):
            tokens.append(self.word("a qubit label"))
        return tokens

    def section(self, name: str):
        """The ``name :`` that opens a header section."""
        self.expect(name)
        self.expect(":")

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
            self.unexpected("an integer", tok)
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
        negative = self.accept("-")
        tok = self.next()
        if tok.lastgroup == "float":
            return self.radians(start, tok)
        times_pi = tok[0] == "pi"
        if not times_pi and not (tok.lastgroup == "word" and tok[0].isdigit()):
            self.unexpected("an angle", tok)
        num = 1 if times_pi else self.digits(tok)
        den = self.denominator() if self.accept("/") else 1
        if times_pi or self.accept("pi"):
            frac = Fraction(num, den)
            return Angle.exact(-frac if negative else frac)
        if den != 1:
            self.fail("fractional angle must be followed by 'pi'", tok)
        if num == 0:
            return Angle.exact(0)
        return self.radians(start, tok)

    def signal(self) -> Signal:
        support: set = set()
        constant = 0
        while True:
            tok = self.next()
            if tok[0] == "s":
                self.expect("[")
                support ^= {self.qubit()}
                self.expect("]")
            elif tok.lastgroup == "word" and tok[0].isdigit():
                constant ^= self.digits(tok) % 2
            else:
                self.unexpected("a signal term", tok)
            if not self.accept("+"):
                return Signal(frozenset(support), constant)

    def command(self):
        tok = self.word("a command (E, M, X, Z, S)")
        kind = tok[0]
        self.expect("(")
        if kind not in ("E", "M", "X", "Z", "S"):
            self.fail(f"unknown command {kind!r}", tok)
        q = self.qubit()
        self.expect(",")
        if kind == "E":
            make, args = Entangle, (q, self.qubit())
        elif kind == "M":
            angle = self.angle()
            signals = {"s": Signal(), "t": Signal()}
            while self.accept(","):
                name = self.word("'s' or 't'")
                if name[0] not in signals:
                    self.unexpected("'s' or 't'", name)
                self.expect("=")
                signals[name[0]] = self.signal()
            make, args = Measure, (q, angle, signals["s"], signals["t"])
        else:
            make, args = _QUBIT_SIGNAL_COMMANDS[kind], (q, self.signal())
        self.expect(")")
        try:
            return make(*args)
        except ValueError as exc:
            raise self.error(str(exc), tok) from exc

    def document(self) -> PatternDocument:
        self.expect("pattern")
        name = self.word("a pattern name")[0]
        self.expect("{")
        self.section("space")
        space = frozenset(self.label(tok) for tok in self.qubit_list())
        self.expect(";")
        self.section("input")
        inputs = self.interface("input", space)
        self.expect(";")
        self.section("output")
        outputs = self.interface("output", space)
        self.expect(";")
        self.section("seq")
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
                f"command {_format_command(exc.command)} refers to a qubit outside the space",
                starts[commands.index(exc.command)],
            )
        return PatternDocument(name, pattern)


# The fast path matches only a command's structure: its letter, its qubit
# labels (``signals.LABEL_WORD``), its punctuation and ``s=`` before ``t=``,
# in ASCII digits and whitespace (``re.ASCII``).  Each angle or signal is one
# piece that ``_Parser`` reads whole.  A piece is never empty and holds no
# ``#``, ``,``, ``(``, ``)`` or ``;``, so it ends where a token of
# ``_TOKEN_RE`` ends, and a match never splits the text into tokens or
# comments other than the located parser's.
_FAST_LABEL = rf"(?:{LABEL_WORD})"
_FAST_LIST = rf"(?:{_FAST_LABEL}(?:\s*,\s*{_FAST_LABEL})*)?"
_FAST_PIECE = r"\s*([^,()#;\s][^,()#;]*)"

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
      | M\s*\(\s*({_FAST_LABEL})\s*,{_FAST_PIECE}
          (?:,\s*s\s*={_FAST_PIECE})?(?:,\s*t\s*={_FAST_PIECE})?\)
      | ([XZS])\s*\(\s*({_FAST_LABEL})\s*,{_FAST_PIECE}\)
    )\s*;
  | (\s*\S)""",
    re.VERBOSE | re.ASCII,
)
_FAST_LABEL_RE = re.compile(_FAST_LABEL, re.ASCII)


def _read(text: str, piece):
    """``piece`` (``_Parser.angle`` or ``_Parser.signal``) read from all of
    ``text``; a ``DslError`` if it is malformed or leaves text unread."""
    parser = _Parser(text)
    value = piece(parser)
    parser.end()
    return value


# Angles and signals are immutable, and a corpus writes few distinct angle
# and signal texts, so each text is read once per process, in bounded caches.
_ANGLE_CACHE_SIZE = 1024
_SIGNAL_CACHE_SIZE = 4096


@functools.lru_cache(maxsize=_SIGNAL_CACHE_SIZE)
def _fast_signal(text: str) -> Signal:
    return _read(text, _Parser.signal)


@functools.lru_cache(maxsize=_ANGLE_CACHE_SIZE)
def _fast_angle(text: str) -> Angle:
    return _read(text, _Parser.angle)


def _fast_document(text: str) -> PatternDocument | None:
    """``text``'s document when its structure is in the fast path's subset,
    else None.

    A command's qubit must be written as in the ``space:`` list, so ``01``
    for ``1`` is declined; each angle and signal is read by ``_Parser``.
    The interface is checked by ``Pattern``, and the commands join it
    through ``Pattern._rebuilt``, without a scan for qubits outside the
    space: every qubit a command acts on was looked up among the ``space:``
    labels, where any other is a ``KeyError``, and every signal's support is
    checked to lie in the space.
    """
    head = _FAST_HEADER_RE.match(text)
    body = text.rstrip()
    if head is None or body[-1] != "}":
        return None
    # the body ends before the spaces ahead of '}', which no match can take
    body_end = len(body[:-1].rstrip())
    name, space, inputs, outputs = head.groups()
    try:
        words = _FAST_LABEL_RE.findall(space)
        labels = {word: int(word) if word.isdigit() else word for word in words}
        inputs = tuple(labels[word] for word in _FAST_LABEL_RE.findall(inputs))
        outputs = tuple(labels[word] for word in _FAST_LABEL_RE.findall(outputs))
        space = frozenset(labels.values())
        commands = []
        for e1, e2, mq, angle, s, t, kind, q, signal, bad in _FAST_COMMAND_RE.findall(
            text, head.end(), body_end
        ):
            if e1:
                cmd = Entangle(labels[e1], labels[e2])
            elif mq:
                # a piece is never empty, so an empty group is an absent signal
                s = _fast_signal(s) if s else ZERO
                t = _fast_signal(t) if t else ZERO
                if not (s.support <= space and t.support <= space):
                    return None
                cmd = Measure(labels[mq], _fast_angle(angle), s, t)
            elif kind:
                signal = _fast_signal(signal)
                if not signal.support <= space:
                    return None
                cmd = _QUBIT_SIGNAL_COMMANDS[kind](labels[q], signal)
            else:
                return None
            commands.append(cmd)
        pattern = Pattern._rebuilt(Pattern(space, inputs, outputs, ()), commands)
    except (KeyError, ValueError):
        return None
    return PatternDocument(name, pattern)


def parse_document(text: str) -> PatternDocument:
    return _fast_document(text) or _Parser(text).document()


def parse(text: str) -> Pattern:
    return parse_document(text).pattern


def parse_angle(text: str) -> Angle:
    """One angle in the grammar of ``M(q, angle)``, and nothing after it."""
    return _read(text, _Parser.angle)


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
    return _format_command(cmd)


def _format_command(cmd) -> str:
    """``cmd`` as text, each signal from ``_signal_text``.

    ``serialize`` and ``rewrite.format_trace`` call this, not
    ``format_command``, so a profiler that wraps every public function
    times them, not each command they write.
    """
    kind = type(cmd)
    letter = _COMMAND_LETTERS.get(kind)
    if letter is not None:
        signal = cmd.signal
        return f"{letter}({cmd.qubit}, {_signal_text(signal.support, signal.constant)})"
    if kind is Entangle:
        return f"E({cmd.i},{cmd.j})"
    if kind is Measure:
        text = f"M({cmd.qubit}, {format_angle(cmd.angle)}"
        # a measurement's signals have constant 0 (``Measure`` folds it
        # into the angle), so a signal is nonzero when its support is
        s, t = cmd.s.support, cmd.t.support
        if s:
            text += f", s={_signal_text(s, 0)}"
        if t:
            text += f", t={_signal_text(t, 0)}"
        return text + ")"
    raise TypeError(f"unknown command {cmd!r}")


# Each distinct signal is written once per process, keyed by its fields, whose
# tuple hashes faster than the signal does.  Equal fields write one text,
# since ``Pattern`` admits only qubits that are labels: an int or a str.
@functools.lru_cache(maxsize=_SIGNAL_CACHE_SIZE)
def _signal_text(support: frozenset, constant: int) -> str:
    return str(Signal(support, constant))


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
        lines.append(f"    {_format_command(cmd)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
