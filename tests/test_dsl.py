import math
import pickle
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import BUILDER_ARGS, TEXT_PIECES, mutated_texts
from onewaylab import dsl
from onewaylab.angles import Angle
from onewaylab.commands import CorrectX, CorrectZ, Entangle, Measure, Shift
from onewaylab.dsl import (
    DslError,
    format_angle,
    format_command,
    parse,
    parse_angle,
    parse_document,
    serialize,
)
from onewaylab.library import (
    BUILDERS,
    cnot,
    controlled_u,
    cz,
    ghz,
    h,
    j,
    p_half,
    random_wild_pattern,
    rotation,
    rx,
    rz,
    teleport,
)
from onewaylab.patterns import Pattern, PatternError
from onewaylab.rewrite import standardize, standardize_extended
from onewaylab.signals import Signal, signal

# more digits than Python's int() reads from a string by default
_LONG = "9" * 5000

CORPUS = [
    h(),
    j(Fraction(1, 4)),
    j(1.234),
    cz(1, 2),
    teleport(Fraction(1, 4), Fraction(1, 3)),
    rx(0.5),
    rz(Fraction(1, 2)),
    rotation(Fraction(1, 4), Fraction(1, 3), Fraction(1, 5)),
    p_half(),
    cnot(),
    ghz(4),
    controlled_u(Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1),
    standardize(cnot())[0],
    standardize_extended(ghz(3))[0],
]


@pytest.mark.parametrize("pattern", CORPUS, ids=range(len(CORPUS)))
def test_round_trip(pattern):
    assert parse(serialize(pattern)) == pattern


def test_round_trip_paper_order():
    p = teleport(Fraction(1, 4), Fraction(1, 3))
    text = serialize(p, paper_order=True)
    parsed = parse(text)
    assert parsed.commands == tuple(reversed(p.commands))


def test_document_name():
    doc = parse_document(serialize(h(), name="hadamard"))
    assert doc.name == "hadamard"
    assert doc.pattern == h()


def test_angle_forms():
    text = """
    pattern p {
      space: 1, 2, 3, 4, 5, 6, 7;
      input: ;
      output: ;
      seq:
        M(1, 0);
        M(2, pi);
        M(3, -1/4 pi);
        M(4, 3/2 pi);
        M(5, pi/3);
        M(6, 1.234);
        M(7, -2 pi);
    }
    """
    p = parse(text)
    angles = [c.angle for c in p.commands]
    assert angles[0] == Angle.exact(0)
    assert angles[1] == Angle.exact(1)
    assert angles[2] == Angle.exact(7, 4)
    assert angles[3] == Angle.exact(3, 2)
    assert angles[4] == Angle.exact(1, 3)
    assert not angles[5].is_exact and angles[5].radians == pytest.approx(1.234)
    assert angles[6] == Angle.exact(0)


def test_signal_forms():
    text = """
    pattern p {
      space: 1, 2, 3;
      input: 3;
      output: 3;
      seq:
        M(1, 1/4 pi);
        M(2, 1/4 pi, s=s[1], t=1 + s[1]);
        X(3, 1 + s[1] + s[2]);
        Z(3, 0);
    }
    """
    p = parse(text)
    m2 = p.commands[1]
    # the constructor folds a constant pi-action into the angle
    assert m2.s == signal(1) and m2.t == signal(1)
    assert m2.angle == Angle.exact(5, 4)
    assert p.commands[2].signal == signal(1, 2, constant=1)
    assert p.commands[3].signal == Signal()


def test_primed_and_string_qubits():
    p = ghz(3)
    text = serialize(p)
    assert "2'" in text
    assert parse(text) == p


def test_shift_command_round_trip():
    text = """
    pattern p {
      space: 1, 2;
      input: 1;
      output: 2;
      seq:
        E(1,2);
        M(1, 0);
        S(1, 1);
        X(2, s[1]);
    }
    """
    p = parse(text)
    assert p.commands[2] == Shift(1, signal(constant=1))
    assert parse(serialize(p)) == p


def test_error_reports_location():
    with pytest.raises(DslError) as err:
        parse("pattern p {\n  space 1;\n}")
    assert err.value.line == 2
    assert "space" in str(err.value) or "expected" in str(err.value)


def test_dsl_error_needs_a_location():
    with pytest.raises(TypeError):
        DslError("message")
    err = DslError("message", 3, 7)
    assert (str(err), err.line, err.column) == ("line 3, column 7: message", 3, 7)
    copy = pickle.loads(pickle.dumps(err))
    assert (str(copy), copy.line, copy.column) == (str(err), 3, 7)


def test_unknown_qubit_rejected():
    text = """
    pattern p {
      space: 1;
      input: 1;
      output: 1;
      seq:
        E(1,2);
    }
    """
    with pytest.raises(DslError):
        parse(text)


def test_unknown_command_rejected():
    text = "pattern p { space: 1; input: 1; output: 1; seq: Q(1); }"
    with pytest.raises(DslError):
        parse(text)


def test_comments_and_whitespace():
    text = """
    # leading comment
    pattern p {
      space: 1, 2;  # trailing comment
      input: 1;
      output: 2;
      seq:
        E(1,2);      # entangle
        M(1, 0);
        X(2, s[1]);
    }
    """
    assert parse(text) == h()


def test_format_angle():
    assert format_angle(Angle.exact(0)) == "0"
    assert format_angle(Angle.exact(1)) == "pi"
    assert format_angle(Angle.exact(7, 4)) == "7/4 pi"
    assert format_angle(Angle.exact(3, 2)) == "3/2 pi"
    assert float(format_angle(Angle.from_radians(1.234))) == pytest.approx(1.234)


def test_format_signal_and_command():
    assert str(Signal()) == "0"
    assert str(signal(2, 1, constant=1)) == "1 + s[1] + s[2]"
    assert format_command(Entangle(2, 1)) == "E(1,2)"
    assert format_command(Measure(1, Angle.exact(7, 4), s=signal(2))) == (
        "M(1, 7/4 pi, s=s[2])"
    )
    assert format_command(CorrectX(3, signal(2))) == "X(3, s[2])"


def test_y_axis_angle_serialization_parses_back():
    m = Measure(1, Angle.exact(1, 2), s=signal(2))
    text = format_command(m)
    assert "1/2 pi" in text
    roundtrip = parse(
        "pattern p { space: 1, 2, 3; input: 3; output: 3; seq: M(2, 0); "
        + text
        + "; }"
    )
    assert roundtrip.commands[1] == Measure(1, Angle.exact(1, 2), s=signal(2))


@pytest.mark.parametrize(
    "angle, column",
    [
        ("1/0 pi", 54),
        ("pi/0", 55),
        ("1/0", 54),
        ("1e999", 52),
        ("-1e999", 52),
        pytest.param(f"{_LONG} pi", 52, id="5000-digit numerator"),
        pytest.param(f"1/{_LONG} pi", 54, id="5000-digit denominator"),
    ],
)
def test_malformed_angle_is_a_located_error(angle, column):
    text = f"pattern p {{ space: 1; input: ; output: ; seq: M(1, {angle}); }}"
    with pytest.raises(DslError) as err:
        parse(text)
    assert (err.value.line, err.value.column) == (1, column)


@pytest.mark.parametrize(
    "space, command", [("1", "E(1,1)"), ("a", "E(a, a)"), ("2'", "M(2', 0); E(2',2')")]
)
def test_invalid_command_is_a_located_error(space, command):
    text = f"pattern p {{ space: {space}; input: ; output: ; seq: {command}; }}"
    with pytest.raises(DslError, match="two distinct qubits") as err:
        parse(text)
    # located at the command's name
    assert (err.value.line, err.value.column) == (1, text.rindex("E(") + 1)


@pytest.mark.parametrize(
    "seq, line, column, text",
    [
        ("E(1,2);", 1, 49, "E(1,2)"),
        ("\n  M(1, 0);\n  X(1, s[3]);", 3, 3, "X(1, s[3])"),
        ("M(1, 1/4 pi, t=s[a]);", 1, 49, "M(1, 1/4 pi, t=s[a])"),
    ],
)
def test_command_outside_space_is_a_located_error(seq, line, column, text):
    source = f"pattern p {{ space: 1; input: 1; output: 1; seq: {seq} }}"
    with pytest.raises(DslError, match="outside the space") as err:
        parse(source)
    assert (err.value.line, err.value.column) == (line, column)
    assert f"command {text} refers" in str(err.value)


@pytest.mark.parametrize(
    "space, inputs, outputs",
    [({-1, "a b"}, ("a b",), (-1,)), ({"12", 3}, ("12",), (3,)), ({True, 2}, (), (2,))],
)
def test_labels_without_a_text_form_are_refused(space, inputs, outputs):
    with pytest.raises(PatternError, match="no text form"):
        Pattern(frozenset(space), inputs, outputs, ())


_WORDS = st.from_regex(r"[A-Za-z_][A-Za-z0-9_']{0,3}|[0-9]{1,2}'{1,2}", fullmatch=True)
_LABELS = st.one_of(st.integers(0, 40), _WORDS)
_ANGLES = st.one_of(
    st.fractions(min_value=-4, max_value=4, max_denominator=8).map(Angle.exact),
    st.floats(-20, 20, allow_nan=False).map(Angle.from_radians),
)


@st.composite
def patterns_with_text_labels(draw):
    space = draw(st.lists(_LABELS, min_size=2, max_size=6, unique=True))
    label = st.sampled_from(space)
    signals = st.builds(
        lambda qubits, constant: Signal(frozenset(qubits), constant),
        st.lists(label, max_size=3),
        st.integers(0, 1),
    )
    commands = st.one_of(
        st.lists(label, min_size=2, max_size=2, unique=True).map(lambda pair: Entangle(*pair)),
        st.builds(Measure, label, _ANGLES, signals, signals),
        st.builds(CorrectX, label, signals),
        st.builds(CorrectZ, label, signals),
        st.builds(Shift, label, signals),
    )
    return Pattern(
        frozenset(space),
        tuple(draw(st.lists(label, max_size=3, unique=True))),
        tuple(draw(st.lists(label, max_size=3, unique=True))),
        tuple(draw(st.lists(commands, max_size=8))),
    )


@settings(deadline=None, max_examples=200)
@given(patterns_with_text_labels())
def test_serialize_parses_back_equal(pattern):
    assert parse(serialize(pattern)) == pattern


@pytest.mark.parametrize(
    "lists, before, message",
    [
        ("input: 1, 1; output: 1;", "input: 1, ", "duplicate input qubit 1"),
        ("input: 2; output: 1;", "input: ", "input qubit 2 not in space"),
        ("input: 1; output: 1, a, 1;", "input: 1; output: 1, ", "output qubit a not in space"),
        ("input: ;\n  output: 1, 1;", "input: ;\n  output: 1, ", "duplicate output qubit 1"),
        ("input: 2;\n  output: ;\n  @", "input: 2;\n  output: ;\n  ", "unexpected character '@'"),
        (
            "input: 1; # 2 is not in the space\n  output: 2;",
            "input: 1; # 2 is not in the space\n  output: ",
            "output qubit 2 not in space",
        ),
        ("input: ;\n\n  output: 1, 1;", "input: ;\n\n  output: 1, ", "duplicate output qubit 1"),
        ("input: 1;\n  output: 1;", "input: 1;\n  output: 1;", "expected 'seq', found 'end of input'"),
        (
            "input: ; output: ;\n  seq: M(1, 1/x pi);",
            "input: ; output: ;\n  seq: M(1, 1/",
            "expected an integer, found 'x'",
        ),
        (
            "input: ; output: ;\n  seq: M(1, 0, u=s[1]);",
            "input: ; output: ;\n  seq: M(1, 0, ",
            "expected 's' or 't', found 'u'",
        ),
        pytest.param(
            f"input: {_LONG};", "input: ", "integer of 5000 digits is too long", id="5000-digit label"
        ),
        pytest.param(
            f"input: ; output: ;\n  seq: X(1, 1 + {_LONG});",
            "input: ; output: ;\n  seq: X(1, 1 + ",
            "integer of 5000 digits is too long",
            id="5000-digit signal constant",
        ),
    ],
)
def test_interface_list_errors_are_located(lists, before, message):
    text = f"pattern p {{ space: 1; {lists}"
    with pytest.raises(DslError, match=message) as err:
        parse(text)
    # located at the offending token
    offset = text.index(lists) + len(before)
    line = text.count("\n", 0, offset) + 1
    column = offset - text.rfind("\n", 0, offset)
    assert (err.value.line, err.value.column) == (line, column)


@pytest.mark.parametrize(
    "text, angle",
    [
        ("pi", Angle.exact(1)),
        ("-pi", Angle.exact(1)),
        ("pi/4", Angle.exact(1, 4)),
        ("-3/8pi", Angle.exact(13, 8)),
        ("3/8 pi", Angle.exact(3, 8)),
        ("2pi", Angle.exact(0)),
        ("-0", Angle.exact(0)),
        ("0.5", Angle.from_radians(0.5)),
        ("-0.5", Angle.from_radians(-0.5)),
    ],
)
def test_parse_angle(text, angle):
    assert parse_angle(text) == angle


@pytest.mark.parametrize("text", ["", "0.7pi", "1.5pi", "+1/4pi", "1e1pi", "1/4", "pi pi", "inf", "1/0pi"])
def test_parse_angle_refuses(text):
    with pytest.raises(DslError):
        parse_angle(text)


@settings(deadline=None, max_examples=300)
@given(st.one_of(mutated_texts(), TEXT_PIECES, st.lists(TEXT_PIECES, max_size=12).map("".join)))
def test_any_text_parses_or_raises_dsl_error(text):
    try:
        parse(text)
    except DslError:
        pass


# the fast path against the located parser ------------------------------


def _located(text):
    """What the located parser makes of ``text``: its document, or its error."""
    try:
        return dsl._Parser(text).document()
    except DslError as exc:
        return exc


def assert_parses_as_located(text):
    expected = _located(text)
    try:
        actual = parse_document(text)
    except DslError as exc:
        assert isinstance(expected, DslError), str(exc)
        assert (str(exc), exc.line, exc.column) == (
            str(expected), expected.line, expected.column
        )
    else:
        assert actual == expected


@settings(deadline=None, max_examples=300)
@given(
    st.one_of(
        mutated_texts(),
        TEXT_PIECES,
        st.lists(TEXT_PIECES, max_size=12).map("".join),
        patterns_with_text_labels().map(serialize),
    )
)
def test_parse_agrees_with_the_located_parser(text):
    assert_parses_as_located(text)


def _document(seq: str, space: str = "1, 2") -> str:
    return f"pattern p {{\n  space: {space};\n  input: 1;\n  output: 2;\n  seq:\n    {seq}\n}}\n"


# (text, what reads it: the fast path, only the located parser, or neither, a
# located error)
_EDGE_CASES = {
    "comment in seq": (_document("E(1,2);  # entangle\n    M(1, 0);"), "located"),
    "float angle": (_document("M(1, 1.25);"), "fast"),
    "negative float angle": (_document("M(1, -0.5); M(2,-1.5e-3);"), "fast"),
    "negative exact angle": (_document("M(1, -1/4 pi);"), "fast"),
    "pi/4": (_document("M(1, pi/4);"), "fast"),
    "2pi": (_document("M(1, 2pi);"), "fast"),
    "-0": (_document("M(1, -0);"), "fast"),
    "integer radians": (_document("M(1, 3);"), "fast"),
    "primed and word labels": (
        _document("E(2',a_1); M(a_1, 0, s=s[2']); X(2', s[a_1]);", "1, 2, 2', a_1"), "fast"
    ),
    "newline inside a command": (_document("M(1,\n      1/4 pi,\n      s=s[2]);"), "fast"),
    "no spaces": (_document("M(1,1/4pi,s=s[2],t=1+s[2]);X(2,s[1]+1);"), "fast"),
    "s[1] + s[1]": (_document("X(2, s[1] + s[1]);"), "fast"),
    "signal constants from 2": (_document("X(2, 2 + s[1]); Z(2, 3);"), "fast"),
    "t before s": (_document("M(1, 1/4 pi, t=s[2], s=s[2]);"), "located"),
    "label written another way": (_document("E(01,2);"), "located"),
    "signal label written another way": (_document("X(2, s[01]);"), "fast"),
    "unicode digit label": (_document("E(1,\u0662);"), "located"),
    "E(1,1)": (_document("E(1,1);"), "error"),
    "command outside the space": (_document("E(1,3);"), "error"),
    "5000-digit label": (_document(f"E(1,{_LONG});"), "error"),
    "5000-digit signal constant": (_document(f"X(1, {_LONG});"), "error"),
    "5000-digit numerator": (_document(f"M(1, {_LONG} pi);"), "error"),
    "5000-digit zero": (_document(f"M(1, {'0' * 5000});"), "error"),
    "zero denominator": (_document("M(1, pi/0);"), "error"),
    "infinite angle": (_document("M(1, 1e999);"), "error"),
    "signed angle": (_document("M(1, +1.5);"), "error"),
    "doubled minus": (_document("M(1, --1.5);"), "error"),
    "spaced doubled minus": (_document("M(1, - -1.5);"), "error"),
    "minus then plus": (_document("M(1, -+1.5);"), "error"),
    "exponents": (_document("M(1, -1e1); M(2, 1e-3);"), "fast"),
    "text after the closing brace": (_document("E(1,2);") + "x", "error"),
    "second closing brace": (_document("E(1,2);") + "}", "error"),
    "comment inside a command": (_document("M(1, 1/4 pi # c, s=s[2]\n    );"), "located"),
    "empty signal": (_document("M(1, 1/4 pi, s=);"), "error"),
}


@pytest.mark.parametrize("text, reader", _EDGE_CASES.values(), ids=_EDGE_CASES)
def test_edge_cases_parse_as_located(text, reader):
    assert_parses_as_located(text)
    assert (dsl._fast_document(text) is not None) == (reader == "fast")
    assert isinstance(_located(text), DslError) == (reader == "error")


def test_no_signal_text_outlives_its_document():
    # the same signal texts read, one after the other, in a document whose
    # space holds their label and in one whose space does not: a cached
    # signal serves only a document whose space holds its qubits
    holds_a = "pattern p { space: 1, a; input: 1; output: a; seq: X(a, s[1]); M(1, 0, s=s[a]); }"
    assert parse(holds_a).space == frozenset((1, "a"))
    lacks_a = _document("E(1,2); X(2, s[a]);")
    with pytest.raises(DslError, match=r"line 6, column 13: command X\(2, s\[a\]\)"):
        parse(lacks_a)
    assert_parses_as_located(lacks_a)
    # ``s[01]`` names qubit 1 in either space, however the space writes it
    holds_01 = "pattern p { space: 01, 2; input: 01; output: 2; seq: X(2, s[01]); }"
    assert dsl._fast_document(holds_01) is not None
    lacks_01 = _document("X(2, s[01]);")
    assert dsl._fast_document(lacks_01) == _located(lacks_01)
    assert parse(lacks_01).commands == (CorrectX(2, Signal(frozenset((1,)))),)


# (text, whether the fast path reads it, the located parser's error or None)
_WRITTEN_1 = _document("X(2, s[1]); Z(2, s[1] + 1);")
_WRITTEN_01 = "pattern p { space: 01, 2; input: 01; output: 2; seq: X(2, s[01]); Z(2, s[01] + 1); }"
_01_IN_1 = (
    _document("X(2, s[1]);\n    Z(2, s[01] + 1);\n    Z(2, s[01] + s[3]);"),
    False,
    (8, 5, "command Z(2, s[1] + s[3]) refers to a qubit outside the space"),
)
_1_IN_01 = (
    "pattern p { space: 01, 2; input: 01; output: 2; seq:\n  X(2, s[01]);\n  Z(2, s[1] + 1); X(2, s[3]); }",
    False,
    (3, 19, "command X(2, s[3]) refers to a qubit outside the space"),
)
_SIGNAL_DOCUMENTS = [(_WRITTEN_1, True, None), (_WRITTEN_01, True, None), _01_IN_1, _1_IN_01]


@pytest.mark.parametrize("order", [1, -1], ids=["written-first", "written-last"])
def test_cached_signals_keep_the_label_words_of_each_document(order):
    # each signal text is read first in a document whose space writes its
    # labels as the signal does, or first in one whose space writes them
    # another way: a cached signal is checked by its qubits, not its words
    dsl._fast_signal.cache_clear()
    for text, fast, error in _SIGNAL_DOCUMENTS[::order] * 2:
        assert (dsl._fast_document(text) is not None) == fast
        assert_parses_as_located(text)
        if error is None:
            parse_document(text)
        else:
            with pytest.raises(DslError) as info:
                parse_document(text)
            assert (info.value.line, info.value.column, info.value._message) == error


@pytest.mark.parametrize(
    "cache, distinct",
    [
        (dsl._fast_signal, lambda k: f"s[{k}] + {k % 2}"),
        (dsl._fast_angle, lambda k: f"{k}/{k + 1} pi"),
        (dsl._signal_text, lambda k: (frozenset((k, f"q{k}")), k % 2)),
    ],
    ids=["signal", "angle", "signal text"],
)
def test_caches_stay_within_their_bound(cache, distinct):
    size = cache.cache_info().maxsize
    for k in range(size + 10):
        key = distinct(k)
        cache(*key) if isinstance(key, tuple) else cache(key)
        assert cache.cache_info().currsize <= size
    assert cache.cache_info().currsize == size


def test_serialize_writes_a_label_after_an_equal_non_label():
    # True and 1.0 equal the label 1 and hash as it does, so a signal over
    # one of them would take the text cached for s[1], or give s[1] its
    # own text; a pattern refuses them
    one = Pattern(frozenset((1, 2)), (1,), (2,), (CorrectX(2, Signal(frozenset((1,)))),))
    for impostor in (True, 1.0):
        with pytest.raises(PatternError, match="not a qubit label"):
            one.with_commands((CorrectX(2, Signal(frozenset((impostor,)))),))
        assert "X(2, s[1]);" in serialize(one)
        assert parse(serialize(one)) == one


@pytest.mark.parametrize(
    "text, message",
    [
        (_document("E(1,2); M(1, 0); X(3, s[1]);"),
         "line 6, column 22: command X(3, s[1]) refers to a qubit outside the space"),
        (_document("E(1,2); M(1, 1/4 pi, s=s[3]); X(2, s[1]);"),
         "line 6, column 13: command M(1, 1/4 pi, s=s[3]) refers to a qubit outside the space"),
        (_document("E(1,2); M(1, 0); X(2, s[1]);").replace("input: 1;", "input: 1, 1;"),
         "line 3, column 13: duplicate input qubit 1"),
    ],
    ids=["command qubit", "signal qubit", "repeated input"],
)
def test_fast_path_leaves_bad_qubits_to_the_located_parser(text, message):
    # the fast path checks the interface and skips the scan of command
    # qubits, so a qubit outside the space must still fail its lookup
    assert dsl._fast_document(text) is None
    with pytest.raises(DslError) as info:
        parse(text)
    assert str(info.value) == message


def _located_parser_refused(self):
    raise AssertionError("the located parser read a whole document")


@pytest.mark.parametrize("seed", range(4))
def test_fast_path_reads_wild_patterns(monkeypatch, seed):
    pattern = random_wild_pattern(200, seed)
    text = serialize(pattern)
    monkeypatch.setattr(dsl._Parser, "document", _located_parser_refused)
    assert parse(text) == pattern


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_fast_path_reads_every_builder(monkeypatch, name):
    pattern = BUILDERS[name](*BUILDER_ARGS.get(name, ()))
    text = serialize(pattern, name)
    monkeypatch.setattr(dsl._Parser, "document", _located_parser_refused)
    assert parse_document(text) == dsl.PatternDocument(name, pattern)


@settings(deadline=None, max_examples=200)
@given(patterns_with_text_labels())
def test_fast_path_reads_what_serialize_writes(pattern):
    text = serialize(pattern)
    with mock.patch.object(dsl._Parser, "document", _located_parser_refused):
        assert parse(text) == pattern
