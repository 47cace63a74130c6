"""The one-pass lexer, positions computed only for errors, and distributions
built without re-validating what is already valid.

`reference_lex` is the character-by-character lexer that the single regex
pass replaced: it built a `SourceSpan` for every token.  `surface._lex`
gives each token as `(kind, value)`, with no offsets, and
`surface._token_span` finds the span of a token from its index, as errors
do.  The equivalence tests hold the new lexer to the reference token for
token, on kind, value and span, and hold every error raised while lexing or
parsing to the text and span recorded from the replaced front end in
`parse_errors.json`.  The mechanism tests check that well-formed input
builds no `SourceSpan` and looks up no token's span, and that the parser's
atoms, scaled summands and sums, a whole printed gate among them, and the
one-hole constructors skip `Distribution.__post_init__`, while new
coefficients are still checked.
"""

from __future__ import annotations

import json
import math
import re
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qlam.surface as surface
from generator import ProgramGen
from qlam.quantum import GateMatrix, compile_gate, compile_isometry, gate_library
from qlam.surface import ParseError, SourceSpan, parse_program, parse_type, pretty_print
from qlam.syntax import (
    App,
    Distribution,
    InlV,
    PureTerm,
    Var,
    Void,
    mk_app,
    mk_inl,
    mk_pair,
    scale,
    singleton,
)
from qlam.typecheck import TypeCheckError

# ---------------------------------------------------------------- reference


@dataclass(frozen=True)
class _Token:
    kind: str
    value: object
    span: SourceSpan


_NUM = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_SCALAR_RE = re.compile(rf"({_NUM})(?:(/sqrt2)|/({_NUM})|([+-]{_NUM})i|(i))?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
_KEYWORDS = frozenset({"let", "in", "match", "inl", "inr"})
_SINGLES = frozenset("\\.(),;+*={}|:#")


def reference_lex(text: str) -> list[_Token]:
    """The lexer as it was: one character at a time, a span for every token."""
    line_starts = [0] + [i + 1 for i, ch in enumerate(text) if ch == "\n"]

    def span(start: int, end: int) -> SourceSpan:
        ln = bisect_right(line_starts, start)
        return SourceSpan(start, end, ln, start - line_starts[ln - 1] + 1)

    toks: list[_Token] = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch in " \t\r\n":
            pos += 1
            continue
        if ch == "-":
            if text.startswith("->", pos):
                toks.append(_Token("->", "->", span(pos, pos + 2)))
                pos += 2
                continue
            if text.startswith("--", pos):
                nl = text.find("\n", pos)
                pos = n if nl < 0 else nl + 1
                continue
            toks.append(_Token("-", "-", span(pos, pos + 1)))
            pos += 1
            continue
        if ch.isdigit() or (ch == "." and pos + 1 < n and text[pos + 1].isdigit()):
            m = _SCALAR_RE.match(text, pos)
            if not m or m.start() != pos:
                raise ParseError(f"bad number at {text[pos:pos + 8]!r}", span(pos, pos + 1))
            num = float(m.group(1))
            if m.group(2):
                value: complex | float = num / math.sqrt(2)
            elif m.group(3):
                denom = float(m.group(3))
                if denom == 0:
                    raise ParseError("zero denominator in scalar", span(pos, m.end()))
                value = num / denom
            elif m.group(4):
                value = complex(num, float(m.group(4)))
            elif m.group(5):
                value = complex(0.0, num)
            else:
                value = num
            toks.append(_Token("scalar", value, span(pos, m.end())))
            pos = m.end()
            continue
        m = _IDENT_RE.match(text, pos)
        if m:
            name = m.group(0)
            kind = name if name in _KEYWORDS else "ident"
            toks.append(_Token(kind, name, span(pos, m.end())))
            pos = m.end()
            continue
        if ch in _SINGLES:
            toks.append(_Token(ch, ch, span(pos, pos + 1)))
            pos += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", span(pos, pos + 1))
    toks.append(_Token("eof", None, span(n, n)))
    return toks


def _lexed(lex, text: str):
    """The tokens as (kind, value, span), or the error's text and span.  The
    span of each of `surface._lex`'s tokens, which carry no offsets, comes
    from `surface._token_span`, the helper that errors use."""
    try:
        toks = lex(text)
    except ParseError as e:
        s = e.span
        return "error", str(e), (s.start, s.end, s.line, s.column)
    if lex is reference_lex:
        return [(t.kind, t.value, t.span) for t in toks]
    return [(kind, value, surface._token_span(text, i)) for i, (kind, value) in enumerate(toks)]


def _unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    raw = rng.normal(size=(1 << n, 1 << n)) + 1j * rng.normal(size=(1 << n, 1 << n))
    u, _ = np.linalg.qr(raw)
    return u


# ------------------------------------------------------------ pinned errors

_PINNED = json.loads((Path(__file__).parent / "parse_errors.json").read_text())["cases"]


@pytest.mark.parametrize("entry, text, want", _PINNED, ids=[repr(c[1]) for c in _PINNED])
def test_front_end_outcome_matches_the_recorded_one(entry, text, want):
    try:
        result = (parse_program if entry == "program" else parse_type)(text)
    except (ParseError, TypeCheckError) as e:
        s = e.span
        got = {"error": type(e).__name__, "message": str(e),
               "span": [s.start, s.end, s.line, s.column]}
    else:
        got = {"repr": repr(result)}
    assert got == want


# ------------------------------------------------------------- equivalence

_NOISE = [" ", "\t", "\n", "\r\n", "  \n\t", " -- note\n", "\n--\n", " --(x, y) -> *\n"]


def _program_text(seed: int, kind: int) -> str:
    g = ProgramGen(seed)
    if kind == 0:
        d = g.trace_program()[0]
    elif kind == 1:
        d = g.flow_program()[0]
    else:
        d = g.value_distribution()
    return pretty_print(d)


@st.composite
def _spaced_texts(draw):
    """A printed generator program, and the same text with blanks, newlines
    and comments put in between some of its tokens."""
    text = _program_text(draw(st.integers(0, 2**32)), draw(st.integers(0, 2)))
    starts = [t.span.start for t in reference_lex(text)]
    cuts = sorted(set(draw(st.lists(st.sampled_from(starts), max_size=12))))
    pieces, last = [], 0
    for cut in cuts:
        pieces += [text[last:cut], draw(st.sampled_from(_NOISE))]
        last = cut
    pieces.append(text[last:])
    return text, "".join(pieces)


@settings(max_examples=300, deadline=None)
@given(_spaced_texts())
def test_tokens_and_parse_match_the_reference_with_blanks_and_comments(texts):
    clean, spaced = texts
    assert _lexed(surface._lex, spaced) == _lexed(reference_lex, spaced)
    assert parse_program(spaced) == parse_program(clean)


@st.composite
def _damaged_texts(draw):
    """A printed generator program with arbitrary characters put in at
    arbitrary places, tokens included."""
    text = _program_text(draw(st.integers(0, 2**32)), draw(st.integers(0, 2)))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(text)))
        bit = draw(st.sampled_from(["-", ".", "/", "e", "i", "0", "²", "٣", "@",
                                    "é", "\n", "--", " ", "1/0", "'", "\\"]))
        text = text[:at] + bit + text[at:]
    return text


@settings(max_examples=300, deadline=None)
@given(_damaged_texts())
def test_tokens_or_error_match_the_reference_on_damaged_text(text):
    assert _lexed(surface._lex, text) == _lexed(reference_lex, text)


def test_tokens_match_the_reference_on_compiled_gates():
    rng = np.random.default_rng(11)
    lams = [compile_isometry(GateMatrix(_unitary(rng, n))) for n in (1, 2, 3)]
    lams.append(compile_gate(gate_library["CNOT"], [2, 0], 3))
    for lam in lams:
        text = pretty_print(singleton(lam))
        assert _lexed(surface._lex, text) == _lexed(reference_lex, text)
        assert parse_program(text) == singleton(lam)


# -------------------------------------------------------------- mechanisms


def test_well_formed_input_builds_no_source_span(monkeypatch):
    rng = np.random.default_rng(5)
    lam = compile_isometry(GateMatrix(_unitary(rng, 3)))
    text = "-- a compiled gate\n" + pretty_print(singleton(lam)) + "\n"

    def refuse(*args, **kwargs):
        raise AssertionError("a SourceSpan was built for well-formed input")

    monkeypatch.setattr(surface, "SourceSpan", refuse)
    assert parse_program(text) == singleton(lam)


def _count_post_inits(monkeypatch) -> list[int]:
    calls = [0]
    original = Distribution.__post_init__

    def counting(self):
        calls[0] += 1
        original(self)

    monkeypatch.setattr(Distribution, "__post_init__", counting)
    return calls


def test_one_hole_constructors_skip_revalidation(monkeypatch):
    star, ident = singleton(Void()), singleton(Var("f"))
    calls = _count_post_inits(monkeypatch)
    inl = mk_inl(star)
    app = mk_app(Var("g"), ident)
    assert calls[0] == 0
    assert inl.summands[0][0] == 1 and isinstance(inl.summands[0][0], complex)
    assert isinstance(app.summands[0][1], PureTerm)


def test_parsed_atoms_skip_revalidation(monkeypatch):
    calls = _count_post_inits(monkeypatch)
    d = parse_program("f (inl *) x")
    assert calls[0] == 0
    assert d == singleton(App(App(Var("f"), InlV(Void())), Var("x")))


def test_parsed_gates_skip_revalidation(monkeypatch):
    rng = np.random.default_rng(17)
    lam = compile_isometry(GateMatrix(_unitary(rng, 3)))
    want = singleton(lam)
    text = pretty_print(want)
    calls = _count_post_inits(monkeypatch)
    d = parse_program(text)
    assert calls[0] == 0
    assert repr(d) == repr(want)  # coefficients of the same type and sign


def test_well_formed_input_never_looks_up_a_span(monkeypatch):
    rng = np.random.default_rng(5)
    lam = compile_isometry(GateMatrix(_unitary(rng, 2)))
    text = "-- a compiled gate\n" + pretty_print(singleton(lam)) + "  -- the end"

    def refuse(*args, **kwargs):
        raise AssertionError("a token's span was looked up for well-formed input")

    monkeypatch.setattr(surface, "_token_span", refuse)
    monkeypatch.setattr(surface, "_lex_error", refuse)
    assert parse_program(text) == singleton(lam)
    assert parse_type("#((U+U) * B) -> #U") is parse_type("#(B*B)->#U")


def test_new_coefficients_are_still_checked():
    big = singleton(Void(), 1e200)
    with pytest.raises(ValueError, match="non-finite coefficient"):
        scale(1e200, big)
    with pytest.raises(ValueError, match="non-finite coefficient"):
        mk_pair(big, big)
    with pytest.raises(ValueError, match="non-finite coefficient"):
        parse_program("1e200 * (1e200 * *, *)")
