"""The parse loops against the recursive descent they replaced, and inputs
too deep for recursion.

`reference_parse` is the recursive-descent parser for terms that the one
loop in `surface.parse_program` replaced, with non-finite coefficients
reported as parse errors at their place: a scalar, a pair, or the construct
where equal summands merge.  `reference_parse_type` is the recursive descent
for types that `surface._read_type` replaced, and `reference_parse` reads a
lambda's annotation through it.  Both read the same `_lex` tokens.  The
equivalence tests hold the loops to them: the same `repr`, or the same error
type, text and span, on generator programs and types with blanks, comments
and extra parentheses, on damaged text and on compiled gates.

`parse_program` reads each register literal, and each parenthesized
superposition of them as the printer writes one, as one token.  The register
tests hold it to the same loop on the plain tokens: the same `repr` and the
same interned values, the same error, text and span, literals at and past
the depth bound, and each distinct literal of a text read once.  It also
reads each binder header the printer writes (`\\x:T.`, `let (x, y) =`,
`{ inl x ->`, `| inr y ->`) as one token, and the phrase tests hold that
read to the plain tokens in the same way: on generator programs and gates,
with other spacing or a comment inside a phrase, with a keyword as a binder
name, and with each distinct annotation text typed once per process by a
memo that keeps no value alive.
"""

from __future__ import annotations

import gc
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qlam.surface as surface
from generator import DEEP_TYPES, deep_types, flow_programs, trace_programs, types
from qlam.quantum import (
    GateMatrix,
    StateVector,
    basis_value,
    case_construct,
    compile_gate,
    compile_isometry,
    encode,
    gate_library,
)
from qlam.surface import ParseError, parse_program, parse_type, pretty_print
from qlam.syntax import (
    App,
    Distribution,
    InlV,
    Lam,
    LetPair,
    Match,
    PairV,
    PureTerm,
    Seq,
    Var,
    Void,
    _trusted,
    add,
    is_value_distribution,
    mk_app,
    mk_inl,
    mk_inr,
    mk_let,
    mk_match,
    mk_pair,
    mk_seq,
    scale,
    show_term,
    singleton,
)
from qlam.typecheck import ErrorKind, TypeCheckError, check_program
from qlam.types import _MAX_REGISTER, BOOL, UNIT, Arrow, Prod, Sharp, Sum, Type, show_type
from test_interning import _value_entries
from test_lexer import _damaged_texts, _spaced_texts, _unitary

# ---------------------------------------------------------------- reference

_ONE = complex(1)
_ATOM_STARTS = frozenset({"*", "ident", "(", "inl", "inr"})


class _ReferenceParser(surface._Parser):
    """Terms and types by recursive descent, about six Python frames per
    parenthesis."""

    def at(self, kind: str) -> bool:
        return self.tokens[self.pos][0] == kind

    # -- types --------------------------------------------------------------

    def type_expr(self) -> Type:
        left = self.sum_type()
        if self.at("->"):
            self.pos += 1
            return Arrow(left, self.type_expr())
        return left

    def sum_type(self) -> Type:
        return self.right_nested("+", self.prod_type, Sum)

    def prod_type(self) -> Type:
        return self.right_nested("*", self.sharp_type, Prod)

    def right_nested(self, sep: str, operand, node) -> Type:
        """operand (sep operand)*, grouped to the right."""
        parts = [operand()]
        while self.at(sep):
            self.pos += 1
            parts.append(operand())
        out = parts.pop()
        while parts:
            out = node(parts.pop(), out)
        return out

    def sharp_type(self) -> Type:
        if self.at("#"):
            self.pos += 1
            return Sharp(self.sharp_type())
        return self.atom_type()

    def atom_type(self) -> Type:
        at = self.pos
        tok = self.tokens[at]
        self.pos += 1
        if tok[0] == "(":
            t = self.type_expr()
            self.expect(")", "')'")
            return t
        if tok[0] == "ident":
            if tok[1] == "U":
                return UNIT
            if tok[1] == "B":
                return BOOL
            raise self.error(f"unknown type name {tok[1]!r}", at)
        raise self.error(f"expected a type, found {surface._found(tok)}", at)

    # -- terms --------------------------------------------------------------

    def dist(self) -> Distribution:
        parts = [self.summand()]
        while self.at("+"):
            self.pos += 1
            parts.append(self.summand())
        return parts[0] if len(parts) == 1 else add(*parts)

    def summand(self) -> Distribution:
        neg = self.at("-")
        if neg:
            self.pos += 1
        coeff: complex | float = 1
        at = self.pos
        scaled = self.at("scalar")
        if scaled:
            coeff = self.tokens[at][1]  # type: ignore[assignment]
            self.pos += 1
            self.expect("*", "'*' after a scalar coefficient")
        body = self.seq_term()
        if neg:
            coeff = -coeff
        if scaled or neg:
            try:
                return scale(coeff, body)
            except ValueError as e:
                raise self.error(str(e), at) from None
        return body

    def seq_term(self) -> Distribution:
        first = self.head_term()
        if self.at(";"):
            at = self.pos
            self.pos += 1
            rest = self.seq_term()
            try:
                return mk_seq(first, rest)
            except ValueError as e:
                raise self.error(str(e), at) from None
        return first

    def head_term(self) -> Distribution:
        at = self.pos
        kind = self.tokens[at][0]
        if kind == "\\":
            self.pos += 1
            name = self.expect("ident", "a parameter name")
            self.expect(":", "':' and a parameter type")
            ann = self.type_expr()
            self.expect(".", "'.' after the parameter type")
            return singleton(Lam(name, ann, self.dist()))
        if kind == "let":
            self.pos += 1
            self.expect("(", "'(' after let")
            x = self.expect("ident", "a name")
            self.expect(",", "',' between the pair names")
            y = self.expect("ident", "a name")
            self.expect(")", "')' after the pair names")
            self.expect("=", "'='")
            scrut = self.dist()
            self.expect("in", "'in'")
            body = self.dist()
            try:
                return mk_let(x, y, scrut, body)
            except ValueError as e:
                raise self.error(str(e), at) from None
        if kind == "match":
            self.pos += 1
            scrut = self.dist()
            self.expect("{", "'{' after the matched term")
            self.expect("inl", "'inl'")
            x1 = self.expect("ident", "a name")
            self.expect("->", "'->'")
            b1 = self.dist()
            self.expect("|", "'|' between the branches")
            self.expect("inr", "'inr'")
            x2 = self.expect("ident", "a name")
            self.expect("->", "'->'")
            b2 = self.dist()
            self.expect("}", "'}' after the branches")
            try:
                return mk_match(scrut, x1, b1, x2, b2)
            except ValueError as e:
                raise self.error(str(e), at) from None
        return self.app_term()

    def app_term(self) -> Distribution:
        cur = self.atom()
        tokens = self.tokens
        while tokens[self.pos][0] in _ATOM_STARTS:
            at = self.pos
            arg = self.atom()
            summands = cur.summands
            if len(summands) != 1 or summands[0][0] != 1:
                raise TypeCheckError(
                    ErrorKind.HEAD_NOT_PURE,
                    "the operator of an application must be a single unscaled term",
                    span=surface._token_span(self.text, at),
                )
            try:
                cur = mk_app(summands[0][1], arg)
            except ValueError as e:
                raise self.error(str(e), at) from None
        return cur

    def atom(self) -> Distribution:
        at = self.pos
        tok = self.tokens[at]
        kind = tok[0]
        if kind == "*":
            self.pos += 1
            return _trusted(((_ONE, Void()),))
        if kind == "ident":
            self.pos += 1
            return _trusted(((_ONE, Var(tok[1])),))
        if kind == "inl" or kind == "inr":
            self.pos += 1
            arg = self.atom()
            try:
                return mk_inl(arg) if kind == "inl" else mk_inr(arg)
            except ValueError as e:
                if is_value_distribution(arg):
                    raise self.error(str(e), at) from None
                raise self.error(f"{kind} applies to values only", at) from None
        if kind == "(":
            self.pos += 1
            first = self.dist()
            if self.at(","):
                self.pos += 1
                second = self.dist()
                self.expect(")", "')' after the pair")
                try:
                    return mk_pair(first, second)
                except ValueError as e:
                    if is_value_distribution(first) and is_value_distribution(second):
                        raise self.error(str(e), at) from None
                    raise self.error("pair components must be values", at) from None
            self.expect(")", "')'")
            return first
        raise self.error(f"expected a term, found {surface._found(tok)}", at)


def reference_parse(text: str) -> Distribution:
    p = _ReferenceParser(text)
    d = p.dist()
    p.expect("eof", "end of input")
    return d


def reference_parse_type(text: str) -> Type:
    p = _ReferenceParser(text)
    t = p.type_expr()
    p.expect("eof", "end of input")
    return t


def _parsed(parse, text: str):
    """The result's repr, or the error's type, text and span."""
    try:
        d = parse(text)
    except (ValueError, TypeCheckError) as e:  # a ParseError is a ValueError
        s = getattr(e, "span", None)
        return type(e).__name__, str(e), s and (s.start, s.end, s.line, s.column)
    return repr(d)


# ------------------------------------------------------------- equivalence


@settings(max_examples=300, deadline=None)
@given(_spaced_texts())
def test_parse_matches_the_reference_with_blanks_and_comments(texts):
    _, spaced = texts
    assert _parsed(parse_program, spaced) == _parsed(reference_parse, spaced)


@settings(max_examples=500, deadline=None)
@given(_damaged_texts())
def test_parse_or_error_matches_the_reference_on_damaged_text(text):
    assert _parsed(parse_program, text) == _parsed(reference_parse, text)


def test_parse_matches_the_reference_on_compiled_gates():
    rng = np.random.default_rng(13)
    lams = [compile_isometry(GateMatrix(_unitary(rng, n))) for n in (1, 2, 3)]
    lams.append(compile_gate(gate_library["CNOT"], [0, 2], 3))
    for lam in lams:
        text = pretty_print(singleton(lam))
        assert _parsed(parse_program, text) == _parsed(reference_parse, text)


_BLANKS = ["", "", " ", "\t", "\n", " -- note\n"]


def _written(t: Type, rng: random.Random) -> str:
    """t's text with extra parentheses and blanks, and with `B` for some of
    its `U+U`s."""

    def write(t: Type, level: int) -> str:
        # level: 0 an arrow's codomain, 1 a sum's right, 2 a product's right,
        # 3 an operand of `#`; an infix's left operand is one level up
        match t:
            case Sum(l, r) if l is r is UNIT and rng.random() < 0.5:
                s = "B"
            case Sharp(inner):
                s = f"#{rng.choice(_BLANKS)}{write(inner, 3)}"
            case Sum(l, r) | Prod(l, r) | Arrow(l, r):
                sep, at = {Sum: ("+", 1), Prod: ("*", 2), Arrow: ("->", 0)}[type(t)]
                blanks = rng.choice(_BLANKS), rng.choice(_BLANKS)
                s = f"{write(l, at + 1)}{blanks[0]}{sep}{blanks[1]}{write(r, at)}"
                if level > at:
                    s = f"({s})"
            case _:
                s = "U"
        if rng.random() < 0.2:
            s = f"({rng.choice(_BLANKS)}{s}{rng.choice(_BLANKS)})"
        return s

    return f"{rng.choice(_BLANKS)}{write(t, 0)}{rng.choice(_BLANKS)}"


_written_types = st.tuples(types(unknown=False), st.randoms(use_true_random=False)).map(
    lambda drawn: (drawn[0], _written(*drawn)))


@settings(max_examples=200, deadline=None)
@given(_written_types)
def test_parse_type_matches_the_reference_with_parentheses_and_blanks(written):
    t, text = written
    assert parse_type(text) is t
    assert _parsed(parse_type, text) == _parsed(reference_parse_type, text)


def _damaged(text: str, rng: random.Random) -> str:
    """text with tokens and characters put in or taken out at arbitrary
    places."""
    for _ in range(rng.randint(1, 3)):
        at = rng.randint(0, len(text))
        if text and rng.random() < 0.5:
            text = text[:at] + text[at + 1:]
        else:
            bit = rng.choice(["(", ")", "#", "+", "*", "->", "-", ">", "U", "B", "X", " ",
                              ".", ",", "@", "x:"])
            text = text[:at] + bit + text[at:]
    return text


_damaged_types = st.tuples(_written_types, st.randoms(use_true_random=False)).map(
    lambda drawn: _damaged(drawn[0][1], drawn[1]))


@settings(max_examples=200, deadline=None)
@given(_damaged_types)
def test_parse_type_or_error_matches_the_reference_on_damaged_text(text):
    assert _parsed(parse_type, text) == _parsed(reference_parse_type, text)
    program = f"\\x:{text}. x"
    assert _parsed(parse_program, program) == _parsed(reference_parse, program)


@pytest.mark.parametrize("text", [
    "(0.5 * f + 0.5 * g) x",
    "(2 * f) x",
    "f (0.5 * x + 0.5 * y) (inl *)",
    "1e200 * (1e200 * *)",
    "(1e200 * *, 1e200 * *)",
    "inl (1e308 * * + 1e308 * *)",
    "f (1e308 * * + 1e308 * *)",
    "(1e308 * * + 1e308 * *) ; *",
    "match (1e308 * inl * + 1e308 * inl *) { inl a -> a | inr b -> b }",
    "let (a, a) = (*, *) in x",
    "let (a, a) = (0.5 * * + 0.5 * *, *) in (y z",
    "match 0.5 * inl * + 0.5 * inr * { inl a -> a | inr b -> b } ; *",
    "match x { inl a -> a | inr b -> b } y",
    "- - x",
    "0.5 * 0.5 * x",
    "x ; 0.5 * y",
    "\\x:U. x ; y + z",
    "- \\x:U. x",
    "inl \\x:U. x",
    "(x, y, z)",
    "(f x, *)",
    "(0.5 * *, 2 * *) ; (inl *)",
])
def test_parse_matches_the_reference_on_chosen_text(text):
    assert _parsed(parse_program, text) == _parsed(reference_parse, text)


# ------------------------------------------------------------------- depth

_DEEP = 10_000


@pytest.mark.parametrize("prefix, middle, suffix, outer", [
    ("inl ", "*", "", InlV),
    ("(*, ", "*", ")", PairV),
    ("(", "*", ")", Void),
    ("* ; ", "*", "", Seq),
    ("\\x:U. ", "x", "", Lam),
    ("let (a, b) = (*, *) in ", "*", "", LetPair),
    ("match inl * { inl a -> ", "a", " | inr b -> b }", Match),
    ("(\\x:U. x) (", "*", ")", App),
    ("* ; (* + ", "*", ")", Seq),
    ("0.5 * (", "*", ")", Void),
], ids=["inl", "pair", "paren", "seq", "lambda", "let", "match", "app", "sum", "scaled"])
def test_deep_nests_parse_without_recursion(prefix, middle, suffix, outer):
    d = parse_program(prefix * _DEEP + middle + suffix * _DEEP)
    assert isinstance(d, Distribution)
    assert isinstance(d.summands[0][1], outer)


def test_a_deep_argument_keeps_head_not_pure_at_its_place():
    text = "(0.5 * f + 0.5 * g) " + "inl " * _DEEP + "*"
    with pytest.raises(TypeCheckError) as e:
        parse_program(text)
    assert e.value.kind is ErrorKind.HEAD_NOT_PURE
    assert e.value.span.start == text.index("inl")


def test_a_deep_error_has_its_span():
    text = "(" * _DEEP + "* }"
    with pytest.raises(ParseError) as e:
        parse_program(text)
    assert e.value.span.start == text.index("}")


@pytest.mark.parametrize("shape", sorted(DEEP_TYPES))
def test_deep_annotations_parse_without_recursion(shape):
    text = DEEP_TYPES[shape](_DEEP)
    (_, lam), = parse_program(f"\\x:{text}. x").summands
    assert lam.ann is parse_type(text)
    assert parse_type(show_type(lam.ann)) is lam.ann


@settings(max_examples=5, deadline=None)
@given(deep_types(3_000))
def test_deep_mixed_types_read_back_from_their_text(text):
    t = parse_type(text)
    assert parse_type(show_type(t)) is t


# --------------------------------------------------------- register tokens


def _plain_parse(text: str) -> Distribution:
    """parse_program's loop on the plain tokens, with no register token."""
    return surface._parse(surface._Parser(text))


def _kinds(text: str) -> list[str]:
    """The kinds of the tokens parse_program reads first."""
    return [kind for kind, _ in surface._lex(text, surface._REGISTER_TOKEN_RE)]


def _one_object_per_value(x: Distribution, y: Distribution) -> bool:
    """Whether x and y, of equal `repr`, hold every ground value at the same
    place as the same object."""
    stack = [(x, y)]
    while stack:
        a, b = stack.pop()
        if isinstance(a, Distribution):
            stack += zip([t for _, t in a.summands], [u for _, u in b.summands])
        elif a._term_key is not None:
            if a is not b:
                return False
        else:
            stack += [(getattr(a, f), getattr(b, f)) for f in a.__match_args__
                      if isinstance(getattr(a, f), (PureTerm, Distribution))]
    return True


def _same_as_plain(text: str) -> None:
    got, want = parse_program(text), _plain_parse(text)
    assert repr(got) == repr(want)
    assert _one_object_per_value(got, want)


_GATES = [
    compile_isometry(GateMatrix(_unitary(np.random.default_rng(31), 2))),
    compile_isometry(GateMatrix(_unitary(np.random.default_rng(37), 3))),
    compile_gate(gate_library["CNOT"], [2, 0], 3),
]


@settings(max_examples=200, deadline=None)
@given(_spaced_texts())
def test_register_tokens_parse_as_the_plain_tokens_with_blanks_and_comments(texts):
    for text in texts:
        _same_as_plain(text)


def test_register_tokens_parse_as_the_plain_tokens_on_compiled_gates():
    for n in range(1, 13):
        _same_as_plain(pretty_print(singleton(compile_gate(gate_library["X"], [n - 1], n))))
    for lam in _GATES:
        _same_as_plain(pretty_print(singleton(lam)))


def _literal(rng: random.Random, width: int, space: str = " ") -> str:
    """A register literal of width components, each a chain of up to three
    injections over `*`, its pairs nested to the right."""
    chains = ["inl " * rng.randint(0, 2) + rng.choice(["inl ", "inr ", ""]) + "*"
              for _ in range(width)]
    text = chains[-1]
    for c in reversed(chains[:-1]):
        text = f"({c},{space}{text})"
    return text


@pytest.mark.parametrize("width", [2, _MAX_REGISTER, _MAX_REGISTER + 1, 3 * _MAX_REGISTER])
def test_literals_at_and_past_the_depth_bound_parse_as_the_plain_tokens(width):
    rng = random.Random(width)
    for _ in range(20):
        text = _literal(rng, width)
        kinds = _kinds(text)
        if width <= _MAX_REGISTER:
            assert kinds == ["value", "eof"]
        else:
            # the outer pairs token by token, the innermost twelve components
            # as one token
            assert kinds[0] == "(" and kinds.count("value") == 1
        for program in (text, f"f {text} {text}", f"0.6 * {text} + 0.8 * (*, {text})",
                        f"({text}, {text})", f"inr {text}"):
            _same_as_plain(program)


def test_literals_with_other_spacing_are_read_token_by_token():
    rng = random.Random(3)
    for text in [_literal(rng, 4, "  "), _literal(rng, 4, ""), "(inl *, -- note\n inr *)",
                 "( inl *, *)", "(inl *, inr * )", "(inl\t*, *)"]:
        kinds = _kinds(text)
        assert "value" not in kinds
        assert kinds == [kind for kind, _ in surface._lex(text, surface._TOKEN_RE)]
        _same_as_plain(text)
    # the inner pair is printed as the printer writes it, the outer one not
    text = "((inl *, *), *)"
    assert _kinds(text) == ["(", "value", ",", "*", ")", "eof"]
    _same_as_plain(text)


_gate_texts = st.sampled_from([pretty_print(singleton(lam)) for lam in _GATES])
_damaged_gates = st.tuples(_gate_texts, st.randoms(use_true_random=False)).map(
    lambda drawn: _damaged(*drawn))


@settings(max_examples=300, deadline=None)
@given(st.one_of(_damaged_gates, _damaged_texts()))
def test_damaged_text_gives_the_plain_tokens_error(text):
    assert _parsed(parse_program, text) == _parsed(_plain_parse, text)


@pytest.mark.parametrize("text", [
    "\\x:(inl *, *). x",
    "0.5 (inl *, *)",
    "(0.5 * f + 0.5 * g) (inl *, inr *)",
    "(0.5 * f + 0.5 * g) x (inl *, inr *)",
    "f (inl *, (inr *, *)",
    "f (inl *, (inr *, *))) x",
    "((inl *, *)",
    "let (inl *, *) = z in z",
    "match z { inl (inl *, *) -> * | inr b -> b }",
    "(inl *, *) (inr *, *) @",
    "(inl *, inr *) ; (*, *) }",
    "1/0 * (inl *, *)",
])
def test_errors_near_register_literals_are_the_plain_tokens_errors(text):
    got = _parsed(parse_program, text)
    assert got == _parsed(_plain_parse, text)
    assert got[0] in ("ParseError", "TypeCheckError")


def test_each_distinct_register_literal_is_read_once(monkeypatch):
    sums, registers = [], []
    superposition, register = surface._superposition, surface._register

    def reading_sum(s, tokens):
        sums.append(s)
        return superposition(s, tokens)

    def reading_register(s):
        registers.append(s)
        return register(s)

    monkeypatch.setattr(surface, "_superposition", reading_sum)
    monkeypatch.setattr(surface, "_register", reading_register)
    # a dense gate of three qubits, as compiled, and with each of four
    # columns as the image of two basis values
    u = _unitary(np.random.default_rng(37), 3)
    columns = [encode(StateVector(u[:, k])) for k in range(8)]
    for lam, images in [(_GATES[1], columns), (None, columns[:4] * 2)]:
        text = pretty_print(singleton(lam or case_construct(3, images)))
        sums.clear()
        registers.clear()
        assert repr(parse_program(text)) == repr(_plain_parse(text))
        # each column's superposition and each of the eight basis values of
        # three qubits, read once
        assert sorted(sums) == sorted(set(sums))
        assert set(sums) == {f"({pretty_print(d)})" for d in images}
        assert sorted(registers) == sorted(set(registers))
        assert set(registers) == {show_term(basis_value(k, 3)) for k in range(8)}


def test_each_occurrence_of_a_superposition_literal_is_its_own_distribution():
    text = ("\\s:U+U. match s { inl a -> a ; (0.6 * (inl *, *) + 0.8 * (inr *, *))"
            " | inr b -> b ; (0.6 * (inl *, *) + 0.8 * (inr *, *)) }")
    assert _kinds(text).count("sum") == 2
    (_, lam), = parse_program(text).summands
    (_, match), = lam.body.summands
    (_, left), = match.left_body.summands
    (_, right), = match.right_body.summands
    assert left.tail == right.tail
    assert left.tail is not right.tail
    assert left.tail.summands[0][1] is right.tail.summands[0][1]


def test_a_superposition_literal_is_closed_when_it_is_read():
    # its free names are set, empty, as a ground value's are, so a walk for
    # free names stops at a gate's leaf instead of visiting its summands
    n = 3
    lam = compile_isometry(GateMatrix(_unitary(np.random.default_rng(41), n)))
    leaves, todo = [], [parse_program(pretty_print(singleton(lam)))]
    while todo:
        x = todo.pop()
        if x.__class__ is Distribution:
            if len(x.summands) > 1 and all(t._term_key is not None for _, t in x.summands):
                leaves.append(x)
            todo += [t for _, t in x.summands]
        elif x._term_key is None:
            todo += [y for y in map(x.__getattribute__, x.__match_args__)
                     if isinstance(y, (PureTerm, Distribution))]
    assert len(leaves) == 1 << n
    assert all(d._fv == frozenset() for d in leaves)


def test_superposition_tokens_parse_as_the_plain_tokens_on_compiled_gates():
    rng = np.random.default_rng(32)
    for n in range(1, 6):
        _same_as_plain(pretty_print(singleton(compile_isometry(GateMatrix(_unitary(rng, n))))))


def _checked(d: Distribution) -> tuple[str, str]:
    """The type check_program gives d, or its error's kind and text."""
    try:
        return "typed", str(check_program(d)[0])
    except TypeCheckError as e:
        return e.kind.name, str(e)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_superposition_tokens_parse_as_the_plain_tokens_on_planted_gates(n):
    rng = np.random.default_rng(n)
    u = _unitary(rng, n)
    columns = [encode(StateVector(u[:, k])) for k in range(1 << n)]
    far = 3 if n == 2 else 5
    planted = {"duplicate": [columns[0]] * 2 + columns[2:],
               "distant": columns[:far] + [columns[0]] + columns[far + 1:],
               "scaled": columns[:1] + [scale(2, columns[1])] + columns[2:]}
    for name, images in planted.items():
        text = pretty_print(singleton(case_construct(n, images)))
        _same_as_plain(text)
        assert _checked(parse_program(text)) == _checked(_plain_parse(text)), name


_SUM = "(0.6 * inl * + 0.8 * inr *)"


@pytest.mark.parametrize("text", [
    "(-0.6 * inl * + 0.8 * inr *)",
    "(0.6-0.1i * (inl *, *) + -0.3+0.2i * (inr *, *))",
    "(2i * inl * + 0.5 * inr *)",
    "(1/sqrt2 * (inl *, inr *) + 1/sqrt2 * (inr *, inl *))",
    "(3/4 * inl * + -1e-3 * inr * + .5 * *)",
    "(inl * + 0.5 * inr *)",
    "((inl *, *) + (inr *, *))",
    "(0.5 * inl * + 0.5 * inl * + inl * + inl *)",
    "(inl inr * + inr inl inl * + *)",
    "(0.5 * " + "(*, " * 12 + "*" + ")" * 12 + " + 0.5 * inl *)",
    _SUM + " *",
    "(\\x:#(U+U). x) " + _SUM,
    "(\\x:#(U+U). x) " + _SUM + " " + _SUM,
    "inl " + _SUM,
    "inr inl " + _SUM,
    "(" + _SUM + ", inl *)",
    "(*, " + _SUM + ")",
    "* ; " + _SUM,
    "0.5 * " + _SUM + " + 0.5 * " + _SUM,
    "- " + _SUM,
    "(1e308 * inl * + 1e308 * inl *)",
    "inl (1e308 * inl * + 1e308 * inl *)",
    "\\x:" + _SUM + ". x",
    "let " + _SUM + " = z in z",
])
def test_superposition_literals_parse_as_the_plain_tokens(text):
    kinds = _kinds(text)
    wide = "(*, " * 12 in text
    assert ("sum" in kinds) != wide
    assert _parsed(parse_program, text) == _parsed(_plain_parse, text)
    try:
        _plain_parse(text)
    except (ParseError, TypeCheckError):
        return
    _same_as_plain(text)


@pytest.mark.parametrize("text", [
    "(0.6 * inl *\n + 0.8 * inr *)",
    "(0.6 * inl * + -- note\n0.8 * inr *)",
    "(0.6 * inl * +  0.8 * inr *)",
    "(0.6 *inl * + 0.8 * inr *)",
    "(- 0.6 * inl * + 0.8 * inr *)",
    "( 0.6 * inl * + 0.8 * inr *)",
    "(0.6 * inl *)",
    "(0.6 * inl * + 0.8 * x)",
    "(0.6 * inl * + 0.8 * inr (inl *, *))",
])
def test_other_sums_are_read_token_by_token(text):
    assert "sum" not in _kinds(text)
    assert _parsed(parse_program, text) == _parsed(_plain_parse, text)


@pytest.mark.parametrize("scalar, message", [
    ("1/0", "zero denominator in scalar"),
    ("1e400", "non-finite coefficient (inf+nanj)"),
    ("-1e400", "non-finite coefficient (-inf+nanj)"),
    ("1e400i", "non-finite coefficient (nan+infj)"),
    ("0.5/0.0", "zero denominator in scalar"),
])
def test_a_bad_coefficient_in_a_superposition_literal_gives_the_plain_tokens_error(
        scalar, message):
    for text in [f"(\\x:U. x ; ({scalar} * inl * + 0.5 * inr *)) *",
                 f"(0.5 * (inl *, *) + {scalar} * (inr *, *))",
                 f"match s {{ inl a -> ({scalar} * inl * + *)\n | inr b -> b }}"]:
        got = _parsed(parse_program, text)
        assert got == _parsed(_plain_parse, text)
        assert got[0] == "ParseError" and got[1].endswith(message)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([pretty_print(singleton(lam)) for lam in _GATES[:2]]),
       st.randoms(use_true_random=False),
       st.sampled_from(["1/0", "1e400", "-1e400", "0/0", "1e-400", "1e308"]))
def test_a_bad_coefficient_in_a_printed_gate_gives_the_plain_tokens_error(text, rng, bad):
    scalars = list(re.finditer(rf"(?<=[( ])-?{surface._SCALAR_TEXT}(?= \* )", text))
    m = rng.choice(scalars)
    text = text[:m.start()] + bad + text[m.end():]
    assert _parsed(parse_program, text) == _parsed(_plain_parse, text)


# ----------------------------------------------------------- binder phrases

_PHRASE_KINDS = frozenset({"\\x:T.", "let (x, y) =", "{ inl x ->", "| inr y ->"})


def _plain_kinds(text: str) -> list[str]:
    return [kind for kind, _ in surface._lex(text, surface._TOKEN_RE)]


def test_phrase_tokens_parse_as_the_plain_tokens_on_generator_programs():
    texts = [pretty_print(d) for d, _ in trace_programs(11, 300) + flow_programs(12, 300)]
    texts += [pretty_print(singleton(lam)) for lam in _GATES]
    phrases = 0
    for text in texts:
        _same_as_plain(text)
        phrases += sum(kind in _PHRASE_KINDS for kind in _kinds(text))
    # every binder the printer writes is one token
    assert phrases == sum(len(re.findall(r"\\|let \(|\{ inl |\| inr ", text)) for text in texts)


@pytest.mark.parametrize("text", [
    "(\\x:U. x) *",
    "(\\f:U -> U. f) (\\x:U. x)",
    "(\\f:(U -> U) -> U+U. f) (\\g:U -> U. g *)",
    "(\\x':#((U+U)*(U+U)). x') (inl *, inr *)",
    "let (a, b) = (*, inl *) in (b, a)",
    "let (lets, x_1) = (*, *) in x_1 ; lets",
    "match inl * { inl inl' -> inl' | inr in_ -> in_ }",
    "\\s:U+U. match s { inl a -> a ; (\\y:U. y) * | inr b -> b }",
])
def test_binder_phrases_are_one_token_each(text):
    kinds = _kinds(text)
    plain = _plain_kinds(text)
    assert len(kinds) < len(plain)
    assert _PHRASE_KINDS & set(kinds)
    _same_as_plain(text)


@pytest.mark.parametrize("text", [
    "(\\x: U. x) *",
    "(\\x :U. x) *",
    "(\\x:U.\nx) *",
    "(\\x:U.\tx) *",
    "(\\x:U -- note\n. x) *",
    "(\\x:U+ U. x) *",
    "(\\f:U->U. f) g",
    "(\\x:B. x) inl *",
    "let (a,b) = z in a ; b",
    "let ( a, b) = z in a ; b",
    "let (a, b)= z in a ; b",
    "let  (a, b) = z in a ; b",
    "let (a, -- note\n b) = z in a ; b",
    "match z {inl a -> a |inr b -> b}",
    "match z { inl a-> a | inr b-> b }",
    "match z { inl  a -> a |  inr b\n-> b }",
    "match z { inl -- note\n a -> a | inr -- note\n b -> b }",
])
def test_phrases_with_other_spacing_are_read_token_by_token(text):
    assert _kinds(text) == _plain_kinds(text)
    _same_as_plain(text)


# A name in a phrase that is a keyword: the plain tokens read it as the
# keyword, so these texts are syntax errors, and a phrase must not take the
# keyword for a name.
_KEYWORD_BINDERS = [
    ("let (let, x) = (*, *) in x", "line 1, column 6: expected a name, found 'let'"),
    ("let (x, in) = (*, *) in x", "line 1, column 9: expected a name, found 'in'"),
    ("(\\in:U. *) *", "line 1, column 3: expected a parameter name, found 'in'"),
    ("(\\inr:U. *) *", "line 1, column 3: expected a parameter name, found 'inr'"),
    ("match inl * { inl match -> * | inr b -> b }",
     "line 1, column 19: expected a name, found 'match'"),
    ("match inl * { inl a -> a | inr inl -> inl }",
     "line 1, column 32: expected a name, found 'inl'"),
]


@pytest.mark.parametrize("text, message", _KEYWORD_BINDERS)
def test_a_keyword_as_a_binder_name_is_the_plain_tokens_error(text, message):
    for kind, value in surface._lex(text, surface._REGISTER_TOKEN_RE):
        if kind in _PHRASE_KINDS:
            names = value[:1] if kind == "\\x:T." else value if kind == "let (x, y) =" else (value,)
            assert not surface._SHARED.keys() & set(names)
    got = _parsed(parse_program, text)
    assert got == _parsed(_plain_parse, text)
    assert got[:2] == ("ParseError", message)


@pytest.mark.parametrize("text", [
    "(\\x:U+. x) *",
    "(\\x:(U+U. x) *",
    "(\\x:U)+U. x) *",
    "(\\x:UU. x) *",
    "(\\x:U -> . x) *",
    "(\\x:#. x) *",
    "let (a, a) = (*, *) in a",
    "match * { inl a -> a | inr b -> b } x",
    "match inl * { inl a -> a | inr b -> b",
    "\\x:U. let (a, b) = x in a { inl c -> c",
    "(\\x:U. x) | inr b -> b",
])
def test_errors_in_and_after_phrases_are_the_plain_tokens_errors(text):
    got = _parsed(parse_program, text)
    assert got == _parsed(_plain_parse, text)
    assert got[0] in ("ParseError", "TypeCheckError")


def test_each_distinct_annotation_text_is_read_once(monkeypatch):
    read = []
    real = surface.parse_type

    def reading(text):
        read.append(text)
        return real(text)

    monkeypatch.setattr(surface, "parse_type", reading)
    surface._annotation.cache_clear()
    texts = [pretty_print(d) for d, _ in trace_programs(5, 200)]
    annotations = {m[1] for text in texts for m in re.finditer(r"\\[\w']+:(.+?)\. ", text)}
    for text in texts:
        assert repr(parse_program(text)) == repr(_plain_parse(text))
    assert sorted(read) == sorted(annotations)
    # a second pass, and a text whose two lambdas share an annotation, read
    # none again
    read.clear()
    for text in texts:
        parse_program(text)
    (_, app), = parse_program("(\\x:U+U. x) ((\\y:U+U. y) inl *)").summands
    assert app.fun.ann is app.arg.fun.ann
    assert read == []


def test_the_annotation_memo_keeps_no_value_alive():
    texts = [pretty_print(d) for d, _ in flow_programs(21, 100)]
    texts += [pretty_print(singleton(lam)) for lam in _GATES]
    gc.collect()
    before = _value_entries()
    programs = [parse_program(text) for text in texts]
    assert _value_entries() > before
    del programs
    gc.collect()
    assert _value_entries() <= before
    assert surface._annotation.cache_info().maxsize == surface._MEMO
