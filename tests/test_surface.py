"""Lexer, parser, and printer round trips for the concrete syntax."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generator import ProgramGen

from qlam.surface import ParseError, parse_program, parse_type, pretty_print
from qlam.syntax import (
    App,
    Distribution,
    InlV,
    InrV,
    Lam,
    LetPair,
    Match,
    PairV,
    Seq,
    Var,
    Void,
    add,
    canonicalize,
    dist_alpha_eq,
    scale,
    show_dist,
    singleton,
)
from qlam.typecheck import ErrorKind, TypeCheckError
from qlam.types import BOOL, UNIT, Arrow, Prod, Sharp, Sum, qubits

STAR = Void()
INL = InlV(STAR)
INR = InrV(STAR)
_R2 = 1 / math.sqrt(2)


def _coeffs(d: Distribution):
    return [a for a, _ in d.summands]


# ------------------------------------------------------------------ parsing


def test_parse_identity_function():
    d = parse_program(r"\x:(U+U). x")
    (a, t), = d.summands
    assert a == 1
    assert t == Lam("x", BOOL, singleton(Var("x")))


def test_parse_plus_state():
    d = parse_program("1/sqrt2 * inl * + 1/sqrt2 * inr *")
    assert d.summands == ((_R2, INL), (_R2, INR))


def test_parse_application_is_left_associative():
    d = parse_program("f a b")
    (_, t), = d.summands
    assert t == App(App(Var("f"), Var("a")), Var("b"))


def test_parse_seq_binds_looser_than_application():
    d = parse_program("f x ; g y")
    (_, t), = d.summands
    assert isinstance(t, Seq)
    assert t.head == App(Var("f"), Var("x"))


def test_parse_lambda_body_extends_right():
    d = parse_program(r"\x:U. x ; *")
    (_, t), = d.summands
    assert isinstance(t, Lam)
    (_, inner), = t.body.summands
    assert isinstance(inner, Seq)


def test_parse_match_shape():
    d = parse_program("match z { inl x -> inr x | inr y -> inl y }")
    (_, t), = d.summands
    assert t == Match(
        Var("z"),
        "x", singleton(InrV(Var("x"))),
        "y", singleton(InlV(Var("y"))),
    )


def test_parse_let_pair():
    d = parse_program("let (x, y) = p in (y, x)")
    (_, t), = d.summands
    assert isinstance(t, LetPair)
    assert (t.left, t.right) == ("x", "y")
    assert t.scrutinee == Var("p")
    assert t.body == singleton(PairV(Var("y"), Var("x")))


def test_parse_let_pair_rejects_equal_names():
    with pytest.raises(ParseError):
        parse_program("let (p, p) = z in *")


def test_parse_pair_and_injections():
    d = parse_program("(inl *, inr (inl *))")
    (_, t), = d.summands
    assert t == PairV(INL, InrV(INL))


def test_parse_primed_identifiers():
    d = parse_program(r"\x':U. x'")
    (_, t), = d.summands
    assert isinstance(t, Lam) and t.name == "x'"


def test_parse_negative_summand():
    d = parse_program("inl * + - inr *")
    assert d.summands == ((1, INL), (-1, INR))
    d2 = parse_program("-0.5 * x")
    assert _coeffs(d2) == [-0.5]


def test_parse_scalar_literal_forms():
    cases = {
        "0.5": 0.5,
        ".5": 0.5,
        "3/4": 0.75,
        "1/sqrt2": _R2,
        "2i": 2j,
        "0.5-0.5i": 0.5 - 0.5j,
        "1e-3": 1e-3,
        "1.5e2": 150.0,
    }
    for text, want in cases.items():
        d = parse_program(f"{text} * *")
        assert _coeffs(d) == [want], text


def test_parse_zero_coefficient_is_kept():
    d = parse_program("inl * + 0 * inr *")
    assert d.summands == ((1, INL), (0, INR))


def test_parse_spaced_plus_is_summand_plus():
    # no space means one complex scalar, spaces mean two summands
    one = parse_program("1+2i * *")
    assert one.summands == ((1 + 2j, STAR),)
    two = parse_program("1 * * + 2i * *")
    assert two.summands == ((1, STAR), (2j, STAR))
    assert canonicalize(two) == canonicalize(one)


def test_parse_comments():
    d = parse_program("-- leading note\ninl *  -- trailing note\n")
    assert d == singleton(INL)


def test_parse_errors_carry_spans():
    with pytest.raises(ParseError) as e:
        parse_program("inl * +\n@ oops")
    assert e.value.span is not None
    assert e.value.span.line == 2
    assert e.value.span.column == 1


def test_parse_error_cases():
    for bad in (
        "",
        "(x",
        "2 x",                       # scalar without '*'
        "inl (f x)",                 # injection of a non-value
        "(f x, *)",                  # pair of a non-value
        "match z { inl x -> x }",    # missing second branch
        "x y )",
        "1/0 * x",
    ):
        with pytest.raises(ParseError):
            parse_program(bad)


def test_sum_operator_rejected_as_operator():
    with pytest.raises(TypeCheckError) as e:
        parse_program("(0.5 * f + 0.5 * g) x")
    assert e.value.kind is ErrorKind.HEAD_NOT_PURE
    assert e.value.span is not None
    with pytest.raises(TypeCheckError):
        parse_program("(2 * f) x")


def _non_finite_at(text: str) -> tuple[str, int, int]:
    """The message and span of the parse error on text."""
    with pytest.raises(ParseError) as e:
        parse_program(text)
    return e.value.message, e.value.span.start, e.value.span.end


def test_overflowing_product_of_pair_coefficients_is_a_parse_error_at_the_pair():
    # the components are values: it is their coefficients' product that overflows
    assert _non_finite_at("(1e200 * *, 1e200 * *)") == ("non-finite coefficient (inf+0j)", 0, 1)


def test_overflowing_scaled_summand_is_a_parse_error_at_its_scalar():
    assert _non_finite_at("1e200 * (1e200 * *)") == ("non-finite coefficient (inf+0j)", 0, 5)


def test_infinite_scalar_is_a_parse_error_at_its_place():
    assert _non_finite_at("1e400 * *") == ("non-finite coefficient (inf+nanj)", 0, 5)


@pytest.mark.parametrize("text, start, end", [
    # at the argument's first token
    ("f (1e308 * * + 1e308 * *)", 2, 3),
    # at the injection, which applies to values only when they are not values
    ("inl (1e308 * * + 1e308 * *)", 0, 3),
    ("inr (1e308 * * + 1e308 * *)", 0, 3),
    # at the `;`
    ("(1e308 * * + 1e308 * *) ; *", 24, 25),
    # at the `match` and the `let`
    ("match (1e308 * inl * + 1e308 * inl *) { inl x -> x | inr y -> y }", 0, 5),
    ("let (a, b) = (1e308 * (*, *) + 1e308 * (*, *)) in a", 0, 3),
])
def test_summands_that_merge_to_an_overflow_are_a_parse_error_at_the_construct(
    text, start, end
):
    # equal summands merge where a construct takes a distribution, and their
    # coefficients' sum overflows there
    assert _non_finite_at(text) == ("non-finite coefficient (inf+0j)", start, end)


def test_an_injection_of_a_non_value_is_still_reported_as_such():
    with pytest.raises(ParseError, match="inl applies to values only"):
        parse_program("inl (0.6 * f x + 0.8 * *)")


# -------------------------------------------------------------------- types


def test_parse_type_atoms_and_sugar():
    assert parse_type("U") == UNIT
    assert parse_type("B") == BOOL
    assert parse_type("U+U") == BOOL
    assert parse_type("#B") == Sharp(BOOL)
    assert parse_type("#(U+U)") == Sharp(BOOL)
    assert parse_type("#B -> #B") == Arrow(Sharp(BOOL), Sharp(BOOL))


def test_parse_type_precedence():
    assert parse_type("U -> U -> U") == Arrow(UNIT, Arrow(UNIT, UNIT))
    assert parse_type("(U -> U) -> U") == Arrow(Arrow(UNIT, UNIT), UNIT)
    assert parse_type("U*U+U") == Sum(Prod(UNIT, UNIT), UNIT)
    assert parse_type("U+U*U") == Sum(UNIT, Prod(UNIT, UNIT))
    assert parse_type("#U*U") == Prod(Sharp(UNIT), UNIT)
    assert parse_type("U+U+U") == Sum(UNIT, Sum(UNIT, UNIT))
    assert parse_type("B*B*B") == qubits(3).inner


def test_parse_type_errors():
    for bad in ("", "V", "U +", "#", "(U"):
        with pytest.raises(ParseError):
            parse_type(bad)


def test_printer_expands_bool_sugar():
    s = pretty_print(singleton(Lam("q", Sharp(BOOL), singleton(Var("q")))))
    assert s == r"(\q:#(U+U). q)"
    assert "B" not in s


# ------------------------------------------------------------------ printing


def test_pretty_print_canonicalizes():
    d = add(singleton(INR), singleton(INL))
    assert pretty_print(d) == "inl * + inr *"
    merged = add(scale(0.5, singleton(Var("x"))), scale(0.5, singleton(Var("x"))))
    assert pretty_print(merged) == "x"


def test_pretty_print_parenthesizes_operators():
    d = parse_program(r"(\x:U. x) *")
    assert pretty_print(d) == r"(\x:U. x) *"
    d2 = parse_program("(x ; y) z")
    assert pretty_print(d2) == "(x ; y) z"


def test_pretty_print_parenthesizes_applied_match():
    m = "match inl * { inl a -> inl a | inr b -> inr b }"
    arg = parse_program(rf"(\x:B. x) ({m})")
    assert pretty_print(arg) == rf"(\x:U+U. x) ({m})"
    op = parse_program(f"({m}) y")
    assert pretty_print(op) == f"({m}) y"
    for d in (arg, op):
        assert parse_program(pretty_print(d)) == canonicalize(d)
    # elsewhere a match prints bare, as before
    assert pretty_print(parse_program(f"{m} ; x")) == f"{m} ; x"


_CORPUS = [
    r"\x:(U+U). x",
    "1/sqrt2 * inl * + 1/sqrt2 * inr *",
    r"\q:#B. match q { inl x -> inr x | inr y -> inl y }",
    "let (x, y) = p in (y, x)",
    r"(\x:U. x ; x) *",
    r"\f:(U -> U). \x:U. f (f x)",
    "0.5+0.5i * inl * + 0.5-0.5i * inr *",
    "inl * + 0 * inr *",
    "- inl (inl *) + 2i * inr *",
    r"\z:#(B*B). let (x, y) = z in (y, x)",
    "match w { inl x -> x ; inl * | inr y -> y ; inr * }",
    r"(\x:#U. x) (1/sqrt2 * * + 1/sqrt2 * *)",
]


@pytest.mark.parametrize("source", _CORPUS)
def test_round_trip_is_exact(source):
    d = parse_program(source)
    assert parse_program(pretty_print(d)) == canonicalize(d)


@given(
    st.complex_numbers(allow_nan=False, allow_infinity=False),
    st.complex_numbers(allow_nan=False, allow_infinity=False),
)
def test_scalar_round_trip(a, b):
    d = Distribution(((a, INL), (b, INR)))
    again = parse_program(show_dist(d))
    assert dict((t, c) for c, t in again.summands) == {INL: a, INR: b}


# Generated programs, and generated programs put in the operator and argument
# positions of applications through a match, print and parse back.


def _generated(g: ProgramGen, kind: int) -> Distribution:
    if kind == 0:
        return g.trace_program()[0]
    if kind == 1:
        return g.flow_program()[0]
    return g.value_distribution()


@st.composite
def _printable_programs(draw):
    g = ProgramGen(draw(st.integers(0, 2**32)))
    d = _generated(g, draw(st.integers(0, 2)))
    if draw(st.booleans()):
        return d
    scrut = draw(st.sampled_from([Var("s"), INL, INR]))
    left, right = (_generated(g, draw(st.integers(0, 2))) for _ in range(2))
    m = Match(scrut, g.fresh("u"), left, g.fresh("w"), right)
    other = draw(st.sampled_from([Var("f"), STAR, Lam("x", BOOL, d), m]))
    apps = [App(m, other), App(other, m), App(App(m, other), m)]
    picked = draw(st.lists(st.sampled_from(apps), min_size=1, max_size=3))
    summands = [(draw(st.sampled_from([1, -1, 0.5j, _R2])), t) for t in picked]
    applied = Distribution(tuple(summands))
    return add(applied, d) if draw(st.booleans()) else applied


@settings(max_examples=300, deadline=None)
@given(_printable_programs())
def test_generated_programs_round_trip(d):
    assert dist_alpha_eq(parse_program(pretty_print(d)), canonicalize(d))
