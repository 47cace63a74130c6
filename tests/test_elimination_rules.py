"""One typing rule per elimination.

The checker types an application, a sequencing, a `let` and a `match` by one
rule each, whether the elimination is a single term `f a` or is distributed
over a superposition `Σ αᵢ f aᵢ`.  `derivations.json` holds the derivation
(every node's rule, type and subject, in preorder) or the error text of each
case below, recorded from the checker that typed the two shapes by separate
code.  The depth floors pin how deep a text program may nest before the
checker runs out of stack; values 10,000 deep and a 10,000-term sum
annotation check, and print, with no stack at all.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from hypothesis import given, settings

from generator import DEEP_VALUES, ProgramGen, deep_values, flow_programs, trace_programs
from qlam.quantum import GateMatrix, StateVector, case_construct, compile_gate, encode, gate_library
from qlam.rewrite import normalize
from qlam.surface import parse_program, parse_type, pretty_print
from qlam.syntax import (
    Distribution,
    InlV,
    InrV,
    Lam,
    Match,
    PairV,
    Seq,
    Var,
    Void,
    add,
    mk_app,
    mk_let,
    mk_match,
    mk_seq,
    scale,
    singleton,
)
from qlam.typecheck import Derivation, TypeCheckError, check_program
from qlam.types import BOOL, Arrow, Prod, Sharp, show_type

_R2 = 1 / math.sqrt(2)
_RECORDED = Path(__file__).parent / "derivations.json"


def _preorder(der: Derivation) -> list[list[str]]:
    out = []
    stack = [der]
    while stack:
        d = stack.pop()
        out.append([d.rule, str(d.type), d.subject])
        stack.extend(reversed(d.children))
    return out


def _outcome(d: Distribution) -> dict:
    try:
        _, der = check_program(d)
    except TypeCheckError as e:
        return {"error": str(e)}
    return {"derivation": _preorder(der)}


def _kron_unitary(n: int) -> np.ndarray:
    """A fixed n-qubit unitary built by elementwise products only, so its
    entries are the same on every machine."""
    rot = np.array([[0.6, -0.8j], [-0.8j, 0.6]])
    had = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    u = np.array([[1.0 + 0j]])
    for i in range(n):
        u = np.kron(u, (rot, had)[i % 2])
    return u


def _gates() -> list[tuple[str, Distribution]]:
    out = []
    for n in (1, 2, 3):
        for name in ("X", "H", "S", "CNOT", "SWAP") if n < 3 else ("CNOT",):
            gate = gate_library[name]
            g = gate.qubit_count
            if g > n:
                continue
            targets = tuple(range(n - g, n))[::-1]
            lam = compile_gate(gate, targets, n)
            out.append((f"gate {name} {targets} n={n}", singleton(lam)))
        u = _kron_unitary(n)
        lam = compile_gate(GateMatrix(u), tuple(range(n)), n)
        out.append((f"kron n={n}", singleton(lam)))
        out.append((f"kron n={n} re-parsed", parse_program(pretty_print(singleton(lam)))))
        images = [encode(StateVector(u[:, k])) for k in range(1 << n)]
        images[1] = images[0]
        out.append((f"kron n={n} duplicate", singleton(case_construct(n, images))))
    return out


def _distributed() -> list[tuple[str, Distribution]]:
    """Eliminations spread over superpositions, well typed or not."""
    out = []
    g = ProgramGen(8)
    sb, pair = Sharp(BOOL), Prod(BOOL, BOOL)
    ident = Lam("x", sb, singleton(Var("x")))
    to_unit = Lam("x", sb, singleton(Match(
        Var("x"), "u", singleton(Var("u")), "w", singleton(Seq(Var("w"), singleton(Void()))))))
    for i in range(6):
        bits = g.superposition(BOOL)
        pairs = g.superposition(pair)
        img0 = Distribution(((_R2, InlV(Void())), (_R2, InrV(Void()))))
        img1 = Distribution(((_R2, InlV(Void())), (-_R2, InrV(Void()))))
        out += [
            (f"{i} app", mk_app(ident, bits)),
            (f"{i} app scaled", scale(1j, mk_app(ident, bits))),
            (f"{i} app at the wrong domain", mk_app(ident, pairs)),
            (f"{i} app of a non-function", mk_app(Void(), bits)),
            (f"{i} seq", mk_seq(mk_app(to_unit, bits), img0)),
            (f"{i} seq after a phase", mk_seq(singleton(Void(), g._phase()), img0)),
            (f"{i} seq over values", mk_seq(bits, img0)),
            (f"{i} let", mk_let("a", "b", pairs, singleton(PairV(Var("b"), Var("a"))))),
            (f"{i} let over bits", mk_let("a", "b", bits, singleton(Var("a")))),
            (f"{i} match", mk_match(bits, "u", mk_seq(singleton(Var("u")), img0),
                                    "w", mk_seq(singleton(Var("w")), img1))),
            (f"{i} match not orthogonal", mk_match(bits, "u", mk_seq(singleton(Var("u")), img0),
                                                   "w", mk_seq(singleton(Var("w")), img0))),
            (f"{i} match over pairs", mk_match(pairs, "u", singleton(Var("u")),
                                               "w", singleton(Var("w")))),
            (f"{i} nested", mk_app(ident, mk_match(
                bits, "u", mk_seq(singleton(Var("u")), img0),
                "w", mk_seq(singleton(Var("w")), img1)))),
        ]
    return out


# single eliminations that fail at each raise site of their rule
_TEXTS = (
    "(\\x:U. x) (inl *)",
    "* *",
    "(\\x:#(U+U). x) (0.6 * inl * + 0.8 * inr *)",
    "inl * ; *",
    "(0.6 * inl * + 0.8 * inr *) ; *",
    "let (a, b) = * in a",
    "let (a, b) = (*, inl *) in b ; a",
    "match * { inl a -> a | inr b -> b }",
    "match inl * { inl a -> a | inr b -> inl b }",
    "match inl * { inl a -> a ; inl * | inr b -> b ; inr * }",
    "match inl * { inl a -> inl a | inr b -> (b, b) }",
)


def _cases() -> list[tuple[str, Distribution]]:
    out = [(src, parse_program(src)) for src in _TEXTS]
    out += [(f"trace {i}", d) for i, (d, _) in enumerate(trace_programs(31, 100))]
    out += [(f"flow {i}", d) for i, (d, _) in enumerate(flow_programs(32, 100))]
    return out + _gates() + _distributed()


def test_derivations_match_the_recorded_ones():
    recorded = json.loads(_RECORDED.read_text())
    cases = _cases()
    assert [name for name, _ in cases] == [name for name, _ in recorded]
    for (name, d), (_, want) in zip(cases, recorded):
        assert _outcome(d) == want, name


def test_recorded_cases_cover_every_elimination_rule():
    recorded = json.loads(_RECORDED.read_text())
    rules = {node[0] for _, want in recorded for node in want.get("derivation", ())}
    for rule in ("apply", "seq-pure", "seq-super", "let-pure", "let-super",
                 "match-pure", "match-super", "superposition"):
        assert rule in rules
    assert sum("error" in want for _, want in recorded) >= 10


# ------------------------------------------------------------- depth floors


def _seq_chain(depth: int) -> str:
    return " ; ".join(["*"] * (depth + 1))


def _let_chain(depth: int) -> str:
    return "let (a, b) = (*, *) in a ; b ; " * depth + "*"


def _match_chain(depth: int) -> str:
    return "match inl * { inl a -> a ; " * depth + "inl *" + " | inr b -> inr b }" * depth


def _app_chain(depth: int) -> str:
    return "(\\x:U. x) (" * depth + "*" + ")" * depth


def _inl_chain(depth: int) -> str:
    return "inl " * depth + "*"


def _pair_chain(depth: int) -> str:
    return "(*, " * depth + "*" + ")" * depth


@pytest.mark.parametrize("build, depth", [
    (_seq_chain, 400),
    (_let_chain, 110),
    (_match_chain, 150),
    (_app_chain, 400),
    (_inl_chain, 900),
    (_pair_chain, 900),
])
def test_deep_text_programs_check(build, depth):
    ty, _ = check_program(parse_program(build(depth)))
    assert ty is not None


# the checker, the types it builds and their printing need no recursion on
# these
_DEEP = 10_000


@pytest.mark.parametrize("shape", sorted(DEEP_VALUES))
def test_a_deep_value_checks_and_prints(shape):
    text = DEEP_VALUES[shape](_DEEP)
    d = parse_program(text)
    ty, _ = check_program(d)
    assert parse_type(show_type(ty)) is ty
    assert pretty_print(d) == text


def test_a_wide_sum_annotation_checks():
    text = "+".join(["U"] * _DEEP)
    ty, _ = check_program(parse_program(f"\\x:{text}. x"))
    assert ty is Arrow(parse_type(text), parse_type(text))
    assert show_type(ty) == f"{text} -> {text}"


@pytest.mark.parametrize("annotation", ["{}", "#({})"], ids=["sum", "sharp sum"])
def test_a_deep_value_passed_at_a_wide_sum_annotation_checks_and_evaluates(annotation):
    # the value's type, ?+(?+...(?+U)), is the annotation with its
    # placeholders grounded: subtyping decides that without a walk
    ann = annotation.format("+".join(["U"] * (_DEEP + 1)))
    value = "inr " * _DEEP + "*"
    d = parse_program(f"(\\x:{ann}. x) ({value})")
    ty, _ = check_program(d)
    assert ty is parse_type(ann)
    assert normalize(d) == parse_program(value)


@pytest.mark.parametrize("annotation", ["{}", "#({})"], ids=["sum", "sharp sum"])
def test_a_deep_value_passed_at_a_proper_supertype_checks_and_evaluates(annotation):
    # the value's type, ?+(?+...(?+U)), is below the annotation only through
    # U <= #U at the bottom, so subtyping walks the whole right spine
    ann = annotation.format("U+" * _DEEP + "#U")
    value = "inr " * _DEEP + "*"
    d = parse_program(f"(\\x:{ann}. x) ({value})")
    ty, _ = check_program(d)
    assert ty is parse_type(ann)
    assert normalize(d) == parse_program(value)


@settings(max_examples=5, deadline=None)
@given(deep_values(3_000))
def test_deep_mixed_values_check(text):
    ty, _ = check_program(parse_program(text))
    assert parse_type(show_type(ty)) is ty


# ----------------------------------------------------------- shared contexts

_BRANCHES = "{ inl left -> inr left | inr right -> inl right }"


@pytest.mark.parametrize("summands, want", [
    ((f"0.6 * match inl * {_BRANCHES}", f"0.8 * match inr * {_BRANCHES}"), "#(#U+#U)"),
    (("0.6 * (let (left, right) = (*, inl *) in (right, left))",
      "0.8 * (let (left, right) = (*, inr *) in (right, left))"), "#(#(U+U)*#U)"),
], ids=["match", "let"])
def test_a_shared_context_compares_binder_names_by_value(summands, want):
    # each summand's names are read from its own text, parsed on its own:
    # the lexer shares one string among the equal names of a text, but equal
    # names longer than one character from two texts are distinct objects
    d = add(*map(parse_program, summands))
    names = [[v for v in map(t.__getattribute__, t.__match_args__) if isinstance(v, str)]
             for _, t in d.summands]
    assert names[0] == names[1] and all(a is not b for a, b in zip(*names))
    ty, _ = check_program(d)
    assert ty is parse_type(want)


@pytest.mark.parametrize("text", [
    r"\x:U. \y:U. \z:U. 0.6 * x + 0.6 * y + 0.5 * (z ; *)",
    r"\g:U->U. 0.6 * (\a:U. a) + 0.6 * (\a:U+U. *) + 0.5 * (g * ; \c:U. c)",
], ids=["variables", "lambdas"])
def test_values_of_one_form_beside_an_elimination_share_no_context(text):
    # in key order the first two summands are values of one class, which
    # has no hole: no elimination rule applies
    with pytest.raises(TypeCheckError, match="a single elimination distributed"):
        check_program(parse_program(text))
