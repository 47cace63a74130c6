"""The printing loop against the recursive printer it replaced, and inputs too
deep for recursion.

`reference_show_dist`, `reference_show_term` and `reference_show_type` are
the recursive printers that `syntax.show_dist`, `syntax.show_term` and
`types.show_type` replaced: one Python frame per node, and a `;` chain in a
loop of its own.  The equivalence tests hold the one loop of `types.emit` to
them, byte for byte, on generator programs, their traces, the types of their
derivations, and compiled gates at n = 1..4.  A ground value keeps its text
once printed: the kept texts match the reference too, and a gate's printing
writes each distinct value once.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

import qlam.syntax as syntax
from generator import DEEP_TYPES, DEEP_VALUES, flow_programs, ground_values, trace_programs, types
from qlam.quantum import GateMatrix, compile_gate, compile_isometry, gate_library
from qlam.rewrite import trace_normalize
from qlam.surface import parse_program, parse_type, pretty_print
from qlam.syntax import (
    App,
    Distribution,
    InlV,
    InrV,
    Lam,
    LetPair,
    Match,
    PairV,
    PureTerm,
    Seq,
    Var,
    Void,
    show_dist,
    show_scalar,
    show_term,
    singleton,
)
from qlam.typecheck import check_program
from qlam.types import Arrow, Prod, Sharp, Sum, Type, Unit, Unknown, emit, show_type
from test_lexer import _unitary

# ---------------------------------------------------------------- reference

_LOW, _SEQ, _APP, _ATOMIC = 0, 1, 2, 3
_ARROW, _SUM, _PROD, _ATOM = 0, 1, 2, 3


def reference_show_dist(d: Distribution) -> str:
    return " + ".join(_show_summand(a, t) for a, t in d.summands)


def _show_summand(a: complex, t: PureTerm) -> str:
    if a == 1:
        return _show_term(t, _SEQ)
    return f"{show_scalar(a)} * {_show_term(t, _SEQ)}"


def reference_show_term(t: PureTerm, level: int = _LOW) -> str:
    return _show_term(t, level)


def _show_term(t: PureTerm, level: int) -> str:
    match t:
        case Var(x):
            return x
        case Void():
            return "*"
        case PairV(a, b):
            return f"({_show_term(a, _LOW)}, {_show_term(b, _LOW)})"
        case InlV(v):
            return f"inl {_show_term(v, _ATOMIC)}"
        case InrV(v):
            return f"inr {_show_term(v, _ATOMIC)}"
        case Match(s, x1, b1, x2, b2):
            return (f"match {_show_term(s, _LOW)} {{ inl {x1} -> {reference_show_dist(b1)}"
                    f" | inr {x2} -> {reference_show_dist(b2)} }}")
        case App(f, a):
            s = f"{_show_applied(f, _APP)} {_show_applied(a, _ATOMIC)}"
            return f"({s})" if level > _APP else s
        case Seq():
            s = _show_seq_chain(t)
            return f"({s})" if level > _SEQ else s
        case Lam(x, ann, body):
            s = f"\\{x}:{reference_show_type(ann)}. {reference_show_dist(body)}"
            return f"({s})" if level > _LOW else s
        case LetPair(x, y, scrut, body):
            s = f"let ({x}, {y}) = {_show_term(scrut, _LOW)} in {reference_show_dist(body)}"
            return f"({s})" if level > _LOW else s
        case _:
            raise TypeError(f"not a pure term: {t!r}")


def _show_applied(t: PureTerm, level: int) -> str:
    s = _show_term(t, level)
    return f"({s})" if isinstance(t, Match) else s


def _show_seq_chain(t: Seq) -> str:
    parts = []
    while True:
        parts.append(_show_term(t.head, _APP))
        tail = t.tail
        if len(tail.summands) != 1 or tail.summands[0][0] != 1:
            parts.append(f"({reference_show_dist(tail)})")
            break
        t = tail.summands[0][1]
        if not isinstance(t, Seq):
            parts.append(_show_term(t, _SEQ))
            break
    return " ; ".join(parts)


def reference_show_type(a: Type) -> str:
    return _show(a, _ARROW)


def _show(a: Type, level: int) -> str:
    match a:
        case Unit():
            return "U"
        case Unknown():
            return "U"
        case Sharp(inner):
            return "#" + _show(inner, _ATOM)
        case Sum(l, r):
            s = f"{_show(l, _SUM + 1)}+{_show(r, _SUM)}"
            return f"({s})" if level > _SUM else s
        case Prod(l, r):
            s = f"{_show(l, _PROD + 1)}*{_show(r, _PROD)}"
            return f"({s})" if level > _PROD else s
        case Arrow(d, c):
            s = f"{_show(d, _ARROW + 1)} -> {_show(c, _ARROW)}"
            return f"({s})" if level > _ARROW else s
        case _:
            raise TypeError(f"not a type: {a!r}")


# ------------------------------------------------------------- equivalence


def _same_text(d: Distribution) -> None:
    assert show_dist(d) == reference_show_dist(d)
    for _, t in d.summands:
        for level in (_LOW, _SEQ, _APP, _ATOMIC):
            assert show_term(t, level) == reference_show_term(t, level)


def test_programs_traces_and_derivation_types_print_as_the_reference_prints():
    programs = trace_programs(23, 150) + flow_programs(24, 150)
    for i, (d, _) in enumerate(programs):
        _same_text(d)
        if i % 3 == 0:
            for snapshot in trace_normalize(d):
                _same_text(snapshot)
        ty, der = check_program(d)
        stack = [der]
        while stack:
            node = stack.pop()
            assert show_type(node.type) == reference_show_type(node.type)
            stack.extend(node.children)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_compiled_gates_print_as_the_reference_prints(n):
    rng = np.random.default_rng(29 + n)
    lams = [compile_isometry(GateMatrix(_unitary(rng, n))) for _ in range(2)]
    lams += [compile_gate(gate_library[g], [n - 1], n) for g in ("H", "T", "X")]
    if n >= 2:
        lams.append(compile_gate(gate_library["CNOT"], [n - 1, 0], n))
    for lam in lams:
        d = singleton(lam)
        _same_text(d)
        assert pretty_print(d) == reference_show_dist(d)


@settings(max_examples=200, deadline=None)
@given(types())
def test_types_print_as_the_reference_prints(t):
    assert show_type(t) == str(t) == reference_show_type(t)


# ------------------------------------------------------------------- depth

_DEEP = 10_000


@pytest.mark.parametrize("shape", sorted(DEEP_TYPES))
def test_a_deep_type_prints_as_it_reads(shape):
    text = DEEP_TYPES[shape](_DEEP)
    t = parse_type(text)
    shown = show_type(t)
    assert shown == ("U" if shape == "paren" else text)
    assert parse_type(shown) is t


@pytest.mark.parametrize("shape", sorted(DEEP_VALUES))
def test_a_deep_value_prints_as_it_reads(shape):
    text = DEEP_VALUES[shape](_DEEP)
    d = parse_program(text)
    assert pretty_print(d) == text
    assert show_term(d.summands[0][1], _ATOMIC) == text


# ------------------------------------------------------------ kept texts


@pytest.mark.parametrize("written", [
    "U", "B", "#B", "(U+U)+U", "U*(U+(U+U))", "#((U+B)*(B+U))*B", "B*B*B*B*B",
    "#(B*(B+(U*B)))",
])
def test_ground_values_print_as_the_reference_prints(written):
    for v in ground_values(parse_type(written)):
        want = reference_show_term(v)
        for level in (_LOW, _SEQ, _APP, _ATOMIC, _LOW):
            assert show_term(v, level) == want
        assert v._text == want


def _ground_parts(d: Distribution) -> list[PureTerm]:
    """The ground values in d that are not part of a larger one."""
    out, stack = [], [d]
    while stack:
        x = stack.pop()
        if isinstance(x, Distribution):
            stack += [t for _, t in x.summands]
        elif x._term_key is not None:
            out.append(x)
        else:
            stack += [getattr(x, f) for f in x.__match_args__
                      if isinstance(getattr(x, f), (PureTerm, Distribution))]
    return out


def test_a_printed_gate_writes_each_distinct_value_once(monkeypatch):
    d = singleton(compile_isometry(GateMatrix(_unitary(np.random.default_rng(41), 3))))
    values = {id(v): v for v in _ground_parts(d)}
    for v in values.values():
        object.__setattr__(v, "_text", None)  # as if never printed
    roots = []

    def counting(root, parts):
        roots.append(root[0])
        return emit(root, parts)

    monkeypatch.setattr(syntax, "emit", counting)
    text = show_dist(d)
    assert text == reference_show_dist(d)
    # one loop for the gate, then one per distinct value the first time it
    # is reached: the eight basis values of three qubits
    assert roots[0] is d and len(values) == 8
    assert sorted(map(id, roots[1:])) == sorted(values)
    roots.clear()
    assert show_dist(d) == text
    assert roots == [d]


@pytest.mark.parametrize("shape", sorted(DEEP_VALUES))
def test_a_deep_value_prints_the_same_twice(shape):
    text = DEEP_VALUES[shape](_DEEP)
    (_, v), = parse_program(text).summands
    assert show_term(v) == text
    assert v._text == text
    assert show_term(v, _ATOMIC) == show_dist(singleton(v)) == text
