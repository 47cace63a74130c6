"""Column tables: a checked case-tree lambda is described by the keyed normal
forms of its basis values, and the checker reads a branch `u ; f y` from f's
table instead of normalizing it.  A closed match on a ground value, once
decided, is kept the same way, so a branch `u ; match v {…}` is read from its
table.  A table must agree with normalization, and checking must come out
the same, type or error text, when every lookup misses."""

from __future__ import annotations

import time

import numpy as np
import pytest

import qlam.typecheck as typecheck
from generator import match_chain
from qlam.inner import keyed
from qlam.quantum import (
    GateMatrix,
    StateVector,
    basis_value,
    case_construct,
    compile_gate,
    encode,
    gate_library,
)
from qlam.rewrite import normalize
from qlam.surface import parse_program, pretty_print
from qlam.syntax import App, Match, scale, singleton
from qlam.typecheck import ErrorKind, TypeCheckError, _Checker, _Table, check_program
from qlam.types import Arrow, qubits

LIBRARY = ("I", "X", "Y", "Z", "H", "S", "T", "CNOT", "CZ", "SWAP")


def _random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _planted(rng: np.random.Generator, n: int, kind: str):
    """A case tree over the columns of a random unitary with one defect: a
    column image copied one bit away or two or more bits away, or scaled."""
    u = _random_unitary(rng, 1 << n)
    images = [encode(StateVector(u[:, k])) for k in range(1 << n)]
    k = int(rng.integers(1 << n))
    if kind == "duplicate":
        images[k ^ (1 << int(rng.integers(n)))] = images[k]
    elif kind == "distant":
        far = [j for j in range(1 << n) if bin(j ^ k).count("1") >= 2]
        images[far[int(rng.integers(len(far)))]] = images[k]
    else:
        images[k] = scale(2, images[k])
    return case_construct(n, images)


def _terms():
    """(label, lambda): library gates on every placement at n = 1..3, random
    gates on random targets and planted defects at n = 1..4."""
    rng = np.random.default_rng(18)
    for name in LIBRARY:
        gate = gate_library[name]
        g = gate.qubit_count
        for n in range(g, 4):
            for first in range(n - g + 1):
                targets = list(range(first, first + g))[::-1]
                yield f"{name}{targets}/{n}", compile_gate(gate, targets, n)
    for n in range(1, 5):
        for g in range(1, min(n, 2) + 1):
            targets = [int(q) for q in rng.choice(n, size=g, replace=False)]
            gate = GateMatrix(_random_unitary(rng, 1 << g))
            yield f"random{targets}/{n}", compile_gate(gate, targets, n)
        kinds = ("duplicate", "scaled") if n == 1 else ("duplicate", "distant", "scaled")
        for kind in kinds:
            yield f"{kind}/{n}", _planted(rng, n, kind)


TERMS = list(_terms())


def _outcome(program) -> tuple:
    try:
        ty, _ = check_program(program)
    except TypeCheckError as e:
        return ("rejected", e.kind, str(e))
    return ("typed", ty)


@pytest.mark.parametrize("label, lam", TERMS, ids=[label for label, _ in TERMS])
def test_every_column_is_the_normal_form_of_the_application(label, lam):
    c = _Checker()
    try:
        c.infer_dist(singleton(lam))
    except TypeCheckError:
        pass
    if not label.startswith(("duplicate", "distant", "scaled")):
        assert id(lam) in c.tables
    for table in c.tables.values():
        assert table.dom is typecheck.ground_unknowns(table.lam.ann)
        for value, column in table.columns.items():
            assert column == keyed(normalize(singleton(App(table.lam, value))))


@pytest.mark.parametrize("label, lam", TERMS, ids=[label for label, _ in TERMS])
def test_checking_does_not_depend_on_the_tables(label, lam, monkeypatch):
    program = singleton(lam)
    with_tables = _outcome(program)
    monkeypatch.setattr(_Table, "column", lambda self, value: None)
    assert _outcome(program) == with_tables
    if label.startswith(("duplicate", "scaled")):
        assert with_tables[0] == "rejected"
    elif not label.startswith("distant"):
        n = int(label.rsplit("/", 1)[1])
        assert with_tables == ("typed", Arrow(qubits(n), qubits(n)))


# handwritten programs near the table shapes: a binder that shadows the
# let's right name, a flat shared name, literal unit heads, a match on the
# let's right name, an operator that is not closed, superposed leaves, and
# a tabled match as an operator, whose table is not a lambda's
_NOT = r"(\z':#(U+U). match z' { inl u -> u ; inr * | inr u -> u ; inl * })"
_ID = r"(\z':#(U+U). match z' { inl u -> u ; inl * | inr u -> u ; inr * })"
_FLAT_NOT = r"(\z':U+U. match z' { inl u -> u ; inr * | inr u -> u ; inl * })"
_FLAT_ID = r"(\z':U+U. match z' { inl u -> u ; inl * | inr u -> u ; inr * })"
NEAR_SHAPES = [
    rf"\z:#((U+U)*(U+U)). let (x, y) = z in match x {{ inl w -> w ; {_ID} y "
    rf"| inr w -> w ; {_NOT} y }}",
    rf"\z:(U+U)*(U+U). let (x, y) = z in match x {{ inl y -> y ; {_FLAT_ID} inl * "
    rf"| inr w -> w ; {_FLAT_NOT} y }}",
    rf"\z:(U+U)*(U+U). let (x, y) = z in match x {{ inl w -> w ; {_FLAT_ID} y "
    rf"| inr w -> w ; {_FLAT_NOT} y }}",
    rf"\z:#((U+U)*(U+U)). let (x, y) = z in match x {{ inl w -> * ; w ; * ; {_ID} y "
    rf"| inr w -> w ; * ; {_NOT} y }}",
    rf"\z:#((U+U)*(U+U)). let (x, y) = z in match x {{ inl w -> w ; {_ID} y "
    rf"| inr w -> w ; {_ID} y }}",
    rf"\z:#((U+U)*(U+U)). let (x, y) = z in match y {{ inl w -> w ; {_ID} x "
    rf"| inr w -> w ; {_NOT} x }}",
    rf"\f:(U+U) -> #(U+U). \z:(U+U)*(U+U). let (x, y) = z in match x {{ "
    rf"inl w -> w ; f y | inr w -> w ; {_FLAT_NOT} y }}",
    r"\z:#(U+U). match z { inl w -> w ; (0.6 * inl * + 0.8 * inr *) "
    r"| inr w -> w ; (0.8 * inl * + -0.6 * inr *) }",
    r"\z:#(U+U). match z { inl w -> w ; (0.6 * inl * + 0.8 * inr *) "
    r"| inr w -> w ; (0.6 * inl * + 0.8 * inr *) }",
    r"\s:U+U. \y:U+U. match s { inl a -> a ; (match inl * { inl c -> c ; \x:U+U. inl x "
    r"| inr d -> d ; \x:U+U. inr x }) y | inr b -> b ; inl y }",
]


@pytest.mark.parametrize("src", NEAR_SHAPES)
def test_programs_near_the_table_shapes_check_as_without_tables(src, monkeypatch):
    program = parse_program(src)
    with_tables = _outcome(program)
    monkeypatch.setattr(_Table, "column", lambda self, value: None)
    assert _outcome(program) == with_tables


def test_near_shapes_are_decided_both_ways():
    outcomes = [_outcome(parse_program(src))[0] for src in NEAR_SHAPES]
    assert "typed" in outcomes and "rejected" in outcomes


def test_a_kept_match_is_its_normal_form():
    c = _Checker()
    c.infer_dist(parse_program(match_chain(20)))
    matches = [table for table in c.tables.values() if table.lam.__class__ is Match]
    assert len(matches) == 20
    for table in matches:
        assert table.dom is None
        match = table.lam
        assert table.column(match.scrutinee) == keyed(normalize(singleton(match)))


def _chain_with_a_collision(depth: int) -> str:
    """`match_chain` whose outermost right branch is the left one's normal
    form, so the outermost match is not orthogonal."""
    return match_chain(depth).removesuffix(" | inr b -> inr b }") + " | inr b -> inl b }"


@pytest.mark.parametrize("build", [match_chain, _chain_with_a_collision])
def test_the_left_branch_chain_checks_as_without_tables(build, monkeypatch):
    programs = [parse_program(build(depth)) for depth in (1, 2, 5, 20, 100, 200)]
    with_tables = [_outcome(program) for program in programs]
    monkeypatch.setattr(_Table, "column", lambda self, value: None)
    assert [_outcome(program) for program in programs] == with_tables
    assert {want[0] for want in with_tables} == {
        "typed" if build is match_chain else "rejected"}


@pytest.mark.parametrize("n", range(3, 9))
def test_a_compiled_gate_checks_without_normalizing_every_level(n, monkeypatch):
    calls = []
    real = typecheck.normalize
    monkeypatch.setattr(typecheck, "normalize", lambda *a, **k: calls.append(1) or real(*a, **k))
    # at most one per leaf; normalizing each level's subtree again for every
    # value of the register's rest makes n * 2^n
    lam = compile_gate(gate_library["X"], [n - 1], n)
    for program in (singleton(lam), parse_program(pretty_print(singleton(lam)))):
        calls.clear()
        assert check_program(program)[0] == Arrow(qubits(n), qubits(n))
        assert len(calls) <= 1 << n


def _wide_gates():
    rng = np.random.default_rng(1018)
    for n in (10, 11, 12):
        yield f"X/{n}", gate_library["X"], [n - 1], n
        targets = [int(q) for q in rng.choice(n, size=2, replace=False)]
        yield f"random{targets}/{n}", GateMatrix(_random_unitary(rng, 4)), targets, n


WIDE = list(_wide_gates())


@pytest.mark.parametrize("label, gate, targets, n", WIDE, ids=[w[0] for w in WIDE])
def test_wide_compiled_gates_check_past_the_inventory_cap(label, gate, targets, n):
    lam = compile_gate(gate, targets, n)
    t0 = time.perf_counter()
    ty, _ = check_program(singleton(lam))
    assert time.perf_counter() - t0 < 10
    assert ty == Arrow(qubits(n), qubits(n))


@pytest.mark.parametrize("copy", [1 << 9, (1 << 9) | 1])
def test_a_wide_duplicate_column_is_found_at_the_root(copy):
    # X on the last qubit of ten, with the image of |0...0> copied onto a
    # column whose first qubit is |1>: only the outermost match, whose
    # shared name holds 512 values, meets both copies
    n = 10
    images = [singleton(basis_value(k ^ 1, n)) for k in range(1 << n)]
    images[copy] = images[0]
    with pytest.raises(TypeCheckError) as e:
        check_program(singleton(case_construct(n, images)))
    assert e.value.kind is ErrorKind.ORTHOGONALITY_FAILURE
