"""Branch instances: each check keeps a memo of the keyed instances its
enumeration grounds, by branch and the values of the branch's free names,
and reads an instance past its head redexes (a unit head, a lambda applied
to a value, a pair destructured, a case taken) in an environment.  So a
case-tree branch `u ; f y` reads the instance of the branch of f that y's
value selects, which is f's column for that value, the normal form of f
applied to it, and a branch that is a closed match reads its taken
branch's.  Every kept instance must be the normal form of its branch under
its values, and checking must come out the same, type or error text, when
the memo keeps nothing."""

from __future__ import annotations

import time

import numpy as np
import pytest

import qlam.typecheck as typecheck
from generator import beta_chain, match_chain
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
from qlam.syntax import (
    App,
    Distribution,
    Match,
    free_vars_dist,
    scale,
    singleton,
    substitute_many_dist,
)
from qlam.typecheck import (
    ErrorKind,
    TypeCheckError,
    _Checker,
    _enumerate_values,
    _ground_branch,
    check_program,
)
from qlam.types import BOOL, UNIT, Arrow, Prod, Sum, ground_unknowns, peel_sharps, qubits

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


class _Forgetful(dict):
    """A memo that keeps nothing, so every instance is read past its head
    redexes down to what is keyed or normalized."""

    def __setitem__(self, key, value) -> None:
        pass


def _forget(monkeypatch) -> None:
    init = _Checker.__init__

    def forgetful(self) -> None:
        init(self)
        self.instances = _Forgetful()

    monkeypatch.setattr(_Checker, "__init__", forgetful)


def _assert_kept_instances_are_normal_forms(c: _Checker) -> int:
    """Every instance c keeps is the normal form of its branch under the
    values it is kept for; returns how many there are."""
    count = 0
    for b, names, kept in c.instances.values():
        for key, inst in kept.items():
            # the names left out of the key hold the unit value
            assignment = dict.fromkeys(free_vars_dist(b), typecheck._VOID)
            assignment.update(zip(names, (key,) if len(names) == 1 else key))
            assert inst == keyed(normalize(substitute_many_dist(b, assignment)))
            count += 1
    return count


def _checked(program) -> _Checker:
    c = _Checker()
    try:
        c.infer_dist(program)
    except TypeCheckError:
        pass
    return c


@pytest.mark.parametrize("label, lam", TERMS, ids=[label for label, _ in TERMS])
def test_an_applied_gate_reads_its_normal_form_from_the_memo(label, lam):
    c = _checked(singleton(lam))
    kept = _assert_kept_instances_are_normal_forms(c)
    if not label.startswith(("duplicate", "distant", "scaled")):
        assert kept > 0
        for value in _enumerate_values(ground_unknowns(lam.ann), {}):
            application = singleton(App(lam, value))
            # read from the memo: a kept instance, not a distribution left
            column = c._peel(application, {})
            assert column.__class__ is not Distribution
            assert column == keyed(normalize(application))


# gates on two or more qubits: their root destructures the register, and
# each branch of its match splits or matches the let's right name in place
LET_SHAPED = [(label, lam) for label, lam in TERMS if int(label.rsplit("/", 1)[1]) > 1
              and not label.startswith(("duplicate", "distant", "scaled"))]


@pytest.mark.parametrize("label, lam", LET_SHAPED, ids=[label for label, _ in LET_SHAPED])
def test_each_branch_keeps_one_instance_per_value_of_the_register_rest(label, lam):
    c = _checked(singleton(lam))
    let = lam.body.summands[0][1]
    m = let.body.summands[0][1]
    assert m.__class__ is Match and m.scrutinee.name == let.left
    # the let's right name holds the rest of the register
    rest = _enumerate_values(peel_sharps(ground_unknowns(lam.ann))[1].right, {})
    for x, b in ((m.left_name, m.left_body), (m.right_name, m.right_body)):
        entry = c.instances[id(b)]
        assert entry[0] is b and entry[1] == (let.right,)
        assert set(entry[2]) == set(rest)
        for value in rest:
            # read past the branch's head redexes to the kept instance of
            # the inner match's branch that the value selects
            kept = c._peel(b, {x: typecheck._VOID, let.right: value})
            assert kept.__class__ is not Distribution
            assert kept is entry[2][value]


@pytest.mark.parametrize("label, lam", TERMS, ids=[label for label, _ in TERMS])
def test_checking_does_not_depend_on_the_memo(label, lam, monkeypatch):
    program = singleton(lam)
    with_memo = _outcome(program)
    _forget(monkeypatch)
    assert _outcome(program) == with_memo
    if label.startswith(("duplicate", "scaled")):
        assert with_memo[0] == "rejected"
    elif not label.startswith("distant"):
        n = int(label.rsplit("/", 1)[1])
        assert with_memo == ("typed", Arrow(qubits(n), qubits(n)))


# handwritten programs near the table shapes: a binder that shadows the
# let's right name, a flat shared name, literal unit heads, a match on the
# let's right name, an operator that is not closed, superposed leaves, a
# closed match as an operator, and the head redexes an instance is read past:
# a beta-redex whose binder shadows the shared name, a let and a match on a
# name of the wrong type, a scaled one-summand head and a lambda applied to
# an open value
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
    r"\z:(U+U)*(U+U). let (x, y) = z in match x { inl w -> w ; (\y:U+U. match inl * { "
    r"inl c -> c ; y | inr d -> d ; match y { inl e -> e ; inr * | inr f -> f ; inl * } }) "
    r"(inr *) | inr w -> w ; (\v:U+U. inl *) y }",
    r"\s:U+U. \y:U+U. match s { inl a -> a ; let (p, q) = y in p ; q ; inl * "
    r"| inr b -> b ; inr * }",
    r"\s:U+U. \y:U*U. match s { inl a -> a ; match y { inl c -> c ; inl * "
    r"| inr d -> d ; inl * } | inr b -> b ; inr * }",
    r"\z:#(U+U). match z { inl w -> (-1 * *) ; w ; inl * | inr w -> w ; inr * }",
    r"\z:#(U+U). match z { inl w -> (-1 * *) ; w ; inl * | inr w -> (-1 * *) ; w ; inl * }",
    r"\s:U+U. \y:U+U. match s { inl a -> a ; (\p:(U+U)*U. let (c, d) = p in d ; c) (y, *) "
    r"| inr b -> b ; " + _FLAT_NOT + " y }",
    r"\s:U+U. \y:U+U. match s { inl a -> a ; (\p:(U+U)*U. let (c, d) = p in d ; c) (y, *) "
    r"| inr b -> b ; " + _FLAT_ID + " y }",
]


@pytest.mark.parametrize("src", NEAR_SHAPES)
def test_programs_near_the_table_shapes_check_as_without_tables(src, monkeypatch):
    program = parse_program(src)
    with_memo = _outcome(program)
    _assert_kept_instances_are_normal_forms(_checked(program))
    _forget(monkeypatch)
    assert _outcome(program) == with_memo


def test_near_shapes_are_decided_both_ways():
    outcomes = [_outcome(parse_program(src))[0] for src in NEAR_SHAPES]
    assert "typed" in outcomes and "rejected" in outcomes


# branches read past their head redexes, under an assignment, as
# substituting and normalizing them reads them: the value or the error
# kind and text.  Typing rules out the names of the wrong type, so these
# are read directly
_HEADS = [
    ("u ; inl *", {"u": "*"}),
    ("u ; inl *", {"u": "inl *"}),
    ("let (p, q) = y in p ; q ; inl *", {"y": "inl *"}),
    ("let (p, q) = y in p ; q ; inl *", {"y": "(*, *)"}),
    ("u ; match y { inl a -> a ; inl * | inr b -> b ; inr * }", {"u": "*", "y": "(*, *)"}),
    (r"(\y:U+U. match y { inl a -> a ; y' | inr b -> b ; inr * }) inl *", {"y'": "inr *"}),
    (r"(\p:U*U. let (a, b) = p in a ; b ; inl *) (u, u)", {"u": "*"}),
    ("-1 * (u ; inl *)", {"u": "*"}),
    (r"(match y { inl a -> a ; \x:U. inl x | inr b -> b ; \x:U. inr x }) u",
     {"u": "*", "y": "inr *"}),
    (r"(match y { inl a -> a ; \x:U. inl x | inr b -> b ; \x:U. inr x }) u",
     {"u": "*", "y": "inl (*, *)"}),
]


def _read(read):
    try:
        return read()
    except TypeCheckError as e:
        return (e.kind, str(e))


@pytest.mark.parametrize("src, values", _HEADS)
def test_an_instance_is_read_past_its_head_redexes_as_normalization_reads_it(src, values):
    b = parse_program(src)
    assignment = {x: _only_term(v) for x, v in values.items()}
    want = _read(lambda: keyed(_ground_branch(b, dict(assignment), "here")))
    assert _read(lambda: _Checker()._instance(b, dict(assignment), "here")) == want


def _only_term(text: str):
    return parse_program(text).summands[0][1]


def test_a_kept_match_is_its_normal_form():
    c = _Checker()
    c.infer_dist(parse_program(match_chain(20)))
    _assert_kept_instances_are_normal_forms(c)
    # each closed match of the chain is read as the kept instance of the
    # branch its scrutinee selects
    match = parse_program(match_chain(20)).summands[0][1]
    c = _Checker()
    c.infer_dist(singleton(match))
    for _ in range(20):
        assert match.__class__ is Match
        kept = c._peel(singleton(match), {})
        assert kept.__class__ is not Distribution
        assert kept == keyed(normalize(singleton(match)))
        match = match.left_body.summands[0][1].tail.summands[0][1]


def _chain_with_a_collision(depth: int) -> str:
    """`match_chain` whose outermost right branch is the left one's normal
    form, so the outermost match is not orthogonal."""
    return match_chain(depth).removesuffix(" | inr b -> inr b }") + " | inr b -> inl b }"


def _beta_chain_with_a_collision(depth: int) -> str:
    """`beta_chain` whose outermost right branch is the left one's normal
    form."""
    return beta_chain(depth).removesuffix(" | inr b -> inr b }") + " | inr b -> inl b }"


@pytest.mark.parametrize("build", [match_chain, _chain_with_a_collision,
                                   beta_chain, _beta_chain_with_a_collision])
def test_the_left_branch_chain_checks_as_without_tables(build, monkeypatch):
    programs = [parse_program(build(depth)) for depth in (1, 2, 5, 20, 100, 200)]
    with_memo = [_outcome(program) for program in programs]
    _assert_kept_instances_are_normal_forms(_checked(programs[3]))
    _forget(monkeypatch)
    assert [_outcome(program) for program in programs] == with_memo
    if build in (match_chain, beta_chain):
        assert all(want == ("typed", Sum(UNIT, UNIT)) for want in with_memo)
    else:
        assert all(want[:2] == ("rejected", ErrorKind.ORTHOGONALITY_FAILURE) for want in with_memo)


@pytest.mark.parametrize("n", range(3, 9))
def test_a_compiled_gate_checks_without_normalizing_every_level(n, monkeypatch):
    calls, reads = [], []
    real = typecheck.normalize
    monkeypatch.setattr(typecheck, "normalize", lambda *a, **k: calls.append(1) or real(*a, **k))
    operand = typecheck._operand
    monkeypatch.setattr(typecheck, "_operand", lambda *a: reads.append(1) or operand(*a))
    # at most one per leaf; normalizing each level's subtree again for every
    # value of the register's rest makes n * 2^n.  Each of the n * 2^n
    # instances reads at most four operands (a unit head, a beta-redex, a
    # let and a case taken; a compiled gate has no beta-redex) before the
    # memo has the branch it enters;
    # reading on down to a leaf makes about 2 n per instance
    lam = compile_gate(gate_library["X"], [n - 1], n)
    for program in (singleton(lam), parse_program(pretty_print(singleton(lam)))):
        calls.clear()
        reads.clear()
        assert check_program(program)[0] == Arrow(qubits(n), qubits(n))
        assert len(calls) <= 1 << n
        assert len(reads) <= 4 * n << n


@pytest.mark.parametrize("n", [3, 5, 8])
def test_a_check_builds_each_inventory_once(n, monkeypatch):
    # every match of H's case tree enumerates its binder and the rest of
    # the register; the checker keeps what it enumerates, so no type is
    # built twice in one check, however many matches share it
    built = []
    real = typecheck._inventory
    monkeypatch.setattr(typecheck, "_inventory", lambda t, parts: built.append(t) or real(t, parts))
    lam = compile_gate(gate_library["H"], [n - 1], n)
    assert check_program(singleton(lam))[0] == Arrow(qubits(n), qubits(n))
    assert built and len(built) == len(set(built))


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


def _routed(n: int, left: str, right: str) -> str:
    """A match whose branches each pass a shared n-qubit register y through a
    lambda that pairs it with `left *` or `right *`."""
    reg = "#(" + "*".join(["(U+U)"] * n) + ")"
    return (rf"\y:{reg}. \s:U+U. match s {{ inl a -> a ; (\q:{reg}. ({left} *, q)) y "
            rf"| inr b -> b ; (\q:{reg}. ({right} *, q)) y }}")


@pytest.mark.parametrize("n", [9, 12])
def test_a_register_wide_shared_name_is_enumerated(n):
    # 2^n values of y, up to the widest register, decide the match whatever
    # shape the lambda has
    ty, _ = check_program(parse_program(_routed(n, "inl", "inr")))
    assert ty == Arrow(qubits(n), Arrow(BOOL, Prod(BOOL, qubits(n))))
    with pytest.raises(TypeCheckError) as e:
        check_program(parse_program(_routed(n, "inl", "inl")))
    assert e.value.kind is ErrorKind.ORTHOGONALITY_FAILURE


@pytest.mark.parametrize("left, right", [("inl", "inr"), ("inl", "inl")])
def test_a_shared_name_past_the_widest_register_is_undecided(left, right):
    with pytest.raises(TypeCheckError) as e:
        check_program(parse_program(_routed(13, left, right)))
    assert e.value.kind is ErrorKind.ORTHOGONALITY_UNDECIDED
