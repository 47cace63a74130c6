"""Branch instances: each check keeps a memo of the keyed instances its
enumeration grounds, by branch and the values of the branch's free names,
and grounds an instance on the rewriting machine, started in an
environment of the values, where a case taken at the top of a summand
reads the kept instance of the branch it enters.  So a case-tree branch
`u ; f y` reads the instance of the branch of f that y's value selects,
which is f's column for that value, the normal form of f applied to it,
and a branch that is a closed match reads its taken branch's.  Every kept
instance must be the normal form of its branch under its values, and
checking must come out the same, type or error text, when the memo keeps
nothing."""

from __future__ import annotations

import time

import numpy as np
import pytest

import qlam.syntax as syntax
import qlam.typecheck as typecheck
from generator import beta_chain, match_chain
from qlam.inner import Keyed, keyed
from qlam.quantum import (
    GateMatrix,
    StateVector,
    basis_value,
    case_construct,
    compile_gate,
    encode,
    gate_library,
)
from qlam.rewrite import _NO_ENV, StepLimitExceeded, StuckError, normalize
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
    """A memo that keeps nothing, so every instance is evaluated down to its
    normal form."""

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
    values it is kept for, down to the coefficient bits; returns how many
    there are."""
    count = 0
    for b, names, kept in c.instances.values():
        for key, inst in kept.items():
            # the names left out of the key hold the unit value
            assignment = dict.fromkeys(free_vars_dist(b), typecheck._VOID)
            assignment.update(zip(names, (key,) if len(names) == 1 else key))
            want = normalize(substitute_many_dist(b, assignment))
            assert inst == keyed(want)
            assert _bits(inst) == _bits(want)
            count += 1
    return count


def _bits(d) -> list:
    """The coefficients of a distribution or keyed form, to the bit: -0.0
    and 0.0 are equal, but print apart."""
    return [(a.real.hex(), a.imag.hex()) for a, _ in d.summands]


def test_a_kept_instance_has_the_coefficient_bits_of_evaluation():
    # two-summand images whose imaginary parts are -0.0: evaluation
    # multiplies a leaf's reduct through by the summand's coefficient 1,
    # which gives them +0.0, and so must the instance the checker keeps
    images = []
    for k in range(4):
        a, b = (0.6, 0.8) if k < 2 else (0.8, -0.6)
        images.append(Distribution(((complex(a, -0.0), basis_value(k & 1, 2)),
                                    (complex(b, -0.0), basis_value(k & 1 | 2, 2)))))
    lam = case_construct(2, images)
    assert check_program(singleton(lam))[0] == Arrow(qubits(2), qubits(2))
    assert _assert_kept_instances_are_normal_forms(_checked(singleton(lam))) == 8


def _checked(program) -> _Checker:
    c = _Checker()
    try:
        c.infer_dist(program)
    except TypeCheckError:
        pass
    return c


def _reads(c: _Checker, monkeypatch) -> list:
    """The kept instances c's machine reads from now on, in order."""
    reads = []
    kept = c._kept

    def recorded(b, env):
        inst = kept(b, env)
        if inst is not None:
            reads.append(inst)
        return inst

    monkeypatch.setattr(c, "_kept", recorded)
    return reads


@pytest.mark.parametrize("label, lam", TERMS, ids=[label for label, _ in TERMS])
def test_an_applied_gate_reads_its_normal_form_from_the_memo(label, lam, monkeypatch):
    c = _checked(singleton(lam))
    kept = _assert_kept_instances_are_normal_forms(c)
    if not label.startswith(("duplicate", "distant", "scaled")):
        assert kept > 0
        reads = _reads(c, monkeypatch)
        for value in _enumerate_values(ground_unknowns(lam.ann), {}):
            application = singleton(App(lam, value))
            reads.clear()
            column = c._instance(application, {}, "here")
            # read from the memo at the root's case taken: the kept
            # instance of the branch the value selects
            assert len(reads) == 1 and column is reads[0]
            assert column == keyed(normalize(application))


# gates on two or more qubits: their root destructures the register, and
# each branch of its match splits or matches the let's right name in place
LET_SHAPED = [(label, lam) for label, lam in TERMS if int(label.rsplit("/", 1)[1]) > 1
              and not label.startswith(("duplicate", "distant", "scaled"))]


@pytest.mark.parametrize("label, lam", LET_SHAPED, ids=[label for label, _ in LET_SHAPED])
def test_each_branch_keeps_one_instance_per_value_of_the_register_rest(label, lam, monkeypatch):
    c = _checked(singleton(lam))
    let = lam.body.summands[0][1]
    m = let.body.summands[0][1]
    assert m.__class__ is Match and m.scrutinee.name == let.left
    # the let's right name holds the rest of the register
    rest = _enumerate_values(peel_sharps(ground_unknowns(lam.ann))[1].right, {})
    reads = _reads(c, monkeypatch)
    for x, b in ((m.left_name, m.left_body), (m.right_name, m.right_body)):
        entry = c.instances[id(b)]
        assert entry[0] is b and entry[1] == (let.right,)
        assert set(entry[2]) == set(rest)
        # ground again with the branch's entry gone: the machine reads past
        # the branch's head redexes to the kept instance of the inner
        # match's branch that the value selects, which is the branch's
        del c.instances[id(b)]
        for value in rest:
            reads.clear()
            got = c._instance(b, _env({x: typecheck._VOID, let.right: value}), "here")
            assert len(reads) == 1 and got is reads[0]
            assert got == entry[2][value]
        assert c.instances[id(b)][2] == entry[2]


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
# closed match as an operator, and head redexes the machine contracts before
# a case taken: a beta-redex whose binder shadows the shared name, a let and
# a match on a name of the wrong type, a scaled one-summand head and a
# lambda applied to an open value; cases taken under the weights 0.6 and
# 0.8, whose branch merges three weights: scaling the merged weight, as a
# memo read there would, gives other bits than merging the scaled ones; and
# a case taken in an argument, whose branch applies a Hadamard map under
# three weights: the context merges them before the map, as a memo read
# there would not
_NOT = r"(\z':#(U+U). match z' { inl u -> u ; inr * | inr u -> u ; inl * })"
_ID = r"(\z':#(U+U). match z' { inl u -> u ; inl * | inr u -> u ; inr * })"
_FLAT_NOT = r"(\z':U+U. match z' { inl u -> u ; inr * | inr u -> u ; inl * })"
_FLAT_ID = r"(\z':U+U. match z' { inl u -> u ; inl * | inr u -> u ; inr * })"
_MERGED = "match {} * {{ inl a -> a ; (0.05 * inl * + 0.05 * inl * + 0.9 * inl *) | inr b -> b ; inr * }}"
_R = "0.7071067811865476"
_H = (rf"(\q:#(U+U). match q {{ inl u -> u ; ({_R} * inl * + {_R} * inr *) "
      rf"| inr u -> u ; ({_R} * inl * + -{_R} * inr *) }})")
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
    r"\s:U+U. match s { inl x -> x ; (0.6 * (" + _MERGED.format("inl") + ") + 0.8 * ("
    + _MERGED.format("inr") + r")) | inr y -> y ; (0.8 * inl * + -0.6 * inr *) }",
    rf"\s:U+U. match s {{ inl x -> x ; (\z:#(U+U). z) (match inl * {{ inl a -> a ; "
    rf"(0.05 * ({_H} inl *) + 0.15 * ({_H} inl *) + 0.8 * ({_H} inl *)) | inr b -> b ; "
    rf"{_H} inr * }}) | inr y -> y ; (\z:#(U+U). z) ({_R} * inl * + -{_R} * inr *) }}",
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


# branches ground on the machine under an assignment as substituting and
# normalizing them grounds them: the value or the error kind and text.
# Typing rules out the names of the wrong type, so these are ground
# directly
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


def _substituted_and_normalized(b: Distribution, assignment: dict) -> Keyed:
    """The instance of b under the assignment as the checker ground it
    before it evaluated in an environment: substituted, then normalized
    within the same step budget, with the same error."""
    try:
        return keyed(normalize(substitute_many_dist(b, assignment),
                               max_steps=typecheck._INSTANCE_STEPS))
    except (StuckError, StepLimitExceeded) as e:
        raise TypeCheckError(ErrorKind.ORTHOGONALITY_UNDECIDED,
                             f"an instantiated branch did not reduce to values ({e})", "here")


@pytest.mark.parametrize("src, values", _HEADS)
def test_an_instance_is_read_past_its_head_redexes_as_normalization_reads_it(src, values):
    b = parse_program(src)
    assignment = {x: _only_term(v) for x, v in values.items()}
    want = _read(lambda: _substituted_and_normalized(b, dict(assignment)))
    assert _read(lambda: _Checker()._instance(b, _env(assignment), "here")) == want


def _env(assignment: dict) -> dict:
    """The machine environment that binds each name to its ground value."""
    return {x: (v, _NO_ENV) for x, v in assignment.items()}


def _only_term(text: str):
    return parse_program(text).summands[0][1]


def test_a_kept_match_is_its_normal_form(monkeypatch):
    c = _Checker()
    c.infer_dist(parse_program(match_chain(20)))
    _assert_kept_instances_are_normal_forms(c)
    # each closed match of the chain is ground as the kept instance of the
    # branch its scrutinee selects, in one step: the case taken
    match = parse_program(match_chain(20)).summands[0][1]
    c = _Checker()
    c.infer_dist(singleton(match))
    reads = _reads(c, monkeypatch)
    monkeypatch.setattr(typecheck, "_INSTANCE_STEPS", 1)
    for _ in range(20):
        assert match.__class__ is Match
        reads.clear()
        kept = c._instance(singleton(match), {}, "here")
        assert len(reads) == 1 and kept is reads[0]
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
    calls, grounds = [], []
    real = typecheck.normalize
    monkeypatch.setattr(typecheck, "normalize", lambda *a, **k: calls.append(1) or real(*a, **k))
    instance = _Checker._instance
    monkeypatch.setattr(_Checker, "_instance",
                        lambda self, *a: grounds.append(1) or instance(self, *a))
    # each branch is ground once per value of the register's rest, n * 2^n
    # instances in all, and each instance takes at most three contractions
    # on the machine: a unit head, a let and a case taken, which reads the
    # kept instance of the branch it enters.  Grounding on down to a leaf
    # would take about 3 n per instance
    monkeypatch.setattr(typecheck, "_INSTANCE_STEPS", 3)
    lam = compile_gate(gate_library["X"], [n - 1], n)
    for program in (singleton(lam), parse_program(pretty_print(singleton(lam)))):
        calls.clear()
        grounds.clear()
        assert check_program(program)[0] == Arrow(qubits(n), qubits(n))
        assert not calls
        assert len(grounds) <= n << n


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


@pytest.mark.parametrize("n", [2, 3, 4])
def test_each_leaf_superposition_is_put_in_order_once(n, monkeypatch):
    # typing a leaf `u ; Σ αᵢ vᵢ` of a compiled gate read back from its text
    # puts the superposition in order and marks it; the instance that ends
    # whole in it, multiplied through by the coefficient 1, keeps the mark,
    # so it is not sorted again when it is keyed
    u = _random_unitary(np.random.default_rng(40 + n), 1 << n)
    program = parse_program(pretty_print(singleton(compile_gate(GateMatrix(u), range(n), n))))
    sorts = []
    real = syntax._merged
    monkeypatch.setattr(syntax, "_merged", lambda summands: sorts.append(1) or real(summands))
    assert check_program(program)[0] == Arrow(qubits(n), qubits(n))
    assert len(sorts) == 1 << n


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


@pytest.mark.parametrize("units, undecided", [(4000, False), (5000, True)])
def test_every_contraction_of_an_instance_counts_against_the_step_budget(units, undecided):
    # a unit head is a contraction like any other: the branches' instances
    # take units + 1 steps, and past `_INSTANCE_STEPS` (4096) the match is
    # undecided
    chain = "* ; " * units
    program = parse_program(rf"\s:U+U. match s {{ inl a -> a ; {chain}inl * "
                            rf"| inr b -> b ; {chain}inr * }}")
    if not undecided:
        assert check_program(program)[0] == Arrow(BOOL, BOOL)
        return
    with pytest.raises(TypeCheckError) as e:
        check_program(program)
    assert e.value.kind is ErrorKind.ORTHOGONALITY_UNDECIDED
    assert "no normal form within 4096 steps" in str(e.value)


def test_a_match_too_wide_to_enumerate_is_refused_before_its_branches_are_typed(monkeypatch):
    # the root of a 14-qubit case tree shares the register's rest, 2^13
    # values: the types refuse it before anything below it is checked, so
    # no branch instance is ground
    grounds = []
    instance = _Checker._instance
    monkeypatch.setattr(_Checker, "_instance",
                        lambda self, *a: grounds.append(1) or instance(self, *a))
    n = 14
    lam = case_construct(n, [singleton(basis_value(k ^ 1, n)) for k in range(1 << n)])
    with pytest.raises(TypeCheckError) as e:
        check_program(singleton(lam))
    assert e.value.kind is ErrorKind.ORTHOGONALITY_UNDECIDED
    assert not grounds


@pytest.mark.parametrize("n, kind", [(12, ErrorKind.MISMATCH),
                                     (13, ErrorKind.ORTHOGONALITY_UNDECIDED)])
def test_a_typing_error_inside_a_match_too_wide_to_enumerate_loses_to_the_refusal(n, kind):
    # the left branch passes a pair where the register goes: typing it
    # reports a Mismatch, but a match that cannot be enumerated is refused
    # before its branches are typed
    text = _routed(n, "inl", "inr").replace(") y | ", ") (y, *) | ")
    with pytest.raises(TypeCheckError) as e:
        check_program(parse_program(text))
    assert e.value.kind is kind
