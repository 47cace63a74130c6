"""Algorithmic type checker: inference, linearity, superpositions, branch
orthogonality, reconstructed derivations, and the recursive value rules,
inventories and disjointness test that the checker's walks replaced, as
references."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generator import (
    deep_open_values,
    deep_types,
    flow_programs,
    trace_programs,
    types,
    value_distributions,
)
from qlam.config import tolerance
from qlam.quantum import StateVector, case_construct, encode
from qlam.surface import parse_program, parse_type
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
    free_vars_dist,
    mk_app,
    mk_inl,
    mk_inr,
    mk_match,
    mk_seq,
    scale,
    singleton,
)
from qlam.typecheck import (
    _CAP,
    Derivation,
    ErrorKind,
    TypeCheckError,
    _Checker,
    _enumerate_values,
    _structurally_disjoint,
    check_distribution,
    check_orthogonal_judgment,
    check_program,
    check_pure,
    type_of_program,
)
from qlam.types import (
    BOOL,
    UNIT,
    Arrow,
    Prod,
    Sharp,
    Sum,
    Unit,
    Unknown,
    ground_unknowns,
    qubits,
    subtype,
)

STAR = Void()
INL = InlV(STAR)
INR = InrV(STAR)
_R2 = 1 / math.sqrt(2)
PLUS = Distribution(((_R2, INL), (_R2, INR)))
SBOOL = Sharp(BOOL)


def _rejects(kind: ErrorKind, thunk):
    with pytest.raises(TypeCheckError) as e:
        thunk()
    assert e.value.kind == kind, e.value
    return e.value


# ------------------------------------------------------------ pure terms


def test_unit_value():
    assert check_pure({}, STAR) == UNIT


def test_identity_on_a_qubit_register():
    t = Lam("x", SBOOL, singleton(Var("x")))
    assert check_pure({}, t) == Arrow(SBOOL, SBOOL)


def test_duplicating_a_superposed_variable_is_rejected():
    _rejects(
        ErrorKind.LINEARITY_VIOLATION,
        lambda: check_pure({"x": SBOOL}, PairV(Var("x"), Var("x"))),
    )


def test_discarding_a_superposed_variable_is_rejected():
    _rejects(
        ErrorKind.LINEARITY_VIOLATION,
        lambda: check_pure({}, Lam("x", SBOOL, singleton(STAR))),
    )
    _rejects(ErrorKind.LINEARITY_VIOLATION, lambda: check_pure({"q": SBOOL}, STAR))


def test_flat_variables_duplicate_and_discard_freely():
    dup = Lam("x", BOOL, singleton(PairV(Var("x"), Var("x"))))
    assert check_pure({}, dup) == Arrow(BOOL, Prod(BOOL, BOOL))
    drop = Lam("x", BOOL, singleton(STAR))
    assert check_pure({}, drop) == Arrow(BOOL, UNIT)


def test_unbound_variable():
    _rejects(ErrorKind.UNBOUND_VARIABLE, lambda: check_pure({}, Var("ghost")))
    _rejects(
        ErrorKind.UNBOUND_VARIABLE,
        lambda: type_of_program(singleton(App(Var("f"), STAR))),
    )


def test_application_subsumes_argument():
    lam = Lam("x", SBOOL, singleton(Var("x")))
    d = mk_app(lam, singleton(INL))       # bare U+U argument lifts into #(U+U)
    assert type_of_program(d) == SBOOL


def test_application_argument_mismatch():
    lam = Lam("x", Prod(UNIT, UNIT), singleton(Var("x")))
    _rejects(
        ErrorKind.MISMATCH, lambda: type_of_program(mk_app(lam, singleton(INL)))
    )


def test_operator_must_be_an_arrow():
    _rejects(
        ErrorKind.MISMATCH,
        lambda: check_pure({}, App(STAR, STAR)),
    )


def test_seq_pure_and_unitary():
    assert type_of_program(singleton(Seq(STAR, singleton(INL)))) == BOOL
    lam = Lam("u", Sharp(UNIT), singleton(Seq(Var("u"), singleton(INL))))
    assert check_pure({}, lam) == Arrow(Sharp(UNIT), SBOOL)


def test_seq_head_must_be_unit_typed():
    _rejects(
        ErrorKind.MISMATCH,
        lambda: type_of_program(singleton(Seq(INL, singleton(STAR)))),
    )


def test_let_pure():
    body = singleton(PairV(Var("b"), Var("a")))
    t = Lam("p", Prod(BOOL, UNIT), singleton(LetPair("a", "b", Var("p"), body)))
    assert check_pure({}, t) == Arrow(Prod(BOOL, UNIT), Prod(UNIT, BOOL))


def test_let_unitary_lifts_binders_and_result():
    body = singleton(Seq(Var("a"), singleton(Var("b"))))
    t = Lam("p", Sharp(Prod(UNIT, UNIT)),
            singleton(LetPair("a", "b", Var("p"), body)))
    assert check_pure({}, t) == Arrow(Sharp(Prod(UNIT, UNIT)), Sharp(UNIT))


def test_match_pure_with_orthogonal_constant_branches():
    t = Lam("s", BOOL, singleton(
        Match(Var("s"), "x", singleton(INR), "y", singleton(INL))
    ))
    assert check_pure({}, t) == Arrow(BOOL, BOOL)


def test_match_pure_same_constant_branches_rejected():
    # the orthogonality premise is part of every match, not only the
    # superposed one: identical branch results give inner product 1
    t = Lam("s", BOOL, singleton(
        Match(Var("s"), "x", singleton(INL), "y", singleton(INL))
    ))
    _rejects(ErrorKind.ORTHOGONALITY_FAILURE, lambda: check_pure({}, t))


def test_match_branch_usage_must_agree():
    t = Lam("q", SBOOL, singleton(Lam("s", BOOL, singleton(
        Match(Var("s"), "x", singleton(Var("q")), "y", singleton(INL))
    ))))
    _rejects(ErrorKind.LINEARITY_VIOLATION, lambda: check_pure({}, t))


def test_match_shared_superposed_variable_needs_orthogonal_uses():
    # both branches return the same shared q; enumerating q's basis produces
    # a witness where the branches coincide
    t = Lam("q", SBOOL, singleton(Lam("s", BOOL, singleton(
        Match(Var("s"), "x", singleton(Var("q")), "y", singleton(Var("q")))
    ))))
    _rejects(ErrorKind.ORTHOGONALITY_FAILURE, lambda: check_pure({}, t))


def test_match_on_non_sum_rejected():
    _rejects(
        ErrorKind.MISMATCH,
        lambda: check_pure({}, Lam("s", UNIT, singleton(
            Match(Var("s"), "x", singleton(INL), "y", singleton(INR))
        ))),
    )


# --------------------------------------------------------- distributions


def test_plus_state_checks_at_qubit_type():
    assert check_distribution({}, PLUS, SBOOL) is True
    assert type_of_program(PLUS) == SBOOL


def test_norm_violation():
    two = Distribution(((1, INL), (1, INR)))
    _rejects(ErrorKind.NORM_VIOLATION, lambda: check_distribution({}, two, SBOOL))


def test_norm_tolerance_is_configurable():
    skewed = Distribution(((_R2 + 1e-8, INL), (_R2, INR)))
    assert check_distribution({}, skewed, SBOOL) is True
    with tolerance(1e-12):
        _rejects(
            ErrorKind.NORM_VIOLATION,
            lambda: check_distribution({}, skewed, SBOOL),
        )


def test_tolerance_is_local_to_its_context():
    import contextvars

    from qlam.config import DEFAULT_TOLERANCE, get_tolerance, set_tolerance

    skewed = Distribution(((_R2 + 1e-8, INL), (_R2, INR)))

    def strict() -> float:
        set_tolerance(1e-12)
        _rejects(ErrorKind.NORM_VIOLATION, lambda: check_distribution({}, skewed, SBOOL))
        return get_tolerance()

    assert contextvars.copy_context().run(strict) == 1e-12
    assert get_tolerance() == DEFAULT_TOLERANCE
    assert check_distribution({}, skewed, SBOOL) is True
    with tolerance(0.5):
        with tolerance(1e-12):
            assert get_tolerance() == 1e-12
        assert get_tolerance() == 0.5
    assert get_tolerance() == DEFAULT_TOLERANCE
    with pytest.raises(ValueError):
        with tolerance(0):
            pass


def test_superposition_of_functions_rejected():
    d = Distribution((
        (_R2, Lam("x", UNIT, singleton(Var("x")))),
        (_R2, Lam("x", UNIT, singleton(Seq(STAR, singleton(Var("x")))))),
    ))
    _rejects(
        ErrorKind.SUP_AT_ARROW_TYPE,
        lambda: check_distribution({}, d, Sharp(Arrow(UNIT, UNIT))),
    )
    # same verdict when inferring without an expected type
    _rejects(ErrorKind.SUP_AT_ARROW_TYPE, lambda: type_of_program(d))


def test_proper_distribution_needs_a_superposed_type():
    _rejects(ErrorKind.MISMATCH, lambda: check_distribution({}, PLUS, BOOL))


def test_superposition_must_be_closed():
    open_sup = Distribution(((_R2, Var("x")), (_R2, INR)))
    _rejects(
        ErrorKind.MISMATCH,
        lambda: check_distribution({"x": BOOL}, open_sup, SBOOL),
    )
    _rejects(
        ErrorKind.UNBOUND_VARIABLE,
        lambda: check_distribution({}, open_sup, SBOOL),
    )


def test_phase_singleton_is_a_superposition():
    assert type_of_program(singleton(STAR, 1j)) == Sharp(UNIT)
    assert type_of_program(singleton(INL, -1)) == SBOOL
    half = singleton(STAR, 0.5)
    _rejects(ErrorKind.NORM_VIOLATION, lambda: type_of_program(half))


def test_single_summand_routes_to_term_inference():
    assert check_distribution({}, singleton(INL), BOOL) is True
    assert check_distribution({}, singleton(INL), SBOOL) is True
    _rejects(
        ErrorKind.MISMATCH,
        lambda: check_distribution({}, singleton(STAR), BOOL),
    )


def test_unapplied_application_distribution():
    lam = Lam("x", SBOOL, singleton(Var("x")))
    d = mk_app(lam, PLUS)
    assert type_of_program(d) == SBOOL


def test_unapplied_seq_with_phase_head():
    d = mk_seq(singleton(STAR, 1j), singleton(INL))
    assert type_of_program(d) == SBOOL


def test_unapplied_match_over_a_superposed_scrutinee():
    d = mk_match(PLUS, "x", singleton(InlV(Var("x"))), "y", singleton(InrV(Var("y"))))
    assert type_of_program(d) == Sharp(Sum(Sharp(UNIT), Sharp(UNIT)))


def test_mixed_tails_fit_no_notation():
    d = Distribution((
        (_R2, Seq(STAR, singleton(INL))),
        (_R2, Seq(STAR, singleton(INR))),
    ))
    _rejects(ErrorKind.MISMATCH, lambda: type_of_program(d))


@pytest.mark.parametrize("src, subject", [
    # the holes are reordered, and each summand keeps its own term
    (r"0.6 * (\x:#B. x) (inr *) + 0.8 * (\x:#B. x) (inl *)",
     r"0.8 * (\x:#(U+U). x) inl * + 0.6 * (\x:#(U+U). x) inr *"),
    # equal holes merge into one unscaled summand, which keeps the first term
    (r"0.5 * (\x:#B. x) (inl *) + 0.5 * (\x:#B. x) (inl *)", r"(\x:#(U+U). x) inl *"),
])
def test_a_shared_context_orders_and_merges_its_summands_by_their_holes(src, subject):
    ty, der = check_program(parse_program(src))
    assert ty == SBOOL
    assert (der.rule, der.subject) == ("apply", subject)
    assert check_distribution({}, parse_program(src), SBOOL) is True


def test_operators_that_differ_share_no_context():
    # the two lambdas are not alpha-equivalent, so the summands are neither
    # one elimination nor a superposition of values
    d = parse_program(r"0.6 * (\x:U. inl x) * + 0.8 * (\x:U. inr x) *")
    text = ("Mismatch: a proper distribution must be a superposition of values or a single "
            r"elimination distributed across its summands (in 0.6 * (\x:U. inl x) * + "
            r"0.8 * (\x:U. inr x) *)")
    for check in (lambda: check_program(d), lambda: check_distribution({}, d, SBOOL)):
        with pytest.raises(TypeCheckError) as e:
            check()
        assert e.value.kind is ErrorKind.MISMATCH and str(e.value) == text


def test_ghz_style_register():
    ghz = Distribution((
        (_R2, PairV(INL, PairV(INL, INL))),
        (_R2, PairV(INR, PairV(INR, INR))),
    ))
    assert type_of_program(ghz) == qubits(3)
    assert check_distribution({}, ghz, qubits(3)) is True


# ---------------------------------------------------- orthogonality judgment


def test_orthogonal_injected_binders():
    assert check_orthogonal_judgment(
        {},
        ("x1", BOOL), singleton(InlV(Var("x1"))),
        ("x2", BOOL), singleton(InrV(Var("x2"))),
        Sum(BOOL, BOOL),
    ) is True


def test_orthogonality_failure_on_equal_constants():
    err = _rejects(
        ErrorKind.ORTHOGONALITY_FAILURE,
        lambda: check_orthogonal_judgment(
            {},
            ("x1", UNIT), singleton(INL),
            ("x2", UNIT), singleton(INL),
            BOOL,
        ),
    )
    assert "not orthogonal" in str(err)


def test_controlled_not_images_pairwise_orthogonal():
    lo, hi = INL, INR
    basis = {
        0: PairV(lo, lo), 1: PairV(lo, hi), 2: PairV(hi, lo), 3: PairV(hi, hi)
    }
    images = [basis[0], basis[1], basis[3], basis[2]]   # swap the last two
    for i in range(4):
        for j in range(i + 1, 4):
            assert check_orthogonal_judgment(
                {},
                ("a", UNIT), singleton(images[i]),
                ("b", UNIT), singleton(images[j]),
                qubits(2),
            ) is True


def test_orthogonality_with_shared_enumerable_variable():
    # branches copy a classical bit into opposite constructors: orthogonal
    # under every assignment of the shared c
    assert check_orthogonal_judgment(
        {"c": BOOL},
        ("x1", UNIT), singleton(InlV(Var("c"))),
        ("x2", UNIT), singleton(InrV(Var("c"))),
        Sum(BOOL, BOOL),
    ) is True
    # both branches return the shared bit itself: any assignment is a witness
    _rejects(
        ErrorKind.ORTHOGONALITY_FAILURE,
        lambda: check_orthogonal_judgment(
            {"c": BOOL},
            ("x1", UNIT), singleton(Var("c")),
            ("x2", UNIT), singleton(Var("c")),
            BOOL,
        ),
    )


def test_superposed_shared_variable_is_compared_across_its_values():
    # c and "not c" are orthogonal at each basis value of c, but not when c
    # may be a superposition: the left branch at inl * meets the right at inr *
    neg = parse_program("match c { inl a -> a ; inr * | inr b -> b ; inl * }")
    assert check_orthogonal_judgment(
        {"c": BOOL}, ("x1", UNIT), parse_program("c"), ("x2", UNIT), neg, BOOL,
    ) is True
    with pytest.raises(TypeCheckError) as e:
        check_orthogonal_judgment(
            {"c": SBOOL}, ("x1", UNIT), parse_program("c"), ("x2", UNIT), neg, SBOOL,
        )
    assert e.value.kind is ErrorKind.ORTHOGONALITY_FAILURE
    assert "under c := inl * / c := inr * (binders * / *)" in str(e.value)


def test_orthogonality_compares_only_instances_that_share_a_key(monkeypatch):
    # 256 values of the superposable c make 65k cross-assignment pairs, but
    # no left instance inl v shares a basis value with a right instance inr w
    import qlam.typecheck as typecheck

    calls = []
    real = typecheck.orthogonal
    monkeypatch.setattr(typecheck, "orthogonal",
                        lambda v, w: calls.append(1) or real(v, w))
    c = singleton(Var("c"))
    assert check_orthogonal_judgment(
        {"c": qubits(8)}, ("x1", UNIT), mk_inl(c), ("x2", UNIT), mk_inr(c),
        Sharp(Sum(qubits(8), qubits(8))),
    ) is True
    assert calls == []
    # left inl v meets right inl v under the same c only: 256 inner products
    _rejects(ErrorKind.ORTHOGONALITY_FAILURE, lambda: check_orthogonal_judgment(
        {"c": qubits(8)}, ("x1", UNIT), mk_inl(c), ("x2", UNIT), mk_inl(c),
        Sharp(Sum(qubits(8), qubits(8))),
    ))
    assert len(calls) == 1


def test_case_tree_with_a_distant_duplicate_column_is_rejected():
    # columns 0 and 3 differ in both index bits; the outer match meets them
    # under different values of the shared, superposable second qubit
    images = [encode(StateVector(np.eye(4)[:, k])) for k in range(4)]
    images[3] = images[0]
    _rejects(ErrorKind.ORTHOGONALITY_FAILURE,
             lambda: check_program(singleton(case_construct(2, images))))


def test_function_dependent_branches_are_undecided():
    # the oracle-builder shape: branch results pass through an opaque f
    t = Lam("f", Arrow(BOOL, Sharp(BOOL)), singleton(
        Lam("q", SBOOL, singleton(
            Match(Var("q"),
                  "u", mk_seq(singleton(Var("u")), mk_app(Var("f"), singleton(INL))),
                  "w", mk_seq(singleton(Var("w")), mk_app(Var("f"), singleton(INR))))
        ))
    ))
    _rejects(ErrorKind.ORTHOGONALITY_UNDECIDED, lambda: check_pure({}, t))


def test_structural_criterion_handles_wide_types():
    # a pair component with an arrow type is not enumerable, but the branch
    # values disagree on a rigid constructor position
    wide = Prod(Arrow(UNIT, UNIT), UNIT)
    assert check_orthogonal_judgment(
        {"g": wide},
        ("x1", UNIT), singleton(InlV(STAR)),
        ("x2", UNIT), singleton(InrV(STAR)),
        BOOL,
    ) is True


# ------------------------------------------------------------ derivations

_RULES = {
    "var": (0, 0),
    "unit": (0, 0),
    "lambda": (1, 1),
    "pair": (2, 2),
    "inl": (1, 1),
    "inr": (1, 1),
    "apply": (2, 2),
    "seq-pure": (2, 2),
    "seq-super": (2, 2),
    "let-pure": (2, 2),
    "let-super": (2, 2),
    "match-pure": (3, 3),
    "match-super": (3, 3),
    "superposition": (1, None),
}


def _walk(d: Derivation):
    yield d
    for c in d.children:
        yield from _walk(c)


_PROGRAMS = [
    singleton(STAR),
    PLUS,
    singleton(Lam("x", SBOOL, singleton(Var("x")))),
    mk_app(Lam("x", SBOOL, singleton(Var("x"))), PLUS),
    singleton(Seq(STAR, singleton(INL))),
    singleton(Lam("p", Prod(BOOL, UNIT), singleton(
        LetPair("a", "b", Var("p"), singleton(PairV(Var("b"), Var("a"))))
    ))),
    singleton(Lam("s", BOOL, singleton(
        Match(Var("s"), "x", singleton(INR), "y", singleton(INL))
    ))),
]


def test_derivations_are_well_formed():
    for prog in _PROGRAMS:
        _, der = check_program(prog)
        for node in _walk(der):
            assert node.rule in _RULES, node.rule
            lo, hi = _RULES[node.rule]
            assert len(node.children) >= lo
            if hi is not None:
                assert len(node.children) <= hi
            assert node.subject


def test_root_derivation_replays():
    # the printed subject of the root node re-parses and re-checks to the
    # same grounded type, a mechanical soundness spot-check
    for prog in _PROGRAMS:
        ty, der = check_program(prog)
        if der.subject.endswith("..."):
            continue
        again = type_of_program(parse_program(der.subject))
        assert again == ground_unknowns(der.type) == ty


def test_superposition_nodes_carry_unit_norm_subjects():
    for prog in _PROGRAMS:
        _, der = check_program(prog)
        for node in _walk(der):
            if node.rule == "superposition" and not node.subject.endswith("..."):
                d = parse_program(node.subject)
                total = sum(abs(a) ** 2 for a, _ in d.summands)
                assert abs(total - 1) < 1e-6


# ------------------------------------------------- classical flat fragment


_CLASSICAL = [
    ("\\x:U. x", Arrow(UNIT, UNIT)),
    ("\\x:(U+U). x", Arrow(BOOL, BOOL)),
    ("\\p:((U+U)*(U+U)). let (a, b) = p in (b, a)",
     Arrow(Prod(BOOL, BOOL), Prod(BOOL, BOOL))),
    ("\\s:(U+U). match s { inl x -> inr * | inr y -> inl * }",
     Arrow(BOOL, BOOL)),
    ("\\x:(U+U). \\y:U. x", Arrow(BOOL, Arrow(UNIT, BOOL))),
    ("\\f:(U -> U). \\x:U. f (f x)", Arrow(Arrow(UNIT, UNIT), Arrow(UNIT, UNIT))),
    ("(\\x:(U+U). (x, x)) (inl *)", Prod(BOOL, BOOL)),
]


def test_classical_fragment_embeds():
    for src, expected in _CLASSICAL:
        prog = parse_program(src)
        got = type_of_program(prog)
        assert got == expected, f"{src}: {got}"
        assert subtype(got, expected) and subtype(expected, got)


# ------------------------------------------------- the replaced recursions
#
# `reference_value_rule`, `reference_enumerate_values` and
# `reference_structurally_disjoint` are the recursive code that the value
# walk, the inventory walk and the worklist of pending positions replaced.
# The tests below hold the checker to them on generator programs, on the
# programs of `eager_errors.json`, and on open values up to 80 layers deep
# (`generator.deep_open_values`), below the recursion limit.


def reference_value_rule(t, infer):
    """The rules for the unit value, pairs and injections, with `infer`
    typing the components."""
    match t:
        case Void():
            return UNIT, Derivation("unit", t, UNIT)
        case PairV(a, b):
            ta, da = infer(a)
            tb, db = infer(b)
            ty = Prod(ta, tb)
            return ty, Derivation("pair", t, ty, (da, db))
        case InlV(v):
            tv, dv = infer(v)
            ty = Sum(tv, Unknown())
            return ty, Derivation("inl", t, ty, (dv,))
        case InrV(v):
            tv, dv = infer(v)
            ty = Sum(Unknown(), tv)
            return ty, Derivation("inr", t, ty, (dv,))
    raise TypeError(f"not a value node: {t!r}")


class _ReferenceChecker(_Checker):
    """The checker whose value case recurses through the value rules, for
    ground values as for open ones.  `_term` is where the checker's loop
    types every term premise, a value nested in another rule's premise too;
    the components go through `infer_term`, a loop of their own."""

    def _term(self, t):
        if isinstance(t, (Void, PairV, InlV, InrV)):
            return reference_value_rule(t, self.infer_term)
        return super()._term(t)

    def _superposition(self, cd, expected_core):
        # each summand of a closed superposition is a premise typed through
        # `_term` above, where the checker types ground summands at once
        if free_vars_dist(cd):
            return super()._superposition(cd, expected_core)
        return self._superposed_premises(cd, expected_core)


def _typing_outcome(infer, x):
    try:
        return infer(x)
    except TypeCheckError as e:
        return str(e)


def _assert_same_typing(got, want):
    if isinstance(want, str):
        assert got == want
    else:
        assert got[0] is want[0]
        assert got[1] == want[1]


def test_programs_are_typed_as_the_recursive_value_rules_type_them():
    eager = json.loads((Path(__file__).parent / "eager_errors.json").read_text())
    programs = [d for d, _ in trace_programs(41, 150)]
    programs += [d for d, _ in flow_programs(42, 150)]
    programs += value_distributions(43, 100)
    for src in eager["programs"]:
        try:
            programs.append(parse_program(src))
        except TypeCheckError:  # HeadNotPure, which the parser raises
            pass
    for d in programs:
        _assert_same_typing(_typing_outcome(_Checker(record=True).infer_dist, d),
                            _typing_outcome(_ReferenceChecker(record=True).infer_dist, d))


# the free names of the open values below; the non-flat ones make a second
# use a linearity violation, raised at the use the rules reach first
_OPEN_CONTEXT = {"x": UNIT, "x_1": Sharp(UNIT), "y": BOOL, "z": qubits(1)}


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 80).flatmap(deep_open_values))
def test_open_values_are_typed_as_the_recursive_value_rules_type_them(v):
    outcomes = []
    for checker in (_Checker(record=True), _ReferenceChecker(record=True)):
        for x, ty in _OPEN_CONTEXT.items():
            checker._bind(x, ty)
        outcomes.append(_typing_outcome(checker.infer_term, v))
    _assert_same_typing(*outcomes)


def reference_enumerate_values(ty):
    """All ground values of an arrow-free type, None when not enumerable."""
    match ty:
        case Unit() | Unknown():
            return (Void(),)
        case Sharp(inner):
            return reference_enumerate_values(inner)
        case Sum(l, r):
            lv = reference_enumerate_values(l)
            rv = reference_enumerate_values(r)
            if lv is None or rv is None or len(lv) + len(rv) > _CAP:
                return None
            return tuple(InlV(v) for v in lv) + tuple(InrV(v) for v in rv)
        case Prod(l, r):
            lv = reference_enumerate_values(l)
            rv = reference_enumerate_values(r)
            if lv is None or rv is None or len(lv) * len(rv) > _CAP:
                return None
            return tuple(PairV(a, b) for a in lv for b in rv)
        case _:
            return None


@settings(max_examples=300, deadline=None)
@given(types(), deep_types(300), st.integers(1, 10))
def test_inventories_are_the_recursive_ones(a, text, n):
    for ty in (a, Sharp(a), Prod(a, BOOL), Sum(BOOL, a), parse_type(text),
               qubits(n), Prod(a, qubits(n)), Sum(qubits(n), a)):
        assert _enumerate_values(ty, {}) == reference_enumerate_values(ty)


def test_the_cap_is_the_widest_register():
    # a 12-qubit register has 2^12 values, as many as the cap allows; one
    # more value, or one more qubit, is past it
    assert _CAP == 1 << 12
    assert _enumerate_values(qubits(12), {}) == reference_enumerate_values(qubits(12))
    assert len(_enumerate_values(qubits(12), {})) == _CAP
    assert _enumerate_values(Sum(qubits(12), UNIT), {}) is None
    assert _enumerate_values(qubits(13), {}) is None


def test_a_shared_part_is_enumerated_once(monkeypatch):
    # P_k = P_(k-1) * P_(k-1) has 2^k leaves but k + 1 distinct parts, and
    # one value, a pair of its part's value with itself
    import qlam.typecheck as typecheck

    ty, value = UNIT, Void()
    for k in range(1, 61):
        ty, value = Prod(ty, ty), PairV(value, value)
        if k <= 8:
            assert _enumerate_values(ty, {}) == reference_enumerate_values(ty)
    built = []
    real = typecheck._inventory

    def counted(t, parts):
        built.append(t)
        assert len(built) <= 62, "a part is enumerated twice in one call"
        return real(t, parts)

    monkeypatch.setattr(typecheck, "_inventory", counted)
    # each call is given a fresh dict, so each builds its own distinct parts
    for t, want in ((ty, (value,)), (Sum(Sharp(ty), ty), (InlV(value), InrV(value)))):
        built.clear()
        assert _enumerate_values(t, {}) == want


def reference_structurally_disjoint(v1, v2):
    """A rigid position where one side is all inl and the other all inr."""
    if all(isinstance(t, InlV) for t in v1) and all(isinstance(t, InrV) for t in v2):
        return True
    if all(isinstance(t, InrV) for t in v1) and all(isinstance(t, InlV) for t in v2):
        return True
    if all(isinstance(t, InlV) for t in v1) and all(isinstance(t, InlV) for t in v2):
        return reference_structurally_disjoint([t.value for t in v1], [t.value for t in v2])
    if all(isinstance(t, InrV) for t in v1) and all(isinstance(t, InrV) for t in v2):
        return reference_structurally_disjoint([t.value for t in v1], [t.value for t in v2])
    if all(isinstance(t, PairV) for t in v1) and all(isinstance(t, PairV) for t in v2):
        return reference_structurally_disjoint(
            [t.first for t in v1], [t.first for t in v2]
        ) or reference_structurally_disjoint(
            [t.second for t in v1], [t.second for t in v2]
        )
    return False


# the layers values are wrapped in: injections, and pairs with the rest on
# either side
_LAYERS = (InlV, InrV, lambda v: PairV(v, STAR), lambda v: PairV(Var("x"), v))


def _wrapped(layers, core):
    for i in layers:
        core = _LAYERS[i](core)
    return core


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 3), max_size=300),
       st.lists(st.tuples(st.lists(st.integers(0, 3), max_size=3),
                          st.integers(0, 12).flatmap(deep_open_values)),
                min_size=2, max_size=5),
       st.integers(1, 4))
def test_structural_disjointness_is_the_recursive_one(spine, ends, cut):
    # values that share one spine of layers, each ending in a few layers of
    # its own around an open value, split into the two sides
    values = [_wrapped(spine, _wrapped(layers, core)) for layers, core in ends]
    cut = min(cut, len(values) - 1)
    v1, v2 = values[:cut], values[cut:]
    assert _structurally_disjoint(v1, v2) is reference_structurally_disjoint(v1, v2)
    assert _structurally_disjoint(v2, v1) is reference_structurally_disjoint(v2, v1)


def test_a_deep_rigid_position_needs_no_recursion():
    spine = [0, 2, 1, 3] * 2_500
    left, right = _wrapped(spine, INL), _wrapped(spine, INR)
    assert _structurally_disjoint([left], [right])
    assert not _structurally_disjoint([left, right], [right])
