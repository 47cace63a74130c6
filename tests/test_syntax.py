"""Distribution algebra: canonical forms, congruence, substitution, printing.

`reference_free_vars` and `reference_subst` are the recursive walkers, one
case per term form, that the loops over `syntax._FORMS` replaced.  The
equivalence tests at the end hold free variables and substitution to them
on generator programs, on opened programs whose substitution renames
binders, on compiled gates at n = 1..4, and on open values up to 80 layers
deep under binders that shadow one another (`generator.deep_open_values`).
The walkers run on `types.walk`, so terms 10,000 deep need no recursion.

`reference_key` builds the structural order as nested keys, one case per
term form: the oracle for `compare`, which orders terms without building
keys and is the order's only implementation.  The comparison tests at the
end hold its sign to the reference keys' on generator terms, their
alpha-variants and changed copies (`generator.alpha_variant`), and deep
open values, and order terms that differ only under 10,000 layers with the
recursion limit a few frames above the caller.
"""

from __future__ import annotations

import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generator import (
    OPEN_NAMES,
    ProgramGen,
    _open_value,
    alpha_variant,
    deep_open_values,
    flow_programs,
    trace_programs,
)
from qlam.inner import inner_product, keyed
from qlam.quantum import GateMatrix, compile_gate, compile_isometry, gate_library
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
    _FORMS,
    _trusted,
    add,
    alpha_eq,
    canonicalize,
    compare,
    congruent,
    dist_alpha_eq,
    fresh_name,
    free_vars,
    free_vars_dist,
    is_value,
    is_value_distribution,
    mk_app,
    mk_inl,
    mk_let,
    mk_match,
    mk_pair,
    mk_seq,
    scale,
    show_dist,
    show_term,
    singleton,
    substitute,
    substitute_dist,
    substitute_many,
    substitute_many_dist,
)
from qlam.surface import parse_program
from qlam.typecheck import _same_context
from qlam.types import BOOL, UNIT, Sharp, type_key
from test_lexer import _unitary
from test_rewrite import _opened

STAR = Void()
INL = InlV(STAR)
INR = InrV(STAR)


def dist(*pairs) -> Distribution:
    return Distribution(tuple(pairs))


# ------------------------------------------------------------ construction


def test_distribution_must_be_nonempty():
    with pytest.raises(ValueError):
        Distribution(())


def test_distribution_rejects_nonfinite_coefficients():
    with pytest.raises(ValueError):
        dist((float("nan"), STAR))
    with pytest.raises(ValueError):
        dist((complex(1, float("inf")), STAR))


def test_value_layer_is_enforced():
    with pytest.raises(ValueError):
        PairV(STAR, App(Var("f"), STAR))
    with pytest.raises(ValueError):
        InlV(Seq(STAR, singleton(STAR)))
    with pytest.raises(ValueError):
        InrV(App(Var("f"), STAR))
    with pytest.raises(ValueError):
        LetPair("x", "x", PairV(STAR, STAR), singleton(STAR))


def test_is_value():
    assert is_value(Lam("x", UNIT, singleton(Var("x"))))
    assert is_value(PairV(INL, INR))
    assert not is_value(App(Var("f"), STAR))
    assert not is_value(Seq(STAR, singleton(STAR)))
    assert is_value_distribution(dist((1, INL), (0, INR)))
    assert not is_value_distribution(dist((1, INL), (1, App(Var("f"), STAR))))


# ------------------------------------------------------------- canonical


def test_canonicalize_merges_alpha_equivalent_summands():
    d = dist((2, Lam("x", UNIT, singleton(Var("x")))),
             (3, Lam("y", UNIT, singleton(Var("y")))))
    c = canonicalize(d)
    assert len(c.summands) == 1
    assert c.summands[0][0] == 5


def test_canonicalize_keeps_merged_zero():
    d = dist((1, INL), (-1, INL))
    c = canonicalize(d)
    assert len(c.summands) == 1
    assert c.summands[0][0] == 0


def test_canonicalize_keeps_explicit_zero_summand():
    d = dist((1, INL), (0, INR))
    assert len(canonicalize(d).summands) == 2


def test_canonicalize_order_is_input_independent():
    a = dist((1, INR), (2j, INL), (0.5, STAR))
    b = dist((0.5, STAR), (1, INR), (2j, INL))
    assert canonicalize(a) == canonicalize(b)


def test_congruent_is_commutative_in_the_sum():
    a = add(singleton(INL, 0.6), singleton(INR, 0.8))
    b = add(singleton(INR, 0.8), singleton(INL, 0.6))
    assert congruent(a, b)


def test_zero_summand_distinguishes():
    # an explicit zero amplitude is part of the distribution, not noise
    assert not congruent(singleton(INL), dist((1, INL), (0, INR)))


def test_congruent_tolerance():
    a = singleton(STAR, 1.0)
    b = singleton(STAR, 1.0 + 5e-7)
    assert congruent(a, b)             # default 1e-6
    assert not congruent(a, b, tol=1e-9)
    assert congruent(a, b, tol=1e-5)
    assert not congruent(singleton(STAR, 1.0), singleton(STAR, 1.1))


def test_scale_and_add_are_raw():
    d = scale(2, dist((1, INL), (3, INR)))
    assert d.summands == ((2 + 0j, INL), (6 + 0j, INR))
    s = add(singleton(INL), singleton(INL))
    assert len(s.summands) == 2            # concatenation, no merging
    assert len(canonicalize(s).summands) == 1


# ---------------------------------------------------------- substitution


def test_substitute_basic():
    t = App(Var("f"), Var("x"))
    assert substitute(t, "x", STAR) == App(Var("f"), STAR)


def test_substitute_shadowed_binder_left_alone():
    t = Lam("x", UNIT, singleton(Var("x")))
    assert substitute(t, "x", STAR) == t


def test_substitute_avoids_capture():
    # (\y. x + y)[x := y] must rename the binder, not capture
    t = Lam("y", UNIT, dist((1, Var("x")), (1, Var("y"))))
    r = substitute(t, "x", Var("y"))
    assert isinstance(r, Lam)
    assert r.name != "y"
    assert free_vars(r) == frozenset({"y"})
    assert alpha_eq(r, Lam("w", UNIT, dist((1, Var("y")), (1, Var("w")))))


def test_capture_avoiding_renames_do_not_depend_on_earlier_calls():
    # the renamed binder takes the smallest free suffix, not a process count
    t = Lam("y", UNIT, singleton(Var("x")))
    first = substitute(t, "x", Var("y"))
    second = substitute(t, "x", Var("y"))
    assert first == second == Lam("y_1", UNIT, singleton(Var("y")))
    assert str(first) == str(second) == "\\y_1:U. y"
    busy = Lam("y", UNIT, dist((1, Var("x")), (1, Var("y_1"))))
    assert substitute(busy, "x", Var("y")).name == "y_2"


def test_substitute_under_match_and_let():
    body = dist((1, Var("x")), (1, Var("a")))
    t = Match(Var("s"), "x", body, "y", singleton(Var("a")))
    r = substitute(t, "a", Var("x"))
    assert isinstance(r, Match)
    assert r.left_name != "x"          # renamed to dodge the incoming x
    assert free_vars(r) == frozenset({"s", "x"})

    lp = LetPair("p", "q", Var("s"), dist((1, Var("p")), (1, Var("z"))))
    r2 = substitute(lp, "z", Var("p"))
    assert isinstance(r2, LetPair)
    assert r2.left != "p"
    assert free_vars(r2) == frozenset({"s", "p"})


def test_substitute_leaves_bodies_without_the_name_untouched():
    closed = dist((0.6, InlV(STAR)), (0.8, Lam("z", UNIT, singleton(Var("z")))))
    bodies = [
        singleton(Lam("y", UNIT, closed)),
        singleton(LetPair("p", "q", Var("s"), closed)),
        singleton(Match(Var("s"), "l", closed, "r", singleton(Var("r")))),
        # the name is bound, not free, below the binder
        singleton(Lam("x", UNIT, singleton(Var("x")))),
    ]
    for body in bodies:
        assert substitute_dist(body, "x", Var("y")) is body
    # only the part where the name is free is rebuilt; the rest is shared
    t = Match(Var("x"), "l", closed, "r", singleton(Var("r")))
    r = substitute(t, "x", INL)
    assert r.scrutinee == INL
    assert r.left_body is closed
    assert r.left_name == "l" and r.right_name == "r"


def test_substitute_does_not_rename_a_binder_the_name_does_not_reach():
    # the incoming y would clash with the binder, but x does not occur under it
    t = App(Var("x"), Lam("y", UNIT, singleton(Var("y"))))
    r = substitute(t, "x", Var("y"))
    assert r == App(Var("y"), Lam("y", UNIT, singleton(Var("y"))))


def test_free_variable_cache_is_invisible():
    def build():
        return Match(Var("s"), "l", singleton(PairV(Var("l"), Var("a"))),
                     "r", dist((0.6, Lam("x", UNIT, singleton(Var("x")))),
                               (0.8, Var("r"))))

    warm, fresh = build(), build()
    assert free_vars(warm) == frozenset({"s", "a"})
    assert free_vars_dist(warm.left_body) == frozenset({"l", "a"})
    assert warm == fresh and fresh == warm
    assert hash(warm) == hash(fresh)
    assert hash(warm.left_body) == hash(fresh.left_body)
    assert repr(warm) == repr(fresh)
    assert "_fv" not in repr(warm)
    for t in (warm, fresh):
        match t:
            case Match(Var("s"), "l", Distribution(((1, PairV()),)), "r", _):
                pass
            case _:
                pytest.fail("the pattern no longer matches a node")
    assert Match.__match_args__ == (
        "scrutinee", "left_name", "left_body", "right_name", "right_body")
    assert Distribution.__match_args__ == ("summands",)


def test_substitute_rejects_non_values():
    with pytest.raises(ValueError):
        substitute(Var("x"), "x", App(Var("f"), STAR))
    with pytest.raises(ValueError):
        substitute_dist(singleton(Var("x")), "x", Seq(STAR, singleton(STAR)))


def bilinear_substitute(d: Distribution, name: str, values: Distribution) -> Distribution:
    """Substitute a value distribution for a variable, bilinearly: every
    summand of `d` is paired with every summand of `values`, the coefficients
    multiply, and the result is canonicalized."""
    return canonicalize(Distribution(tuple(
        (a * b, substitute(t, name, v))
        for a, t in d.summands
        for b, v in values.summands
    )))


def test_bilinear_substitute_expands():
    d = dist((2, Var("x")), (3, InlV(Var("x"))))
    values = dist((5, STAR), (7j, INR))
    expected = dist(
        (10, STAR),
        (14j, INR),
        (15, InlV(STAR)),
        (21j, InlV(INR)),
    )
    assert congruent(bilinear_substitute(d, "x", values), expected, tol=0.0)


def test_bilinear_substitute_merges_collisions():
    d = dist((1, Var("x")), (1, STAR))
    out = bilinear_substitute(d, "x", singleton(STAR))
    assert out.summands == ((2 + 0j, STAR),)


# ------------------------------------------------------------- free vars


def test_free_vars():
    assert free_vars(Var("x")) == frozenset({"x"})
    assert free_vars(Lam("x", UNIT, singleton(Var("x")))) == frozenset()
    assert free_vars(Seq(Var("u"), singleton(Var("v")))) == frozenset({"u", "v"})
    assert free_vars(
        LetPair("a", "b", Var("p"), dist((1, Var("a")), (1, Var("c"))))
    ) == frozenset({"p", "c"})
    m = Match(Var("s"), "l", singleton(Var("l")), "r", singleton(Var("out")))
    assert free_vars(m) == frozenset({"s", "out"})
    assert free_vars_dist(dist((1, Var("x")), (1, Var("y")))) == frozenset({"x", "y"})


def _inr_chain(depth: int, name: str) -> PureTerm:
    return _chain(depth, Var(name))


def test_free_vars_of_deep_values_need_no_recursion():
    assert free_vars(_inr_chain(10_000, "x")) == frozenset({"x"})
    both = dist((0.6, _inr_chain(10_000, "x")), (0.8, _inr_chain(10_000, "y")))
    assert free_vars_dist(both) == frozenset({"x", "y"})
    # every node below was filled on the way, children first
    inner = both.summands[1][1]
    for _ in range(9_999):
        inner = inner.value
        assert inner._fv == frozenset({"y"})


def test_keys_and_substitution_of_deep_open_values_need_no_recursion():
    depth = 10_000
    lam = Lam("x", UNIT, singleton(_inr_chain(depth, "x")))
    # a lambda is keyed flat and told apart from another in its hash bucket
    # by `compare`: equal to an alpha-variant, and not to a body that ends in
    # another value
    k = keyed(singleton(lam))
    assert inner_product(k, singleton(Lam("y", UNIT, singleton(_inr_chain(depth, "y"))))) == 1
    assert inner_product(k, singleton(Lam("y", UNIT, singleton(_chain(depth, STAR))))) == 0
    # y := x under the binder x renames it to x_1, in a nested walk of the body
    open_lam = Lam("x", UNIT, singleton(PairV(_inr_chain(depth, "x"), Var("y"))))
    got = substitute(open_lam, "y", Var("x"))
    assert got.name == "x_1"
    pair = got.body.summands[0][1]
    assert pair.second == Var("x")
    chain = pair.first
    for _ in range(depth):
        chain = chain.value
    assert chain == Var("x_1")


# ---------------------------------------------------------------- alpha


def test_alpha_eq_renames_binders():
    assert alpha_eq(Lam("x", UNIT, singleton(Var("x"))),
                    Lam("y", UNIT, singleton(Var("y"))))
    assert not alpha_eq(Lam("x", UNIT, singleton(Var("x"))),
                        Lam("x", Sharp(UNIT), singleton(Var("x"))))
    assert not alpha_eq(Var("x"), Var("y"))   # free names matter


def test_alpha_eq_nested_binders():
    a = LetPair("x", "y", Var("p"), singleton(PairV(Var("y"), Var("x"))))
    b = LetPair("u", "v", Var("p"), singleton(PairV(Var("v"), Var("u"))))
    c = LetPair("u", "v", Var("p"), singleton(PairV(Var("u"), Var("v"))))
    assert alpha_eq(a, b)
    assert not alpha_eq(a, c)


def test_dist_alpha_eq_is_positional():
    a = dist((1, INL), (2, INR))
    b = dist((2, INR), (1, INL))
    assert not dist_alpha_eq(a, b)
    assert congruent(a, b)
    assert dist_alpha_eq(canonicalize(a), canonicalize(b))


# ------------------------------------------------------ smart constructors


def test_mk_pair_distributes():
    left = dist((0.6, INL), (0.8, INR))
    right = singleton(STAR, 0.5)
    out = mk_pair(left, right)
    expected = dist((0.3, PairV(INL, STAR)), (0.4, PairV(INR, STAR)))
    assert congruent(out, expected, tol=1e-12)


def test_mk_inl_distributes_and_requires_values():
    out = mk_inl(dist((1, STAR), (2, INR)))
    assert congruent(out, dist((1, InlV(STAR)), (2, InlV(INR))), tol=0.0)
    with pytest.raises(ValueError):
        mk_inl(singleton(App(Var("f"), STAR)))


def test_mk_app_distributes_over_argument():
    f = Lam("x", BOOL, singleton(Var("x")))
    out = mk_app(f, dist((0.6, INL), (0.8, INR)))
    assert len(out.summands) == 2
    assert all(isinstance(t, App) and t.fun == f for _, t in out.summands)
    assert sorted(a.real for a, _ in out.summands) == [0.6, 0.8]


def test_mk_seq_distributes_over_heads_not_tail():
    tail = dist((1, INL), (1, INR))
    out = mk_seq(dist((0.5, Var("u")), (0.5, Var("w"))), tail)
    assert len(out.summands) == 2
    for _, t in out.summands:
        assert isinstance(t, Seq)
        assert t.tail == tail           # the tail rides along unexpanded


def test_mk_match_distributes_over_scrutinees_only():
    b1 = singleton(INL)
    b2 = singleton(INR)
    out = mk_match(dist((0.7, Var("s")), (0.7, Var("t"))), "x", b1, "y", b2)
    assert len(out.summands) == 2
    for _, t in out.summands:
        assert isinstance(t, Match)
        assert t.left_body == b1 and t.right_body == b2


def test_mk_let_distributes_over_scrutinees():
    out = mk_let("a", "b", dist((1, Var("p")), (1j, Var("q"))),
                 singleton(PairV(Var("b"), Var("a"))))
    assert len(out.summands) == 2
    assert all(isinstance(t, LetPair) for _, t in out.summands)


def test_mk_constructors_canonicalize():
    out = mk_inl(dist((1, STAR), (1, STAR)))
    assert out.summands == ((2 + 0j, InlV(STAR)),)


# ------------------------------------------------- algebra of the action
#
# scale/add modulo congruence behave like scalar action and vector addition;
# the bulk randomized sweep lives in the acceptance suite, this is the
# hypothesis-shaped version of the same laws.

_values = st.recursive(
    st.sampled_from([STAR, Var("x"), Var("y")]),
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda p: PairV(*p)),
        inner.map(InlV),
        inner.map(InrV),
    ),
    max_leaves=4,
)

_coeffs = st.complex_numbers(
    max_magnitude=4, allow_nan=False, allow_infinity=False
)

_dists = st.lists(st.tuples(_coeffs, _values), min_size=1, max_size=4).map(
    lambda xs: Distribution(tuple(xs))
)


@settings(max_examples=150, deadline=None)
@given(_coeffs, _coeffs, _dists)
def test_scaling_composes(a, b, d):
    assert congruent(scale(a, scale(b, d)), scale(a * b, d), tol=1e-9)


@settings(max_examples=150, deadline=None)
@given(_coeffs, _coeffs, _dists)
def test_scaling_distributes_over_scalar_sum(a, b, d):
    assert congruent(scale(a + b, d), add(scale(a, d), scale(b, d)), tol=1e-9)


@settings(max_examples=150, deadline=None)
@given(_coeffs, _dists, _dists)
def test_scaling_distributes_over_vector_sum(a, d1, d2):
    assert congruent(scale(a, add(d1, d2)), add(scale(a, d1), scale(a, d2)), tol=1e-9)


@settings(max_examples=150, deadline=None)
@given(_dists)
def test_scaling_by_one_is_identity(d):
    assert congruent(scale(1, d), d, tol=0.0)


@settings(max_examples=150, deadline=None)
@given(_dists, _dists)
def test_add_commutes_modulo_congruence(d1, d2):
    # tol covers reassociation of float sums when three or more summands merge
    assert congruent(add(d1, d2), add(d2, d1), tol=1e-9)


# ------------------------------------------------------ re-validation


def test_substitution_skips_revalidation(monkeypatch):
    body = Distribution((
        (0.6, InlV(Var("x"))),
        (0.8j, Seq(Var("y"), Distribution(((1j, PairV(Var("x"), STAR)),)))),
    ))
    want = Distribution((
        (0.6, InlV(STAR)),
        (0.8j, Seq(Var("y"), Distribution(((1j, PairV(STAR, STAR)),)))),
    ))
    calls = [0]
    original = Distribution.__post_init__

    def counting(self):
        calls[0] += 1
        original(self)

    monkeypatch.setattr(Distribution, "__post_init__", counting)
    got = substitute_dist(body, "x", STAR)
    assert calls[0] == 0
    assert got == want


def test_combinators_still_check_their_coefficients():
    big = singleton(STAR, 1e200)
    with pytest.raises(ValueError, match="non-finite coefficient"):
        scale(1e200, big)
    with pytest.raises(ValueError, match="non-finite coefficient"):
        mk_pair(big, big)
    # add makes no new coefficient, so it shows its check on one that slipped in
    with pytest.raises(ValueError, match="non-finite coefficient"):
        add(big, _trusted(((complex("inf"), STAR),)))


# ------------------------------------------------------------- printing


def test_a_long_sequence_chain_prints_without_recursion():
    # `* ; * ; ... ; *` nests to the right, one Seq per `;`
    length = 10_000
    chain = STAR
    for _ in range(length):
        chain = Seq(STAR, singleton(chain))
    text = " ; ".join(["*"] * (length + 1))
    assert show_term(chain) == text
    assert show_dist(singleton(App(Var("f"), chain))) == f"f ({text})"
    scaled = Seq(STAR, singleton(Seq(STAR, dist((0.5, STAR), (0.5, INL)))))
    assert show_term(scaled) == "* ; * ; (0.5 * * + 0.5 * inl *)"


# ---------------------------------------------------------------- reference


def reference_free_vars(x: PureTerm | Distribution) -> frozenset[str]:
    if isinstance(x, Distribution):
        out = frozenset()
        for _, t in x.summands:
            out |= reference_free_vars(t)
        return out
    match x:
        case Var(name):
            return frozenset((name,))
        case Void():
            return frozenset()
        case Lam(x, _, body):
            return reference_free_vars(body) - {x}
        case PairV(a, b):
            return reference_free_vars(a) | reference_free_vars(b)
        case InlV(v) | InrV(v):
            return reference_free_vars(v)
        case App(f, a):
            return reference_free_vars(f) | reference_free_vars(a)
        case Seq(h, tail):
            return reference_free_vars(h) | reference_free_vars(tail)
        case LetPair(x, y, s, body):
            return reference_free_vars(s) | (reference_free_vars(body) - {x, y})
        case Match(s, x1, b1, x2, b2):
            return (reference_free_vars(s)
                    | (reference_free_vars(b1) - {x1})
                    | (reference_free_vars(b2) - {x2}))
    raise TypeError(f"not a pure term: {x!r}")


def reference_subst(t: PureTerm, mapping: dict[str, PureTerm]) -> PureTerm:
    match t:
        case Var(x):
            return mapping.get(x, t)
        case Void():
            return t
    if not mapping or mapping.keys().isdisjoint(reference_free_vars(t)):
        return t
    match t:
        case Lam(x, ann, body):
            (x2,), body2, inner = _reference_under_binders((x,), body, mapping)
            return Lam(x2, ann, reference_subst_dist(body2, inner))
        case PairV(a, b):
            return PairV(reference_subst(a, mapping), reference_subst(b, mapping))
        case InlV(v):
            return InlV(reference_subst(v, mapping))
        case InrV(v):
            return InrV(reference_subst(v, mapping))
        case App(f, a):
            return App(reference_subst(f, mapping), reference_subst(a, mapping))
        case Seq(h, tail):
            return Seq(reference_subst(h, mapping), reference_subst_dist(tail, mapping))
        case LetPair(x, y, s, body):
            s2 = reference_subst(s, mapping)
            (x2, y2), body2, inner = _reference_under_binders((x, y), body, mapping)
            return LetPair(x2, y2, s2, reference_subst_dist(body2, inner))
        case Match(s, x1, b1, x2, b2):
            s2 = reference_subst(s, mapping)
            (y1,), b1r, in1 = _reference_under_binders((x1,), b1, mapping)
            (y2,), b2r, in2 = _reference_under_binders((x2,), b2, mapping)
            return Match(s2, y1, reference_subst_dist(b1r, in1),
                         y2, reference_subst_dist(b2r, in2))
    raise TypeError(f"not a pure term: {t!r}")


def reference_subst_dist(d: Distribution, mapping: dict[str, PureTerm]) -> Distribution:
    if not mapping or mapping.keys().isdisjoint(reference_free_vars(d)):
        return d
    return Distribution(tuple((a, reference_subst(t, mapping)) for a, t in d.summands))


def _reference_under_binders(names, body, mapping):
    body_fv = reference_free_vars(body)
    inner = {k: v for k, v in mapping.items() if k not in names and k in body_fv}
    if not inner:
        return names, body, inner
    clash = frozenset()
    for v in inner.values():
        clash |= reference_free_vars(v)
    out_names = list(names)
    renames = {}
    for i, x in enumerate(out_names):
        if x in clash:
            x2 = fresh_name(x, clash | body_fv | set(inner) | set(out_names))
            renames[x] = Var(x2)
            out_names[i] = x2
    if renames:
        body = reference_subst_dist(body, renames)
    return tuple(out_names), body, inner


def reference_key(t: PureTerm, bound: dict[str, int], depth: int) -> tuple:
    """t's place in the structural order as a nested key, under binders:
    bound maps each name bound around t to its binder's depth, and depth
    counts the binders around t.  Two terms' keys compare as `compare`
    compares the terms, and are equal exactly on alpha-equivalent ones."""
    match t:
        case Var(x):
            at = bound.get(x)
            if at is None:
                return ("fv", x)
            return ("bv", depth - at)
        case Lam(x, ann, body):
            return ("lam", type_key(ann), reference_dkey(body, {**bound, x: depth}, depth + 1))
        case Void():
            return ("void",)
        case PairV(a, b):
            return ("pair", reference_key(a, bound, depth), reference_key(b, bound, depth))
        case InlV(v):
            return ("inl", reference_key(v, bound, depth))
        case InrV(v):
            return ("inr", reference_key(v, bound, depth))
        case App(f, a):
            return ("app", reference_key(f, bound, depth), reference_key(a, bound, depth))
        case Seq(h, tail):
            return ("seq", reference_key(h, bound, depth), reference_dkey(tail, bound, depth))
        case LetPair(x, y, s, body):
            return ("letp", reference_key(s, bound, depth),
                    reference_dkey(body, {**bound, x: depth, y: depth + 1}, depth + 2))
        case Match(s, x1, b1, x2, b2):
            return ("match", reference_key(s, bound, depth),
                    reference_dkey(b1, {**bound, x1: depth}, depth + 1),
                    reference_dkey(b2, {**bound, x2: depth}, depth + 1))
    raise TypeError(f"not a pure term: {t!r}")


def reference_dkey(d: Distribution, bound: dict[str, int], depth: int) -> tuple:
    return ("dist",) + tuple(
        (("c", a.real, a.imag), reference_key(t, bound, depth)) for a, t in d.summands
    )


# ------------------------------------------------------------- equivalence


def _nodes(d: Distribution):
    """Every distribution and term in d, with the names bound around it."""
    stack = [(d, ())]
    while stack:
        x, bound = stack.pop()
        yield x, bound
        if isinstance(x, Distribution):
            stack.extend((t, bound) for _, t in x.summands)
        elif isinstance(x, Lam):
            stack.append((x.body, bound + (x.name,)))
        elif isinstance(x, LetPair):
            stack += (x.scrutinee, bound), (x.body, bound + (x.left, x.right))
        elif isinstance(x, Match):
            stack += ((x.scrutinee, bound), (x.left_body, bound + (x.left_name,)),
                      (x.right_body, bound + (x.right_name,)))
        elif not isinstance(x, (Var, Void)):
            stack.extend((getattr(x, f), bound) for f in x.__match_args__)


def _walks_as_the_reference_walks(d: Distribution) -> None:
    """Free variables of every node of d equal the reference's."""
    for x, _ in _nodes(d):
        if isinstance(x, Distribution):
            assert free_vars_dist(x) == reference_free_vars(x)
        else:
            assert free_vars(x) == reference_free_vars(x)


def _substitutes_as_the_reference_substitutes(d: Distribution, mappings) -> int:
    """d substituted by each mapping equals the reference's result; returns
    how many of the substitutions renamed a binder."""
    renamed = 0
    for mapping in mappings:
        got = substitute_many_dist(d, mapping)
        assert got == reference_subst_dist(d, mapping)
        renamed += _binders(got) != _binders(d)
    return renamed


def _binders(d: Distribution) -> list[str]:
    return sorted(b for _, bound in _nodes(d) for b in bound)


def test_generator_programs_walk_as_the_reference_walks():
    rng = random.Random(21)
    renamed = 0
    for d, _ in trace_programs(31, 120) + flow_programs(32, 120):
        # the body of each lambda, with its binder free, substituted by values
        # that mention the names bound inside it
        for x, _ in _nodes(d):
            if isinstance(x, Lam):
                inner = _binders(x.body) or ["q"]
                values = [STAR, Var(rng.choice(inner)),
                          PairV(Var(rng.choice(inner)), InlV(Var("q")))]
                renamed += _substitutes_as_the_reference_substitutes(
                    x.body, [{x.name: v} for v in values])
        _walks_as_the_reference_walks(d)
    assert renamed > 0


def _opened_with_mappings(d: Distribution, rng: random.Random):
    """d opened as `test_rewrite` opens programs, and substitutions of its
    free names by names it binds, which rename the binders they reach."""
    opened = _opened(d, rng)
    names = _binders(opened) or ["q"]
    return opened, [{x: Var(b)} for x in sorted(free_vars_dist(opened))
                    for b in rng.sample(names, min(3, len(names)))]


def test_opened_programs_substitute_as_the_reference_substitutes():
    rng = random.Random(21)
    renamed = 0
    for seed in range(120):
        g = ProgramGen(seed)
        for d in (g.trace_program()[0], g.flow_program()[0]):
            opened, mappings = _opened_with_mappings(d, rng)
            _walks_as_the_reference_walks(opened)
            renamed += _substitutes_as_the_reference_substitutes(opened, mappings)
    assert renamed >= 50


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_compiled_gates_walk_as_the_reference_walks(n):
    rng = np.random.default_rng(41 + n)
    lams = [compile_isometry(GateMatrix(_unitary(rng, n)))]
    lams += [compile_gate(gate_library[g], [n - 1], n) for g in ("H", "T")]
    if n >= 2:
        lams.append(compile_gate(gate_library["CNOT"], [n - 1, 0], n))
    draw = random.Random(n)
    renamed = 0
    for lam in lams:
        _walks_as_the_reference_walks(singleton(lam))
        for _ in range(4):
            renamed += _substitutes_as_the_reference_substitutes(
                *_opened_with_mappings(singleton(lam), draw))
    assert renamed > 0


# substituted values that mention the names deep open values bind
_OPEN_VALUES = [Var(n) for n in OPEN_NAMES] + [
    PairV(Var("x"), Var("x_1")), InlV(Lam("y", UNIT, singleton(Var("x"))))]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 80).flatmap(deep_open_values), st.sampled_from(OPEN_NAMES),
       st.sampled_from(_OPEN_VALUES), st.sampled_from(_OPEN_VALUES))
def test_deep_open_values_walk_as_the_reference_walks(v, name, value, other):
    # the references and `==` recurse a few frames per layer, so depths stay
    # where they run within the default recursion limit
    assert free_vars(v) == reference_free_vars(v)
    assert substitute(v, name, value) == reference_subst(v, {name: value})
    mapping = {name: value, "z" if name != "z" else "y": other}
    assert substitute_many(v, mapping) == reference_subst(v, mapping)


def test_substitution_into_deep_open_values_renames_binders():
    # z is free in every such value and x and x_1 are bound around it
    value = PairV(Var("x"), Var("x_1"))
    for seed in range(20):
        v = _open_value(random.Random(seed), 80)
        got = substitute(v, "z", value)
        assert got == reference_subst(v, {"z": value})
        assert _binders(singleton(got)) != _binders(singleton(v))


# -------------------------------------------------------------- comparison


def _key_of(x: PureTerm | Distribution) -> tuple:
    return reference_dkey(x, {}, 0) if isinstance(x, Distribution) else reference_key(x, {}, 0)


def _compares_as_the_keys_compare(x: PureTerm | Distribution,
                                  y: PureTerm | Distribution) -> int:
    kx, ky = _key_of(x), _key_of(y)
    want = (kx > ky) - (kx < ky)
    assert compare(x, y) == want
    assert compare(y, x) == -want
    same = dist_alpha_eq(x, y) if isinstance(x, Distribution) else alpha_eq(x, y)
    assert same == (want == 0)
    return want


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32))
def test_compare_orders_generator_terms_as_their_keys_order(seed):
    g = ProgramGen(seed)
    rng = random.Random(seed)
    programs = [g.trace_program()[0], g.flow_program()[0], g.value_distribution()]
    nodes = [x for d in programs for x, _ in _nodes(d)]
    for x in nodes:
        # a changed copy differs, if at all, somewhere inside; another node
        # of the same class differs anywhere
        _compares_as_the_keys_compare(x, alpha_variant(x, rng, change=0.05))
        _compares_as_the_keys_compare(x, rng.choice([y for y in nodes if y.__class__ is x.__class__]))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32))
def test_alpha_variants_compare_equal(seed):
    g = ProgramGen(seed)
    rng = random.Random(seed)
    for d in (g.trace_program()[0], g.flow_program()[0], _opened(g.flow_program()[0], rng)):
        for x, _ in _nodes(d):
            assert compare(x, alpha_variant(x, rng)) == 0
            assert compare(alpha_variant(x, rng), x) == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 80).flatmap(deep_open_values), st.integers(1, 80).flatmap(deep_open_values),
       st.integers(0, 2**32))
def test_compare_orders_deep_open_values_as_their_keys_order(v, w, seed):
    rng = random.Random(seed)
    _compares_as_the_keys_compare(v, w)
    _compares_as_the_keys_compare(v, alpha_variant(v, rng, change=0.02))
    assert compare(v, alpha_variant(v, rng)) == 0


@pytest.mark.parametrize("context", [
    "({}) {}",
    "{1} ; ({0})",
    "let (p, q) = {1} in ({0}) p ; q",
    "match {1} {{ inl a -> ({0}) a | inr b -> inr * }}",
])
def test_contexts_parsed_apart_compare_by_their_holes(context):
    # the lambdas are parsed separately, so each summand has a context of
    # its own, alpha-equivalent to the other's
    lams = [r"\x:U+U. x ; *", r"\y:U+U. y ; *"]
    holes = ["inl *", "inr *", "(inl *, inr *)", "(inr *, inl *)", "inl inl *", "inr inr *"]
    for h1 in holes:
        for h2 in holes:
            t1 = parse_program(context.format(lams[0], h1)).summands[0][1]
            t2 = parse_program(context.format(lams[1], h2)).summands[0][1]
            hole = _FORMS[t1.__class__].hole
            assert _same_context(t1, t2)
            assert compare(t1, t2) == compare(getattr(t1, hole), getattr(t2, hole))
            assert compare(t1, t2) == _compares_as_the_keys_compare(t1, t2)


def _nested_lams(n: int, prefix: str, body: str | None = None) -> PureTerm:
    """n nested lambdas, with binders prefix0 to prefix(n-1), around the
    variable named body, or prefix0."""
    t: PureTerm = Var(body or f"{prefix}0")
    for i in reversed(range(n)):
        t = Lam(f"{prefix}{i}", UNIT, singleton(t))
    return t


def _deep_pairs(n: int) -> list[tuple[PureTerm | Distribution, PureTerm | Distribution, int]]:
    """Pairs of terms that differ only under n layers, each with the sign
    of their comparison by construction."""
    shared = singleton(_chain(n, Var("x")))
    return [
        # ground values: inl * is below inr *, and a free name below the unit value
        (_chain(n, INL), _chain(n, INR), -1),
        (_chain(n, Var("x")), _chain(n, STAR), -1),
        # under a binder that the other side names otherwise: a bound name
        # is below an injection, and equal to one at the same distance
        (Lam("x", UNIT, singleton(_chain(n, Var("x")))),
         Lam("y", UNIT, singleton(_chain(n, InlV(Var("y"))))), -1),
        (Lam("x", UNIT, singleton(_chain(n, Var("x")))),
         Lam("y", UNIT, singleton(_chain(n, Var("y")))), 0),
        # one body under binders of two names: x is bound on the left only
        (Lam("x", UNIT, shared), Lam("y", UNIT, shared), -1),
        # n binders: the outermost is further away than the second
        (_nested_lams(n, "x"), _nested_lams(n, "y", "y1"), 1),
        (_nested_lams(n, "x"), _nested_lams(n, "y"), 0),
        # coefficients: the first summands are equal, the second differ
        (dist((0.6, _chain(n, INL)), (0.8, _chain(n, Var("x")))),
         dist((0.6, _chain(n, INL)), (0.8j, _chain(n, Var("x")))), 1),
    ]


def _chain(depth: int, t: PureTerm) -> PureTerm:
    """t under depth `inr`s."""
    for _ in range(depth):
        t = InrV(t)
    return t


def test_deep_pair_signs_are_the_keys_signs_at_small_depth():
    for x, y, want in _deep_pairs(40):
        assert _compares_as_the_keys_compare(x, y) == want


def test_a_distribution_with_fewer_summands_and_the_same_first_is_below():
    one, two = parse_program("inl *"), parse_program("inl * + inr *")
    assert _compares_as_the_keys_compare(one, two) == -1
    assert compare(two, one) == 1


def test_terms_that_differ_only_under_10000_layers_compare_without_recursion():
    pairs = _deep_pairs(10_000)
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    # a comparison in C recurses only until it raises; no Python frame is
    # left for a recursive walk
    sys.setrecursionlimit(depth + 30)
    try:
        got = [(compare(x, y), compare(y, x)) for x, y, _ in pairs]
    finally:
        sys.setrecursionlimit(limit)
    assert got == [(want, -want) for _, _, want in pairs]
