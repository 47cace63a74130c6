"""Distribution algebra: canonical forms, congruence, substitution, printing."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    _trusted,
    add,
    alpha_eq,
    canonicalize,
    congruent,
    dist_alpha_eq,
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
)
from qlam.types import BOOL, UNIT, Sharp

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
