"""Types: flatness, subtyping (against the derivation-search oracle), joins,
and the data each type node carries against the recursive walks it
replaced.  `reference_join` and `reference_unify` are the recursive joins
and unifier, one case per constructor, that the children-first walk
replaced, and `reference_subtype` is the recursive order that the worklist
of pending pairs replaced."""

from __future__ import annotations

from itertools import count

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generator import deep_types, types
from qlam.surface import parse_type
from qlam.types import (
    BOOL,
    UNIT,
    Arrow,
    Prod,
    Sharp,
    Sum,
    Unit,
    Unknown,
    _join,
    _unify,
    ground_unknowns,
    is_flat,
    join_types,
    peel_sharps,
    qubits,
    sharp_lift,
    show_type,
    subtype,
    type_key,
)

from subtype_oracle import DerivationSearch, enumerate_types

U = UNIT
SU = Sharp(U)


@pytest.fixture(scope="module")
def search() -> DerivationSearch:
    return DerivationSearch(query_size=5)


# ---------------------------------------------------------------- subtype


def test_subtype_fixed_examples():
    assert subtype(Sharp(SU), SU)           # ##U <= #U
    assert not subtype(SU, U)               # no way back down to a bare type
    assert subtype(Arrow(SU, U), Arrow(U, SU))  # contravariance + lifting
    assert subtype(U, SU)
    assert subtype(SU, Sharp(SU))
    assert subtype(BOOL, Sharp(BOOL))
    assert not subtype(Sharp(BOOL), Sharp(Sum(SU, U)))  # no congruence under #
    assert subtype(Sum(U, U), Sum(SU, SU))


def test_subtype_reflexive_small():
    for t in enumerate_types(5):
        assert subtype(t, t), show_type(t)


def test_subtype_transitive_small():
    # full check on every triple of size <= 5, vectorized: rel @ rel must not
    # reach outside rel
    ts = enumerate_types(5)
    n = len(ts)
    rel = np.zeros((n, n), dtype=bool)
    for i, a in enumerate(ts):
        for j, b in enumerate(ts):
            rel[i, j] = subtype(a, b)
    via = (rel.astype(np.uint8) @ rel.astype(np.uint8)) > 0
    assert not (via & ~rel).any()


def test_subtype_matches_derivation_search(search):
    ts = search.query_types()
    assert len(ts) == 53  # 1 + 1 + 4 + 10 + 37 types of sizes 1..5
    mismatches = [
        (show_type(a), show_type(b))
        for a in ts
        for b in ts
        if subtype(a, b) != search.derivable(a, b)
    ]
    assert mismatches == []


def test_subtype_not_symmetric():
    assert subtype(U, SU) and not subtype(SU, U)


def test_unknown_is_wildcard():
    assert subtype(Unknown(), Arrow(U, U))
    assert subtype(Sharp(Sum(U, Unknown())), Sharp(BOOL))
    assert subtype(Sharp(BOOL), Sharp(Sum(Unknown(), U)))


def reference_subtype(a, b):
    """Decide a <= b, recursing on left components and arrow domains and
    walking the right spine in the loop."""
    while True:
        if isinstance(a, Unknown) or isinstance(b, Unknown) or ground_unknowns(a) is b:
            return True
        m, c = peel_sharps(a)
        n, d = peel_sharps(b)
        if m:
            return n >= 1 and _unify(c, d) is not None
        if isinstance(d, Unknown):
            return True
        cls = c.__class__
        if cls is not d.__class__:
            return False
        if cls is Unit:
            return True
        if cls is Arrow:
            if not reference_subtype(d.dom, c.dom):
                return False
            a, b = c.cod, d.cod
        elif not reference_subtype(c.left, d.left):
            return False
        else:
            a, b = c.right, d.right


def _with_core(text, core):
    """A type's text with its innermost `U` replaced by core, an atom."""
    i = len(text.rstrip(")")) - 1
    return text[:i] + core + text[i + 1:]


_CORES = ("U", "#U", "(U+U)", "(U -> U)", "#(U*U)")


@settings(max_examples=300, deadline=None)
@given(types(), types(), st.integers(0, 2**64 - 1), st.integers(1, 300).flatmap(deep_types),
       st.sampled_from(_CORES), st.sampled_from(_CORES))
def test_subtype_is_the_recursive_one(a, b, seed, text, core1, core2):
    # random pairs, a type against itself lifted, grounded or with parts
    # replaced by placeholders, and deep types that differ only at the bottom
    holey = _placeholders_for_some_parts(a, seed)
    deep1, deep2 = parse_type(_with_core(text, core1)), parse_type(_with_core(text, core2))
    for x, y in ((a, b), (b, a), (a, Sharp(a)), (Sharp(b), b), (a, ground_unknowns(a)),
                 (holey, a), (a, holey), (Sharp(holey), Sharp(Sharp(ground_unknowns(a)))),
                 (Arrow(holey, b), Arrow(a, b)), (Arrow(a, b), Arrow(holey, b)),
                 (Arrow(Sharp(a), b), Arrow(a, b)), (Arrow(a, b), Arrow(Sharp(a), b)),
                 (deep1, deep2), (deep2, deep1)):
        assert subtype(x, y) is reference_subtype(x, y)


def test_a_deep_left_spine_needs_no_recursion():
    # `inl^m *` at `((#U+U)+U)...+U`: U <= #U is decided at the bottom of
    # the left spine, and #U <= U fails there
    m = 10_000
    value, wide, narrow = U, SU, SU
    for _ in range(m):
        value, wide, narrow = Sum(value, Unknown()), Sum(wide, U), Sum(narrow, Unknown())
    assert subtype(value, wide)
    assert not subtype(narrow, ground_unknowns(value))


def test_a_shared_pair_of_parts_is_compared_once(monkeypatch):
    # P = P' * P' over U and over #U, and the same with arrows: 2^60 paths
    # down to the one pair of cores, but 61 distinct pairs of parts
    import qlam.types as types

    low, high, fn_low, fn_high = U, SU, U, SU
    for _ in range(60):
        low, high = Prod(low, low), Prod(high, high)
        fn_low, fn_high = Arrow(fn_high, fn_low), Arrow(fn_low, fn_high)
    peeled = count(1)
    real = types.peel_sharps

    def counted(t):
        assert next(peeled) <= 4 * 2 * 61, "a pair of parts is compared twice"
        return real(t)

    monkeypatch.setattr(types, "peel_sharps", counted)
    assert subtype(low, high) and not subtype(high, low)
    assert subtype(fn_low, fn_high) and not subtype(fn_high, fn_low)


def _types_with_placeholders(max_size: int) -> list:
    """All types over {U, placeholder, #, +, *, ->} with at most max_size nodes."""
    by_size = {1: [U, Unknown()]}
    for size in range(2, max_size + 1):
        layer = [Sharp(t) for t in by_size[size - 1]]
        for left_size in range(1, size - 1):
            for a in by_size[left_size]:
                for b in by_size[size - 1 - left_size]:
                    layer += [Sum(a, b), Prod(a, b), Arrow(a, b)]
        by_size[size] = layer
    return [t for size in sorted(by_size) for t in by_size[size]]


def _wildcard_equal(a, b) -> bool:
    """Syntactic equality, except that a placeholder equals any type."""
    if isinstance(a, Unknown) or isinstance(b, Unknown):
        return True
    return type(a) is type(b) and all(
        _wildcard_equal(getattr(a, f), getattr(b, f)) for f in a.__match_args__
    )


def test_sharp_pairs_with_placeholders_need_wildcard_equal_cores():
    # #a <= #b has no congruence under #: it holds exactly when the cores
    # under the leading Sharps are the same type up to placeholders
    def core(t):
        while isinstance(t, Sharp):
            t = t.inner
        return t

    ts = _types_with_placeholders(5)
    assert len(ts) == 274  # 2 + 2 + 14 + 38 + 218 types of sizes 1..5
    mismatches = [
        (a, b)
        for a in ts
        for b in ts
        if subtype(Sharp(a), Sharp(b)) != _wildcard_equal(core(a), core(b))
    ]
    assert mismatches == []


# ---------------------------------------------------------------- flatness


def test_is_flat():
    assert is_flat(U)
    assert is_flat(BOOL)
    assert not is_flat(SU)
    assert not is_flat(Prod(U, SU))
    assert not is_flat(Sum(SU, U))
    # Sharp in a codomain is fine; a function producing superpositions is
    # still classical data
    assert is_flat(Arrow(U, Arrow(U, SU)))
    assert is_flat(Arrow(U, Sharp(BOOL)))
    assert not is_flat(Arrow(SU, U))
    assert not is_flat(qubits(1))
    assert not is_flat(qubits(3))


# ---------------------------------------------------------------- helpers


def test_peel_sharps():
    assert peel_sharps(U) == (0, U)
    assert peel_sharps(SU) == (1, U)
    assert peel_sharps(Sharp(Sharp(SU))) == (3, U)
    assert peel_sharps(Sharp(Prod(SU, U))) == (1, Prod(SU, U))


def test_sharp_lift_idempotent():
    assert sharp_lift(U) == SU
    assert sharp_lift(SU) == SU
    assert sharp_lift(BOOL) == Sharp(BOOL)
    assert sharp_lift(sharp_lift(BOOL)) == sharp_lift(BOOL)


def test_qubits_shape():
    assert qubits(1) == Sharp(BOOL)
    assert qubits(2) == Sharp(Prod(BOOL, BOOL))
    assert qubits(3) == Sharp(Prod(BOOL, Prod(BOOL, BOOL)))
    with pytest.raises(ValueError):
        qubits(0)


def test_ground_unknowns():
    assert ground_unknowns(Sum(U, Unknown())) == BOOL
    assert ground_unknowns(Sharp(Prod(Unknown(), Unknown()))) == Sharp(Prod(U, U))
    assert ground_unknowns(qubits(2)) == qubits(2)


# ------------------------------------------------------- per-node data
#
# The recursive walks that each type node's `_flat`, `_key` and `_grounded`
# replaced, as references.


def reference_is_flat(a):
    match a:
        case Sharp(_):
            return False
        case Sum(l, r) | Prod(l, r):
            return reference_is_flat(l) and reference_is_flat(r)
        case Arrow(dom, _):
            return reference_is_flat(dom)
        case _:
            return True


def reference_type_key(a):
    match a:
        case Unknown():
            return ("?",)
        case Sharp(inner):
            return ("#", reference_type_key(inner))
        case Sum(l, r):
            return ("+", reference_type_key(l), reference_type_key(r))
        case Prod(l, r):
            return ("x", reference_type_key(l), reference_type_key(r))
        case Arrow(d, c):
            return (">", reference_type_key(d), reference_type_key(c))
        case _:
            return ("U",)


def reference_ground_unknowns(a):
    match a:
        case Unknown():
            return U
        case Sharp(inner):
            return Sharp(reference_ground_unknowns(inner))
        case Sum(l, r) | Prod(l, r) | Arrow(l, r):
            return type(a)(reference_ground_unknowns(l), reference_ground_unknowns(r))
        case _:
            return a


@settings(max_examples=200, deadline=None)
@given(types(), types())
def test_node_data_matches_the_recursive_walks(a, b):
    assert is_flat(a) is reference_is_flat(a)
    assert type_key(a) == reference_type_key(a)
    assert ground_unknowns(a) is reference_ground_unknowns(a)
    assert (type_key(a) == type_key(b)) is (a is b)
    assert (type_key(a) < type_key(b)) is (reference_type_key(a) < reference_type_key(b))


def test_a_deep_type_carries_its_data():
    t = Unknown()
    for _ in range(2_500):  # 10,000 constructors deep
        t = Arrow(Sharp(Prod(Sum(U, t), U)), U)
    assert not is_flat(t)
    assert ground_unknowns(t) is not t
    assert ground_unknowns(ground_unknowns(t)) is ground_unknowns(t)
    assert type_key(t)[0] == ">"


# ---------------------------------------------------------------- joins


def test_join_basic():
    assert join_types(U, U) == U
    assert join_types(U, SU) == SU
    assert join_types(SU, U) == SU
    assert join_types(Sum(U, Unknown()), Sum(Unknown(), U)) == BOOL
    assert join_types(BOOL, Sharp(BOOL)) == Sharp(BOOL)
    assert join_types(Sharp(BOOL), Sharp(Prod(U, U))) is None


def test_join_is_upper_bound(search):
    # soundness on the whole small universe: whenever join succeeds, both
    # inputs sit below it per the oracle (joins big enough to fall outside
    # the oracle universe are covered by the algorithmic check instead)
    ts = search.query_types()
    for a in ts:
        for b in ts:
            j = join_types(a, b)
            if j is None:
                continue
            if j in search.index:
                assert search.derivable(a, j), (show_type(a), show_type(j))
                assert search.derivable(b, j), (show_type(b), show_type(j))
            else:
                assert subtype(a, j) and subtype(b, j)


def test_join_of_subtype_pair_stays_below_the_larger(search):
    ts = search.query_types()
    for a in ts:
        for b in ts:
            if subtype(a, b):
                j = join_types(a, b)
                assert j is not None, (show_type(a), show_type(b))
                assert subtype(j, b), (show_type(a), show_type(b), show_type(j))


def reference_join(a, b):
    if isinstance(a, Unknown):
        return b
    if isinstance(b, Unknown):
        return a
    if a == b:
        return a
    ma, ca = peel_sharps(a)
    mb, cb = peel_sharps(b)
    if ma >= 1 and mb >= 1:
        u = reference_unify(ca, cb)
        return None if u is None else _sharps(u, max(ma, mb))
    if ma == 0 and mb == 0:
        return _reference_join_structural(ca, cb)
    if ma == 0:
        return Sharp(_sharps(cb, mb - 1)) if subtype(ca, cb) else None
    return Sharp(_sharps(ca, ma - 1)) if subtype(cb, ca) else None


def _sharps(core, m):
    for _ in range(m):
        core = Sharp(core)
    return core


def _reference_join_structural(c, d):
    match c, d:
        case Unit(), Unit():
            return U
        case Sum(l1, r1), Sum(l2, r2):
            l, r = reference_join(l1, l2), reference_join(r1, r2)
            return None if l is None or r is None else Sum(l, r)
        case Prod(l1, r1), Prod(l2, r2):
            l, r = reference_join(l1, l2), reference_join(r1, r2)
            return None if l is None or r is None else Prod(l, r)
        case Arrow(d1, c1), Arrow(d2, c2):
            dom, cod = _reference_meet(d1, d2), reference_join(c1, c2)
            return None if dom is None or cod is None else Arrow(dom, cod)
        case _:
            return None


def _reference_meet(a, b):
    if isinstance(a, Unknown):
        return b
    if isinstance(b, Unknown):
        return a
    if subtype(a, b):
        return a
    if subtype(b, a):
        return b
    return None


def reference_unify(a, b):
    if a is b:
        return a
    if isinstance(a, Unknown):
        return b
    if isinstance(b, Unknown):
        return a
    match a, b:
        case Unit(), Unit():
            return U
        case Sharp(x), Sharp(y):
            u = reference_unify(x, y)
            return None if u is None else Sharp(u)
        case Sum(l1, r1), Sum(l2, r2):
            l, r = reference_unify(l1, l2), reference_unify(r1, r2)
            return None if l is None or r is None else Sum(l, r)
        case Prod(l1, r1), Prod(l2, r2):
            l, r = reference_unify(l1, l2), reference_unify(r1, r2)
            return None if l is None or r is None else Prod(l, r)
        case Arrow(d1, c1), Arrow(d2, c2):
            d, c = reference_unify(d1, d2), reference_unify(c1, c2)
            return None if d is None or c is None else Arrow(d, c)
        case _:
            return None


def _placeholders_for_some_parts(a, seed):
    """a with some of its parts, chosen by seed, replaced by placeholders."""
    bits = iter(format(seed, "064b"))
    def go(t):
        if next(bits, "0") == "1":
            return Unknown()
        if isinstance(t, (Unit, Unknown)):
            return t
        return type(t)(*(go(p) for p in (getattr(t, f) for f in t.__match_args__)))
    return go(a)


@settings(max_examples=300, deadline=None)
@given(types(), types(), st.integers(0, 2**64 - 1))
def test_joins_and_unifiers_are_the_recursive_ones(a, b, seed):
    # random pairs rarely meet; a type against itself lifted, grounded or
    # with parts replaced by placeholders does
    holey = _placeholders_for_some_parts(a, seed)
    for x, y in ((a, b), (b, a), (a, Sharp(a)), (Sharp(b), b), (a, ground_unknowns(a)),
                 (holey, a), (Sharp(holey), Sharp(Sharp(ground_unknowns(a)))),
                 (Arrow(holey, b), Arrow(a, b))):
        assert _join(x, y) is reference_join(x, y)
        assert _unify(x, y) is reference_unify(x, y)


def _spine(m, last):
    """m `Sum(Unknown, ...)` around last: the type of `inr^m` over a value of type last."""
    t = last
    for _ in range(m):
        t = Sum(Unknown(), t)
    return t


def test_a_deep_join_needs_no_recursion():
    # the types of `inr^900 *` and `inr^899 inl *`, whose join is a 901-term sum
    m = 900
    a, b = _spine(m, U), _spine(m - 1, Sum(U, Unknown()))
    j = join_types(a, b)
    assert j is _spine(m - 1, BOOL)
    top = BOOL
    for _ in range(m - 1):
        top = Sum(U, top)
    assert ground_unknowns(j) is top
    assert subtype(a, top) and subtype(b, top)
    # the annotated program joins under Sharp, which unifies the cores
    assert join_types(Sharp(a), Sharp(b)) is Sharp(j)
    assert subtype(Sharp(j), Sharp(top)) and subtype(a, Sharp(top))


# ---------------------------------------------------------------- printing


def test_show_type_strings():
    assert show_type(U) == "U"
    assert show_type(SU) == "#U"
    assert show_type(BOOL) == "U+U"
    assert show_type(qubits(1)) == "#(U+U)"
    assert show_type(qubits(3)) == "#((U+U)*(U+U)*(U+U))"
    assert show_type(Arrow(qubits(1), qubits(1))) == "#(U+U) -> #(U+U)"
    assert show_type(Arrow(U, Arrow(U, U))) == "U -> U -> U"
    assert show_type(Arrow(Arrow(U, U), U)) == "(U -> U) -> U"
    assert show_type(Sum(Prod(U, U), U)) == "U*U+U"
    assert show_type(Prod(Sum(U, U), U)) == "(U+U)*U"
