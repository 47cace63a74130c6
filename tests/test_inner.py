"""Pseudo inner product, orthogonality, norm."""

from __future__ import annotations

import gc
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlam.inner import inner_product, keyed, norm, orthogonal
from qlam.syntax import (
    App,
    Distribution,
    InlV,
    InrV,
    Lam,
    PairV,
    Var,
    Void,
    add,
    canonicalize,
    scale,
    singleton,
    term_key,
)
from qlam.types import UNIT

STAR = Void()
INL = InlV(STAR)
INR = InrV(STAR)
_R2 = 1 / math.sqrt(2)

PLUS = Distribution(((_R2, INL), (_R2, INR)))
MINUS = Distribution(((_R2, INL), (-_R2, INR)))


def test_inner_identity():
    assert inner_product(singleton(INL), singleton(INL)) == 1


def test_inner_distinct_constructors():
    assert inner_product(singleton(INL), singleton(INR)) == 0


def test_inner_plus_minus_cancels():
    assert abs(inner_product(PLUS, MINUS)) < 1e-12
    assert abs(inner_product(PLUS, PLUS) - 1) < 1e-12


def test_inner_left_argument_is_conjugated():
    v = singleton(STAR, 2j)
    w = singleton(STAR, 3)
    assert inner_product(v, w) == -6j
    assert inner_product(w, v) == 6j


def test_inner_respects_congruence():
    raw = add(singleton(INL, 0.25), singleton(INL, 0.75))
    assert inner_product(raw, singleton(INL)) == inner_product(
        canonicalize(raw), singleton(INL)
    )


def test_inner_rejects_non_values():
    bad = singleton(App(Var("f"), STAR))
    with pytest.raises(ValueError):
        inner_product(bad, singleton(STAR))
    with pytest.raises(ValueError):
        norm(bad)


def test_orthogonal_examples():
    assert orthogonal(singleton(INL), singleton(INR))
    assert not orthogonal(singleton(INL), singleton(INL))
    assert orthogonal(PLUS, MINUS)


def test_orthogonal_strict_zero_mode():
    # a 1e-8 overlap sits below the default tolerance but not below zero
    tiny = Distribution(((1e-8, INL),))
    assert orthogonal(tiny, singleton(INL))
    assert not orthogonal(tiny, singleton(INL), tol=0.0)
    exact = inner_product(PLUS, MINUS)
    assert orthogonal(PLUS, MINUS, tol=0.0) == (abs(exact) == 0)


def test_distinct_pure_values_are_orthonormal():
    family = [
        singleton(STAR),
        singleton(INL),
        singleton(INR),
        singleton(PairV(STAR, STAR)),
        singleton(Lam("x", UNIT, singleton(Var("x")))),
        singleton(InlV(INL)),
    ]
    for i, v in enumerate(family):
        for j, w in enumerate(family):
            assert inner_product(v, w) == (1 if i == j else 0)


def test_norm_examples():
    assert norm(singleton(INL)) == 1
    assert abs(norm(PLUS) - 1) < 1e-12
    assert norm(singleton(STAR, 2)) == 2


def test_norm_zero_threshold_reading():
    # all coefficients at or below the working tolerance: the norm is small in
    # the same sense; a norm at zero forces every coefficient down with it
    dust = Distribution(((1e-7, INL), (-1e-7j, INR)))
    assert norm(dust) <= 1e-6
    allzero = Distribution(((0, INL), (0, INR)))
    assert norm(allzero) == 0.0
    assert all(abs(a) == 0 for a, _ in canonicalize(allzero).summands)


# ---------------------------------------------------------------- laws

_values = st.recursive(
    st.sampled_from([STAR, INL, INR]),
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda p: PairV(*p)),
        inner.map(InlV),
        inner.map(InrV),
    ),
    max_leaves=4,
)
_coeffs = st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False)
_dists = st.lists(st.tuples(_coeffs, _values), min_size=1, max_size=4).map(
    lambda xs: Distribution(tuple(xs))
)


@settings(max_examples=200, deadline=None)
@given(_dists, _dists)
def test_conjugate_symmetry(v, w):
    assert abs(inner_product(v, w) - inner_product(w, v).conjugate()) < 1e-9


@settings(max_examples=200, deadline=None)
@given(_dists, _dists, _coeffs)
def test_linear_in_second_argument(u, v, a):
    lhs = inner_product(u, scale(a, v))
    rhs = a * inner_product(u, v)
    assert abs(lhs - rhs) < 1e-8


@settings(max_examples=200, deadline=None)
@given(_dists, _dists, _dists)
def test_additive_in_second_argument(u, v, w):
    lhs = inner_product(u, add(v, w))
    rhs = inner_product(u, v) + inner_product(u, w)
    assert abs(lhs - rhs) < 1e-8


@settings(max_examples=200, deadline=None)
@given(_dists, _coeffs)
def test_norm_absolutely_homogeneous(v, a):
    assert abs(norm(scale(a, v)) - abs(a) * norm(v)) < 1e-8


@settings(max_examples=200, deadline=None)
@given(_dists, _dists)
def test_norm_triangle(v, w):
    assert norm(add(v, w)) <= norm(v) + norm(w) + 1e-9


@settings(max_examples=200, deadline=None)
@given(_dists)
def test_norm_nonnegative(v):
    assert norm(v) >= 0.0


def reference_inner_product(v: Distribution, w: Distribution) -> complex:
    """The inner product as it was computed from both canonical forms."""
    left = {term_key(t): a for a, t in canonicalize(v).summands}
    out = 0j
    for b, t in canonicalize(w).summands:
        a = left.get(term_key(t))
        if a is not None:
            out += a.conjugate() * b
    return out


@settings(max_examples=300, deadline=None)
@given(_dists, _dists)
def test_keyed_forms_give_the_reference_inner_product_exactly(v, w):
    # repeated summands merge, and sums run in canonical order either way
    v2 = add(v, scale(0.5j, v))
    want = reference_inner_product(v2, w)
    assert inner_product(v2, w) == want
    assert inner_product(keyed(v2), keyed(w)) == want
    assert list(keyed(v2).values()) == [a for a, _ in canonicalize(v2).summands]


def test_a_keyed_form_keeps_its_ground_values_alive():
    # a ground value is keyed by its node's id, which names the value only
    # while the node lives
    v = PairV(InrV(InlV(InrV(STAR))), InlV(InlV(InlV(STAR))))
    node = weakref.ref(v)
    k = keyed(Distribution(((0.6, v), (0.8, INL))))
    del v
    gc.collect()
    assert node() is not None
    again = PairV(InrV(InlV(InrV(STAR))), InlV(InlV(InlV(STAR))))
    assert again is node()
    assert inner_product(k, singleton(again)) == 0.6


_DEEP_KEYED = """
from qlam.inner import keyed, orthogonal
from qlam.syntax import Distribution, InlV, InrV, Void

left, right = InlV(Void()), InrV(Void())
for _ in range(300_000):
    left, right = InrV(left), InrV(right)
v = Distribution(((0.6, left), (0.8, right)))
w = Distribution(((0.8, left), (-0.6, right)))
kv = keyed(v)
assert list(kv.values()) == [0.6, 0.8]
print(orthogonal(kv, keyed(w)), orthogonal(kv, kv))
"""


def test_values_300000_deep_are_keyed_in_a_fresh_process():
    # a key nested as deep as its value was hashed in C with no recursion
    # check, which ended the process with SIGSEGV; a crash in this process
    # would end the test run with it
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    r = subprocess.run([sys.executable, "-c", _DEEP_KEYED], capture_output=True, text=True,
                       env=env, check=False)
    assert (r.returncode, r.stdout, r.stderr) == (0, "True False\n", "")
