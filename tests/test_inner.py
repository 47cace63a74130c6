"""Pseudo inner product, orthogonality, norm.

The laws and the keyed forms are tested on ground values, on closed and open
lambda values inside pairs and injections, and on alpha-variants of them
(`generator.alpha_variant`).  `reference_inner_product` keys summands by
`reference_key` from `tests/test_syntax.py`, the nested key the structural
order was once built from."""

from __future__ import annotations

import gc
import math
import os
import random
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generator import alpha_variant
from qlam import inner, syntax
from qlam.inner import _Alpha, inner_product, keyed, norm, orthogonal
from qlam.quantum import compile_gate, gate_library
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
    compare,
    is_ground,
    scale,
    singleton,
)
from qlam.types import BOOL, UNIT
from test_syntax import reference_key

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

# ground values, the free names x and y, and lambdas that bind one of them
# or neither, so some are closed and some open; and alpha-variants of these
_plain_values = st.recursive(
    st.sampled_from([STAR, INL, INR, Var("x"), Var("y")]),
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda p: PairV(*p)),
        inner.map(InlV),
        inner.map(InrV),
        st.builds(lambda x, ann, v: Lam(x, ann, singleton(v)),
                  st.sampled_from(["x", "y", "z"]), st.sampled_from([UNIT, BOOL]), inner),
    ),
    max_leaves=4,
)
_values = st.one_of(
    _plain_values,
    st.builds(alpha_variant, _plain_values, st.randoms(use_true_random=False)),
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
    """The inner product as it was computed from both canonical forms, with
    each summand keyed by its nested reference key."""
    left = {reference_key(t, {}, 0): a for a, t in canonicalize(v).summands}
    out = 0j
    for b, t in canonicalize(w).summands:
        a = left.get(reference_key(t, {}, 0))
        if a is not None:
            out += a.conjugate() * b
    return out


@settings(max_examples=300, deadline=None)
@given(_dists, _dists, st.randoms(use_true_random=False))
def test_keyed_forms_give_the_reference_inner_product_exactly(v, w, rng):
    # repeated summands and alpha-variants merge, and sums run in canonical
    # order either way; w shares some summands with v up to renaming
    v2 = add(v, scale(0.5j, v), scale(-0.25, alpha_variant(v, rng)))
    w2 = add(w, scale(0.75, alpha_variant(v, rng)))
    for right in (w, w2):
        want = reference_inner_product(v2, right)
        assert inner_product(v2, right) == want
        assert inner_product(keyed(v2), keyed(right)) == want
    assert list(keyed(v2).values()) == [a for a, _ in canonicalize(v2).summands]


def _closed_lams(count: int) -> list[Lam]:
    """count closed lambdas binding x:U, no two alpha-equivalent: their
    bodies are `inr^k inl x` and `inr^k inl *` for k below count / 2."""
    out = []
    for k in range(count):
        t = InlV(Var("x") if k % 2 == 0 else STAR)
        for _ in range(k // 2):
            t = InrV(t)
        out.append(Lam("x", UNIT, singleton(t)))
    return out


def _one_shape_lams(count: int) -> list[Lam]:
    """count closed lambdas `\\x:U. \\y:U. (v0, (v1, ... v7))`, at most 256, no
    two alpha-equivalent: vi is x or y by bit i of the lambda's index.  They
    differ only in which binder each variable names, so they have one
    shape."""
    out = []
    for k in range(count):
        names = ["x" if (k >> i) & 1 else "y" for i in range(8)]
        t = Var(names[-1])
        for name in reversed(names[:-1]):
            t = PairV(Var(name), t)
        out.append(Lam("x", UNIT, singleton(Lam("y", UNIT, singleton(t)))))
    return out


def test_closed_lambdas_in_one_hash_bucket_give_the_reference_inner_product():
    # every key hashes alike (one shape, no free name), so the dict tells
    # them apart by `compare` alone
    rng = random.Random(7)
    lams = _one_shape_lams(200)
    v = Distribution(tuple((complex(k + 1, -k), t) for k, t in enumerate(lams)))
    variants = [(complex(1, k), alpha_variant(t, rng)) for k, t in enumerate(lams)]
    rng.shuffle(variants)
    w = Distribution(tuple(variants))
    kv, kw = keyed(v), keyed(w)
    assert len({hash(k) for k in kv} | {hash(k) for k in kw}) == 1
    assert len(kv) == len(kw) == 200
    assert inner_product(kv, kw) == reference_inner_product(v, w)
    assert inner_product(kw, kv) == reference_inner_product(w, v)


@settings(max_examples=300, deadline=None)
@given(_plain_values, st.randoms(use_true_random=False), st.sampled_from([0.0, 0.3]))
def test_alpha_equivalent_values_hash_alike(v, rng, change):
    # alpha_variant renames binders, and with change > 0 also alters some
    # variables and unit values, after which w may or may not still be
    # alpha-equivalent to v
    w = alpha_variant(v, rng, change)
    if not is_ground(v) and compare(v, w) == 0:
        assert hash(_Alpha(v)) == hash(_Alpha(w))


def test_alpha_variants_of_compiled_gates_hash_alike():
    # lambdas whose bodies hold every term form
    rng = random.Random(5)
    seen = 0
    for name, targets, n in (("H", [1], 2), ("CNOT", [2, 0], 3), ("SWAP", [0, 2], 3)):
        lam = compile_gate(gate_library[name], targets, n)
        for change in (0.0, 0.0, 0.02, 0.02):
            w = alpha_variant(lam, rng, change)
            if compare(lam, w) == 0:
                seen += 1
                assert hash(_Alpha(lam)) == hash(_Alpha(w))
    assert seen >= 6


def test_keying_alpha_distinct_lambdas_makes_few_comparisons(monkeypatch):
    # the keys of lambdas of different shapes hash apart, so the dict
    # compares next to none of them; their order is `compare` order, so
    # merging makes one comparison per neighbouring pair
    lams = _closed_lams(400)
    v = Distribution(tuple((complex(k + 1), t) for k, t in enumerate(lams)))
    calls = 0

    def counted(x, y):
        nonlocal calls
        calls += 1
        return compare(x, y)

    monkeypatch.setattr(syntax, "compare", counted)
    monkeypatch.setattr(inner, "compare", counted)
    kv = keyed(v)
    assert len(kv) == 400
    assert inner_product(kv, kv) == sum(abs(a) ** 2 for a, _ in v.summands)
    assert calls <= 4 * len(lams)


def test_a_lambda_key_and_an_int_of_its_hash_are_told_apart():
    # an int id and a lambda's key can share a hash; neither is equal to the
    # other, and comparing them raises nothing.  An int hashes to itself
    # only below the hash modulus, so the key is one whose hash lies there.
    keys = (k for i in range(100) for k in keyed(singleton(Lam("x", UNIT, singleton(Var(f"y{i}"))))))
    k = next(k for k in keys if abs(hash(k)) < sys.hash_info.modulus)
    h = hash(k)
    assert hash(h) == h
    d = {k: "lambda", h: "int"}
    assert len(d) == 2 and d[k] == "lambda" and d[h] == "int"
    assert k != h and h != k


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


_DEEP_LAMS_KEYED = """
from qlam.inner import inner_product, keyed, orthogonal
from qlam.syntax import Distribution, InlV, InrV, Lam, Var, singleton
from qlam.types import UNIT


def chain(outer, name):
    t = outer(Lam(name, UNIT, singleton(Var(name))))
    for _ in range(300_000):
        t = InrV(t)
    return t


v = Distribution(((0.6, chain(InlV, "x")), (0.8, chain(InrV, "x"))))
w = Distribution(((0.8, chain(InlV, "y")), (-0.6, chain(InrV, "y"))))
kv, kw = keyed(v), keyed(w)
assert list(kv.values()) == [0.6, 0.8] and list(kw.values()) == [0.8, -0.6]
print(inner_product(kv, kw), inner_product(kv, kv) == 0.6 * 0.6 + 0.8 * 0.8,
      orthogonal(kv, kw), orthogonal(kv, kv))
"""


def test_lambda_values_300000_deep_are_keyed_in_a_fresh_process():
    # a value with a lambda inside was keyed by a tuple nested as deep as
    # the value, whose hash ended the process with SIGSEGV; its key now
    # hashes flat, and alpha-equivalent values are found equal by `compare`
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    r = subprocess.run([sys.executable, "-c", _DEEP_LAMS_KEYED], capture_output=True, text=True,
                       env=env, check=False)
    assert (r.returncode, r.stdout, r.stderr) == (0, "0j True True False\n", "")
