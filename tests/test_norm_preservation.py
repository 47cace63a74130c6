"""Soundness of the checker on register maps: a closed term it accepts at
`#B^n -> #B^n` sends every unit superposition to a unit superposition.

The terms are case trees with planted duplicate column images, near (one
index bit apart) and distant (two or more), compiled gates, one-qubit
lambdas from the program generator's building blocks, and compositions of
these.  The inputs are dense superpositions, so two columns that are not
orthogonal show up in the norm of the output whatever bits they differ in.

What holds is per rule: each superposition and each `match` is checked
within the tolerance on its own, so an accepted program's norm error is the
sum of its rules' errors, not the tolerance.  A chain of near-isometries
pins that.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generator import ProgramGen, _unitary2, near_isometry_chain
from qlam.config import tolerance
from qlam.inner import norm
from qlam.quantum import GateMatrix, StateVector, case_construct, compile_gate, encode
from qlam.rewrite import normalize
from qlam.surface import parse_program
from qlam.syntax import (
    App,
    Distribution,
    InlV,
    InrV,
    Lam,
    PureTerm,
    Var,
    Void,
    mk_app,
    mk_match,
    mk_seq,
    scale,
    singleton,
)
from qlam.typecheck import TypeCheckError, check_distribution, check_program
from qlam.types import BOOL, UNIT, Arrow, Sharp, qubits


def _unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    dim = 1 << n
    u, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return u


def _case_tree(draw, rng: np.random.Generator, n: int) -> PureTerm:
    dim = 1 << n
    u = _unitary(rng, n)
    images = [encode(StateVector(u[:, k])) for k in range(dim)]
    for _ in range(draw(st.sampled_from((0, 0, 0, 1, 2)))):
        # any other column: near when the mask has one bit, distant otherwise
        k = draw(st.integers(0, dim - 1))
        j = k ^ draw(st.integers(1, dim - 1))
        images[j] = scale(draw(st.sampled_from([1, -1, 1j])), images[k])
    return case_construct(n, images)


def _compiled(draw, rng: np.random.Generator, n: int) -> PureTerm:
    g = draw(st.integers(1, min(n, 2)))
    targets = draw(st.permutations(range(n)))[:g]
    return compile_gate(GateMatrix(_unitary(rng, g)), targets, n)


def _generated(draw, seed: int) -> PureTerm:
    """A one-qubit lambda built from the generator's orthogonal branch
    images and flat unit programs, or with both branches on one image."""
    g = ProgramGen(seed)
    body = singleton(Var("z"))
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            x = g.fresh("x")
            inner = singleton(Var(x))
            if draw(st.booleans()):
                inner = mk_seq(g.flat_program(UNIT, 1), inner)
            body = mk_app(Lam(x, Sharp(BOOL), inner), body)
        else:
            c00, c01, c10, c11 = _unitary2(g.rng)
            img0 = Distribution(((c00, InlV(Void())), (c01, InrV(Void()))))
            img1 = Distribution(((c10, InlV(Void())), (c11, InrV(Void()))))
            if draw(st.integers(0, 4)) == 0:
                img1 = img0
            u, w = g.fresh("u"), g.fresh("w")
            body = mk_match(body, u, mk_seq(singleton(Var(u)), img0),
                            w, mk_seq(singleton(Var(w)), img1))
    return Lam("z", qubits(1), body)


def _register_map(draw, n: int, outer: bool = True) -> PureTerm:
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["case tree", "compiled", "generated", "composed"]))
    if kind == "composed" and outer:
        f = _register_map(draw, n, outer=False)
        g = _register_map(draw, n, outer=False)
        return Lam("r", qubits(n), singleton(App(f, App(g, Var("r")))))
    if kind == "generated" and n == 1:
        return _generated(draw, draw(st.integers(0, 2**32 - 1)))
    if kind == "compiled":
        return _compiled(draw, rng, n)
    return _case_tree(draw, rng, n)


@st.composite
def _register_maps(draw) -> tuple[int, PureTerm]:
    n = draw(st.integers(1, 3))
    return n, _register_map(draw, n)


@settings(max_examples=900, deadline=None)
@given(_register_maps(), st.integers(0, 2**32 - 1))
def test_accepted_register_maps_preserve_the_norm(nmap, seed):
    n, lam = nmap
    try:
        check_distribution({}, singleton(lam), Arrow(qubits(n), qubits(n)))
    except TypeCheckError:
        return
    state = encode(StateVector(_unit(np.random.default_rng(seed), 1 << n)))
    out = normalize(mk_app(lam, state))
    assert math.isclose(norm(out), 1.0, abs_tol=1e-9)


@pytest.mark.parametrize("k, squared", [(1, 1.0000009), (100, 1.00009), (2000, 1.0018)])
def test_norm_error_adds_up_across_rules(k, squared):
    # every superposition of the chain is within the tolerance, so it is
    # accepted at #(U+U); its normal form's squared norm is (1 + 0.9e-6)^k,
    # which at k = 2000 is 1,800 times the tolerance away from 1
    with tolerance(1e-6):
        program = parse_program(near_isometry_chain(k))
        assert str(check_program(program)[0]) == "#(U+U)"
        got = sum(abs(a) ** 2 for a, _ in normalize(program).summands)
    assert got == pytest.approx((1 + 0.9e-6) ** k, rel=0, abs=1e-9)
    assert round(got, len(str(squared)) - 2) == squared
