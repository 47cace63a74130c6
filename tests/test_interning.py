"""Hash-consed ground values and types: one object per distinct value, built
by any path, compared and hashed by identity, with caches that cannot be
observed and one intern table that lets dead values and types go."""

from __future__ import annotations

import copy
import dataclasses
import gc
import pickle
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qlam.typecheck as typecheck
import qlam.types as types
from generator import trace_programs
from qlam.quantum import (
    GateMatrix,
    StateVector,
    basis_value,
    compile_gate,
    compile_isometry,
    encode,
    gate_library,
)
from qlam.rewrite import normalize
from qlam.surface import parse_program, pretty_print
from qlam.syntax import (
    InlV,
    InrV,
    Lam,
    PairV,
    PureTerm,
    Var,
    Void,
    compare,
    is_ground,
    singleton,
    substitute,
)
from qlam.typecheck import _enumerate_values, check_program
from qlam.types import BOOL, UNIT, Arrow, Prod, Sharp, Sum, Unknown, qubits
from test_syntax import reference_key


def rebuilt(t: PureTerm) -> PureTerm:
    """t built again node by node through the constructors."""
    match t:
        case Void():
            return Void()
        case PairV(a, b):
            return PairV(rebuilt(a), rebuilt(b))
        case InlV(v):
            return InlV(rebuilt(v))
        case InrV(v):
            return InrV(rebuilt(v))
    return t


def scratch_key(t: PureTerm) -> tuple:
    """The alpha-key of a ground value, computed without any cache."""
    match t:
        case Void():
            return ("void",)
        case PairV(a, b):
            return ("pair", scratch_key(a), scratch_key(b))
        case InlV(v):
            return ("inl", scratch_key(v))
        case InrV(v):
            return ("inr", scratch_key(v))
    raise AssertionError(f"not a ground value: {t!r}")


def _assert_interned(t: PureTerm) -> None:
    assert is_ground(t)
    assert rebuilt(t) is t
    assert t._term_key == scratch_key(t) == reference_key(t, {}, 0)
    assert copy.deepcopy(t) is t
    assert pickle.loads(pickle.dumps(t)) is t


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_generator_programs_reach_the_same_value_objects(seed):
    (program, _), = trace_programs(seed, 1)
    nf = normalize(program)
    reparsed = parse_program(pretty_print(nf))
    assert len(reparsed) == len(nf)
    for (_, t), (_, u) in zip(nf.summands, reparsed.summands):
        if is_ground(t):
            _assert_interned(t)
            assert u is t


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_encoded_states_reach_the_same_value_objects(n, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    d = encode(StateVector(v / np.linalg.norm(v)))
    inventory = _enumerate_values(qubits(n), {})
    reparsed = parse_program(pretty_print(d))
    for k, (a, t) in enumerate(d.summands):
        _assert_interned(t)
        assert t is basis_value(k, n) is inventory[k] is reparsed.summands[k][1]
    x = Var("x")
    assert substitute(PairV(x, x), "x", d.summands[0][1]) is PairV(
        d.summands[0][1], d.summands[0][1])


def test_caches_are_invisible():
    g = PairV(InlV(Void()), InrV(Void()))
    assert dataclasses.replace(g) is g
    # interned means identical: a rebuilt value is the same object, so it
    # hashes the same however the hash is computed
    assert rebuilt(g) is g and hash(rebuilt(g)) == hash(g)
    assert repr(g) == "PairV(first=InlV(value=Void()), second=InrV(value=Void()))"
    assert str(g) == "(inl *, inr *)"
    open_ = PairV(Var("x"), g)
    twin = dataclasses.replace(open_)
    assert twin is not open_ and not is_ground(open_)
    assert twin == open_ and hash(twin) == hash(open_) and repr(twin) == repr(open_)
    assert twin._term_key is None and compare(twin, open_) == 0
    assert reference_key(twin, {}, 0) == ("pair", ("fv", "x"), scratch_key(g))
    closed_fun = InlV(Lam("y", UNIT, singleton(Var("y"))))
    assert not is_ground(closed_fun) and closed_fun is not rebuilt(closed_fun)
    match g:
        case PairV(InlV(Void()), InrV(w)):
            assert w is Void()
        case _:
            pytest.fail("the pattern no longer matches an interned node")
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.first = g.second
    with pytest.raises(ValueError):
        PairV(singleton(Void()), Void())


def test_types_are_interned():
    assert Sum(UNIT, Unknown()) is Sum(UNIT, Unknown())
    assert Sharp(Prod(BOOL, BOOL)) is qubits(2)
    assert dataclasses.replace(qubits(3)) is qubits(3)
    assert hash(dataclasses.replace(BOOL)) == hash(Sum(UNIT, UNIT))
    # a type hashes by identity, which tells the constructors apart, so the
    # types of the 2^n basis values of a register do not all land in one
    # bucket of a memo; the types are held, because freed ones may share an id
    kept = [Sum(UNIT, UNIT), Prod(UNIT, UNIT), Sum(UNIT, Unknown()), Sum(Unknown(), UNIT)]
    assert len({hash(t) for t in kept}) == 4
    assert repr(BOOL) == "Sum(left=Unit(), right=Unit())"
    assert copy.deepcopy(qubits(3)) is qubits(3)


def test_basis_values_hash_apart():
    # held alive, the 256 basis values of an 8-qubit register are 256 objects
    # with 256 identity hashes, and inl v and inr v hash apart
    values = [basis_value(k, 8) for k in range(1 << 8)]
    assert len({hash(v) for v in values}) == 1 << 8
    left, right = InlV(values[0]), InrV(values[0])
    assert hash(left) != hash(right)


def _value_entries() -> int:
    # the table holds types too, and typing keeps some alive in the
    # `subtype`/`join_types` memos
    return sum(issubclass(probe[0], PureTerm) for probe in types._INTERNED)


def test_intern_table_lets_dead_values_go():
    gc.collect()
    before = _value_entries()
    rng = np.random.default_rng(7)
    v = rng.normal(size=1 << 10) + 1j * rng.normal(size=1 << 10)
    d = encode(StateVector(v / np.linalg.norm(v)))
    check_program(d)    # typing leaves a derivation on every value node
    assert _value_entries() >= before + (1 << 10)
    del d
    gc.collect()
    assert _value_entries() <= before
    # a type nobody holds leaves the table too, with every part of it that
    # nothing else holds; no surface program writes the placeholder Unknown,
    # but a property test may have, and the memos keep their calls' types
    for memo in (types.subtype, types.join_types):
        memo.cache_clear()
    chain, links = Sharp(Sharp(Unknown())), []
    for _ in range(30):
        chain = Prod(chain, BOOL)
        links.append(weakref.ref(chain))
    types_before = len(types._INTERNED)
    del chain
    gc.collect()
    assert all(link() is None for link in links)
    assert len(types._INTERNED) <= types_before - 30


def test_a_checked_gate_keeps_no_values_alive():
    # checking X on the last of ten qubits enumerates registers of up to 2^9
    # values; once the gate and its check are gone, so are they
    gc.collect()
    before = _value_entries()
    lam = compile_gate(gate_library["X"], [9], 10)
    check_program(singleton(lam))
    del lam
    gc.collect()
    assert _value_entries() <= before


def test_each_ground_value_is_typed_once(monkeypatch):
    # the value rules run at most once per distinct ground value; after
    # that, the checker hands back the type and derivation kept on the node
    typed = []
    real = typecheck._value_typed
    monkeypatch.setattr(typecheck, "_value_typed",
                        lambda t, parts: typed.append(t) or real(t, parts))
    rng = np.random.default_rng(11)
    u, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
    program = parse_program(pretty_print(singleton(compile_isometry(GateMatrix(u)))))
    ty, _ = check_program(program)
    assert ty == Arrow(qubits(3), qubits(3))
    assert len(typed) == len({id(t) for t in typed})
    assert all(is_ground(t) for t in typed)
    typed.clear()
    check_program(program)
    assert typed == []
