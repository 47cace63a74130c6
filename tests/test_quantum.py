"""Qubit encoding, gate compilation, circuits, matrix/circuit files."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from qlam import quantum
from qlam.quantum import (
    FileFormatError,
    GateMatrix,
    NotAnIsometry,
    StateVector,
    basis_value,
    case_construct,
    compile_gate,
    compile_isometry,
    decode,
    encode,
    expand_gate,
    format_matrix,
    gate_library,
    matrix_apply,
    parse_circuit,
    parse_matrix,
    run_circuit,
)
from qlam.config import tolerance
from qlam.inner import norm
from qlam.rewrite import normalize
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
    congruent,
    free_vars,
    mk_app,
    singleton,
)
from qlam.typecheck import check_distribution, type_of_program
from qlam.types import Arrow, qubits

from generator import gate_images, nested_case_tree

STAR = Void()
INL = InlV(STAR)
INR = InrV(STAR)
_R2 = 1 / math.sqrt(2)


def _sv(*amps) -> StateVector:
    return StateVector(np.array(amps, dtype=complex))


def _amps(v: StateVector) -> np.ndarray:
    return v.amplitudes


# ----------------------------------------------------------- state vectors


def test_state_vector_validation():
    with pytest.raises(ValueError):
        _sv(1, 0, 0)                       # not a power of two
    with pytest.raises(ValueError):
        _sv(1, 1)                          # norm sqrt(2)
    with pytest.raises(ValueError):
        StateVector(np.array([1.0]))       # zero qubits
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="state vector has norm"):
            _sv(bad, 0)
    v = _sv(_R2, _R2)
    assert v.qubit_count == 1
    assert v[1] == _R2


def test_gate_matrix_validation():
    with pytest.raises(ValueError):
        GateMatrix(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        GateMatrix(np.zeros((3, 3)))
    assert gate_library["CNOT"].qubit_count == 2


# ------------------------------------------------------------ basis values


def test_basis_value_bit_order():
    assert basis_value(0, 1) == INL
    assert basis_value(1, 1) == INR
    assert basis_value(2, 2) == PairV(INR, INL)          # binary 10, b0 first
    assert basis_value(5, 3) == PairV(INR, PairV(INL, INR))   # binary 101
    with pytest.raises(ValueError):
        basis_value(4, 2)


# ----------------------------------------------------------- encode/decode


def test_encode_single_basis_states():
    assert encode(_sv(1, 0)) == singleton(INL)
    assert encode(_sv(0, 1)) == singleton(INR)


def test_encode_three_qubit_example():
    v = _sv(_R2, 0, 0, _R2, 0, 0, 0, 0)
    d = encode(v)
    assert len(d.summands) == 2
    expected = {
        PairV(INL, PairV(INL, INL)): _R2,      # |000>
        PairV(INL, PairV(INR, INR)): _R2,      # |011>
    }
    for a, t in d.summands:
        assert t in expected
        assert abs(a - expected[t]) < 1e-15
    assert type_of_program(d) == qubits(3)


def test_encode_type_checks_at_register_type():
    for n, v in ((1, _sv(_R2, _R2)), (2, _sv(0.5, 0.5, 0.5, 0.5))):
        assert check_distribution({}, encode(v), qubits(n)) is True


def test_encode_drops_rounding_dust():
    h = gate_library["H"].matrix
    squared = h @ h                      # identity plus BLAS dust off-diagonal
    assert 0 < abs(squared[1, 0]) < 1e-15
    d = encode(StateVector(squared[:, 0]))
    assert len(d.summands) == 1


def test_decode_examples():
    assert np.array_equal(_amps(decode(singleton(INR), 1)), [0, 1])
    v = _sv(_R2, 0, 0, _R2, 0, 0, 0, 0)
    assert np.array_equal(_amps(decode(encode(v), 3)), _amps(v))


def test_decode_rejects_malformed_summands():
    with pytest.raises(ValueError):
        decode(singleton(STAR), 1)
    with pytest.raises(ValueError):
        decode(singleton(INL), 2)          # too shallow for two qubits


def test_round_trip_is_exact_on_random_states():
    rng = np.random.default_rng(20240817)
    for n in (1, 2, 3):
        for _ in range(25):
            raw = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            raw /= np.linalg.norm(raw)
            v = StateVector(raw)
            assert np.array_equal(_amps(decode(encode(v), n)), _amps(v))


# ----------------------------------------------------------- case construct


def test_case_construct_single_qubit_shape():
    term = case_construct(1, [singleton(INL), singleton(INR)])
    assert isinstance(term, Lam)
    (coeff, body), = term.body.summands
    assert coeff == 1 and isinstance(body, Match)
    assert congruent(normalize(mk_app(term, singleton(INL))), singleton(INL))
    assert congruent(normalize(mk_app(term, singleton(INR))), singleton(INR))


def test_case_construct_two_qubit_shape():
    images = [singleton(basis_value(k, 2)) for k in (0, 1, 3, 2)]
    term = case_construct(2, images)
    assert isinstance(term, Lam)
    (_, body), = term.body.summands
    assert isinstance(body, LetPair)       # splits off the first qubit
    for k, img in zip((0, 1, 2, 3), images):
        out = normalize(mk_app(term, singleton(basis_value(k, 2))))
        assert congruent(out, img)


def test_case_construct_image_count():
    with pytest.raises(ValueError):
        case_construct(2, [singleton(INL)] * 3)
    with pytest.raises(ValueError):
        case_construct(0, [])


def test_case_construct_from_matrix_columns():
    hh = np.kron(gate_library["H"].matrix, gate_library["H"].matrix)
    images = [encode(StateVector(hh[:, k])) for k in range(4)]
    term = case_construct(2, images)
    for k in range(4):
        basis = np.zeros(4)
        basis[k] = 1
        got = decode(normalize(mk_app(term, singleton(basis_value(k, 2)))), 2)
        oracle = matrix_apply(GateMatrix(hh), StateVector(basis))
        assert np.abs(_amps(got) - _amps(oracle)).max() < 1e-12


# --------------------------------------------------------- compile isometry


def test_compiled_identity_fixes_every_basis_state():
    term = compile_isometry(GateMatrix(np.eye(4)))
    for k in range(4):
        d = singleton(basis_value(k, 2))
        assert congruent(normalize(mk_app(term, d)), d)


def test_compiled_cnot_on_all_basis_states():
    term = compile_isometry(gate_library["CNOT"])
    mapping = {0: 0, 1: 1, 2: 3, 3: 2}
    for k, image in mapping.items():
        out = normalize(mk_app(term, singleton(basis_value(k, 2))))
        assert congruent(out, singleton(basis_value(image, 2)))


def test_compiled_hadamard_splits_zero():
    term = compile_isometry(gate_library["H"])
    out = normalize(mk_app(term, encode(_sv(1, 0))))
    assert congruent(out, encode(_sv(_R2, _R2)))


def test_compiled_terms_type_check_at_register_arrow():
    for name, n in (("H", 1), ("T", 1), ("CNOT", 2), ("SWAP", 2)):
        term = compile_isometry(gate_library[name])
        wanted = Arrow(qubits(n), qubits(n))
        assert check_distribution({}, singleton(term), wanted) is True


def test_non_isometry_rejected():
    with pytest.raises(NotAnIsometry):
        compile_isometry(GateMatrix(np.ones((2, 2))))
    almost = np.array([[1, 0], [0, 1 + 1e-3]])
    with pytest.raises(NotAnIsometry):
        compile_isometry(GateMatrix(almost))


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, -math.inf)])
def test_non_finite_matrix_rejected(bad):
    m = np.array([[bad, 0], [0, 1]])
    with pytest.raises(NotAnIsometry, match="non-finite entry"):
        compile_isometry(GateMatrix(m))
    with pytest.raises(NotAnIsometry, match="non-finite entry"):
        compile_gate(GateMatrix(m), [1], 2)


def test_seeded_random_unitaries_round_trip():
    rng = np.random.default_rng(7)
    for n in (1, 2):
        dim = 1 << n
        for _ in range(3):
            raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            u, _ = np.linalg.qr(raw)
            gate = GateMatrix(u)
            term = compile_isometry(gate)
            amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            amps /= np.linalg.norm(amps)
            v = StateVector(amps)
            got = decode(normalize(mk_app(term, encode(v))), n)
            oracle = matrix_apply(gate, v)
            assert np.abs(_amps(got) - _amps(oracle)).max() < 1e-6


# ------------------------------------------------------------ matrix apply


def test_matrix_apply_oracle_cases():
    v = _sv(0.6, 0.8j)
    assert np.array_equal(_amps(matrix_apply(gate_library["I"], v)), _amps(v))
    ten = _sv(0, 0, 1, 0)
    assert np.array_equal(
        _amps(matrix_apply(gate_library["CNOT"], ten)), [0, 0, 0, 1]
    )
    hh = matrix_apply(gate_library["H"], matrix_apply(gate_library["H"], _sv(1, 0)))
    assert np.abs(_amps(hh) - [1, 0]).max() < 1e-12
    with pytest.raises(ValueError):
        matrix_apply(gate_library["CNOT"], _sv(1, 0))


# ------------------------------------------------------------ gate library


def test_gate_library_contents():
    assert set(gate_library) == {"I", "X", "Y", "Z", "H", "S", "T", "CNOT", "CZ", "SWAP"}
    x = gate_library["X"]
    assert np.array_equal(_amps(matrix_apply(x, _sv(1, 0))), [0, 1])
    h = gate_library["H"].matrix
    assert np.abs(np.abs(h) - _R2).max() < 1e-15
    assert np.array_equal(
        gate_library["CNOT"].matrix,
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
    )


def test_gate_library_is_unitary():
    for name, gate in gate_library.items():
        m = gate.matrix
        dev = np.abs(m.conj().T @ m - np.eye(m.shape[0])).max()
        assert dev < 1e-12, name


# ------------------------------------------------------------- expand gate


def test_expand_gate_matches_kron_on_adjacent_wires():
    h = gate_library["H"]
    eye = np.eye(2)
    assert np.allclose(expand_gate(h, [0], 2).matrix, np.kron(h.matrix, eye))
    assert np.allclose(expand_gate(h, [1], 2).matrix, np.kron(eye, h.matrix))
    cnot = gate_library["CNOT"]
    assert np.array_equal(expand_gate(cnot, [0, 1], 2).matrix, cnot.matrix)
    assert np.allclose(
        expand_gate(cnot, [1, 2], 3).matrix, np.kron(eye, cnot.matrix)
    )


def test_expand_gate_reversed_targets():
    cnot = gate_library["CNOT"]
    swap = gate_library["SWAP"].matrix
    flipped = swap @ cnot.matrix @ swap
    assert np.allclose(expand_gate(cnot, [1, 0], 2).matrix, flipped)


def test_expand_gate_validation():
    h = gate_library["H"]
    with pytest.raises(ValueError):
        expand_gate(h, [0, 1], 2)          # arity mismatch
    with pytest.raises(ValueError):
        expand_gate(gate_library["CNOT"], [1, 1], 2)
    with pytest.raises(ValueError):
        expand_gate(h, [2], 2)
    with pytest.raises(ValueError):
        expand_gate(h, [0], 13)


# ------------------------------------------------------------- run circuit


def test_empty_circuit_echoes_input():
    v = _sv(0.6, 0.8)
    d, oracle = run_circuit([], v)
    assert congruent(d, encode(v))
    assert np.array_equal(_amps(oracle), _amps(v))


def test_bell_circuit():
    d, oracle = run_circuit(
        [(gate_library["H"], [0]), (gate_library["CNOT"], [0, 1])], _sv(1, 0, 0, 0)
    )
    got = decode(d, 2)
    bell = np.array([_R2, 0, 0, _R2])
    assert np.abs(_amps(got) - bell).max() < 1e-9
    assert np.abs(_amps(oracle) - bell).max() < 1e-12
    assert abs(norm(d) - 1) < 1e-9


def test_deutsch_constant_oracle():
    # constant f: U_f is I (f = 0) or I tensor X (f = 1); after the H layer
    # and a final H on the query qubit, that qubit always reads 0
    for uf in (np.eye(4), np.kron(np.eye(2), gate_library["X"].matrix)):
        gates = [
            (gate_library["H"], [0]),
            (gate_library["H"], [1]),
            (GateMatrix(uf), [0, 1]),
            (gate_library["H"], [0]),
        ]
        d, oracle = run_circuit(gates, _sv(0, 1, 0, 0))
        got = _amps(decode(d, 2))
        assert np.abs(got - _amps(oracle)).max() < 1e-9
        # all amplitude stays on |0x> states
        assert abs(got[2]) < 1e-9 and abs(got[3]) < 1e-9


def test_run_circuit_preserves_norm():
    d, _ = run_circuit(
        [(gate_library["H"], [0]), (gate_library["S"], [1]),
         (gate_library["CNOT"], [1, 0])],
        _sv(0, 0, 1, 0),
    )
    assert abs(norm(d) - 1) < 1e-9


# ------------------------------------------------------------- compile gate
#
# The reference is the dense route: widen the gate to the whole register,
# encode every column of the wide matrix, and build the case tree over them.


def _dense_route(gate, targets, n):
    wide = expand_gate(gate, targets, n)
    m = wide.matrix
    images = [encode(StateVector(m[:, k])) for k in range(m.shape[1])]
    return wide, case_construct(n, images)


def _random_unitary(rng, g):
    raw = rng.normal(size=(1 << g, 1 << g)) + 1j * rng.normal(size=(1 << g, 1 << g))
    u, _ = np.linalg.qr(raw)
    return GateMatrix(u)


def _placements(gate, max_n):
    g = gate.qubit_count
    for n in range(g, max_n + 1):
        for targets in itertools.permutations(range(n), g):
            yield targets, n


def test_compile_gate_equals_dense_route_on_library_gates():
    for name, gate in gate_library.items():
        for targets, n in _placements(gate, 4):
            wide, want = _dense_route(gate, targets, n)
            assert compile_gate(gate, targets, n) == want, (name, targets, n)
            assert compile_isometry(wide) == want, (name, targets, n)


def test_compile_gate_equals_dense_route_on_random_unitaries():
    rng = np.random.default_rng(11)
    for g in (1, 2):
        for _ in range(3):
            gate = _random_unitary(rng, g)
            for targets, n in _placements(gate, 5):
                _, want = _dense_route(gate, targets, n)
                assert compile_gate(gate, list(targets), n) == want, (targets, n)


def test_compile_gate_drops_rounding_dust_like_encode():
    dusty = GateMatrix(gate_library["H"].matrix + 1e-9 * np.array([[1, -1], [-1, 1]]))
    for targets, n in _placements(dusty, 3):
        _, want = _dense_route(dusty, targets, n)
        assert compile_gate(dusty, targets, n) == want
    cnot = GateMatrix(gate_library["CNOT"].matrix + 1e-9)
    _, want = _dense_route(cnot, [2, 0], 3)
    assert compile_gate(cnot, [2, 0], 3) == want


def _dense_run(gates, state):
    # run_circuit as it was: widen, compile, apply through mk_app, and
    # multiply the dense matrices out
    d = encode(state)
    v = state
    for gate, targets in gates:
        wide = expand_gate(gate, targets, state.qubit_count)
        d = normalize(mk_app(compile_isometry(wide), d))
        v = matrix_apply(wide, v)
    return d, v


def _random_circuit(rng, n, length):
    names = [k for k, g in gate_library.items() if g.qubit_count <= n]
    gates = []
    for _ in range(length):
        if rng.random() < 0.2:
            gate = _random_unitary(rng, 1 + int(n > 1 and rng.random() < 0.5))
        else:
            gate = gate_library[names[rng.integers(len(names))]]
        targets = [int(q) for q in rng.permutation(n)[:gate.qubit_count]]
        gates.append((gate, targets))
    return gates


def test_run_circuit_matches_dense_route_on_random_circuits(monkeypatch):
    rng = np.random.default_rng(5)
    cases = []
    for n in (1, 2, 3, 4):
        for _ in range(4):
            if rng.random() < 0.5:
                amps = np.zeros(1 << n, dtype=complex)
                amps[rng.integers(1 << n)] = 1
            else:
                amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
                amps /= np.linalg.norm(amps)
            cases.append((_random_circuit(rng, n, 1 + int(rng.integers(6))), StateVector(amps)))
    wants = [_dense_run(gates, state) for gates, state in cases]

    def forbidden(*args, **kwargs):
        raise AssertionError("run_circuit took the dense route")

    for name in ("expand_gate", "matrix_apply", "mk_app"):
        monkeypatch.setattr(quantum, name, forbidden, raising=False)
    for (gates, state), (want_d, want_v) in zip(cases, wants):
        d, v = run_circuit(gates, state)
        assert d == want_d
        assert np.abs(_amps(v) - _amps(want_v)).max() < 1e-12


def _zero_state(n):
    amps = np.zeros(1 << n)
    amps[0] = 1
    return StateVector(amps)


def _raised(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return info.type, str(info.value)


def test_compile_gate_errors_match_dense_route():
    h, cnot = gate_library["H"], gate_library["CNOT"]
    bad_targets = [
        (h, [0, 1], 2),            # arity
        (cnot, [1, 1], 2),         # duplicate
        (h, [2], 2),               # out of range
        (cnot, [0, -1], 3),
        (h, [0], 13),              # register too wide
    ]
    for gate, targets, n in bad_targets:
        want = _raised(expand_gate, gate, targets, n)
        assert want[0] is ValueError
        assert _raised(compile_gate, gate, targets, n) == want
        assert _raised(run_circuit, [(gate, targets)], _zero_state(n)) == want
    rng = np.random.default_rng(2)
    for gate, targets, n in [
        (GateMatrix(np.ones((2, 2))), [1], 3),
        (GateMatrix(np.diag([1, 1 + 1e-3])), [0], 2),
        (GateMatrix(rng.normal(size=(4, 4))), [2, 0], 3),
        (GateMatrix(np.ones((4, 4))), [0, 0], 2),        # targets checked first
    ]:
        want = _raised(lambda: compile_isometry(expand_gate(gate, targets, n)))
        assert _raised(compile_gate, gate, targets, n) == want
        assert _raised(run_circuit, [(gate, targets)], _zero_state(n)) == want
    assert _raised(compile_gate, GateMatrix(np.ones((2, 2))), [1], 3)[0] is NotAnIsometry


# ------------------------------------------------------------- case trees


def _public_case_tree(images, n):
    # the case tree built with the public constructors, each of which runs
    # the dataclass __init__ and its checks: one lambda on the register,
    # and below it, per qubit but the last, a let that splits the register
    # the level is given and a match on its first part
    def node(scrutinee, w, left, right):
        return Match(Var(scrutinee), w, singleton(Seq(Var(w), left)),
                     w, singleton(Seq(Var(w), right)))

    register = f"y{n - 2 or ''}" if n > 1 else "z"
    w = f"x{n - 1 or ''}'"
    nodes = [singleton(node(register, w, left, right))
             for left, right in zip(images[::2], images[1::2])]
    for depth in range(n - 2, -1, -1):
        x, y = f"x{depth or ''}", f"y{depth or ''}"
        register = f"y{depth - 1 or ''}" if depth else "z"
        nodes = [singleton(LetPair(x, y, Var(register), singleton(node(x, x + "'", left, right))))
                 for left, right in zip(nodes[::2], nodes[1::2])]
    return Lam("z", qubits(n), nodes[0])


def _assert_built_as_the_public_constructors_build(got, images, n):
    want = _public_case_tree(images, n)
    assert got == want and repr(got) == repr(want), n
    # every cache field is set: free_vars reads it on each node
    assert free_vars(got) == frozenset()
    # the domain is the interned register type
    assert got.ann is qubits(n)


def test_case_tree_matches_one_built_by_the_public_constructors():
    rng = np.random.default_rng(23)
    for n in range(1, 8):
        images = []
        for _ in range(1 << n):
            amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            amps[rng.random(1 << n) < 0.5] = 0
            amps[rng.integers(1 << n)] = 1
            images.append(encode(StateVector(amps / np.linalg.norm(amps))))
        _assert_built_as_the_public_constructors_build(case_construct(n, images), images, n)
        assert quantum._levels(n)[0] is qubits(n)


def test_compiled_trees_match_ones_built_by_the_public_constructors():
    # gates on reversed and non-adjacent targets, and whole-register
    # isometries, each against the tree of its dense images
    rng = np.random.default_rng(29)
    for n in range(1, 8):
        for g in range(1, min(n, 3) + 1):
            gate = _random_unitary(rng, g)
            targets = [int(q) for q in rng.permutation(n)[:g]]
            for t in (targets, targets[::-1], sorted(targets)):
                wide, _ = _dense_route(gate, t, n)
                images = [encode(StateVector(wide.matrix[:, k])) for k in range(1 << n)]
                _assert_built_as_the_public_constructors_build(
                    compile_gate(gate, t, n), images, n)
        if n <= 4:
            gate = _random_unitary(rng, n)
            images = [encode(StateVector(gate.matrix[:, k])) for k in range(1 << n)]
            _assert_built_as_the_public_constructors_build(compile_isometry(gate), images, n)


# ------------------------------------------------- flat and nested trees


def _bits(d):
    # the summands in order, each coefficient by the bits of its two floats
    return [(a.real.hex(), a.imag.hex(), t) for a, t in d.summands]


def _superposed(rng, n):
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    amps[rng.random(1 << n) < 0.3] = 0
    amps[rng.integers(1 << n)] = 1
    return StateVector(amps / np.linalg.norm(amps))


def _flat_and_nested_gates():
    # library gates on every placement, and random unitaries on random
    # targets, at n = 1..5
    rng = np.random.default_rng(37)
    for name, gate in gate_library.items():
        for targets, n in _placements(gate, 5):
            yield f"{name} {targets}/{n}", gate, list(targets), n
    for n in range(1, 6):
        for g in range(1, min(n, 3) + 1):
            targets = [int(q) for q in rng.permutation(n)[:g]]
            yield f"random {targets}/{n}", _random_unitary(rng, g), targets, n


def test_flat_and_nested_trees_give_the_same_normal_forms():
    rng = np.random.default_rng(41)
    for label, gate, targets, n in _flat_and_nested_gates():
        flat = compile_gate(gate, targets, n)
        nested = nested_case_tree(gate_images(gate, targets, n), n)
        inputs = [singleton(basis_value(k, n)) for k in range(1 << n)]
        inputs += [encode(_superposed(rng, n)) for _ in range(2)]
        for d in inputs:
            got, want = normalize(mk_app(flat, d)), normalize(mk_app(nested, d))
            assert got == want and _bits(got) == _bits(want), label


def _ghz(n):
    return [(gate_library["H"], [0])] + [(gate_library["CNOT"], [q, q + 1]) for q in range(n - 1)]


def _layered(rng, n, layers):
    # each layer: a one-qubit library gate on every qubit, then CNOTs on
    # disjoint neighbouring pairs from a random offset
    ones = [k for k, g in gate_library.items() if g.qubit_count == 1]
    gates = []
    for _ in range(layers):
        gates += [(gate_library[ones[rng.integers(len(ones))]], [q]) for q in range(n)]
        gates += [(gate_library["CNOT"], [q, q + 1]) for q in range(int(rng.integers(2)), n - 1, 2)]
    return gates


def _nested_run(gates, state):
    # run_circuit's rewriting route, folded over nested trees
    n = state.qubit_count
    d = encode(state)
    for gate, targets in gates:
        d = normalize(mk_app(nested_case_tree(gate_images(gate, targets, n), n), d))
    return d


def test_run_circuit_is_the_fold_over_nested_trees():
    rng = np.random.default_rng(43)
    for n in range(3, 7):
        for gates in (_ghz(n), _layered(rng, n, 2)):
            for state in (_zero_state(n), _superposed(rng, n)):
                d, _ = run_circuit(gates, state)
                want = _nested_run(gates, state)
                assert d == want and _bits(d) == _bits(want), n


def _scopes(node):
    # the node's children, each with the names the node binds in it
    match node:
        case Distribution():
            return [(t, frozenset()) for _, t in node.summands]
        case Lam(x, _, body):
            return [(body, {x})]
        case LetPair(x, y, scrutinee, body):
            return [(scrutinee, set()), (body, {x, y})]
        case Match(scrutinee, x, left, y, right):
            return [(scrutinee, set()), (left, {x}), (right, {y})]
        case Seq(a, b) | App(a, b) | PairV(a, b):
            return [(a, set()), (b, set())]
        case InlV(v) | InrV(v):
            return [(v, set())]
    return []


def test_a_compiled_gate_is_one_lambda_in_which_no_binder_shadows_another():
    rng = np.random.default_rng(47)
    terms = [(n, compile_gate(gate_library["H"], [n - 1], n)) for n in (1, 2, 3, 6, 12)]
    terms += [(n, compile_isometry(_random_unitary(rng, n))) for n in (1, 2, 3, 4)]
    for n, lam in terms:
        counts = {}
        stack = [(lam, frozenset())]
        while stack:
            node, bound = stack.pop()
            counts[type(node)] = counts.get(type(node), 0) + 1
            for child, names in _scopes(node):
                assert not names & bound, (n, names)
                stack.append((child, bound | names))
        assert counts[Lam] == 1 and App not in counts, n
        assert counts[Match] == (1 << n) - 1 and counts.get(LetPair, 0) == (1 << (n - 1)) - 1, n


# ---------------------------------------------------------------- oracle


def reference_apply_gate(gate, targets, state):
    """The gate applied to the target qubits of a state, as a contraction of
    the state's (2,)*n tensor with the gate's (2,)*2g tensor."""
    n = state.qubit_count
    g = len(targets)
    u = gate.matrix.reshape((2,) * (2 * g))
    psi = state.amplitudes.reshape((2,) * n)
    out = np.tensordot(u, psi, axes=(list(range(g, 2 * g)), list(targets)))
    return StateVector(np.moveaxis(out, list(range(g)), list(targets)).reshape(-1))


def test_oracle_gives_the_contraction_exactly():
    rng = np.random.default_rng(31)
    for n in range(1, 8):
        for g in range(1, min(n, 3) + 1):
            for _ in range(4):
                gate = _random_unitary(rng, g)
                targets = [int(q) for q in rng.permutation(n)[:g]]
                amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
                state = StateVector(amps / np.linalg.norm(amps))
                got = quantum._apply_gate(gate, targets, state)
                want = reference_apply_gate(gate, targets, state)
                assert np.array_equal(got.amplitudes, want.amplitudes), (n, targets)


def test_oracle_rejects_what_is_not_a_state():
    # the product is checked as a state vector like any other
    with pytest.raises(ValueError, match="norm"):
        quantum._apply_gate(GateMatrix(2 * np.eye(2)), [0], _sv(1, 0))


def test_compile_gate_cuts_at_the_tolerance_in_force():
    # a rotation by a small angle: its off-diagonal entries survive a fine
    # cut and fall to a coarse one
    e = 1e-4
    gate = GateMatrix(np.array([[math.cos(e), -math.sin(e)], [math.sin(e), math.cos(e)]]))
    got = {}
    for tol in (1e-6, 1e-3):
        with tolerance(tol):
            got[tol] = compile_gate(gate, [1], 2)
            assert got[tol] == _dense_route(gate, [1], 2)[1]
    assert got[1e-6] != got[1e-3]


# -------------------------------------------------------------- file formats


def test_matrix_format_round_trip():
    for name in ("H", "Y", "CNOT", "T"):
        gate = gate_library[name]
        again = parse_matrix(format_matrix(gate))
        assert np.array_equal(again.matrix, gate.matrix), name


def test_parse_matrix_literals_and_comments():
    text = """
# a comment
-- another comment
dim 2
0.5+0.5i 0.5-0.5i
5e-1-5e-1i 0.5+0.5i
"""
    m = parse_matrix(text).matrix
    assert m[0, 0] == 0.5 + 0.5j
    assert m[0, 1] == 0.5 - 0.5j
    assert m[1, 0] == 0.5 - 0.5j


def test_parse_matrix_errors():
    with pytest.raises(FileFormatError):
        parse_matrix("")
    with pytest.raises(FileFormatError):
        parse_matrix("size 2\n1 0\n0 1\n")
    with pytest.raises(FileFormatError, match="bad dimension 'x'"):
        parse_matrix("dim x")
    with pytest.raises(FileFormatError):
        parse_matrix("dim 3\n1 0 0\n0 1 0\n0 0 1\n")     # not a power of two
    with pytest.raises(ValueError):
        parse_matrix("dim 3\n1 0 0\n0 1 0\n0 0 1\n")
    with pytest.raises(FileFormatError):
        parse_matrix("dim 2\n1 0\n")                     # missing row
    with pytest.raises(FileFormatError):
        parse_matrix("dim 2\n1 0 0\n0 1\n")              # ragged row
    with pytest.raises(FileFormatError):
        parse_matrix("dim 2\n1 zebra\n0 1\n")


def test_parse_circuit(tmp_path):
    mat = tmp_path / "had.mat"
    mat.write_text(format_matrix(gate_library["H"]))
    text = """
-- build a Bell pair, then a custom gate
H 0
CNOT 0 1
@had.mat 1
"""
    gates = parse_circuit(text, base_dir=tmp_path)
    assert len(gates) == 3
    assert gates[0][1] == [0]
    assert gates[1][1] == [0, 1]
    assert np.allclose(gates[2][0].matrix, gate_library["H"].matrix)


def test_parse_circuit_errors(tmp_path):
    with pytest.raises(FileFormatError):
        parse_circuit("WARP 0\n")
    with pytest.raises(FileFormatError):
        parse_circuit("H 0 1\n")               # arity mismatch
    with pytest.raises(FileFormatError):
        parse_circuit("H zero\n")
    with pytest.raises(FileFormatError):
        parse_circuit("@missing.mat 0\n", base_dir=tmp_path)
