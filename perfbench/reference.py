"""Answers the benchmark checks qlam against, computed without qlam.

`simulate` is plain state-vector simulation: the state is reshaped to one axis
per qubit and each gate is applied with `np.tensordot` on its target axes.
`read_register` reads the `program` text of a `qlam run` event (a sum of scaled
basis tuples) back into an amplitude vector with a small reader of its own.
"""

from __future__ import annotations

import re

import numpy as np

_INV_SQRT2 = 1 / np.sqrt(2)

GATES: dict[str, np.ndarray] = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) * _INV_SQRT2,
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "T": np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "CNOT": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
    "CZ": np.diag([1, 1, 1, -1]).astype(complex),
    "SWAP": np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    ),
}


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A Haar-random unitary from the QR decomposition of a Gaussian matrix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(rng: np.random.Generator, qubits: int) -> np.ndarray:
    dim = 1 << qubits
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


def apply_gate(state: np.ndarray, gate: np.ndarray, targets: list[int]) -> np.ndarray:
    """Apply a g-qubit gate to the target axes of an n-qubit state tensor.

    Qubit 0 is the most significant bit of a basis index, which is axis 0 of
    the row-major reshape, so axis q is qubit q."""
    g = len(targets)
    op = gate.reshape((2,) * (2 * g))
    moved = np.tensordot(op, state, axes=(list(range(g, 2 * g)), targets))
    # tensordot puts the gate's output axes first; send them back to targets
    return np.moveaxis(moved, list(range(g)), targets)


def simulate(
    gates: list[tuple[np.ndarray, list[int]]], amplitudes: np.ndarray
) -> np.ndarray:
    n = amplitudes.shape[0].bit_length() - 1
    state = amplitudes.reshape((2,) * n)
    for gate, targets in gates:
        state = apply_gate(state, gate, targets)
    return state.reshape(-1)


_BIT_RE = re.compile(r"in([lr]) \*")


def _read_scalar(text: str) -> complex:
    if text.startswith("-"):
        return -_read_scalar(text[1:])
    return complex(text.replace("i", "j"))


def read_register(program: str, qubits: int) -> np.ndarray:
    """Amplitudes of a printed distribution over n-qubit basis tuples.

    Summands are separated by ` + `; each is `COEFF * VALUE` or a bare VALUE
    with coefficient 1, and the value's injections name its bits in qubit
    order.  Raises ValueError on anything else."""
    out = np.zeros(1 << qubits, dtype=complex)
    for summand in program.split(" + "):
        coeff_text, sep, value = summand.partition(" * ")
        if not sep:
            coeff, value = 1 + 0j, summand
        else:
            coeff = _read_scalar(coeff_text)
        bits = _BIT_RE.findall(value)
        shape = value
        for tag in ("inl *", "inr *", "(", ")", ",", " "):
            shape = shape.replace(tag, "")
        if len(bits) != qubits or shape:
            raise ValueError(f"not a {qubits}-qubit basis value: {value!r}")
        index = 0
        for b in bits:
            index = (index << 1) | (b == "r")
        out[index] += coeff
    return out
