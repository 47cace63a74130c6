"""Qubit registers as terms, and matrices compiled to case trees.

A basis state of an n-qubit register is a right-nested tuple of booleans with
qubit 0 outermost, so index k maps to the bits of k read most significant
first: |10> is (inr *, inl *).  encode and decode translate between state
vectors and value distributions over these tuples; compile_gate turns a
g-qubit matrix acting on chosen qubits of an n-qubit register into one
lambda whose body destructures its argument one qubit at a time, each level
splitting in place the rest of the register the level above leaves, with
no lambda or application below the root, and superposes the columns of
U (x) I, written straight from the small matrix.  The tree is built one
loop per level, from the register's levels (the register type, and each
level's names and variable nodes), which a caller makes once and every gate
on that register shares.  run_circuit folds a gate list over an input both
ways, through the rewrite engine and through one matrix product of the
state with each gate, so the two can be compared.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .config import get_tolerance
from .rewrite import DEFAULT_MAX_STEPS, normalize
from .syntax import (
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
    _trusted,
)
from .types import _MAX_REGISTER, qubits


class NotAnIsometry(ValueError):
    pass


class FileFormatError(ValueError):
    pass


def _qubit_count(dim: int, what: str) -> int:
    n = dim.bit_length() - 1
    if dim <= 0 or 1 << n != dim or n < 1:
        raise ValueError(f"{what} must have a power-of-two size of at least 2, got {dim}")
    return n


@dataclass(frozen=True)
class StateVector:
    """A normalized complex amplitude vector over 2^n basis states."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=complex).reshape(-1)
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        _qubit_count(amps.shape[0], "a state vector")
        nrm = float(np.linalg.norm(amps))
        # written so that a NaN norm fails it too
        if not abs(nrm - 1.0) <= get_tolerance():
            raise ValueError(f"state vector has norm {nrm:.12g}, expected 1")

    @property
    def qubit_count(self) -> int:
        return self.amplitudes.shape[0].bit_length() - 1

    def __getitem__(self, k: int) -> complex:
        return complex(self.amplitudes[k])


@dataclass(frozen=True)
class GateMatrix:
    """A square complex matrix acting on an n-qubit register; entry (i, k) is
    the amplitude sent from basis state k to basis state i."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"a gate matrix must be square, got shape {m.shape}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        _qubit_count(m.shape[0], "a gate matrix")

    @property
    def qubit_count(self) -> int:
        return self.matrix.shape[0].bit_length() - 1


# ---------------------------------------------------------------------------
# basis values

# |0> and |1> of one qubit
_BITS = (InlV(Void()), InrV(Void()))


def basis_value(index: int, qubit_count: int) -> PureTerm:
    """The tuple of booleans for basis state |index>, qubit 0 outermost."""
    if not 0 <= index < (1 << qubit_count):
        raise ValueError(f"basis index {index} out of range for {qubit_count} qubits")
    t = _BITS[index & 1]
    for j in range(1, qubit_count):
        t = PairV(_BITS[(index >> j) & 1], t)
    return t


def _basis_index(t: PureTerm, qubit_count: int) -> int:
    index = 0
    for _ in range(qubit_count - 1):
        if not isinstance(t, PairV):
            raise ValueError(f"not a {qubit_count}-qubit basis value")
        index = (index << 1) | _bit_of(t.first)
        t = t.second
    return (index << 1) | _bit_of(t)


def _bit_of(t: PureTerm) -> int:
    match t:
        case InlV(Void()):
            return 0
        case InrV(Void()):
            return 1
        case _:
            raise ValueError("not a boolean basis value")


def encode(state: StateVector) -> Distribution:
    """The value distribution with one summand per nonzero amplitude.

    Amplitudes within tolerance of zero are omitted, so matrices assembled
    with rounding dust in entries that are zero in exact arithmetic still
    encode to the distributions those entries denote.
    """
    n = state.qubit_count
    cut = get_tolerance()
    summands = [
        (complex(a), basis_value(k, n))
        for k, a in enumerate(state.amplitudes)
        if abs(a) > cut
    ]
    return Distribution(tuple(summands))


def decode(d: Distribution, qubit_count: int) -> StateVector:
    """Read the amplitudes back off a distribution of basis values; basis
    states that do not appear get amplitude zero."""
    amps = np.zeros(1 << qubit_count, dtype=complex)
    for a, t in d.summands:
        amps[_basis_index(t, qubit_count)] += a
    return StateVector(amps)


def matrix_apply(gate: GateMatrix, state: StateVector) -> StateVector:
    if gate.qubit_count != state.qubit_count:
        raise ValueError(
            f"gate acts on {gate.qubit_count} qubits, state has {state.qubit_count}"
        )
    return StateVector(gate.matrix @ state.amplitudes)


# ---------------------------------------------------------------------------
# compilation

def _levels(qubit_count: int) -> tuple:
    """The root's domain type, the register type #B^n, and per level of the
    case tree, qubit 0's first: the name of the register the level is given
    (z at the root, below it the y of the level above), the names x and y
    its let splits that register into (x and y at the root, then x1 and y1,
    ...; the last level matches its register whole and leaves them unused),
    the name x' (x1', ...) its match's branches bind, and the variable
    nodes of the register, of x and of x', which all nodes of the level
    share.  No two levels bind the same name, so no binder shadows
    another."""
    out = []
    register = "z"
    for depth in range(qubit_count):
        x, y = (base + str(depth or "") for base in "xy")
        out.append((register, x, y, x + "'", *map(Var, (register, x, x + "'"))))
        register = y
    return qubits(qubit_count), out


# The tree's nodes are made by setting their slots directly: the frozen
# dataclass __init__ sets each field through object.__setattr__, which costs
# about twice as much, and every field here is valid as it stands.  Each
# node distribution has one summand and is canonical, so it is made by
# `_trusted`, in order: canonicalizing it would only walk the whole subtree
# again.

def _slot_setters(cls: type) -> tuple:
    return tuple(getattr(cls, f).__set__ for f in (*cls.__match_args__, "_fv"))


_new_object = object.__new__
_LAM, _LET, _MATCH, _SEQ, _APP = map(_slot_setters, (Lam, LetPair, Match, Seq, App))


def _case_tree(images: list[Distribution], qubit_count: int, levels: tuple) -> PureTerm:
    """The tree over the images, its leaves: one lambda whose body is
    built bottom-up in one loop per level from the last qubit out.  A node
    of the last qubit matches it and sequences it away in front of one of
    two adjacent images; a node of qubit k splits the register it is given
    into qubit k and the rest, matches qubit k and sequences it away in
    front of one of two adjacent nodes of qubit k+1, which split that rest
    in place: no node below the root is a lambda or an application.  The
    loop makes each node in place, through the slot setters, and its
    one-summand distribution with one call; the nodes of one level share
    its variable nodes."""
    new, one = _new_object, complex(1)
    set_name, set_ann, set_lam_body, set_lam_fv = _LAM
    set_left, set_right, set_let_scrutinee, set_let_body, set_let_fv = _LET
    set_scrutinee, set_left_name, set_left_body, set_right_name, set_right_body, set_match_fv = _MATCH
    set_head, set_tail, set_seq_fv = _SEQ
    register_type, levels = levels
    last = qubit_count - 1
    nodes = images
    for depth in range(last, -1, -1):
        _, x, y, w, vr, vx, vw = levels[depth]
        below = iter(nodes)
        nodes = []
        for pair in zip(below, below):
            # each branch sequences the bit away in front of an image, or of
            # a node of the next level
            branches = []
            for tail in pair:
                set_head(seq := new(Seq), vw)
                set_tail(seq, tail)
                set_seq_fv(seq, None)
                branches.append(_trusted(((one, seq),), True))
            left, right = branches
            set_scrutinee(node := new(Match), vr if depth == last else vx)
            set_left_name(node, w)
            set_left_body(node, left)
            set_right_name(node, w)
            set_right_body(node, right)
            set_match_fv(node, None)
            if depth < last:
                body = _trusted(((one, node),), True)
                set_left(node := new(LetPair), x)
                set_right(node, y)
                set_let_scrutinee(node, vr)
                set_let_body(node, body)
                set_let_fv(node, None)
            nodes.append(_trusted(((one, node),), True))
    set_name(lam := new(Lam), levels[0][0])
    set_ann(lam, register_type)
    set_lam_body(lam, nodes[0])
    set_lam_fv(lam, None)
    return lam


def _app(fun: PureTerm, arg: PureTerm) -> App:
    node = _new_object(App)
    set_fun, set_arg, set_fv = _APP
    set_fun(node, fun)
    set_arg(node, arg)
    set_fv(node, None)
    return node


def case_construct(qubit_count: int, images: Sequence[Distribution]) -> PureTerm:
    """The lambda that sends basis state k of an n-qubit register to the k-th
    image: nested let/match destructuring under the one lambda, one qubit
    per level, with the consumed bits sequenced away in front of each
    image."""
    if qubit_count < 1:
        raise ValueError("the register needs at least one qubit")
    if len(images) != 1 << qubit_count:
        raise ValueError(
            f"expected {1 << qubit_count} images for {qubit_count} qubits, got {len(images)}"
        )
    return _case_tree(list(images), qubit_count, _levels(qubit_count))


def _check_targets(gate: GateMatrix, targets: Sequence[int], qubit_count: int) -> None:
    """Reject target lists that do not place the gate on distinct qubits of
    the register, and registers too wide to compile."""
    g = gate.qubit_count
    if len(targets) != g:
        raise ValueError(f"gate acts on {g} qubits, got {len(targets)} targets")
    if len(set(targets)) != len(targets):
        raise ValueError(f"duplicate targets {list(targets)}")
    for q in targets:
        if not 0 <= q < qubit_count:
            raise ValueError(f"target {q} out of range for {qubit_count} qubits")
    # the case tree has 2^n leaves whatever the gate's width
    if qubit_count > _MAX_REGISTER:
        raise ValueError(f"registers wider than {_MAX_REGISTER} qubits are not supported")


def _spread(targets: Sequence[int], qubit_count: int) -> list[int]:
    """Entry r is gate index r with its bits moved to the target positions of
    a register index (gate bit 0, the most significant, to targets[0]).  The
    last entry is the mask of all target bits."""
    g = len(targets)
    shifts = [qubit_count - 1 - q for q in targets]
    return [
        sum(((r >> (g - 1 - pos)) & 1) << sh for pos, sh in enumerate(shifts))
        for r in range(1 << g)
    ]


def _basis_values(qubit_count: int) -> list[PureTerm]:
    """basis_value(i, n) at index i for every i, by doubling: the values of
    k + 1 qubits are those of k qubits paired behind |0>, then behind |1>."""
    values = list(_BITS)
    for _ in range(qubit_count - 1):
        values = [PairV(bit, v) for bit in _BITS for v in values]
    return values


def _compile(gate: GateMatrix, targets: Sequence[int],
             values: list[PureTerm], levels: list[tuple]) -> PureTerm:
    """The case tree of U (x) I for a gate on the given targets, which must
    already be checked, from the register's basis values by index and its
    tree's `_levels`, one per qubit."""
    m = gate.matrix
    bad = m[~np.isfinite(m)]
    if bad.size:
        raise NotAnIsometry(f"non-finite entry {complex(bad[0])!r}")
    # (U (x) I)^dagger (U (x) I) - I = (U^dagger U - I) (x) I, so checking U suffices
    dev = np.abs(m.conj().T @ m - np.eye(m.shape[0])).max()
    if dev > get_tolerance():
        raise NotAnIsometry(
            f"columns are not orthonormal (largest deviation {dev:.3g})"
        )
    n = len(levels[1])
    spread = _spread(targets, n)
    mask = spread[-1]
    # the gate's rows in register index order, which is also summand order
    rows = sorted(range(len(spread)), key=spread.__getitem__)
    cut = get_tolerance()
    # per gate column, by its register offset, its entries above the cut with
    # their register offsets (the entries are finite, so the leaves need no
    # validation)
    entries_of = {
        bits: [(col[r], spread[r]) for r in rows if abs(col[r]) > cut]
        for bits, col in zip(spread, m.T.tolist())
    }
    images = []
    for k in range(1 << n):
        base = k & ~mask
        summands = tuple([(a, values[base | bits]) for a, bits in entries_of[k & mask]])
        # a column cut away entirely by a coarse tolerance has no summand
        # left, which Distribution rejects
        images.append(_trusted(summands) if summands else Distribution(summands))
    return _case_tree(images, n, levels)


def compile_gate(gate: GateMatrix, targets: Sequence[int], qubit_count: int) -> PureTerm:
    """A lambda on n-qubit registers that applies the gate to the target
    qubits, in the given order, and leaves the rest alone.

    The term is the one compile_isometry gives for expand_gate(gate, targets,
    qubit_count), built from the gate's own matrix: the leaf for basis state
    k superposes the at most 2^g nonzero entries of column k of U (x) I.
    Rejects bad targets first, then matrices whose columns are not
    orthonormal.
    """
    _check_targets(gate, targets, qubit_count)
    return _compile(gate, targets, _basis_values(qubit_count), _levels(qubit_count))


def compile_isometry(gate: GateMatrix) -> PureTerm:
    """A lambda on n-qubit registers that acts as the matrix does.

    The argument is destructured qubit by qubit; the leaf for basis state k
    sequences the consumed bits away and returns the encoded k-th column.
    Rejects matrices whose columns are not orthonormal.
    """
    n = gate.qubit_count
    return _compile(gate, range(n), _basis_values(n), _levels(n))


def expand_gate(gate: GateMatrix, targets: Sequence[int], qubit_count: int) -> GateMatrix:
    """Embed a gate into a wider register, acting on the given qubits in the
    given order and leaving the rest alone."""
    _check_targets(gate, targets, qubit_count)
    dim = 1 << qubit_count
    spread = _spread(targets, qubit_count)
    mask = spread[-1]
    column_of = {bits: r for r, bits in enumerate(spread)}
    out = np.zeros((dim, dim), dtype=complex)
    for k in range(dim):
        base = k & ~mask
        sub = column_of[k & mask]
        for r, bits in enumerate(spread):
            out[base | bits, k] = gate.matrix[r, sub]
    return GateMatrix(out)


def _apply_gate(gate: GateMatrix, targets: Sequence[int], state: StateVector) -> StateVector:
    """The gate applied to the target qubits of a state by one matrix
    product: the state's (2,)*n tensor with the target axes moved to the
    front, in target order, is a 2^g x 2^(n-g) matrix that the gate
    multiplies, and the product's axes go back where they came from."""
    n = state.qubit_count
    order = [*targets, *(q for q in range(n) if q not in targets)]
    psi = state.amplitudes.reshape((2,) * n).transpose(order)
    out = (gate.matrix @ psi.reshape(1 << len(targets), -1)).reshape((2,) * n)
    return StateVector(out.transpose(np.argsort(order)).reshape(-1))


def run_circuit(
    gates: Sequence[tuple[GateMatrix, Sequence[int]]],
    state: StateVector,
    *,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> tuple[Distribution, StateVector]:
    """Apply a gate list to an input state along both routes: compile each
    gate, apply it as a term, and normalize; and contract the state with the
    gates.  Returns the final distribution and the final vector."""
    n = state.qubit_count
    d = encode(state)
    v = state
    # every gate's case tree ends in the same basis values and has the same
    # levels (a register too wide to compile fails at the first gate's
    # target check, before any value is read)
    values, levels = (_basis_values(n) if n <= _MAX_REGISTER else []), _levels(n)
    for gate, targets in gates:
        _check_targets(gate, targets, n)
        lam = _compile(gate, targets, values, levels)
        # d is canonical (encode emits index order, normalize canonicalizes),
        # and so is the application of one lambda to each of its summands;
        # both validated their coefficients already
        app = _trusted(tuple((a, _app(lam, t)) for a, t in d.summands))
        d = normalize(app, max_steps=max_steps)
        v = _apply_gate(gate, targets, v)
    return d, v


_INV_SQRT2 = 1 / np.sqrt(2)

gate_library: dict[str, GateMatrix] = {
    "I": GateMatrix(np.eye(2)),
    "X": GateMatrix(np.array([[0, 1], [1, 0]])),
    "Y": GateMatrix(np.array([[0, -1j], [1j, 0]])),
    "Z": GateMatrix(np.array([[1, 0], [0, -1]])),
    "H": GateMatrix(np.array([[1, 1], [1, -1]]) * _INV_SQRT2),
    "S": GateMatrix(np.array([[1, 0], [0, 1j]])),
    "T": GateMatrix(np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]])),
    "CNOT": GateMatrix(
        np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    ),
    "CZ": GateMatrix(np.diag([1, 1, 1, -1])),
    "SWAP": GateMatrix(
        np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    ),
}


# ---------------------------------------------------------------------------
# file formats

_COMPLEX_RE = re.compile(
    r"^([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"(?:([+-](?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)i)?$"
)


def _parse_complex(tok: str, where: str) -> complex:
    m = _COMPLEX_RE.match(tok)
    if not m:
        raise FileFormatError(f"{where}: bad complex literal {tok!r}")
    re_part = float(m.group(1))
    im_part = float(m.group(2)) if m.group(2) else 0.0
    return complex(re_part, im_part)


def parse_matrix(text: str, name: str = "<matrix>") -> GateMatrix:
    """Matrix files: a `dim N` header, then N rows of N complex entries
    (`a`, `a+bi`, or `a-bi`)."""
    lines = [
        ln for ln in (raw.strip() for raw in text.splitlines())
        if ln and not ln.startswith("#") and not ln.startswith("--")
    ]
    if not lines:
        raise FileFormatError(f"{name}: empty matrix file")
    header = lines[0].split()
    if len(header) != 2 or header[0] != "dim":
        raise FileFormatError(f"{name}: expected a `dim N` header, got {lines[0]!r}")
    try:
        dim = int(header[1])
    except ValueError:
        raise FileFormatError(f"{name}: bad dimension {header[1]!r}") from None
    try:
        _qubit_count(dim, f"{name}: the dimension")
    except ValueError as e:
        raise FileFormatError(str(e)) from None
    rows = lines[1:]
    if len(rows) != dim:
        raise FileFormatError(f"{name}: expected {dim} rows, got {len(rows)}")
    out = np.zeros((dim, dim), dtype=complex)
    for i, row in enumerate(rows):
        toks = row.split()
        if len(toks) != dim:
            raise FileFormatError(
                f"{name}: row {i + 1} has {len(toks)} entries, expected {dim}"
            )
        for k, tok in enumerate(toks):
            out[i, k] = _parse_complex(tok, f"{name}: row {i + 1}")
    return GateMatrix(out)


def parse_circuit(
    text: str, name: str = "<circuit>", base_dir: str | Path | None = None
) -> list[tuple[GateMatrix, list[int]]]:
    """Circuit files: one gate per line, `NAME q0 [q1 ...]` for library gates
    or `@file.mat q0 ...` for a matrix loaded from a file (relative paths
    resolve against the circuit file's directory)."""
    base = Path(base_dir) if base_dir is not None else Path(".")
    out: list[tuple[GateMatrix, list[int]]] = []
    for ln_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith("--"):
            continue
        toks = line.split()
        head, rest = toks[0], toks[1:]
        where = f"{name}: line {ln_no}"
        if head.startswith("@"):
            path = base / head[1:]
            try:
                gate = parse_matrix(path.read_text(), str(path))
            except OSError as e:
                raise FileFormatError(f"{where}: cannot read {path}: {e}") from None
        elif head in gate_library:
            gate = gate_library[head]
        else:
            raise FileFormatError(f"{where}: unknown gate {head!r}")
        try:
            targets = [int(tok) for tok in rest]
        except ValueError:
            raise FileFormatError(f"{where}: targets must be integers") from None
        if len(targets) != gate.qubit_count:
            raise FileFormatError(
                f"{where}: {head} needs {gate.qubit_count} targets, got {len(targets)}"
            )
        out.append((gate, targets))
    return out


def format_matrix(gate: GateMatrix) -> str:
    def show(c: complex) -> str:
        if c.imag == 0:
            return f"{c.real:.17g}"
        sign = "+" if c.imag >= 0 else "-"
        return f"{c.real:.17g}{sign}{abs(c.imag):.17g}i"

    dim = gate.matrix.shape[0]
    rows = [f"dim {dim}"]
    for i in range(dim):
        rows.append(" ".join(show(complex(c)) for c in gate.matrix[i]))
    return "\n".join(rows) + "\n"
