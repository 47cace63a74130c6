"""The three workloads.  The timed phase runs `rounds` rounds of items, and no
input repeats inside a process: `round_items(r)` builds the items of round r
from a random stream of the seed and r, the warm-up items come from a stream
of their own, and a workload whose generator can draw the same input twice
skips one it has already built.

A workload has `round_items(r)`, `warmup`, `run(item)`, which makes the
program calls a user's command would make and returns (characters of program
text produced, raw result), and `verify(item, result)`, which returns None for
a correct result or a short reason.  `run` is timed, `verify` is not.
Either raises KnownDefect when the program fails in a way already documented:
such an item counts as failed, but does not make the run incorrect.  Every
program call goes through an attribute of `qlam` or `qlam.cli`, looked up at
call time, so the traced run can put its boundary wrappers there.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import qlam
import qlam.cli
import programs
import reference

TOL = 1e-6
WARMUP = -1  # the round number of the warm-up stream


def stream(seed: int, r: int) -> np.random.Generator:
    """The random stream of round r of a seed; r = WARMUP gives the warm-up's."""
    return np.random.default_rng([seed, r + 1])


class KnownDefect(Exception):
    """A failure of the program that is already known and documented."""


@dataclass
class Item:
    kind: str
    width: int = 0
    data: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# gates: `qlam compile-gate` then `qlam check`

# per round: (width, items); two in five are planted defects.  The counts
# fall with width so that each of n = 2..4 takes a comparable share of the
# round (about 3 s each at the reference speed of speed.py).  The one n=5
# gate costs as much as some 950 at n=2, about 6 s, and one round fills a run.
GATE_MIX = ((2, 480), (3, 65), (4, 8), (5, 1))
GATE_MIX_QUICK = ((2, 20), (3, 5))


def _planted(i: int) -> str:
    """The kind of the i-th item of a width: a column image duplicated onto a
    column one bit away or, one time in four, two or more bits away; or one
    column image scaled by 2."""
    if i % 5 == 1:
        return "distant" if i % 20 == 16 else "duplicate"
    return "scaled" if i % 5 == 3 else "accepted"


def register_type(n: int) -> str:
    """How qlam prints #B^n -> #B^n, for n >= 2."""
    reg = "#(" + "*".join(["(U+U)"] * n) + ")"
    return f"{reg} -> {reg}"


class Gates:
    name = "gates"
    rounds = 1
    expected_kind = {"duplicate": "ORTHOGONALITY_FAILURE", "distant": "ORTHOGONALITY_FAILURE",
                     "scaled": "NORM_VIOLATION"}

    def __init__(self, seed: int, workdir: Path, quick: bool = False):
        self.seed = seed
        self.mix = GATE_MIX_QUICK if quick else GATE_MIX
        rng = stream(seed, WARMUP)
        self.warmup = [self._item(rng, 2, k) for k in ("accepted", "duplicate", "scaled")]

    def round_items(self, r: int) -> list[Item]:
        rng = stream(self.seed, r)
        items = [self._item(rng, n, _planted(i)) for n, count in self.mix for i in range(count)]
        random.Random(f"{self.seed}/{r}").shuffle(items)
        return items

    @staticmethod
    def _item(rng: np.random.Generator, n: int, kind: str) -> Item:
        u = reference.random_unitary(rng, 1 << n)
        if kind == "accepted":
            return Item(kind, n, {"gate": qlam.GateMatrix(u)})
        images = [qlam.encode(qlam.StateVector(u[:, k])) for k in range(1 << n)]
        k = int(rng.integers(1 << n))
        if kind == "duplicate":
            images[k ^ (1 << int(rng.integers(n)))] = images[k]
        elif kind == "distant":
            far = [j for j in range(1 << n) if bin(j ^ k).count("1") >= 2]
            images[far[int(rng.integers(len(far)))]] = images[k]
        else:
            images[k] = qlam.scale(2, images[k])
        return Item(kind, n, {"images": images})

    def run(self, item: Item):
        if item.kind == "accepted":
            lam = qlam.compile_isometry(item.data["gate"])
        else:
            lam = qlam.case_construct(item.width, item.data["images"])
        text = qlam.pretty_print(qlam.singleton(lam))
        program = qlam.parse_program(text)
        try:
            ty, _ = qlam.check_program(program)
        except qlam.TypeCheckError as e:
            return len(text), ("rejected", e.kind.name)
        return len(text), ("typed", str(ty))

    def verify(self, item: Item, result) -> str | None:
        typed = ("typed", register_type(item.width))
        if item.kind == "accepted":
            want = typed
        else:
            want = ("rejected", self.expected_kind[item.kind])
        if item.kind == "distant" and result == typed:
            # the checker compares match branches only under equal values of
            # the shared variables, so two equal images whose indices differ
            # in two or more bits are never compared, and a map that is not
            # an isometry is accepted
            raise KnownDefect("accepted a duplicated column two or more bits away")
        return None if result == want else f"{item.kind} n={item.width}: got {result}"


# ---------------------------------------------------------------------------
# circuits: `qlam run FILE STATE --format json-lines`, in-process

# per round: (width, shape, input, items)
CIRCUIT_MIX = (
    (3, "ghz", "basis", 10), (3, "layered", "basis", 36), (3, "layered", "random", 12),
    (3, "matrix", "random", 6),
    (4, "ghz", "basis", 6), (4, "layered", "basis", 14), (4, "layered", "random", 1),
    (4, "matrix", "basis", 2),
    (5, "ghz", "basis", 8), (5, "layered", "basis", 2), (5, "matrix", "basis", 1),
    (6, "ghz", "basis", 2), (6, "layered", "basis", 1),
)
CIRCUIT_MIX_QUICK = (
    (3, "ghz", "basis", 2), (3, "layered", "random", 3), (3, "matrix", "basis", 2),
    (4, "layered", "basis", 2),
)
ONE_QUBIT = ("H", "S", "T", "X")
TWO_QUBIT = ("CNOT", "CZ", "SWAP")


def _complex_text(c: complex) -> str:
    return f"{c.real:.17g}{'+' if c.imag >= 0 else '-'}{abs(c.imag):.17g}i"


def _state_text(amps: np.ndarray) -> str:
    # the ket brackets keep a leading minus sign from reading as an option
    return "|" + ",".join(map(_complex_text, amps)) + ">"


def _matrix_text(m: np.ndarray) -> str:
    rows = [f"dim {m.shape[0]}"] + [" ".join(map(_complex_text, row)) for row in m]
    return "\n".join(rows) + "\n"


class Circuits:
    name = "circuits"
    rounds = 2

    def __init__(self, seed: int, workdir: Path, quick: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.mix = CIRCUIT_MIX_QUICK if quick else CIRCUIT_MIX
        self.seen: set[tuple[str, str]] = set()
        self.warmup = [self._item(stream(seed, WARMUP), 3, "matrix", "random", "w")]

    def round_items(self, r: int) -> list[Item]:
        """Round r's items; a circuit and input this process has already run is
        drawn again, so rounds must be built in order."""
        rng = stream(self.seed, r)
        items = []
        for n, shape, inp, count in self.mix:
            while count:
                item = self._item(rng, n, shape, inp, f"{r}-{len(items)}")
                key = (item.data["circuit"], item.data["argv"][2])
                if key not in self.seen:
                    self.seen.add(key)
                    items.append(item)
                    count -= 1
        random.Random(f"{self.seed}/{r}").shuffle(items)
        return items

    def _item(self, rng, n: int, shape: str, inp: str, index: str) -> Item:
        gates: list[tuple[str, np.ndarray, list[int]]] = []
        if shape == "ghz":
            # a chain through the qubits in a random order
            order = [int(q) for q in rng.permutation(n)]
            gates.append(("H", reference.GATES["H"], order[:1]))
            gates += [("CNOT", reference.GATES["CNOT"], order[q:q + 2]) for q in range(n - 1)]
        else:
            # a layer of single-qubit gates with n // 3 Hadamards, so the
            # number of summands is the same for every seed, then a ladder of
            # two-qubit gates; a matrix gate goes right after the first layer
            hadamards = set(rng.choice(n, n // 3, replace=False).tolist())
            for q in range(n):
                g = "H" if q in hadamards else ONE_QUBIT[1 + rng.integers(len(ONE_QUBIT) - 1)]
                gates.append((g, reference.GATES[g], [q]))
            if shape == "matrix":
                pair = [int(q) for q in rng.choice(n, 2, replace=False)]
                u = reference.random_unitary(rng, 4)
                name = f"g{index}.mat"
                (self.workdir / name).write_text(_matrix_text(u))
                gates.append(("@" + name, u, pair))
            for q in range(n - 1):
                g = TWO_QUBIT[rng.integers(len(TWO_QUBIT))]
                pair = [q, q + 1] if rng.random() < 0.5 else [q + 1, q]
                gates.append((g, reference.GATES[g], pair))
        path = self.workdir / f"c{index}.circ"
        circuit = "".join(f"{g} {' '.join(map(str, t))}\n" for g, _, t in gates)
        path.write_text(circuit)
        if inp == "basis":
            k = int(rng.integers(1 << n))
            amps = np.zeros(1 << n, dtype=complex)
            amps[k] = 1
            state = "|" + format(k, f"0{n}b") + ">"
        else:
            amps = reference.random_state(rng, n)
            state = _state_text(amps)
        return Item(f"{shape}-{inp}", n, {
            "argv": ["run", str(path), state, "--format", "json-lines"],
            "circuit": circuit,
            "gates": [(m, t) for _, m, t in gates],
            "input": amps,
        })

    def run(self, item: Item):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = qlam.cli.main(item.data["argv"])
            except SystemExit as e:
                code = e.code
        text = out.getvalue()
        try:
            event = json.loads(text.splitlines()[-1])
        except (IndexError, ValueError):
            event = {}
        return len(event.get("program", "")), (code, event, err.getvalue())

    def verify(self, item: Item, result) -> str | None:
        code, event, err = result
        if code != 0 or event.get("event") != "run":
            return f"exit {code}: {err.strip()[:200]}"
        n = item.width
        if "want" not in item.data:
            item.data["want"] = reference.simulate(item.data["gates"], item.data["input"])
        want = item.data["want"]
        try:
            got = reference.read_register(event["program"], n)
        except ValueError as e:
            return f"unreadable program: {e}"
        decoded = np.array([complex(re, im) for re, im in event["decoded"]])
        if event["register"] != n or decoded.shape != want.shape:
            return f"wrong register in {item.kind} n={n}"
        dev = max(np.abs(got - want).max(), np.abs(decoded - want).max())
        return None if dev <= TOL else f"{item.kind} n={n}: deviates by {dev:.3g}"


# ---------------------------------------------------------------------------
# corpus: what `qlam eval` does to many small programs

CORPUS_SIZE = 2400
CORPUS_SIZE_QUICK = 150
TRACE_EVERY = 5  # one item in five normalizes through trace_normalize


class Corpus:
    name = "corpus"
    rounds = 6

    def __init__(self, seed: int, workdir: Path, quick: bool = False):
        self.seed = seed
        self.size = CORPUS_SIZE_QUICK if quick else CORPUS_SIZE
        self.seen: set[str] = set()
        self.warmup = self._items(WARMUP, 20)

    def round_items(self, r: int) -> list[Item]:
        return self._items(r, self.size)

    def _items(self, r: int, count: int) -> list[Item]:
        """`count` programs that this process has not seen yet (the generator
        makes the same tiny program now and then), so rounds must be built in
        order."""
        items = []
        for d, ty in programs.programs(f"{self.seed}/{r}"):
            text = qlam.pretty_print(d)
            if text in self.seen:
                continue
            self.seen.add(text)
            kind = "trace" if len(items) % TRACE_EVERY == 0 else "normalize"
            items.append(Item(kind, 0, {"text": text, "type": ty}))
            if len(items) == count:
                return items

    def run(self, item: Item):
        text = item.data["text"]
        try:
            program = qlam.parse_program(text)
        except qlam.ParseError as e:
            if e.span is None or not text.startswith("match", e.span.start):
                raise
            # pretty_print writes a match as an application argument without
            # parentheses, and the parser does not take it back
            raise KnownDefect("printed match argument does not parse back") from e
        ty, _ = qlam.check_program(program)
        if item.kind == "trace":
            nf = qlam.trace_normalize(program)[-1]
        else:
            nf = qlam.normalize(program)
        text = qlam.pretty_print(nf)
        return len(text), (ty, [a for a, _ in nf.summands])

    def verify(self, item: Item, result) -> str | None:
        ty, coeffs = result
        if ty != item.data["type"]:
            return f"typed {ty}, expected {item.data['type']}"
        nrm = math.sqrt(sum(abs(a) ** 2 for a in coeffs))
        return None if abs(nrm - 1) <= TOL else f"normal form has norm {nrm:.12g}"


WORKLOADS = {w.name: w for w in (Gates, Circuits, Corpus)}
