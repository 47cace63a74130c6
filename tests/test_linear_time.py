"""Parsing and checking in time linear in the term.

`canonicalize` hands back a one-summand distribution as it is, so the
parser's `mk_*` calls on single scrutinees and arguments compare no terms.
The `mk_*` constructors order only the holes they fill, never the shared
context around them.  The checker keeps the term or distribution it types
and prints it only when an error is raised or a derivation's subject is
read.  A `match` reads each branch's linear usage off its free names, and
a decided closed match on a ground value keeps its normal form, so neither
the bindings in scope nor the matches below cost a `match` anything.

The equivalence tests hold the new code to the behaviour it replaced: the
merge-and-sort canonical form by the nested keys of
`test_syntax.reference_key` (`reference_canonicalize`), derivation
subjects printed at every node (`eager_subjects`), and error texts recorded
from the checker that printed eagerly (`eager_errors.json`).  The mechanism
tests count the calls that made parsing and checking cost size × depth,
and the scaling tests count the work at two sizes.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qlam.rewrite as rewrite
import qlam.syntax as syntax
import qlam.typecheck as typecheck
from generator import (
    ProgramGen,
    alpha_variant,
    beta_chain,
    flow_programs,
    match_chain,
    matches_under_bindings,
    near_isometry_chain,
    nested_case_tree,
    trace_programs,
)
from qlam.quantum import (
    GateMatrix,
    StateVector,
    case_construct,
    compile_gate,
    compile_isometry,
    encode,
    gate_library,
)
from qlam.surface import parse_program, parse_type, pretty_print
from qlam.syntax import (
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
    add,
    canonicalize,
    is_value_distribution,
    mk_app,
    mk_inl,
    mk_inr,
    mk_let,
    mk_match,
    mk_seq,
    scale,
    show_dist,
    show_term,
    singleton,
)
from qlam.typecheck import (
    Derivation,
    TypeCheckError,
    check_distribution,
    check_orthogonal_judgment,
    check_program,
)
from qlam.types import BOOL, Arrow, qubits
from test_syntax import reference_key

_R2 = 1 / math.sqrt(2)


# ---------------------------------------------------------------- references


def reference_canonicalize(d: Distribution) -> Distribution:
    """The canonical form as it was computed for every distribution: merge
    alpha-equivalent summands by adding coefficients, sort by the key."""
    acc: dict[tuple, list] = {}
    for a, t in d.summands:
        k = reference_key(t, {}, 0)
        slot = acc.get(k)
        if slot is None:
            acc[k] = [a, t]
        else:
            slot[0] += a
    items = sorted(acc.items(), key=lambda kv: kv[0])
    return Distribution(tuple((a, t) for _, (a, t) in items))


def _clip(s: str, width: int = 72) -> str:
    return s if len(s) <= width else s[: width - 3] + "..."


def eager_subjects(d: Distribution) -> tuple:
    """The derivation of a well-typed distribution as (subject, children),
    each subject printed from the subterm that the checker's rule for that
    position types, as the checker once printed it on entry to every node."""
    s = d.summands
    if len(s) == 1 and s[0][0] == 1:
        return _term_subjects(s[0][1])
    cd = reference_canonicalize(d)
    s = cd.summands
    if len(s) == 1 and s[0][0] == 1:
        return _term_subjects(s[0][1])
    here = _clip(show_dist(cd))
    terms = [t for _, t in s]
    if all(isinstance(t, (Void, Var, Lam, PairV, InlV, InrV)) for t in terms):
        return here, tuple(_term_subjects(t) for t in terms)

    def across(part) -> Distribution:
        return Distribution(tuple((a, part(t)) for a, t in s))

    t0 = terms[0]
    match t0:
        case App():
            kids = (_term_subjects(t0.fun), eager_subjects(across(lambda t: t.arg)))
        case Seq():
            kids = (eager_subjects(across(lambda t: t.head)), eager_subjects(t0.tail))
        case LetPair():
            kids = (eager_subjects(across(lambda t: t.scrutinee)), eager_subjects(t0.body))
        case Match():
            kids = (eager_subjects(across(lambda t: t.scrutinee)),
                    eager_subjects(t0.left_body), eager_subjects(t0.right_body))
    return here, kids


def _term_subjects(t: PureTerm) -> tuple:
    match t:
        case Var() | Void():
            kids = ()
        case Lam(_, _, body):
            kids = (eager_subjects(body),)
        case PairV(a, b) | App(a, b):
            kids = (_term_subjects(a), _term_subjects(b))
        case InlV(v) | InrV(v):
            kids = (_term_subjects(v),)
        case Seq(h, tail):
            kids = (_term_subjects(h), eager_subjects(tail))
        case LetPair(_, _, scrut, body):
            kids = (_term_subjects(scrut), eager_subjects(body))
        case Match(scrut, _, b1, _, b2):
            kids = (_term_subjects(scrut), eager_subjects(b1), eager_subjects(b2))
    return _clip(show_term(t)), kids


def _read_subjects(der: Derivation) -> tuple:
    return der.subject, tuple(_read_subjects(c) for c in der.children)


def _unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    raw = rng.normal(size=(1 << n, 1 << n)) + 1j * rng.normal(size=(1 << n, 1 << n))
    u, _ = np.linalg.qr(raw)
    return u


# ------------------------------------------------------------ canonicalize


def _generated(g: ProgramGen, kind: int) -> Distribution:
    if kind == 0:
        return g.trace_program()[0]
    if kind == 1:
        return g.flow_program()[0]
    return g.value_distribution()


@st.composite
def _distributions(draw):
    g = ProgramGen(draw(st.integers(0, 2**32)))
    d = _generated(g, draw(st.integers(0, 2)))
    shape = draw(st.sampled_from(["as is", "doubled", "one summand"]))
    if shape == "doubled":
        # alpha-equivalent summands that must merge
        return add(d, scale(draw(st.sampled_from([1, -1, 0.5j])), d))
    if shape == "one summand":
        _, t = d.summands[draw(st.integers(0, len(d) - 1))]
        return singleton(t, draw(st.sampled_from([1, -1, 0, _R2, 0.5 - 0.5j])))
    return d


@settings(max_examples=300, deadline=None)
@given(_distributions())
def test_canonicalize_matches_the_merge_and_sort_reference(d):
    assert canonicalize(d) == reference_canonicalize(d)


@settings(max_examples=200, deadline=None)
@given(_distributions(), st.integers(0, 2**32))
def test_canonicalize_merges_shuffled_alpha_variants_into_the_first(d, seed):
    rng = random.Random(seed)
    # alpha-variants of some summands, which must merge with them
    summands = list(d.summands) + [(a * rng.choice([1, -0.5, 0.5j]), alpha_variant(t, rng))
                                   for a, t in d.summands if rng.random() < 0.5]
    rng.shuffle(summands)
    shuffled = Distribution(tuple(summands))
    got = canonicalize(shuffled)
    assert got == reference_canonicalize(shuffled)
    for _, t in got.summands:
        first = next(u for _, u in summands
                     if reference_key(u, {}, 0) == reference_key(t, {}, 0))
        assert t is first


_ID = Lam("b", BOOL, singleton(Var("b")))
_TAIL = Distribution(((_R2, InlV(Void())), (_R2, InrV(Void()))))
_BODY = singleton(PairV(Var("y"), Var("x")))


@settings(max_examples=300, deadline=None)
@given(_distributions())
def test_mk_constructors_match_the_reference_on_built_terms(d):
    cases = [
        (lambda h: mk_app(_ID, h), lambda t: App(_ID, t)),
        (lambda h: mk_seq(h, _TAIL), lambda t: Seq(t, _TAIL)),
        (lambda h: mk_let("x", "y", h, _BODY), lambda t: LetPair("x", "y", t, _BODY)),
        (lambda h: mk_match(h, "x", _TAIL, "y", _BODY),
         lambda t: Match(t, "x", _TAIL, "y", _BODY)),
    ]
    if is_value_distribution(d):
        cases += [(mk_inl, InlV), (mk_inr, InrV)]
    for mk, build in cases:
        built = Distribution(tuple((a, build(t)) for a, t in d.summands))
        assert mk(d) == reference_canonicalize(built)


# ----------------------------------------------------- derivation subjects


def _subject_programs() -> list[Distribution]:
    programs = [d for d, _ in trace_programs(5, 150)]
    programs += [d for d, _ in flow_programs(6, 150)]
    rng = np.random.default_rng(17)
    for n in (1, 2, 3):
        for _ in range(2):
            lam = compile_isometry(GateMatrix(_unitary(rng, n)))
            programs.append(singleton(lam))
            programs.append(parse_program(pretty_print(singleton(lam))))
    return programs


def test_derivation_subjects_match_the_eager_rendering():
    for d in _subject_programs():
        _, der = check_program(d)
        assert _read_subjects(der) == eager_subjects(d)


# ------------------------------------------------------------------ errors

# programs and checks that fail at each place the checker raises, and the
# outcomes recorded for them from the checker that printed every node
_EAGER = json.loads((Path(__file__).parent / "eager_errors.json").read_text())


def _gate_with_defect(n: int, kind: str, flat: bool) -> PureTerm:
    """A case tree for an n-qubit unitary, n >= 2, with one planted defect,
    flat as `case_construct` builds it or by `nested_case_tree`.

    The unitary is a Kronecker product of fixed one-qubit gates with two rows
    swapped; it is built by elementwise products only, so its entries are
    the same on every machine.  `duplicate` copies column image 0 onto
    column 1, `distant` onto column 3 (two bits away), `scaled` doubles it.
    """
    rot = np.array([[0.6, -0.8j], [-0.8j, 0.6]])
    had = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    u = np.array([[1.0 + 0j]])
    for i in range(n):
        u = np.kron(u, (rot, had)[i % 2])
    u = u[[0, 1, 3, 2, *range(4, 1 << n)]]
    images = [encode(StateVector(u[:, k])) for k in range(1 << n)]
    if kind == "duplicate":
        images[1] = images[0]
    elif kind == "distant":
        images[3] = images[0]
    else:
        images[0] = scale(2, images[0])
    return case_construct(n, images) if flat else nested_case_tree(images, n)


def _error_cases():
    """(name, thunk) pairs; each thunk checks something and returns its type
    as text or raises TypeCheckError."""
    cases = []
    for src in _EAGER["programs"]:
        cases.append((src, lambda src=src: str(check_program(parse_program(src))[0])))
    for src, ty, ctx in _EAGER["checks"]:
        def check(src=src, ty=ty, ctx=ctx):
            env = {x: parse_type(t) for x, t in ctx}
            return str(check_distribution(env, parse_program(src), parse_type(ty)))
        cases.append((f"{src} : {ty} under {ctx}", check))

    def judgment():
        return str(check_orthogonal_judgment(
            {"s": parse_type("U+U")}, ("a", parse_type("U")), parse_program("s"),
            ("b", parse_type("U")), parse_program("inl *"), parse_type("U+U")))
    cases.append(("orthogonality judgment", judgment))
    for flat in (False, True):
        for n in (2, 3):
            for kind in ("duplicate", "distant", "scaled"):
                def gate(n=n, kind=kind, flat=flat):
                    tree = _gate_with_defect(n, kind, flat)
                    return str(check_program(parse_program(pretty_print(singleton(tree))))[0])
                cases.append((f"{'flat ' if flat else ''}gate n={n} {kind}", gate))
    return cases


def _outcome(thunk) -> dict:
    try:
        return {"type": thunk()}
    except TypeCheckError as e:
        return {"kind": e.kind.name, "location": e.location, "error": str(e)}


def test_errors_match_the_eager_rendering():
    cases = _error_cases()
    assert [name for name, _ in cases] == [name for name, _ in _EAGER["outcomes"]]
    for (name, thunk), (_, want) in zip(cases, _EAGER["outcomes"]):
        assert _outcome(thunk) == want, name


# -------------------------------------------------------------- mechanisms


def test_one_summand_distribution_is_returned_without_a_key(monkeypatch):
    def refuse(*terms):
        raise AssertionError("compared a one-summand distribution")

    monkeypatch.setattr(syntax, "compare", refuse)
    for d in (singleton(Var("x")), singleton(InlV(Void()), -0.5j)):
        assert canonicalize(d) is d


def test_parsing_a_compiled_gate_keys_only_multi_summand_distributions(monkeypatch):
    lam = compile_isometry(GateMatrix(_unitary(np.random.default_rng(3), 3)))
    amps = np.random.default_rng(6).normal(size=8) + 0.5
    state = encode(StateVector(amps / np.linalg.norm(amps)))
    text = f"({pretty_print(singleton(lam))}) ({pretty_print(state)})"
    calls = 0

    def counting(real):
        def wrapped(*terms):
            nonlocal calls
            calls += 1
            return real(*terms)
        return wrapped

    monkeypatch.setattr(syntax, "compare", counting(syntax.compare))
    program = parse_program(text)
    # the gate's scrutinees are single terms and its leaves are read as
    # written; the argument, printed in canonical order, is put into the
    # application after one comparison per neighbouring pair of summands
    assert len(program) == len(state) == 8
    assert calls <= len(state) - 1


def test_checking_a_compiled_gate_prints_nothing(monkeypatch):
    lam = compile_isometry(GateMatrix(_unitary(np.random.default_rng(4), 3)))
    program = parse_program(pretty_print(singleton(lam)))

    def refuse(*args, **kwargs):
        raise AssertionError("printed a term during a successful check")

    with monkeypatch.context() as m:
        m.setattr(typecheck, "show_term", refuse)
        m.setattr(typecheck, "show_dist", refuse)
        ty, der = check_program(program)
    assert ty == Arrow(qubits(3), qubits(3))
    assert der.subject == _clip(show_term(lam))


def test_a_failed_check_prints_its_location_once_when_raised(monkeypatch):
    calls = []
    real = typecheck.show_term

    def counting(t, *args):
        calls.append(t)
        return real(t, *args)

    monkeypatch.setattr(typecheck, "show_term", counting)
    with pytest.raises(TypeCheckError) as e:
        check_program(parse_program(r"\x:#(U+U). (x, x)"))
    assert e.value.location == "x"
    assert calls == [Var("x")]


def test_applying_a_gate_to_a_state_keys_no_application(monkeypatch):
    lam = compile_gate(gate_library["H"], (1,), 4)
    amps = np.random.default_rng(5).normal(size=16) + 0.5
    state = encode(StateVector(amps / np.linalg.norm(amps)))
    assert len(state) == 16
    want = reference_canonicalize(
        Distribution(tuple((a, App(lam, t)) for a, t in state.summands)))

    def holes_only(real):
        def wrapped(*terms):
            if any(isinstance(t, App) for t in terms):
                raise AssertionError("compared the operator with its argument")
            return real(*terms)
        return wrapped

    monkeypatch.setattr(syntax, "compare", holes_only(syntax.compare))
    assert mk_app(lam, state) == want


def _counted_uses(monkeypatch, text: str) -> int:
    """The reads and writes of a binding's use count while text checks."""
    slot = typecheck._Binding.__dict__["uses"]
    count = [0]

    def read(e):
        count[0] += 1
        return slot.__get__(e)

    def write(e, uses):
        count[0] += 1
        slot.__set__(e, uses)

    d = parse_program(text)
    with monkeypatch.context() as m:
        m.setattr(typecheck._Binding, "uses", property(read, write))
        check_program(d)
    return count[0]


def test_matches_under_bindings_touch_use_counts_in_linear_work(monkeypatch):
    # a match that touched every binding in scope would make this the
    # square of n
    small, big = (_counted_uses(monkeypatch, matches_under_bindings(n)) for n in (500, 1000))
    assert big <= 2.2 * small


def _counted_steps(monkeypatch, text: str) -> tuple[int, int]:
    """The branch instances the checker grounds while text checks, and the
    values its rewriting machine reads while it grounds them, a few per
    contraction."""
    grounds, reads = [0], [0]
    instance, value = typecheck._Checker._instance, rewrite._value

    def ground(self, *args):
        grounds[0] += 1
        return instance(self, *args)

    def read(*args):
        reads[0] += 1
        return value(*args)

    d = parse_program(text)
    with monkeypatch.context() as m:
        m.setattr(typecheck._Checker, "_instance", ground)
        m.setattr(rewrite, "_value", read)
        check_program(d)
    return grounds[0], reads[0]


@pytest.mark.parametrize("build", [match_chain, beta_chain, matches_under_bindings])
def test_the_checker_normalizes_in_linear_steps(build, monkeypatch):
    # a level of the chain that evaluated the chain below it would make
    # the machine's work the square of n
    small, big = (_counted_steps(monkeypatch, build(n)) for n in (200, 400))
    assert small[0] > 0
    assert all(b <= 2.2 * a for a, b in zip(small, big))


def _tested_per_instance(monkeypatch, n: int) -> float:
    """The summands the rewriting machine tests for values, per branch
    instance the checker grounds, while a compiled random n-qubit unitary,
    whose every image has 2^n summands, checks."""
    lam = compile_isometry(GateMatrix(_unitary(np.random.default_rng(n), n)))
    tested = [0]
    value = rewrite.is_value

    def counted(t):
        tested[0] += 1
        return value(t)

    c = typecheck._Checker()
    with monkeypatch.context() as m:
        m.setattr(rewrite, "is_value", counted)
        c.infer_dist(singleton(lam))
    return tested[0] / sum(len(kept) for _, _, kept in c.instances.values())


def test_grounding_an_instance_does_not_split_its_summands(monkeypatch):
    # a leaf's superposition and a kept instance read at a case taken each
    # end their summand whole; split into cells, an instance would cost its
    # 2^n summands, twice as many at n = 5 as at n = 4
    small, big = (_tested_per_instance(monkeypatch, n) for n in (4, 5))
    assert big <= 1.2 * small


class _Walked(dict):
    """`syntax._STACKED`, counting the pairs of compound nodes `_compare`
    walks into."""

    def __init__(self, table: dict) -> None:
        super().__init__(table)
        self.count = 0

    def __getitem__(self, cls: type) -> tuple:
        self.count += 1
        return super().__getitem__(cls)


def _counted_compares(monkeypatch, run) -> int:
    """The `compare` calls, and the node pairs `_compare` walks into, while
    run() runs."""
    calls = []
    real = syntax.compare
    with monkeypatch.context() as m:
        m.setattr(syntax, "compare", lambda x, y: calls.append(1) or real(x, y))
        m.setattr(syntax, "_STACKED", walked := _Walked(syntax._STACKED))
        run()
    return len(calls) + walked.count


def _compared(monkeypatch, k: int) -> tuple[int, int]:
    """The comparison work of parsing, and of checking, the near-isometry
    chain of k maps."""
    text = near_isometry_chain(k)
    program = parse_program(text)
    return (_counted_compares(monkeypatch, lambda: parse_program(text)),
            _counted_compares(monkeypatch, lambda: check_program(program)))


def test_a_chain_of_maps_over_a_superposition_compares_in_linear_work(monkeypatch):
    # the chain distributes into two summands that differ only k levels
    # down; a level that compared them again from the top, once they are in
    # order, would make the work the square of k
    small, big = (_compared(monkeypatch, k) for k in (250, 500))
    assert small[0] > 0
    assert all(b <= 2.2 * a for a, b in zip(small, big)), (small, big)
