"""One typing rule per elimination.

The checker types an application, a sequencing, a `let` and a `match` by one
rule each, whether the elimination is a single term `f a` or is distributed
over a superposition `Σ αᵢ f aᵢ`.  `derivations.json` holds the derivation
(every node's rule, type and subject, in preorder) or the error text of each
case below, recorded from the checker that typed the two shapes by separate
code.  The rules run in one loop, so a `;` chain, `let`s, applications,
lambdas, lambdas inside pairs, matches nested in the scrutinee or in the
left branch, and matches under as many `#` lambdas check 10,000 deep, and
values 10,000 deep and a 10,000-term sum annotation check, and print, with
no stack at all.  `_RecursiveChecker` keeps the mutual recursion the loop
replaced, and the usage snapshots its `match` rule replaced, as the
reference the loop is held to.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from hypothesis import given, settings

from generator import (
    DEEP_VALUES,
    ProgramGen,
    deep_values,
    flow_programs,
    gate_images,
    match_chain,
    matches_under_bindings,
    nested_case_tree,
    trace_programs,
)
from qlam import typecheck
from qlam.cli import main
from qlam.config import get_tolerance, tolerance
from qlam.quantum import GateMatrix, StateVector, case_construct, compile_gate, encode, gate_library
from qlam.rewrite import normalize
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
    free_vars_dist,
    is_value_distribution,
    mk_app,
    mk_let,
    mk_match,
    mk_seq,
    scale,
    singleton,
)
from qlam.typecheck import (
    Derivation,
    ErrorKind,
    TypeCheckError,
    _Binding,
    _Checker,
    _form,
    _holes,
    _same_context,
    _value_typed,
    check_program,
    type_of_program,
)
from qlam.types import (
    BOOL,
    Arrow,
    Prod,
    Sharp,
    Sum,
    Type,
    Unit,
    ground_unknowns,
    join_types,
    peel_sharps,
    qubits,
    show_type,
    subtype,
    walk,
)

_R2 = 1 / math.sqrt(2)
_RECORDED = Path(__file__).parent / "derivations.json"


def _preorder(der: Derivation) -> list[list[str]]:
    out = []
    stack = [der]
    while stack:
        d = stack.pop()
        out.append([d.rule, str(d.type), d.subject])
        stack.extend(reversed(d.children))
    return out


def _outcome(d: Distribution) -> dict:
    try:
        _, der = check_program(d)
    except TypeCheckError as e:
        return {"error": str(e)}
    return {"derivation": _preorder(der)}


def _kron_unitary(n: int) -> np.ndarray:
    """A fixed n-qubit unitary built by elementwise products only, so its
    entries are the same on every machine."""
    rot = np.array([[0.6, -0.8j], [-0.8j, 0.6]])
    had = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    u = np.array([[1.0 + 0j]])
    for i in range(n):
        u = np.kron(u, (rot, had)[i % 2])
    return u


def _gates(flat: bool) -> list[tuple[str, Distribution]]:
    """Compiled gates: flat, as the front end builds them, at n = 2 and 3,
    or nested, by `nested_case_tree` over the same leaves, at n = 1..3.  At
    n = 1 the two shapes are one."""
    out = []
    prefix = "flat " if flat else ""
    for n in (2, 3) if flat else (1, 2, 3):
        for name in ("X", "H", "S", "CNOT", "SWAP") if n < 3 else ("CNOT",):
            gate = gate_library[name]
            g = gate.qubit_count
            if g > n:
                continue
            targets = tuple(range(n - g, n))[::-1]
            lam = (compile_gate(gate, targets, n) if flat
                   else nested_case_tree(gate_images(gate, targets, n), n))
            out.append((f"{prefix}gate {name} {targets} n={n}", singleton(lam)))
        u = _kron_unitary(n)
        images = [encode(StateVector(u[:, k])) for k in range(1 << n)]
        lam = compile_gate(GateMatrix(u), tuple(range(n)), n) if flat else nested_case_tree(images, n)
        out.append((f"{prefix}kron n={n}", singleton(lam)))
        out.append((f"{prefix}kron n={n} re-parsed", parse_program(pretty_print(singleton(lam)))))
        images[1] = images[0]
        lam = case_construct(n, images) if flat else nested_case_tree(images, n)
        out.append((f"{prefix}kron n={n} duplicate", singleton(lam)))
    return out


def _distributed() -> list[tuple[str, Distribution]]:
    """Eliminations spread over superpositions, well typed or not."""
    out = []
    g = ProgramGen(8)
    sb, pair = Sharp(BOOL), Prod(BOOL, BOOL)
    ident = Lam("x", sb, singleton(Var("x")))
    to_unit = Lam("x", sb, singleton(Match(
        Var("x"), "u", singleton(Var("u")), "w", singleton(Seq(Var("w"), singleton(Void()))))))
    for i in range(6):
        bits = g.superposition(BOOL)
        pairs = g.superposition(pair)
        img0 = Distribution(((_R2, InlV(Void())), (_R2, InrV(Void()))))
        img1 = Distribution(((_R2, InlV(Void())), (-_R2, InrV(Void()))))
        out += [
            (f"{i} app", mk_app(ident, bits)),
            (f"{i} app scaled", scale(1j, mk_app(ident, bits))),
            (f"{i} app at the wrong domain", mk_app(ident, pairs)),
            (f"{i} app of a non-function", mk_app(Void(), bits)),
            (f"{i} seq", mk_seq(mk_app(to_unit, bits), img0)),
            (f"{i} seq after a phase", mk_seq(singleton(Void(), g._phase()), img0)),
            (f"{i} seq over values", mk_seq(bits, img0)),
            (f"{i} let", mk_let("a", "b", pairs, singleton(PairV(Var("b"), Var("a"))))),
            (f"{i} let over bits", mk_let("a", "b", bits, singleton(Var("a")))),
            (f"{i} match", mk_match(bits, "u", mk_seq(singleton(Var("u")), img0),
                                    "w", mk_seq(singleton(Var("w")), img1))),
            (f"{i} match not orthogonal", mk_match(bits, "u", mk_seq(singleton(Var("u")), img0),
                                                   "w", mk_seq(singleton(Var("w")), img0))),
            (f"{i} match over pairs", mk_match(pairs, "u", singleton(Var("u")),
                                               "w", singleton(Var("w")))),
            (f"{i} nested", mk_app(ident, mk_match(
                bits, "u", mk_seq(singleton(Var("u")), img0),
                "w", mk_seq(singleton(Var("w")), img1)))),
        ]
    return out


# single eliminations that fail at each raise site of their rule
_TEXTS = (
    "(\\x:U. x) (inl *)",
    "* *",
    "(\\x:#(U+U). x) (0.6 * inl * + 0.8 * inr *)",
    "inl * ; *",
    "(0.6 * inl * + 0.8 * inr *) ; *",
    "let (a, b) = * in a",
    "let (a, b) = (*, inl *) in b ; a",
    "match * { inl a -> a | inr b -> b }",
    "match inl * { inl a -> a | inr b -> inl b }",
    "match inl * { inl a -> a ; inl * | inr b -> b ; inr * }",
    "match inl * { inl a -> inl a | inr b -> (b, b) }",
)


def _cases() -> list[tuple[str, Distribution]]:
    out = [(src, parse_program(src)) for src in _TEXTS]
    out += [(f"trace {i}", d) for i, (d, _) in enumerate(trace_programs(31, 100))]
    out += [(f"flow {i}", d) for i, (d, _) in enumerate(flow_programs(32, 100))]
    return out + _gates(False) + _gates(True) + _distributed()


def test_derivations_match_the_recorded_ones():
    recorded = json.loads(_RECORDED.read_text())
    cases = _cases()
    assert [name for name, _ in cases] == [name for name, _ in recorded]
    for (name, d), (_, want) in zip(cases, recorded):
        assert _outcome(d) == want, name


def test_recorded_cases_cover_every_elimination_rule():
    recorded = json.loads(_RECORDED.read_text())
    rules = {node[0] for _, want in recorded for node in want.get("derivation", ())}
    for rule in ("apply", "seq-pure", "seq-super", "let-pure", "let-super",
                 "match-pure", "match-super", "superposition"):
        assert rule in rules
    assert sum("error" in want for _, want in recorded) >= 10


# ----------------------------------------------------- derivations on demand


def _counted(monkeypatch) -> list[Derivation]:
    """Every `Derivation` the checker builds from now on, in order."""
    built = []
    real = typecheck.Derivation

    def counted(*args):
        built.append(real(*args))
        return built[-1]

    monkeypatch.setattr(typecheck, "Derivation", counted)
    return built


def test_a_check_builds_no_rule_node_and_a_read_builds_the_recorded_tree(monkeypatch):
    # a check builds only the typings it keeps on ground values typed for
    # the first time; reading the derivation checks again, recording, and
    # gives the recorded tree, and a second read builds nothing
    recorded = dict(json.loads(_RECORDED.read_text()))
    built = _counted(monkeypatch)
    read = 0
    for name, d in _cases():
        try:
            _, der = check_program(d)
        except TypeCheckError:
            continue
        assert all(node.rule in ("unit", "pair", "inl", "inr")
                   and node.node._typing[1] is node for node in built), name
        assert len({id(node.node) for node in built}) == len(built), name
        if name.startswith(("trace", "flow", "flat gate")):
            built.clear()
            assert _preorder(der) == recorded[name]["derivation"], name
            # a program that is one ground value reads its kept typing
            assert built or der.rule in ("unit", "pair", "inl", "inr"), name
            n, children = len(built), der.children
            assert _preorder(der) == recorded[name]["derivation"]
            assert len(built) == n and der.children is children
            read += 1
        built.clear()
    assert read >= 150


def test_a_derivation_read_compares_hashes_and_prints_as_the_recorded_tree(monkeypatch):
    for src in ("0.6 * inl * + 0.8 * inr *", "(\\x:#(U+U). x) (0.6 * inl * + 0.8 * inr *)",
                "0.6 * (\\y:U. y, inl *) + 0.8 * (\\y:U. y, inr *)"):
        d = parse_program(src)
        want = _Checker(record=True).infer_dist(d)[1]
        _, der = check_program(d)
        _, again = check_program(d)
        built = _counted(monkeypatch)
        # a name a Derivation lacks is missing, and asking builds nothing
        assert not hasattr(der, "not_a_field") and not hasattr(der, "__deepcopy__")
        assert not built
        assert der == want and want == der and der == again and der != want.children
        assert hash(der) == hash(want) and repr(der) == repr(want)
        assert isinstance(der.tree, Derivation) and der.tree == want
        assert dataclasses.replace(der.tree) == want
        monkeypatch.undo()


def test_the_commands_build_no_rule_node(monkeypatch, tmp_path, capsys):
    built = _counted(monkeypatch)
    text = pretty_print(singleton(compile_gate(gate_library["CNOT"], [2, 0], 3)))
    path = tmp_path / "cnot.qlam"
    path.write_text(text)
    assert main(["check", str(path)]) == 0
    assert main(["eval", str(path)]) == 0
    assert main(["equiv", str(path), str(path)]) == 0
    program = parse_program(text)
    type_of_program(program)
    capsys.readouterr()
    assert all(node.rule in ("unit", "pair", "inl", "inr") for node in built)
    # the counting sees the rules' nodes, once a derivation is read
    assert check_program(program)[1].rule == "lambda" and built[-1].rule == "lambda"


@pytest.mark.parametrize("src, checked_at, read_at", [
    # accepted only at the looser tolerance, read at the tighter one
    ("0.6 * inl * + 0.801 * inr *", 1e-2, 1e-6),
    ("(\\x:#(U+U). x) (0.6 * inl * + 0.8000001 * inr *)", 1e-6, 1e-9),
])
def test_a_read_gives_the_tree_of_the_tolerance_checked_at(src, checked_at, read_at):
    d = parse_program(src)
    with tolerance(read_at), pytest.raises(TypeCheckError):
        check_program(d)
    with tolerance(checked_at):
        _, der = check_program(d)
        want = _preorder(_Checker(record=True).infer_dist(d)[1])
    with tolerance(read_at):
        assert _preorder(der) == want


# ------------------------------------------------------------- depth floors


def _seq_chain(depth: int) -> str:
    return " ; ".join(["*"] * (depth + 1))


def _let_chain(depth: int) -> str:
    return "let (a, b) = (*, *) in a ; b ; " * depth + "*"


def _app_chain(depth: int) -> str:
    return "(\\x:U. x) (" * depth + "*" + ")" * depth


def _lam_chain(depth: int) -> str:
    return "".join(f"\\x{i}:U. " for i in range(depth)) + "*"


def _lam_pair_chain(depth: int) -> str:
    """A lambda inside a pair inside a lambda, depth times."""
    return "".join(f"(\\x{i}:U. " for i in range(depth)) + "*" + ", *)" * depth


def _scrutinee_chain(depth: int) -> str:
    """A match nested in the scrutinee of a match, depth times."""
    return "match " * depth + "inl *" + " { inl a -> a ; inl * | inr b -> b ; inr * }" * depth


def _inl_chain(depth: int) -> str:
    return "inl " * depth + "*"


def _pair_chain(depth: int) -> str:
    return "(*, " * depth + "*" + ")" * depth


@pytest.mark.parametrize("build, depth", [
    (_seq_chain, 10_000),
    (_let_chain, 10_000),
    (match_chain, 10_000),
    (matches_under_bindings, 10_000),
    (_app_chain, 10_000),
    (_lam_chain, 10_000),
    (_lam_pair_chain, 10_000),
    (_scrutinee_chain, 10_000),
    (_inl_chain, 900),
    (_pair_chain, 900),
])
def test_deep_text_programs_check(build, depth):
    ty, _ = check_program(parse_program(build(depth)))
    assert ty is not None


# the checker, the types it builds and their printing need no recursion on
# these
_DEEP = 10_000


@pytest.mark.parametrize("shape", sorted(DEEP_VALUES))
def test_a_deep_value_checks_and_prints(shape):
    text = DEEP_VALUES[shape](_DEEP)
    d = parse_program(text)
    ty, _ = check_program(d)
    assert parse_type(show_type(ty)) is ty
    assert pretty_print(d) == text


def test_a_wide_sum_annotation_checks():
    text = "+".join(["U"] * _DEEP)
    ty, _ = check_program(parse_program(f"\\x:{text}. x"))
    assert ty is Arrow(parse_type(text), parse_type(text))
    assert show_type(ty) == f"{text} -> {text}"


@pytest.mark.parametrize("annotation", ["{}", "#({})"], ids=["sum", "sharp sum"])
def test_a_deep_value_passed_at_a_wide_sum_annotation_checks_and_evaluates(annotation):
    # the value's type, ?+(?+...(?+U)), is the annotation with its
    # placeholders grounded: subtyping decides that without a walk
    ann = annotation.format("+".join(["U"] * (_DEEP + 1)))
    value = "inr " * _DEEP + "*"
    d = parse_program(f"(\\x:{ann}. x) ({value})")
    ty, _ = check_program(d)
    assert ty is parse_type(ann)
    assert normalize(d) == parse_program(value)


@pytest.mark.parametrize("annotation", ["{}", "#({})"], ids=["sum", "sharp sum"])
def test_a_deep_value_passed_at_a_proper_supertype_checks_and_evaluates(annotation):
    # the value's type, ?+(?+...(?+U)), is below the annotation only through
    # U <= #U at the bottom, so subtyping walks the whole right spine
    ann = annotation.format("U+" * _DEEP + "#U")
    value = "inr " * _DEEP + "*"
    d = parse_program(f"(\\x:{ann}. x) ({value})")
    ty, _ = check_program(d)
    assert ty is parse_type(ann)
    assert normalize(d) == parse_program(value)


@settings(max_examples=5, deadline=None)
@given(deep_values(3_000))
def test_deep_mixed_values_check(text):
    ty, _ = check_program(parse_program(text))
    assert parse_type(show_type(ty)) is ty


# ----------------------------------------------------------- shared contexts

_BRANCHES = "{ inl left -> inr left | inr right -> inl right }"


@pytest.mark.parametrize("summands, want", [
    ((f"0.6 * match inl * {_BRANCHES}", f"0.8 * match inr * {_BRANCHES}"), "#(#U+#U)"),
    (("0.6 * (let (left, right) = (*, inl *) in (right, left))",
      "0.8 * (let (left, right) = (*, inr *) in (right, left))"), "#(#(U+U)*#U)"),
], ids=["match", "let"])
def test_a_shared_context_compares_binder_names_by_value(summands, want):
    # each summand's names are read from its own text, parsed on its own:
    # the lexer shares one string among the equal names of a text, but equal
    # names longer than one character from two texts are distinct objects
    d = add(*map(parse_program, summands))
    names = [[v for v in map(t.__getattribute__, t.__match_args__) if isinstance(v, str)]
             for _, t in d.summands]
    assert names[0] == names[1] and all(a is not b for a, b in zip(*names))
    ty, _ = check_program(d)
    assert ty is parse_type(want)


@pytest.mark.parametrize("text", [
    r"\x:U. \y:U. \z:U. 0.6 * x + 0.6 * y + 0.5 * (z ; *)",
    r"\g:U->U. 0.6 * (\a:U. a) + 0.6 * (\a:U+U. *) + 0.5 * (g * ; \c:U. c)",
], ids=["variables", "lambdas"])
def test_values_of_one_form_beside_an_elimination_share_no_context(text):
    # in key order the first two summands are values of one class, which
    # has no hole: no elimination rule applies
    with pytest.raises(TypeCheckError, match="a single elimination distributed"):
        check_program(parse_program(text))


# ---------------------------------------------------- the replaced recursion
#
# `_RecursiveChecker` is the checker as it was before its rules ran in one
# loop (`_Checker._run`): each rule calls `infer_term` or `infer_dist` for
# its premises, and a value is typed on `types.walk`.  It also keeps the
# usage bookkeeping the loop's `match` rule replaced: it snapshots the use
# count of every binding in scope, restores it between the branches and
# compares the two deltas, where the loop reads each branch's usage off its
# free names.  The tests below hold the loop to it on the recorded cases,
# generator programs and programs with two faults, on the programs and
# checks of `eager_errors.json`, on compiled gates and planted defects at
# n = 1..4, and on the deep programs above at depths the recursion reaches:
# types by identity, derivations by `==`, error texts by `==`.


class _RecursiveChecker(_Checker):
    def _snapshot(self) -> list[tuple[_Binding, int]]:
        return [(e, e.uses) for stack in self.scopes.values() for e in stack]

    def _restore(self, snap: list[tuple[_Binding, int]]) -> None:
        for e, u in snap:
            e.uses = u

    @staticmethod
    def _delta(snap: list[tuple[_Binding, int]]) -> list[int]:
        return [e.uses - u for e, u in snap]

    def _merge_branch_usage(self, snap, d1, d2, names_hint) -> None:
        for (e, u0), a, b in zip(snap, d1, d2):
            if not e.flat and a != b:
                raise TypeCheckError(
                    ErrorKind.LINEARITY_VIOLATION,
                    f"a non-duplicable variable of type {e.ty} is consumed by one "
                    "branch but not the other",
                    names_hint,
                )
            e.uses = u0 + max(a, b)

    def _require_orthogonal(self, x1, t1, b1, x2, t2, b2, here) -> None:
        shared_names = sorted((free_vars_dist(b1) - {x1}) | (free_vars_dist(b2) - {x2}))
        shared: dict[str, Type] = {}
        for x in shared_names:
            stack = self.scopes.get(x)
            assert stack, f"branch variable {x} escaped typing"
            shared[x] = stack[-1].ty
        invs = self._enumerated(shared, t1, b1, t2, b2, here)
        self._orthogonal_branches(shared, invs, x1, b1, x2, b2, here)

    def infer_term(self, t: PureTerm) -> tuple[Type, Derivation]:
        match t:
            case Var(x):
                ty = self._use(x, t)
                return ty, Derivation("var", t, ty)
            case Lam(x, ann, body):
                entry = self._bind(x, ann)
                bt, bd = self.infer_dist(body)
                self._unbind(x, t)
                ty = Arrow(entry.ty, bt)
                return ty, Derivation("lambda", t, ty, (bd,))
            case Void() | PairV() | InlV() | InrV():
                return t._typing or walk(t, self._value_parts, _value_typed)
            case App() | Seq() | LetPair() | Match():
                return self._infer_elim(((1, t),), t)
            case _:
                raise TypeCheckError(ErrorKind.MISMATCH, f"not a pure term: {t!r}")

    def _value_parts(self, t: PureTerm) -> tuple[Type, Derivation] | list:
        cls = t.__class__
        if cls is Var or cls is Lam:
            return self.infer_term(t)
        return t._typing or list(map(t.__getattribute__, cls.__match_args__))

    def _infer_elim(self, summands, here):
        t0 = summands[0][1]
        if len(summands) > 1 and not all(_same_context(t0, t) for _, t in summands[1:]):
            t0 = None
        match t0:
            case App(f, _):
                tf, df = self.infer_term(f)
                if not isinstance(tf, Arrow):
                    raise TypeCheckError(
                        ErrorKind.MISMATCH,
                        f"operator has type {tf}, a function type is required",
                        here,
                    )
                ta, da = self.infer_dist(_holes(summands))
                if not subtype(ta, tf.dom):
                    what = "argument" if isinstance(here, PureTerm) else "argument distribution"
                    raise TypeCheckError(
                        ErrorKind.MISMATCH, f"{what} has type {ta}, expected {tf.dom}", here,
                    )
                return tf.cod, Derivation("apply", here, tf.cod, (df, da))
            case Seq(_, tail):
                th, dh = self.infer_dist(_holes(summands))
                what = ("sequencing head has" if isinstance(here, PureTerm)
                        else "sequencing heads have")
                form, _, lift = _form(th, Unit, what, "the unit", here)
                tt, dt = self.infer_dist(tail)
                ty = lift(tt)
                return ty, Derivation(f"seq-{form}", here, ty, (dh, dt))
            case LetPair(x, y, _, body):
                ts, ds = self.infer_dist(_holes(summands))
                return self._infer_let(ts, ds, x, y, body, here)
            case Match(_, x1, b1, x2, b2):
                ts, ds = self.infer_dist(_holes(summands))
                return self._infer_match(ts, ds, x1, b1, x2, b2, here)
        raise TypeCheckError(
            ErrorKind.MISMATCH,
            "a proper distribution must be a superposition of values or a single "
            "elimination distributed across its summands",
            here,
        )

    def _infer_let(self, scrut_ty, ds, x, y, body, here):
        form, core, lift = _form(scrut_ty, Prod, "destructured term has", "a product", here)
        self._bind(x, lift(core.left))
        self._bind(y, lift(core.right))
        bt, bd = self.infer_dist(body)
        self._unbind(y, here)
        self._unbind(x, here)
        ty = lift(bt)
        return ty, Derivation(f"let-{form}", here, ty, (ds, bd))

    def _infer_match(self, scrut_ty, ds, x1, b1, x2, b2, here):
        form, core, lift = _form(scrut_ty, Sum, "matched term has", "a sum", here)
        lt = lift(core.left)
        rt = lift(core.right)
        snap = self._snapshot()
        self._bind(x1, lt)
        t1, d1 = self.infer_dist(b1)
        self._unbind(x1, here)
        delta1 = self._delta(snap)
        self._restore(snap)
        self._bind(x2, rt)
        t2, d2 = self.infer_dist(b2)
        self._unbind(x2, here)
        delta2 = self._delta(snap)
        self._merge_branch_usage(snap, delta1, delta2, here)
        joined = join_types(t1, t2)
        if joined is None:
            raise TypeCheckError(
                ErrorKind.MISMATCH, f"match branches have incompatible types {t1} and {t2}", here,
            )
        self._require_orthogonal(x1, lt, b1, x2, rt, b2, here)
        ty = lift(joined)
        return ty, Derivation(f"match-{form}", here, ty, (ds, d1, d2))

    def infer_dist(self, d: Distribution) -> tuple[Type, Derivation]:
        s = d.summands
        if len(s) != 1 or s[0][0] != 1:
            d = canonicalize(d)
            s = d.summands
        if len(s) == 1 and s[0][0] == 1:
            t = s[0][1]
            if isinstance(t, (App, Seq, LetPair, Match)):
                return self._infer_elim(s, t)
            return self.infer_term(t)
        if is_value_distribution(d):
            return self._infer_superposition(d, expected_core=None)
        return self._infer_elim(s, d)

    def check_dist(self, d: Distribution, expected: Type) -> Derivation:
        cd = canonicalize(d)
        s = cd.summands
        single = len(s) == 1 and s[0][0] == 1
        if not single and is_value_distribution(cd):
            n, core = peel_sharps(expected)
            if isinstance(core, Arrow):
                raise TypeCheckError(
                    ErrorKind.SUP_AT_ARROW_TYPE, "a superposition cannot inhabit a function type", d,
                )
            if n == 0:
                raise TypeCheckError(
                    ErrorKind.MISMATCH,
                    f"a proper distribution cannot have the bare type {expected}",
                    d,
                )
            _, der = self._infer_superposition(cd, expected_core=core)
            return der
        ty, der = self.infer_dist(cd) if single else self._infer_elim(s, cd)
        if not subtype(ty, expected):
            if single:
                raise TypeCheckError(
                    ErrorKind.MISMATCH, f"term has type {ty}, expected {expected}", s[0][1],
                )
            raise TypeCheckError(
                ErrorKind.MISMATCH, f"distribution has type {ty}, expected {expected}", d,
            )
        return der

    def _infer_superposition(self, cd, expected_core):
        for x in sorted(free_vars_dist(cd)):
            if x in self.scopes:
                raise TypeCheckError(
                    ErrorKind.MISMATCH, f"a superposition must be closed, but {x} occurs free", cd,
                )
            raise TypeCheckError(ErrorKind.UNBOUND_VARIABLE, f"unbound variable {x}", cd)
        children = []
        joined = expected_core
        for _, t in cd.summands:
            ty, der = self.infer_term(t)
            children.append(der)
            if expected_core is not None:
                if not subtype(ty, expected_core):
                    raise TypeCheckError(
                        ErrorKind.MISMATCH,
                        f"superposed value has type {ty}, expected {expected_core}",
                        t,
                    )
            elif joined is None:
                joined = ty
            else:
                joined = join_types(joined, ty)
                if joined is None:
                    raise TypeCheckError(
                        ErrorKind.MISMATCH, "superposed values have incompatible types", cd,
                    )
        if expected_core is None and isinstance(joined, Arrow):
            raise TypeCheckError(
                ErrorKind.SUP_AT_ARROW_TYPE, "a superposition cannot inhabit a function type", cd,
            )
        total = sum(abs(a) ** 2 for a, _ in cd.summands)
        if abs(total - 1.0) > get_tolerance():
            raise TypeCheckError(
                ErrorKind.NORM_VIOLATION, f"squared amplitudes sum to {total:.12g}, expected 1", cd,
            )
        ty = Sharp(ground_unknowns(joined))
        return ty, Derivation("superposition", cd, ty, tuple(children))


def _typed(checker_class, d: Distribution, context=(), expected: Type | None = None):
    """The typing of d, or with an expected type its derivation, by a new
    checker of checker_class, recording, under the context's bindings; or
    the text of the error it raises."""
    c = checker_class(record=True)
    for x, ty in context:
        c._bind(x, ty)
    try:
        return c.infer_dist(d) if expected is None else c.check_dist(d, expected)
    except TypeCheckError as e:
        return str(e)


def _assert_typed_as_the_recursion_types(d: Distribution, context=(), expected=None):
    got = _typed(_Checker, d, context, expected)
    want = _typed(_RecursiveChecker, d, context, expected)
    if isinstance(want, tuple):
        assert got[0] is want[0]
        got, want = got[1], want[1]
    if isinstance(want, str):
        assert got == want
        return
    # got == want, node by node, so that a deep derivation needs no recursion
    pending = [(got, want)]
    while pending:
        a, b = pending.pop()
        assert (a.rule, a.node, a.type, a.note) == (b.rule, b.node, b.type, b.note)
        assert len(a.children) == len(b.children)
        pending += zip(a.children, b.children)


# programs with two faults, where the order in which a rule types its
# premises, and binds and closes its names, decides which one is reported
_RACES = (
    "x y",
    "(\\f:U. y) x",
    "y ; z",
    "let (a, b) = x in y",
    "match x { inl a -> y | inr b -> z }",
    "\\s:U+U. match s { inl a -> x | inr b -> y }",
    "\\x:#(U+U). \\y:#(U+U). let (a, b) = (x, y) in *",
    "\\x:#(U+U). \\y:#(U+U). match x { inl a -> y | inr b -> * }",
    "(\\a:#U. *, \\b:#U. *)",
)


def test_programs_are_typed_as_the_recursion_types_them():
    programs = [d for _, d in _cases()] + [parse_program(src) for src in _RACES]
    programs += [d for d, _ in trace_programs(51, 200) + flow_programs(52, 200)]
    for d in programs:
        _assert_typed_as_the_recursion_types(d)


def test_eager_error_programs_are_typed_as_the_recursion_types_them():
    eager = json.loads((Path(__file__).parent / "eager_errors.json").read_text())
    for src in eager["programs"]:
        try:
            d = parse_program(src)
        except TypeCheckError:  # HeadNotPure, which the parser raises
            continue
        _assert_typed_as_the_recursion_types(d)
    for src, ty, ctx in eager["checks"]:
        context = [(x, parse_type(t)) for x, t in ctx]
        _assert_typed_as_the_recursion_types(parse_program(src), context, parse_type(ty))


def _planted_gates(n: int) -> list[PureTerm]:
    """H and CNOT on one placement and the fixed unitary of `_kron_unitary`
    compiled at n qubits, and case trees of that unitary with a column image
    copied one bit away or two, or scaled."""
    u = _kron_unitary(n)
    lams = [compile_gate(gate_library["H"], (n - 1,), n),
            compile_gate(GateMatrix(u), tuple(range(n)), n)]
    if n > 1:
        lams.append(compile_gate(gate_library["CNOT"], (0, n - 1), n))
    images = [encode(StateVector(u[:, k])) for k in range(1 << n)]
    planted = [(1, images[0]), (0, scale(2, images[0]))] + ([(3, images[0])] if n > 1 else [])
    for k, image in planted:
        lams.append(case_construct(n, images[:k] + [image] + images[k + 1:]))
    return lams


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_gates_are_typed_as_the_recursion_types_them(n):
    for lam in _planted_gates(n):
        d = singleton(lam)
        _assert_typed_as_the_recursion_types(d)
        _assert_typed_as_the_recursion_types(d, expected=Arrow(qubits(n), qubits(n)))


@pytest.mark.parametrize("build", [_seq_chain, _let_chain, match_chain, matches_under_bindings,
                                   _app_chain, _lam_chain, _lam_pair_chain, _scrutinee_chain,
                                   _inl_chain, _pair_chain])
def test_deep_programs_are_typed_as_the_recursion_types_them(build):
    # the recursion runs out of frames from 142 lets and from about 200
    # levels of the other shapes, in a fresh process; 100 leaves room for
    # the test runner's own frames
    for depth in (1, 2, 5, 20, 100):
        _assert_typed_as_the_recursion_types(parse_program(build(depth)))


# the branch usage rule: a non-flat name that one branch consumes and the
# other does not is reported, the first in scope order, by its type; a flat
# one is free
_USAGE = [
    pytest.param(r"\x:#B. \y:#U. \s:U+U. match s { inl a -> x | inr b -> y }", "#(U+U)",
                 id="first in scope"),
    pytest.param(r"\y:#U. \x:#B. \s:U+U. match s { inl a -> x | inr b -> y }", "#U",
                 id="first in scope, swapped"),
    # the binder a shadows the outer a, which only the right branch uses
    pytest.param(r"\a:#B. \s:U+U. match s { inl a -> inl a | inr b -> inr a }", "#(U+U)",
                 id="shadowed"),
    pytest.param(r"\a:#U. \x:#B. \s:U+U. match s { inl a -> x | inr b -> a }", "#U",
                 id="shadowed, first in scope"),
    pytest.param(r"\x:U. \s:U+U. match s { inl a -> x ; inl * | inr b -> inr b }", None,
                 id="flat"),
    # an inner match consumes x in both of its branches
    pytest.param(r"\x:#B. \s:U+U. \t:U+U. match s { inl a -> match t { inl c -> inl inl x "
                 r"| inr d -> inl inr x } | inr b -> inr x }", None, id="inner match"),
    pytest.param(r"\x:#B. \s:U+U. \t:U+U. match s { inl a -> match t { inl c -> inl inl x "
                 r"| inr d -> inl inr x } | inr b -> inr * }", "#(U+U)",
                 id="inner match, one branch"),
    # a lambda in a branch captures x
    pytest.param(r"\x:#B. \s:U+U. match s { inl a -> inl (\u:U. x) | inr b -> inr x }", None,
                 id="captured"),
    pytest.param(r"\x:#B. \s:U+U. match s { inl a -> inl (\u:U. x) | inr b -> inr * }",
                 "#(U+U)", id="captured, one branch"),
]


@pytest.mark.parametrize("src, named", _USAGE)
def test_branch_usage_errors_are_typed_as_the_recursion_types_them(src, named):
    d = parse_program(src)
    _assert_typed_as_the_recursion_types(d)
    if named is None:
        check_program(d)
        return
    with pytest.raises(TypeCheckError) as e:
        check_program(d)
    assert e.value.kind is ErrorKind.LINEARITY_VIOLATION
    assert e.value.message == (f"a non-duplicable variable of type {named} is consumed by "
                               "one branch but not the other")
