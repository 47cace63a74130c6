"""Seeded generators for the property suites.

Closed well-typed programs come in two families with different observables.
`trace_programs` keeps every intermediate distribution inside the algorithmic
typing fragment: superpositions appear terminally, as results, sequencing
tails, and branch images, so a reduction trace can be re-checked element by
element.  `flow_programs` additionally distributes eliminations across
superpositions (case analysis of a superposed scrutinee, application to a
superposed argument, destructuring of superposed pairs); those traces only
type in aggregate, so the family is observed end to end, by its normal form
and norm.  `value_distributions` supplies raw material for the algebra and
inner product laws.  `nested_case_tree` builds a case tree with a lambda
at every internal node, the shape compiled gates had before each became one
lambda, from the leaves `gate_images` gives.  Everything is deterministic in
the seed.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random

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
    mk_app,
    mk_inl,
    mk_inr,
    mk_let,
    mk_match,
    mk_seq,
    scale,
    singleton,
)
from hypothesis import strategies as st

from qlam.quantum import GateMatrix, StateVector, encode, expand_gate
from qlam.types import BOOL, UNIT, Arrow, Prod, Sharp, Sum, Type, Unknown, qubits

STAR = Void()
INL = InlV(STAR)
INR = InrV(STAR)

GROUND_TYPES: tuple[Type, ...] = (
    UNIT,
    BOOL,
    Sum(BOOL, UNIT),
    Prod(BOOL, BOOL),
    Prod(UNIT, BOOL),
)
SUM_TYPES = tuple(t for t in GROUND_TYPES if isinstance(t, Sum))
PAIR = Prod(BOOL, BOOL)

# types whose every ground value infers back to exactly that type once the
# checker grounds its wildcards; a let binds components at the grounded
# inferred type, so only these may appear as destructured components
# (inr * at B+U would come back as U+U and break later uses)
PINNED_TYPES: tuple[Type, ...] = (UNIT, BOOL, Prod(BOOL, BOOL), Prod(UNIT, BOOL))


def ground_values(ty: Type) -> list[PureTerm]:
    match ty:
        case _ if ty == UNIT:
            return [STAR]
        case Sum(left, right):
            return [InlV(v) for v in ground_values(left)] + [
                InrV(v) for v in ground_values(right)
            ]
        case Prod(left, right):
            return [
                PairV(a, b)
                for a in ground_values(left)
                for b in ground_values(right)
            ]
        case Sharp(inner):
            return ground_values(inner)
        case _:
            raise ValueError(f"no ground value inventory for {ty}")


def _unitary2(rng: random.Random) -> tuple[complex, complex, complex, complex]:
    """Columns of a 2x2 unitary, as (c00, c01, c10, c11); orthogonality of the
    columns is exact in the algebra, so it survives rounding comfortably."""
    th, phi, lam = (rng.uniform(0, 2 * math.pi) for _ in range(3))
    c, s = math.cos(th), math.sin(th)
    return (
        complex(c),
        s * cmath.exp(1j * phi),
        -s * cmath.exp(1j * lam),
        c * cmath.exp(1j * (phi + lam)),
    )


class ProgramGen:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self._fresh = 0

    def fresh(self, base: str = "v") -> str:
        self._fresh += 1
        return f"{base}{self._fresh}"

    # -- building blocks ----------------------------------------------------

    def unit_coeffs(self, k: int) -> list[complex]:
        while True:
            cs = [complex(self.rng.gauss(0, 1), self.rng.gauss(0, 1)) for _ in range(k)]
            r = math.sqrt(sum(abs(c) ** 2 for c in cs))
            if r > 1e-3:
                return [c / r for c in cs]

    def superposition(self, core: Type) -> Distribution:
        """A norm-one distribution over distinct ground values of core."""
        inv = ground_values(core)
        k = self.rng.randint(2, min(4, len(inv))) if len(inv) > 1 else 1
        vals = self.rng.sample(inv, k)
        return Distribution(tuple(zip(self.unit_coeffs(k), vals)))

    def _phase(self) -> complex:
        return cmath.exp(1j * self.rng.uniform(0, 2 * math.pi))

    # -- flat programs ------------------------------------------------------

    def flat_value(self, ty: Type, env: tuple[tuple[str, Type], ...]) -> Distribution:
        named = [n for n, t in env if t == ty]
        if named and self.rng.random() < 0.5:
            return singleton(Var(self.rng.choice(named)))
        return singleton(self.rng.choice(ground_values(ty)))

    def flat_program(
        self, ty: Type, depth: int, env: tuple[tuple[str, Type], ...] = ()
    ) -> Distribution:
        """A closed-under-env single-summand program of a ground type.  Every
        reduct is again a single summand, so the whole trace stays checkable."""
        rng = self.rng
        if depth <= 0 or rng.random() < 0.25:
            return self.flat_value(ty, env)
        ops = ["beta", "seq", "letp"]
        if isinstance(ty, Sum):
            ops.append("match")
        op = rng.choice(ops)
        if op == "beta":
            dom = rng.choice(GROUND_TYPES)
            x = self.fresh("x")
            body = self.flat_program(ty, depth - 1, env + ((x, dom),))
            arg = self.flat_program(dom, depth - 1, env)
            return mk_app(Lam(x, dom, body), arg)
        if op == "seq":
            head = self.flat_program(UNIT, depth - 1, env)
            return mk_seq(head, self.flat_program(ty, depth - 1, env))
        if op == "letp":
            comp = Prod(rng.choice(PINNED_TYPES), rng.choice(PINNED_TYPES))
            x, y = self.fresh("p"), self.fresh("q")
            scrut = self.flat_program(comp, depth - 1, env)
            body = self.flat_program(
                ty, depth - 1, env + ((x, comp.left), (y, comp.right))
            )
            return mk_let(x, y, scrut, body)
        assert isinstance(ty, Sum)
        scrut_ty = rng.choice(SUM_TYPES)
        scrut = self.flat_program(scrut_ty, depth - 1, env)
        u, w = self.fresh("u"), self.fresh("w")
        left = mk_inl(self.flat_value(ty.left, env))
        right = mk_inr(self.flat_value(ty.right, env))
        if scrut_ty == BOOL and rng.random() < 0.5:
            # consume the binders; keep these branches closed so the
            # orthogonality check stays within its enumeration budget
            left = mk_seq(singleton(Var(u)), mk_inl(self.flat_value(ty.left, ())))
            right = mk_seq(singleton(Var(w)), mk_inr(self.flat_value(ty.right, ())))
        return mk_match(scrut, u, left, w, right)

    # -- programs with terminal superpositions ------------------------------

    def _branch_images(self, core: Type) -> tuple[Distribution, Distribution]:
        """Two orthogonal norm-one closed value distributions over core."""
        if core == BOOL:
            c00, c01, c10, c11 = _unitary2(self.rng)
            return (
                Distribution(((c00, INL), (c01, INR))),
                Distribution(((c10, INL), (c11, INR))),
            )
        inv = ground_values(core)
        self.rng.shuffle(inv)
        half = len(inv) // 2
        a, b = inv[:half], inv[half:]
        return (
            Distribution(tuple(zip(self.unit_coeffs(len(a)), a))),
            Distribution(tuple(zip(self.unit_coeffs(len(b)), b))),
        )

    def trace_program(self) -> tuple[Distribution, Type]:
        rng = self.rng
        roll = rng.random()
        if roll < 0.45:
            ty = rng.choice(GROUND_TYPES)
            return self.flat_program(ty, rng.randint(1, 4)), ty
        if roll < 0.55:
            core = rng.choice(GROUND_TYPES)
            return self.superposition(core), Sharp(core)
        if roll < 0.7:
            core = rng.choice(GROUND_TYPES)
            head = self.flat_program(UNIT, rng.randint(1, 2))
            return mk_seq(head, self.superposition(core)), Sharp(core)
        # images over asymmetric sums can infer mismatched branch types once a
        # one-sided support grounds its wildcard, so stick to BOOL and PAIR
        core = BOOL if rng.random() < 0.6 else PAIR
        scrut = self.flat_program(BOOL, rng.randint(1, 2))
        img0, img1 = self._branch_images(core)
        # a scalar on the match itself would re-aggregate onto the flat
        # scrutinee and change its type; put phases inside the images instead
        if rng.random() < 0.3:
            img0 = scale(self._phase(), img0)
            img1 = scale(self._phase(), img1)
        d = mk_match(scrut, self.fresh("u"), img0, self.fresh("w"), img1)
        return d, Sharp(core)

    # -- programs that push superpositions through eliminations --------------

    def flow_program(self) -> tuple[Distribution, Type]:
        rng = self.rng
        core = BOOL if rng.random() < 0.6 else PAIR
        d = self.superposition(core)
        for _ in range(rng.randint(1, 3)):
            d = self._wrap_flow(d, core)
        if core == PAIR and rng.random() < 0.5:
            # destructure and re-pair; the components come back under their
            # own modality, so this must stay outermost
            x, y = self.fresh("a"), self.fresh("b")
            d = mk_let(x, y, d, singleton(PairV(Var(y), Var(x))))
            return d, Sharp(Prod(Sharp(BOOL), Sharp(BOOL)))
        return d, Sharp(core)

    def _wrap_flow(self, d: Distribution, core: Type) -> Distribution:
        rng = self.rng
        ops = ["beta", "phase"]
        if core == BOOL:
            ops.append("gate")
        op = rng.choice(ops)
        if op == "phase":
            return scale(self._phase(), d)
        if op == "beta":
            x = self.fresh("x")
            body = singleton(Var(x))
            if rng.random() < 0.5:
                body = mk_seq(self.flat_program(UNIT, 1), body)
            return mk_app(Lam(x, Sharp(core), body), d)
        u, w = self.fresh("u"), self.fresh("w")
        img0, img1 = self._branch_images(BOOL)
        return mk_match(
            d,
            u, mk_seq(singleton(Var(u)), img0),
            w, mk_seq(singleton(Var(w)), img1),
        )

    # -- raw value distributions ---------------------------------------------

    _LAMBDAS = (
        Lam("x", UNIT, singleton(Var("x"))),
        Lam("x", BOOL, singleton(InlV(STAR))),
    )

    def value_distribution(self, max_summands: int = 4) -> Distribution:
        rng = self.rng
        pool = list(ground_values(rng.choice(GROUND_TYPES)))
        if rng.random() < 0.2:
            pool.extend(self._LAMBDAS)
        k = rng.randint(1, max_summands)
        terms = [rng.choice(pool) for _ in range(k)]       # repeats intended
        coeffs = []
        for _ in range(k):
            if rng.random() < 0.1:
                coeffs.append(0j)
            else:
                coeffs.append(complex(rng.gauss(0, 1), rng.gauss(0, 1)))
        return Distribution(tuple(zip(coeffs, terms)))


def trace_programs(seed: int, count: int) -> list[tuple[Distribution, Type]]:
    g = ProgramGen(seed)
    return [g.trace_program() for _ in range(count)]


def flow_programs(seed: int, count: int) -> list[tuple[Distribution, Type]]:
    g = ProgramGen(seed)
    return [g.flow_program() for _ in range(count)]


def value_distributions(seed: int, count: int) -> list[Distribution]:
    g = ProgramGen(seed)
    return [g.value_distribution() for _ in range(count)]


# -- compiled case trees ---------------------------------------------------


def gate_images(gate: GateMatrix, targets, n: int) -> list[Distribution]:
    """The leaves `compile_gate(gate, targets, n)` ends in: the encoded
    columns of the gate widened to the register."""
    wide = expand_gate(gate, targets, n).matrix
    return [encode(StateVector(wide[:, k])) for k in range(1 << n)]


def nested_case_tree(images: list[Distribution], n: int) -> Lam:
    """The case tree over the images with a lambda at every internal node,
    built with the public constructors: a node of qubit k binds the rest of
    the register, splits off qubit k and applies one of two nodes of qubit
    k+1 to the rest, `x' ; (\\z':#B^m. let (x', y') = z' in match x' {…}) y`.
    This is the shape the front end compiled every gate to before it built
    one lambda per gate, and the reference the flat tree is held to."""
    z, w = "z" + "'" * (n - 1), "x" + "'" * n
    nodes = [
        Lam(z, qubits(1), singleton(Match(
            Var(z), w, singleton(Seq(Var(w), left)), w, singleton(Seq(Var(w), right)),
        )))
        for left, right in zip(images[::2], images[1::2])
    ]
    for depth in range(n - 2, -1, -1):
        z, x, y = (base + "'" * depth for base in "zxy")
        w = "x" + "'" * (depth + 1)
        nodes = [
            Lam(z, qubits(n - depth), singleton(LetPair(x, y, Var(z), singleton(Match(
                Var(x),
                w, singleton(Seq(Var(w), singleton(App(left, Var(y))))),
                w, singleton(Seq(Var(w), singleton(App(right, Var(y))))),
            )))))
            for left, right in zip(nodes[::2], nodes[1::2])
        ]
    return nodes[0]


# -- Hypothesis strategies -------------------------------------------------


def types(unknown: bool = True) -> st.SearchStrategy[Type]:
    """Random types, with the inference placeholder among the leaves when
    unknown is set."""
    leaves = st.sampled_from([UNIT, Unknown()] if unknown else [UNIT])
    return st.recursive(leaves, lambda inner: st.one_of(
        inner.map(Sharp),
        *(st.builds(node, inner, inner) for node in (Sum, Prod, Arrow)),
    ), max_leaves=12)


# One shape nested n deep, as text: values, and types to write after `\x:`.
DEEP_VALUES = {
    "inl": lambda n: "inl " * n + "*",
    "inr": lambda n: "inr " * n + "*",
    "pair": lambda n: "(*, " * n + "*" + ")" * n,
}
DEEP_TYPES = {
    "paren": lambda n: "(" * n + "U" + ")" * n,
    "sharp": lambda n: "#" * n + "U",
    "sum": lambda n: "+".join(["U"] * (n + 1)),
    "prod": lambda n: "*".join(["U"] * (n + 1)),
}


# Three shapes whose checking once cost the square of n, as text.  The
# left-branch chain nests each match in the left branch of the one above,
# behind a unit head; the beta chain puts a beta-redex with a unit head of
# its own between the two.  Under n `#B` lambdas, n matches nested in a
# scrutinee are typed with n bindings in scope.
def match_chain(n: int) -> str:
    return "match inl * { inl a -> a ; " * n + "inl *" + " | inr b -> inr b }" * n


def beta_chain(n: int) -> str:
    return "match inl * { inl a -> a ; (\\u:U. u ; " * n + "inl *" + ") * | inr b -> inr b }" * n


def near_isometry_chain(k: int) -> str:
    """k copies of a map on #(U+U) whose images have squared norm
    1 + 0.9e-6, inside the default tolerance, applied in a row to a unit
    superposition: two summands that differ only k levels down."""
    a = math.sqrt(1 + 0.9e-6)
    lam = f"(\\x:#(U+U). match x {{ inl u -> u ; ({a!r} * inl *) | inr u -> u ; ({a!r} * inr *) }})"
    return f"{lam} (" * k + "0.6 * inl * + 0.8 * inr *" + ")" * k


def matches_under_bindings(n: int) -> str:
    lams = "".join(f"\\x{i}:#B. " for i in range(n))
    pair = "".join(f"(x{i}, " for i in range(n)) + "m" + ")" * n
    arg = "match " * n + "inl *" + " { inl a -> inl a | inr b -> inr b }" * n
    return f"{lams}(\\m:U+U. {pair}) ({arg})"


# the layers the mixed shapes are made of, outermost first: each is text
# before the rest and text after it
_VALUE_LAYERS = (("inl ", ""), ("inr ", ""), ("(*, ", ")"), ("(", ", *)"))
_TYPE_LAYERS = (("(", ")"), ("#", ""), ("#(", ")"), ("U+", ""), ("U*", ""), ("U -> ", ""))


def _layered(layers, seed: int, depth: int, core: str) -> str:
    rng = random.Random(seed)
    before, after = [], []
    for _ in range(depth):
        b, a = rng.choice(layers)
        before.append(b)
        after.append(a)
    return "".join(before) + core + "".join(reversed(after))


def deep_values(depth: int) -> st.SearchStrategy[str]:
    """A closed value written depth layers deep, each an `inl`, an `inr`,
    or a pair with `*` on one side."""
    return st.integers(0, 2**32).map(lambda seed: _layered(_VALUE_LAYERS, seed, depth, "*"))


def deep_types(depth: int) -> st.SearchStrategy[str]:
    """A type written depth layers deep: parentheses, `#`s, and `+`, `*`
    and `->` chains."""
    return st.integers(0, 2**32).map(lambda seed: _layered(_TYPE_LAYERS, seed, depth, "U"))


# the names an open value is made of: binders take the first three, and `z`
# is never bound, so it stays free.  `x_1` is the name `fresh_name` picks for
# a binder `x`, so renaming one may have to rename again.
OPEN_NAMES = ("x", "x_1", "y", "z")


def deep_open_values(depth: int) -> st.SearchStrategy[PureTerm]:
    """An open value depth layers deep around a variable: each layer an
    `inl`, an `inr`, a pair with a variable on one side, or a lambda whose
    body is the rest, alone or under a `let` or a `match` of the lambda's
    variable.  All names come from `OPEN_NAMES`, so binders shadow one
    another and capture the names that substituted values mention."""
    return st.integers(0, 2**32).map(lambda seed: _open_value(random.Random(seed), depth))


def _open_value(rng: random.Random, depth: int) -> PureTerm:
    binders = OPEN_NAMES[:3]
    name = lambda: rng.choice(OPEN_NAMES)  # noqa: E731
    t: PureTerm = Var(name())
    for _ in range(depth):
        layer = rng.randrange(6)
        if layer == 0:
            t = InlV(t)
        elif layer == 1:
            t = InrV(t)
        elif layer == 2:
            t = PairV(t, Var(name())) if rng.random() < 0.5 else PairV(Var(name()), t)
        else:
            z = rng.choice(binders)
            body = singleton(t)
            if layer == 4:
                left, right = rng.sample(binders, 2)
                body = singleton(LetPair(left, right, Var(z), body))
            elif layer == 5:
                body = singleton(Match(Var(z), rng.choice(binders), body,
                                       rng.choice(binders), singleton(Var(name()))))
            t = Lam(z, UNIT, body)
    return t


def alpha_variant(x: PureTerm | Distribution, rng: random.Random,
                  change: float = 0.0) -> PureTerm | Distribution:
    """x with each binder either kept or renamed to a name of its own, at
    random, so the result is alpha-equivalent to x.  With change > 0, each
    variable, unit value and coefficient is also changed with that
    probability: a variable to another bound name or to the free `w`, the
    unit value to `inl *`, a coefficient times i.  Recursive, for the small
    terms of the property tests."""
    fresh = itertools.count()

    def rename(name: str) -> str:
        return name if rng.random() < 0.5 else f"{name}_r{next(fresh)}"

    def go(x, env: dict[str, str]):
        if isinstance(x, Distribution):
            return Distribution(tuple((a * 1j if rng.random() < change else a, go(t, env))
                                      for a, t in x.summands))
        if isinstance(x, Var):
            if rng.random() < change:
                return Var(rng.choice([*env.values(), "w"]))
            return Var(env.get(x.name, x.name))
        if isinstance(x, Void):
            return InlV(x) if rng.random() < change else x
        if isinstance(x, Lam):
            y = rename(x.name)
            return Lam(y, x.ann, go(x.body, {**env, x.name: y}))
        if isinstance(x, LetPair):
            y, z = rename(x.left), rename(x.right)
            return LetPair(y, z, go(x.scrutinee, env),
                           go(x.body, {**env, x.left: y, x.right: z}))
        if isinstance(x, Match):
            y, z = rename(x.left_name), rename(x.right_name)
            return Match(go(x.scrutinee, env), y, go(x.left_body, {**env, x.left_name: y}),
                         z, go(x.right_body, {**env, x.right_name: z}))
        assert isinstance(x, (PairV, InlV, InrV, App, Seq))
        return x.__class__(*(go(getattr(x, f), env) for f in x.__match_args__))

    return go(x, {})
