"""Algorithmic type checking with linear usage accounting.

Inference is syntax-directed over annotated lambdas.  Context entries carry a
use count: non-flat variables must be used exactly once (the second use and an
unused exit both fail), flat variables are free.

Each elimination (application, sequencing, `let`, `match`) has one rule.  It
types a distribution whose summands all put their own term into the hole of
one shared context: the same operator, the same tail, or the same binders and
bodies.  The holes are typed together as a distribution, so `Σ αᵢ f aᵢ` reads
as `f (Σ αᵢ aᵢ)`, which is exactly how reduction spreads a distribution
through an elimination position; a single term is the one-summand case.  The
rule picks its pure or superposed form by the inferred type of the holes: a
bare unit/product/sum selects the pure form, a Sharp-headed one the superposed
form, which types the binders at Sharp-lifted component types and Sharp-lifts
the result.  Any other distribution types only as a closed norm-1
superposition of values.

Every rule runs in one loop, `_Checker._run`.  A rule is a generator: it
yields its premises in order, each a term or a distribution, is sent each
one's typing, and returns its own, so it can bind names, test a type or
give back a branch's uses between premises.  The loop types a variable, and
a ground value whose typing is kept on it, at once, and keeps the rules
that wait on a premise on one list.  A value is typed by one rule per form
(unit, pair, inl, inr), its parts in field order; a ground value's typing
is kept on the node, with its derivation node.  A superposition of ground
values is typed at once, by their kept typings.  Every other rule builds
its derivation node only while the checker records: `check_program` checks
without, and checks again, recording, when its derivation is first read.
Inventories of basis values are built children first on `types.walk`, and
the structural disjointness criterion keeps its pending positions on one
stack, so the depth of a program or a type costs heap, not Python frames.

Case branches are checked one after the other under the full shared
context and must consume the same non-flat variables.  A branch that types
has used each non-flat variable free in it exactly once: a second use
raises, an inner match's branches agree and a superposition is closed.  A
flat variable's count is never read.  So a branch's usage is its free
variables: the left branch's are given back one use each before the right
branch is typed, and the two sets are compared, at no cost per binding in
scope.  The branches must also be orthogonal, which is decided by a
three-tier procedure: exhaustive enumeration over finite value inventories,
a structural constructor-disjointness criterion, refusal.  Enumeration
grounds each branch once per assignment of the binder and the shared
variables, the names free in either branch.  A shared variable whose type
has a Sharp may hold a superposition of its basis values, so every left
instance must be orthogonal to every right instance that agrees with it on
the other, flat, shared variables, not only to the one under the same
assignment.

Enumeration runs when each inventory holds at most `_CAP` values, and so
does the product of a match's binder and shared-name inventories; `_CAP` is
the size of the basis of the widest register the front end compiles.  One
rule, `_Checker._orthogonal_branches`, decides every match, whatever its
branches look like.  Whether it can enumerate depends only on the types of
the shared names and binders, so a match too wide for the cap is refused
before its branches are typed (`_Checker._enumerated`), unless its branches
are value distributions with disjoint constructors.

Where an instance comes from.  What a check keeps to decide its matches is
the checker's own, and goes away with it: the inventory of each type it
enumerates, `_Checker.inventories`, built once per check, and one memo,
`_Checker.instances`: a branch, held by identity, with the keyed instance
ground for each assignment of values to its free names.  An instance is
ground on the rewriting machine (`rewrite._run`), whose summands start in
the environment of the assignment, built once per assignment: each ground
value is a machine value with an empty environment, so nothing is
substituted, and every contraction counts against `_INSTANCE_STEPS`.  A
case taken at the top of a summand whose coefficient is still 1 enters a
branch; when the memo keeps that branch's instance under the environment,
the machine ends the summand with the kept instance, the normal form it
would have reached, whole.  A branch whose one summand ends that way has
that very instance as its own, and a branch whose one summand ends in a
reduct of two or more ground values, such as a leaf `u ; Σ αᵢ vᵢ` of a
compiled gate, has that reduct, multiplied through by the coefficient 1
as evaluation multiplies it, keyed once.  So a match whose branches apply
a checked lambda to a shared name reads, for each of the name's values,
the instance of the lambda's branch that the value selects, and a branch
that is a closed match reads its taken branch's: a case tree checks from
the leaves up, and an instance that reads the memo costs a few
contractions however wide the register is.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Mapping
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

from .config import get_tolerance, tolerance
from .inner import Keyed, keyed, orthogonal
from .rewrite import _NO_ENV, StepLimitExceeded, StuckError, _cells, _summands
# `normalize` and `substitute_many_dist` are bound here, though no longer
# called, for callers that patch this module's namespace
from .rewrite import _run as _run_machine, normalize  # noqa: F401
from .syntax import (
    App,
    Distribution,
    InlV,
    InrV,
    LetPair,
    Lam,
    Match,
    PairV,
    PureTerm,
    Seq,
    Var,
    Void,
    _FORMS,
    _VOID,
    _set_dist_ordered,
    _trusted,
    alpha_eq,
    canonicalize,
    dist_alpha_eq,
    free_vars_dist,
    is_ground,
    is_value,
    is_value_distribution,
    show_dist,
    show_term,
    substitute_many_dist,
)
from .types import (
    Arrow,
    Prod,
    Sharp,
    Sum,
    Type,
    UNIT,
    Unit,
    Unknown,
    _MAX_REGISTER,
    ground_unknowns,
    is_flat,
    join_types,
    peel_sharps,
    sharp_lift,
    subtype,
    walk,
)

TypingContext = Mapping[str, Type]

# Where the checker is: the term or distribution it types, printed only when
# an error is raised or a derivation's subject is read, or a fixed text.
Location = str | PureTerm | Distribution

# the most values an inventory holds, and the most assignments of a match's
# binder and shared names, which bounds the ground instances of each branch
_CAP = 1 << _MAX_REGISTER
_INSTANCE_STEPS = 4096


class ErrorKind(Enum):
    MISMATCH = "Mismatch"
    LINEARITY_VIOLATION = "LinearityViolation"
    NORM_VIOLATION = "NormViolation"
    ORTHOGONALITY_FAILURE = "OrthogonalityFailure"
    ORTHOGONALITY_UNDECIDED = "OrthogonalityUndecided"
    UNBOUND_VARIABLE = "UnboundVariable"
    SUP_AT_ARROW_TYPE = "SupAtArrowType"
    HEAD_NOT_PURE = "HeadNotPure"


class TypeCheckError(Exception):
    """A typing error of some kind.  A term or distribution given as the
    location is printed, clipped, when `location` or the error's text is
    first read, so an error that is only told apart by its kind prints
    nothing; `location` is always text (or None)."""

    def __init__(self, kind: ErrorKind, message: str, location: Location | None = None,
                 span: object = None):
        self.kind = kind
        self.message = message
        self._where = location
        self.span = span

    @cached_property
    def location(self) -> str | None:
        return None if self._where is None else _render(self._where)

    def __str__(self) -> str:
        at = f" (in {self.location})" if self.location else ""
        return f"{self.kind.value}: {self.message}{at}"


@dataclass(frozen=True)
class Derivation:
    """One node of the reconstructed typing derivation.

    A check builds nodes only while it records (`_Checker.record`), apart
    from the node kept with each ground value's typing; `check_program`
    gives a `LazyDerivation`, which checks again, recording, when first
    read, and stands in for the tree it builds.  `node` is the term or
    distribution the rule types.  `subject` is its printed form, clipped to
    72 characters; it is rendered when first read, so checking never prints
    a term that nobody looks at.
    """
    rule: str
    node: PureTerm | Distribution = field(repr=False)
    type: Type
    children: tuple["Derivation", ...] = ()
    note: str = ""

    @cached_property
    def subject(self) -> str:
        return _render(self.node)


def _render(where: Location) -> str:
    if isinstance(where, Distribution):
        return _clip(show_dist(where))
    if isinstance(where, PureTerm):
        return _clip(show_term(where))
    return where


def _clip(s: str, width: int = 72) -> str:
    return s if len(s) <= width else s[: width - 3] + "..."


class _Binding:
    __slots__ = ("ty", "flat", "uses")

    def __init__(self, ty: Type):
        self.ty = ty
        self.flat = is_flat(ty)
        self.uses = 0


class _Checker:
    def __init__(self, record: bool = False) -> None:
        # whether the rules build derivation nodes; a typing's derivation is
        # None otherwise, unless it is the kept typing of a ground value
        self.record = record
        self.scopes: dict[str, list[_Binding]] = {}
        # the memo, by identity: each branch ground so far as (branch, its
        # free names not of unit type, {their values (`_key`): keyed
        # instance})
        self.instances: dict[int, tuple] = {}
        # the inventory of each type enumerated so far, None past `_CAP`
        self.inventories: dict[Type, tuple[PureTerm, ...] | None] = {}

    # -- context plumbing ---------------------------------------------------

    def _bind(self, name: str, ty: Type) -> _Binding:
        e = _Binding(ground_unknowns(ty))
        self.scopes.setdefault(name, []).append(e)
        return e

    def _unbind(self, name: str, where: Location) -> None:
        stack = self.scopes[name]
        e = stack.pop()
        if not stack:
            del self.scopes[name]
        if not e.flat and e.uses == 0:
            raise TypeCheckError(
                ErrorKind.LINEARITY_VIOLATION,
                f"variable {name} of non-duplicable type {e.ty} was never used",
                where,
            )

    def _use(self, name: str, where: Location) -> Type:
        stack = self.scopes.get(name)
        if not stack:
            raise TypeCheckError(
                ErrorKind.UNBOUND_VARIABLE, f"unbound variable {name}", where
            )
        e = stack[-1]
        e.uses += 1
        if not e.flat and e.uses > 1:
            raise TypeCheckError(
                ErrorKind.LINEARITY_VIOLATION,
                f"variable {name} of non-duplicable type {e.ty} used more than once",
                where,
            )
        return e.ty

    def _node(self, rule: str, here: Location, ty: Type, *children) -> Derivation | None:
        """A rule's derivation node while recording, else None."""
        return Derivation(rule, here, ty, children) if self.record else None

    # -- the loop -----------------------------------------------------------

    def _run(self, typing: tuple[Type, Derivation] | Iterator) -> tuple[Type, Derivation]:
        """The typing of a term or distribution, given as its typing or as
        the generator of its rule.

        A rule yields its premises in order, each a term or a distribution,
        is sent each one's typing, and returns its own.  A premise is typed
        at once (`_term`, `_dist`) or by a new rule, which runs while the
        rules that wait on it stay on one list, so the depth of a derivation
        costs heap, not Python frames."""
        unfinished = []
        while True:
            if typing.__class__ is not tuple:
                unfinished.append(typing)
                typing = None
            elif not unfinished:
                return typing
            try:
                premise = unfinished[-1].send(typing)
            except StopIteration as done:
                unfinished.pop()
                typing = done.value
                continue
            typing = self._dist(premise) if premise.__class__ is Distribution else self._term(premise)

    # -- pure terms ---------------------------------------------------------

    def infer_term(self, t: PureTerm) -> tuple[Type, Derivation]:
        return self._run(self._term(t))

    def _term(self, t: PureTerm) -> tuple[Type, Derivation] | Iterator:
        """The typing of t when it is done at once, a variable's or a kept
        ground value's, else the generator of its rule."""
        match t:
            case Var(x):
                ty = self._use(x, t)
                return ty, self._node("var", t, ty)
            case Lam():
                return self._lam(t)
            case Void() | PairV() | InlV() | InrV():
                return self._value(t) if t._term_key is None else _ground_typed(t)
            case App() | Seq() | LetPair() | Match():
                return self._elim(((1, t),), t)
            case _:
                raise TypeCheckError(ErrorKind.MISMATCH, f"not a pure term: {t!r}")

    def _lam(self, t: Lam) -> Iterator:
        """The lambda rule."""
        entry = self._bind(t.name, t.ann)
        bt, bd = yield t.body
        self._unbind(t.name, t)
        ty = Arrow(entry.ty, bt)
        return ty, self._node("lambda", t, ty, bd)

    def _value(self, t: PureTerm) -> Iterator:
        """The rule of a unit value, pair or injection whose typing is not
        kept.  Its parts are typed in field order, so its variables are used
        in that order."""
        parts = []
        for f in t.__class__.__match_args__:
            parts.append((yield getattr(t, f)))
        return _value_typed(t, parts)

    def _elim(self, summands: tuple[tuple[complex, PureTerm], ...],
              here: PureTerm | Distribution) -> Iterator:
        """The elimination rules.  `here` is either a single term, the one
        unscaled summand, or a distribution whose summands all put their own
        hole into one shared context (`_canonical`): the same operator, tail,
        or binders and bodies.  The holes are typed together as a
        distribution, which reads `Σ αᵢ f aᵢ` as `f (Σ αᵢ aᵢ)`: the shape
        reduction produces when it spreads an elimination over a
        superposition."""
        match summands[0][1]:
            case App(f, _):
                tf, df = yield f
                if not isinstance(tf, Arrow):
                    raise TypeCheckError(
                        ErrorKind.MISMATCH,
                        f"operator has type {tf}, a function type is required",
                        here,
                    )
                ta, da = yield _holes(summands, True)
                if not subtype(ta, tf.dom):
                    what = "argument" if isinstance(here, PureTerm) else "argument distribution"
                    raise TypeCheckError(
                        ErrorKind.MISMATCH,
                        f"{what} has type {ta}, expected {tf.dom}",
                        here,
                    )
                return tf.cod, self._node("apply", here, tf.cod, df, da)
            case Seq(_, tail):
                th, dh = yield _holes(summands, True)
                what = ("sequencing head has" if isinstance(here, PureTerm)
                        else "sequencing heads have")
                form, _, lift = _form(th, Unit, what, "the unit", here)
                tt, dt = yield tail
                ty = lift(tt)
                return ty, self._node(f"seq-{form}", here, ty, dh, dt)
            case LetPair(x, y, _, body):
                ts, ds = yield _holes(summands, True)
                form, core, lift = _form(ts, Prod, "destructured term has", "a product", here)
                self._bind(x, lift(core.left))
                self._bind(y, lift(core.right))
                bt, bd = yield body
                self._unbind(y, here)
                self._unbind(x, here)
                ty = lift(bt)
                return ty, self._node(f"let-{form}", here, ty, ds, bd)
            case Match(_, x1, b1, x2, b2):
                ts, ds = yield _holes(summands, True)
                form, core, lift = _form(ts, Sum, "matched term has", "a sum", here)
                lt = lift(core.left)
                rt = lift(core.right)
                used1 = free_vars_dist(b1) - {x1}
                used2 = free_vars_dist(b2) - {x2}
                names = sorted(used1 | used2)
                if all(x in self.scopes for x in names):  # else typing a branch reports it
                    # the types decide how the branches are enumerated, or
                    # refuse, before any work below this match
                    shared = {x: self.scopes[x][-1].ty for x in names}
                    invs = self._enumerated(shared, lt, b1, rt, b2, here)
                self._bind(x1, lt)
                t1, d1 = yield b1
                self._unbind(x1, here)
                # a branch that types has used each non-flat name free in it
                # once, so its usage is its free names: give theirs back
                for x in used1:
                    self.scopes[x][-1].uses -= 1
                self._bind(x2, rt)
                t2, d2 = yield b2
                self._unbind(x2, here)
                if used1 != used2:
                    # the first non-flat name in scope order that one branch
                    # uses and the other does not
                    either = used1 ^ used2
                    for x, stack in self.scopes.items():
                        if x in either and not stack[-1].flat:
                            raise TypeCheckError(
                                ErrorKind.LINEARITY_VIOLATION,
                                f"a non-duplicable variable of type {stack[-1].ty} is "
                                "consumed by one branch but not the other",
                                here,
                            )
                joined = join_types(t1, t2)
                if joined is None:
                    raise TypeCheckError(
                        ErrorKind.MISMATCH,
                        f"match branches have incompatible types {t1} and {t2}",
                        here,
                    )
                self._orthogonal_branches(shared, invs, x1, b1, x2, b2, here)
                ty = lift(joined)
                return ty, self._node(f"match-{form}", here, ty, ds, d1, d2)

    # -- distributions ------------------------------------------------------

    def infer_dist(self, d: Distribution) -> tuple[Type, Derivation]:
        return self._run(self._dist(d))

    def _dist(self, d: Distribution) -> tuple[Type, Derivation] | Iterator:
        """The typing of d when it is done at once, else the generator of
        its rule."""
        s = d.summands
        if len(s) == 1 and s[0][0] == 1:
            return self._term(s[0][1])
        d, shared = _canonical(d)
        s = d.summands
        if len(s) == 1 and s[0][0] == 1:
            return self._term(s[0][1])
        if shared:
            return self._elim(s, d)
        if is_value_distribution(d):
            return self._superposition(d, expected_core=None)
        raise TypeCheckError(
            ErrorKind.MISMATCH,
            "a proper distribution must be a superposition of values or a single "
            "elimination distributed across its summands",
            d,
        )

    def check_dist(self, d: Distribution, expected: Type) -> Derivation:
        """The derivation of d at the expected type.  A proper superposition
        of values is checked against it; anything else is typed as `_dist`
        types it and its type tested against it."""
        cd, _ = _canonical(d)
        s = cd.summands
        single = len(s) == 1 and s[0][0] == 1
        if not single and is_value_distribution(cd):
            n, core = peel_sharps(expected)
            if isinstance(core, Arrow):
                raise TypeCheckError(
                    ErrorKind.SUP_AT_ARROW_TYPE,
                    "a superposition cannot inhabit a function type",
                    d,
                )
            if n == 0:
                raise TypeCheckError(
                    ErrorKind.MISMATCH,
                    f"a proper distribution cannot have the bare type {expected}",
                    d,
                )
            return self._run(self._superposition(cd, expected_core=core))[1]
        ty, der = self._run(self._dist(cd))
        if not subtype(ty, expected):
            if single:
                raise TypeCheckError(
                    ErrorKind.MISMATCH,
                    f"term has type {ty}, expected {expected}",
                    s[0][1],
                )
            raise TypeCheckError(
                ErrorKind.MISMATCH,
                f"distribution has type {ty}, expected {expected}",
                d,
            )
        return der

    def _superposition(self, cd: Distribution, expected_core: Type | None
                       ) -> tuple[Type, Derivation | None] | Iterator:
        """A canonical proper distribution of values: the superposition rule.

        Closed, norm 1 within tolerance, summands pairwise orthogonal (free
        after canonicalization: distinct canonical values have inner product
        zero), no function type.  With an expected core each summand is checked
        against it, otherwise the summand types are joined.  A ground value
        is typed with no context and raises nothing, so when every summand is
        one the rule is done at once, each summand typed by its kept typing
        or on `walk`; otherwise the rule is a generator that waits on each
        summand as a premise (`_superposed_premises`).
        """
        if all(t._term_key is not None for _, t in cd.summands):
            joined, children = expected_core, []
            for _, t in cd.summands:
                ty, der = _ground_typed(t)
                joined = _joined(joined, ty, t, expected_core, cd)
                children.append(der)
            return self._superposed(cd, joined, expected_core, children)
        for x in sorted(free_vars_dist(cd)):
            if x in self.scopes:
                raise TypeCheckError(
                    ErrorKind.MISMATCH,
                    f"a superposition must be closed, but {x} occurs free",
                    cd,
                )
            raise TypeCheckError(
                ErrorKind.UNBOUND_VARIABLE, f"unbound variable {x}", cd
            )
        return self._superposed_premises(cd, expected_core)

    def _superposed_premises(self, cd: Distribution, expected_core: Type | None) -> Iterator:
        """The superposition rule of closed values not all ground, such as
        lambdas: each summand is typed as a premise, and joined before the
        next is typed."""
        joined, children = expected_core, []
        for _, t in cd.summands:
            # t is closed, so no binding of this checker can reach it
            ty, der = yield t
            joined = _joined(joined, ty, t, expected_core, cd)
            children.append(der)
        return self._superposed(cd, joined, expected_core, children)

    def _superposed(self, cd: Distribution, joined: Type, expected_core: Type | None,
                    children: list) -> tuple[Type, Derivation | None]:
        """The typing of the superposition cd from its summands' joined type:
        no function type, and norm 1 within tolerance."""
        if expected_core is None and isinstance(joined, Arrow):
            raise TypeCheckError(
                ErrorKind.SUP_AT_ARROW_TYPE,
                "a superposition cannot inhabit a function type",
                cd,
            )
        try:
            total = sum(abs(a) ** 2 for a, _ in cd.summands)
        except OverflowError:
            # a weight past the square root of the largest float
            total = float("inf")
        if abs(total - 1.0) > get_tolerance():
            raise TypeCheckError(
                ErrorKind.NORM_VIOLATION,
                f"squared amplitudes sum to {total:.12g}, expected 1",
                cd,
            )
        ty = Sharp(ground_unknowns(joined))
        return ty, self._node("superposition", cd, ty, *children)

    # -- orthogonality ------------------------------------------------------

    def _enumerated(self, shared: dict[str, Type], t1: Type, b1: Distribution, t2: Type,
                    b2: Distribution, here: Location) -> list | None:
        """How a match's branches are decided orthogonal, from the types of
        the names free in either branch (`shared`, in name order) and of the
        binders (t1, t2), and from the branches' text, so before they are
        typed.  When every one of those types has an inventory and their
        sizes multiply to at most `_CAP`, the branches are enumerated over
        the inventories, which are returned: the shared names', then the
        binders'.  Otherwise the branches must be value distributions with
        disjoint constructors, and None is returned, or the match is
        undecided."""
        invs = []
        total = 1
        for ty in (*shared.values(), t1, t2):
            inv = _enumerate_values(ty, self.inventories)
            if inv is None or (total := total * len(inv)) > _CAP:
                if (
                    is_value_distribution(b1)
                    and is_value_distribution(b2)
                    and _structurally_disjoint(
                        [t for _, t in b1.summands], [t for _, t in b2.summands]
                    )
                ):
                    return None
                raise TypeCheckError(
                    ErrorKind.ORTHOGONALITY_UNDECIDED,
                    "cannot decide that the branches are orthogonal: they are not value "
                    "distributions with disjoint constructors, and their free variables "
                    "do not all have finitely enumerable types within budget",
                    here,
                )
            invs.append(inv)
        return invs

    def _orthogonal_branches(self, shared: dict[str, Type], invs: list | None, x1: str,
                             b1: Distribution, x2: str, b2: Distribution,
                             here: Location) -> None:
        """Decide the branches of a match orthogonal over the inventories
        `_enumerated` gave, or raise; None, when the structural criterion
        has decided them, holds nothing to enumerate.

        Every ground instance of the left branch must be orthogonal to every
        ground instance of the right one that gives the flat shared names
        the same values.  The binders hold basis values of different cases,
        so every pair of theirs counts.  So does every pair of values of a
        shared name whose type is not flat: it may hold σ = Σ αᵢ eᵢ, and
        ⟨L(σ)|R(σ)⟩ = Σᵢⱼ ᾱᵢ αⱼ ⟨L(eᵢ)|R(eⱼ)⟩ is zero for every σ only
        when each ⟨L(eᵢ)|R(eⱼ)⟩ is.  A flat name holds one basis value, the
        same in both branches.  Each instance is keyed once, and an instance
        is compared only with the instances that share a key with it
        (`_holders`).  The pairs under one assignment are compared as soon
        as they are grounded, so a failure among them is reported before
        any pair across assignments."""
        if invs is None:
            return
        *invs, inv1, inv2 = invs
        groups: dict[tuple, list] = {}
        for combo in itertools.product(*invs):
            # the assignment as the machine environment its instances start in
            base = {x: (v, _NO_ENV) for x, v in zip(shared, combo)}
            lefts = [(w1, self._instance(b1, {**base, x1: (w1, _NO_ENV)}, here)) for w1 in inv1]
            holders = _holders((j1, left) for j1, (_, left) in enumerate(lefts))
            rights = []
            for w2 in inv2:
                right = (w2, self._instance(b2, {**base, x2: (w2, _NO_ENV)}, here))
                rights.append(right)
                for j1 in sorted({j1 for k in right[1] for j1 in holders.get(k, ())}):
                    _require_pair_orthogonal(base, lefts[j1], base, right, here)
            flat = tuple(v for x, (v, _) in base.items() if is_flat(shared[x]))
            groups.setdefault(flat, []).append((base, lefts, rights))
        for group in groups.values():
            if len(group) == 1:
                continue
            holders = _holders(
                ((i2, j2), right)
                for i2, (_, _, rights) in enumerate(group)
                for j2, (_, right) in enumerate(rights)
            )
            for i1, (base1, lefts, _) in enumerate(group):
                pairs = {
                    (i2, j2, j1)
                    for j1, (_, left) in enumerate(lefts)
                    for k in left
                    for i2, j2 in holders.get(k, ())
                    if i2 != i1
                }
                for i2, j2, j1 in sorted(pairs):
                    base2, _, rights = group[i2]
                    _require_pair_orthogonal(base1, lefts[j1], base2, rights[j2], here)

    def _instance(self, b: Distribution, env: dict[str, tuple], here: Location) -> Keyed:
        """The keyed ground instance of branch b in env, a machine
        environment that binds every free name of b to a ground value, kept
        in `instances`.  An instance not kept yet is b evaluated on the
        rewriting machine, started in env, in at most `_INSTANCE_STEPS`
        steps, where a case taken at the top reads the instance kept for the
        branch it enters (`_kept`).  When the machine ends b's one summand
        with that instance, it is b's.  Otherwise the normal form is keyed
        once; a reduct that ended a summand whole is first multiplied
        through by the summand's coefficient, as evaluation multiplies it,
        so the instance has evaluation's coefficient bits."""
        kept = self.instances.get(id(b))
        if kept is None or kept[0] is not b:
            # a name of unit type holds ⋆ under every assignment: it is no part
            # of the key
            names = tuple(x for x in free_vars_dist(b) if env[x][0] is not _VOID)
            kept = self.instances[id(b)] = (b, names, {})
        key = _key(env, kept[1])
        inst = kept[2].get(key)
        if inst is None:
            cells = _cells(b, env)
            try:
                for _ in _run_machine(cells, _INSTANCE_STEPS, None, False, self._kept):
                    pass
            except (StuckError, StepLimitExceeded) as e:
                raise TypeCheckError(
                    ErrorKind.ORTHOGONALITY_UNDECIDED,
                    f"an instantiated branch did not reduce to values ({e})",
                    here,
                )
            inst = cells[0][1] if len(cells) == 1 else None
            if inst.__class__ is not Keyed:
                # each coefficient was checked where the machine spliced it; a
                # reduct in order that ended the one cell whole with the
                # coefficient 1 (a split cell has None) stays in order when
                # multiplied through by it
                ordered = (inst is not None and cells[0][2] is None and cells[0][0] == 1
                           and inst._ordered)
                inst = keyed(canonicalize(_trusted(tuple(_summands(cells)), ordered)))
            kept[2][key] = inst
        return inst

    def _kept(self, b: Distribution, env: dict) -> Keyed | None:
        """The instance kept for branch b under the machine environment env,
        or None."""
        kept = self.instances.get(id(b))
        if kept is not None and kept[0] is b:
            return kept[2].get(_key(env, kept[1]))
        return None


def _value_typed(t: PureTerm, parts: list) -> tuple[Type, Derivation | None]:
    """The typing of a unit value, pair or injection by its rule, from its
    parts' typings.  A ground value has no variables, so neither its
    type nor its derivation depends on the context: they are kept on the
    node, and each distinct ground value is typed once.  A value with a
    part typed with no node, an open part typed while not recording, gets
    none either."""
    cls = t.__class__
    if cls is Void:
        ty, rule = UNIT, "unit"
    elif cls is PairV:
        ty, rule = Prod(parts[0][0], parts[1][0]), "pair"
    elif cls is InlV:
        ty, rule = Sum(parts[0][0], Unknown()), "inl"
    else:
        ty, rule = Sum(Unknown(), parts[0][0]), "inr"
    children = tuple(d for _, d in parts)
    if None in children:
        return ty, None
    typing = ty, Derivation(rule, t, ty, children)
    if is_ground(t):
        object.__setattr__(t, "_typing", typing)
    return typing


def _ground_typed(t: PureTerm) -> tuple[Type, Derivation]:
    """A ground value's typing: its kept one, or else its rule's over its
    parts', which it then keeps, children first (`walk`)."""
    return t._typing or walk(t, _ground_parts, _value_typed)


def _ground_parts(t: PureTerm) -> tuple[Type, Derivation] | list:
    """A ground value's kept typing, else its parts, for `walk`."""
    return t._typing or list(map(t.__getattribute__, t.__class__.__match_args__))


def _joined(joined: Type | None, ty: Type, t: PureTerm, expected_core: Type | None,
            cd: Distribution) -> Type:
    """The join of the types of a superposition's summands so far, joined,
    with the type ty of its next summand t; with an expected core, the core,
    which ty must be a subtype of."""
    if expected_core is None:
        joined = ty if joined is None else join_types(joined, ty)
        if joined is None:
            raise TypeCheckError(ErrorKind.MISMATCH,
                                 "superposed values have incompatible types", cd)
        return joined
    if not subtype(ty, expected_core):
        raise TypeCheckError(ErrorKind.MISMATCH,
                             f"superposed value has type {ty}, expected {expected_core}", t)
    return expected_core


def _same_context(t0: PureTerm, t: PureTerm) -> bool:
    """Whether t is the elimination t0 with another term in its hole: the
    same class, and every other field equal, names by `==` and terms and
    distributions up to alpha-equivalence.  The context is usually the very
    same object, so identity is tried first."""
    cls = t0.__class__
    form = _FORMS.get(cls)
    if form is None or form.hole is None or t.__class__ is not cls:
        return False
    for f in cls.__match_args__:
        a, b = getattr(t0, f), getattr(t, f)
        if f == form.hole or a is b:
            continue
        if not (a == b if a.__class__ is str
                else alpha_eq(a, b) if isinstance(a, PureTerm) else dist_alpha_eq(a, b)):
            return False
    return True


def _canonical(d: Distribution) -> tuple[Distribution, bool]:
    """`canonicalize(d)`, and whether its summands put their own terms into
    the hole of one shared elimination context.  Such summands order and
    merge as their holes do, so their holes are canonicalized instead: the
    context is compared once per summand, here, and not again in every
    comparison of two of them.  The distribution returned is marked in
    order, and so are the holes `_elim` takes from it: a distribution
    already in order is not compared again at the next level down."""
    s = d.summands
    form = _FORMS.get(s[0][1].__class__)
    if form is None or form.hole is None or not all(_same_context(s[0][1], t) for _, t in s[1:]):
        return canonicalize(d), False
    if d._ordered:
        return d, True
    holes = _holes(s)
    ordered = canonicalize(holes)
    if ordered is holes:
        _set_dist_ordered(d, True)
        return d, True
    # a merged summand keeps the first term, as its hole is the first hole
    first: dict[int, PureTerm] = {}
    for (_, t), (_, h) in zip(s, holes.summands):
        first.setdefault(id(h), t)
    return _trusted(tuple((a, first[id(h)]) for a, h in ordered.summands), True), True


def _holes(summands: tuple[tuple[complex, PureTerm], ...], ordered: bool | None = None
           ) -> Distribution:
    """The distribution of the terms in the holes of summands that share one
    elimination form.  The coefficients come from a checked distribution or
    are the literal 1 of a single term, so it skips re-validation.  Summands
    in order in one context have their holes in order (`ordered`)."""
    part = _FORMS[summands[0][1].__class__].hole
    if len(summands) == 1:
        a, t = summands[0]
        return _trusted(((a, getattr(t, part)),), ordered)
    return _trusted(tuple((a, getattr(t, part)) for a, t in summands), ordered)


def _form(ty: Type, core_class: type, what: str, required: str, here: Location) -> tuple:
    """The form of an elimination whose holes have type ty, their core, and
    the lift of the binder and result types: "pure" and none for a bare core
    of class core_class, "super" and Sharp for a Sharp-headed one.  Any other
    core is a Mismatch, worded from `what` and `required` only then."""
    m, core = peel_sharps(ty)
    if not isinstance(core, core_class):
        raise TypeCheckError(
            ErrorKind.MISMATCH, f"{what} type {ty}, {required} type is required", here
        )
    return ("super", core, sharp_lift) if m else ("pure", core, _unlifted)


def _unlifted(ty: Type) -> Type:
    return ty


def _enumerate_values(ty: Type, kept: dict[Type, tuple | None]) -> tuple[PureTerm, ...] | None:
    """All ground values of an arrow-free type, None when not enumerable.

    The superposition modality does not change the inventory of basis values,
    so Sharp is transparent here.  The inventory is a tuple, so that no
    caller can change a shared one.  It is built children first (`walk`), so
    a deep type costs no Python frames, and types are interned, so the
    inventory of each type built is kept by type in `kept`, the caller's
    dict: a subtype that occurs twice, here or in a later call given the
    same dict, is enumerated once, and a type costs its distinct nodes, not
    its paths.  Nothing is kept anywhere else.
    """

    def parts(t: Type) -> tuple[PureTerm, ...] | list | None:
        # the inventory of a unit, a placeholder, an arrow (None) or a type
        # already enumerated, else the type's parts
        cls = t.__class__
        if cls is Unit or cls is Unknown:
            return _UNIT_VALUES
        if cls is Arrow:
            return None
        inv = kept.get(t, kept)
        return list(map(t.__getattribute__, cls.__match_args__)) if inv is kept else inv

    def build(t: Type, invs: list) -> tuple[PureTerm, ...] | None:
        kept[t] = inv = _inventory(t, invs)
        return inv

    return walk(ty, parts, build)


def _inventory(ty: Type, parts: list) -> tuple[PureTerm, ...] | None:
    """The inventory of a Sharp, a sum or a product from its parts'
    inventories, or None past `_CAP` values."""
    lv, rv = parts[0], parts[-1]
    if ty.__class__ is Sharp:
        return lv
    if lv is None or rv is None:
        return None
    if ty.__class__ is Sum:
        return (None if len(lv) + len(rv) > _CAP else
                tuple(InlV(v) for v in lv) + tuple(InrV(v) for v in rv))
    return (None if len(lv) * len(rv) > _CAP else
            tuple(PairV(a, b) for a in lv for b in rv))


_UNIT_VALUES = (_VOID,)


def _key(env: Mapping[str, tuple], names: tuple[str, ...]) -> object:
    """The key of an instance in its branch's entry, from the machine
    environment: the value of the one name, else the tuple of the names'
    values.  The value is interned, so a case tree, whose branches have one
    name that is not of unit type, keys its instances with no object of
    their own for the cyclic collector to walk."""
    return env[names[0]][0] if len(names) == 1 else tuple(env[x][0] for x in names)


def _holders(instances: Iterable[tuple[object, Keyed]]) -> dict[object, list]:
    """For each key, the tags of the keyed instances that hold it, in order.
    Two instances that share no key have an inner product of exactly 0, so
    only the instances a key leads to need comparing; they are compared in
    the order of the tags, which keeps the first failure the same as when
    every pair is compared."""
    out: dict[object, list] = {}
    for tag, inst in instances:
        for k in inst:
            out.setdefault(k, []).append(tag)
    return out


def _require_pair_orthogonal(
    base1: dict[str, tuple],
    left: tuple[PureTerm, Keyed],
    base2: dict[str, tuple],
    right: tuple[PureTerm, Keyed],
    here: Location,
) -> None:
    if not orthogonal(left[1], right[1]):
        witness = _assignment(base1)
        if base2 is not base1:
            witness += f" / {_assignment(base2)}"
        raise TypeCheckError(
            ErrorKind.ORTHOGONALITY_FAILURE,
            f"branches are not orthogonal under {witness} "
            f"(binders {show_term(left[0])} / {show_term(right[0])})",
            here,
        )


def _assignment(base: dict[str, tuple]) -> str:
    text = ", ".join(f"{x} := {show_term(v)}" for x, (v, _) in base.items())
    return text or "the empty substitution"


def _structurally_disjoint(v1: list[PureTerm], v2: list[PureTerm]) -> bool:
    """A rigid position where one side is all inl and the other all inr.  It
    is sought among pending pairs of value lists, the components of one
    position on each side: where both sides are injections of one kind it
    lies under them, and where both are pairs, under either component."""
    pending = [(v1, v2)]
    while pending:
        v1, v2 = pending.pop()
        h1, h2 = _head(v1), _head(v2)
        if h1 is not h2:
            if {h1, h2} == {InlV, InrV}:
                return True
        elif h1 is InlV or h1 is InrV:
            pending.append(([t.value for t in v1], [t.value for t in v2]))
        elif h1 is PairV:
            pending += (([t.second for t in v1], [t.second for t in v2]),
                        ([t.first for t in v1], [t.first for t in v2]))
    return False


def _head(values: list[PureTerm]) -> type | None:
    """The class of every value in values, None when they differ."""
    cls = values[0].__class__
    return cls if all(t.__class__ is cls for t in values) else None


# ---------------------------------------------------------------------------
# public interface

@contextmanager
def _scope(ctx: TypingContext, where: str, *binders: tuple[str, Type]) -> Iterator[_Checker]:
    """A checker with ctx bound and then the binders, innermost.  Leaving the
    scope closes the binders or, when there are none, every context variable,
    so a non-flat one that was never used is a linearity violation."""
    c = _Checker()
    for x, ty in (*ctx.items(), *binders):
        c._bind(x, ty)
    yield c
    for x in reversed([x for x, _ in binders] or list(ctx)):
        c._unbind(x, where)


def check_pure(ctx: TypingContext, t: PureTerm) -> Type:
    """Infer the type of a pure term under a context.  Non-flat context
    variables must be consumed exactly once."""
    with _scope(ctx, "the top-level context") as c:
        ty, _ = c.infer_term(t)
    return ground_unknowns(ty)


def check_distribution(ctx: TypingContext, d: Distribution, expected: Type) -> bool:
    """True when d checks against expected under ctx; raises otherwise."""
    with _scope(ctx, "the top-level context") as c:
        c.check_dist(d, expected)
    return True


def check_orthogonal_judgment(
    ctx_shared: TypingContext,
    binder1: tuple[str, Type],
    v1: Distribution,
    binder2: tuple[str, Type],
    v2: Distribution,
    result: Type,
) -> bool:
    """Both branches check at the result type under their binder, and every
    ground instantiation of the free variables makes them orthogonal.  True on
    success; raises with OrthogonalityFailure or OrthogonalityUndecided (or an
    ordinary typing error from the branch checks) otherwise."""
    for binder, branch in ((binder1, v1), (binder2, v2)):
        with _scope(ctx_shared, "the orthogonality judgment", binder) as c:
            c.check_dist(branch, result)
    x1, t1 = binder1
    x2, t2 = binder2
    c = _Checker()
    shared = {x: ground_unknowns(ctx_shared[x]) for x in sorted(ctx_shared)}
    where = "the orthogonality judgment"
    invs = c._enumerated(shared, ground_unknowns(t1), v1, ground_unknowns(t2), v2, where)
    c._orthogonal_branches(shared, invs, x1, v1, x2, v2, where)
    return True


def check_program(d: Distribution) -> tuple[Type, LazyDerivation]:
    """Type a closed program, returning its minimal type and its derivation.
    The check builds no derivation: the one returned stands in for it and
    builds it when first read (`LazyDerivation`)."""
    return type_of_program(d), LazyDerivation(d, get_tolerance())


def type_of_program(d: Distribution) -> Type:
    return ground_unknowns(_Checker().infer_dist(d)[0])


class LazyDerivation:
    """The derivation of a program that checked, built when first read: the
    check runs again, recording, under the tolerance of the first check.
    `tree` is that `Derivation`; a `Derivation`'s attributes, `==`, `hash`
    and `repr` answer from it, and any other name is missing without a
    build.  The stand-in is not a `Derivation` instance: `isinstance` and
    `dataclasses` take `tree`."""

    _NAMES = frozenset(dir(Derivation)).union(Derivation.__dataclass_fields__)

    def __init__(self, d: Distribution, tol: float) -> None:
        self._program = d
        self._tolerance = tol

    @cached_property
    def tree(self) -> Derivation:
        with tolerance(self._tolerance):
            return _Checker(record=True).infer_dist(self._program)[1]

    def __getattr__(self, name: str) -> object:
        if name in self._NAMES:
            return getattr(self.tree, name)
        raise AttributeError(name)

    def __eq__(self, other: object) -> bool:
        return self.tree == (other.tree if isinstance(other, LazyDerivation) else other)

    def __hash__(self) -> int:
        return hash(self.tree)

    def __repr__(self) -> str:
        return repr(self.tree)
