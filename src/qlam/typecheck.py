"""Algorithmic type checking with linear usage accounting.

Inference is syntax-directed over annotated lambdas.  Context entries carry a
use count: non-flat variables must be used exactly once (the second use and an
unused exit both fail), flat variables are free.  Eliminations pick their pure
or superposed rule by the inferred head type: a bare unit/product/sum selects
the pure rule, a Sharp-headed one selects the superposed rule, which types the
binders at Sharp-lifted component types and Sharp-lifts the result.  Case
branches are checked under the full shared context with forked usage state and
must consume the same non-flat variables; they must also satisfy the
orthogonality side condition, decided by a three-tier procedure (exhaustive
enumeration over finite value inventories, a structural constructor-disjointness
criterion, refusal).

A distribution types either as a single unscaled term, as a closed norm-1
superposition of values, or as one elimination distributed across all summands
(the same operator applied to an argument distribution, the same tail sequenced
after a head distribution, and so on), which is exactly how reduction spreads a
distribution through an elimination position.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

from .config import get_tolerance
from .inner import orthogonal
from .rewrite import StepLimitExceeded, StuckError, normalize
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
    alpha_eq,
    canonicalize,
    dist_alpha_eq,
    free_vars_dist,
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
    ground_unknowns,
    is_flat,
    join_types,
    peel_sharps,
    sharp_lift,
    subtype,
)

TypingContext = Mapping[str, Type]

# Where the checker is: the term or distribution it types, printed only when
# an error is raised or a derivation's subject is read, or a fixed text.
Location = str | PureTerm | Distribution

_INVENTORY_CAP = 256
_PAIR_CAP = 1024
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
    location is printed, clipped, when the error is made, so `location` is
    always text (or None)."""

    def __init__(self, kind: ErrorKind, message: str, location: Location | None = None,
                 span: object = None):
        if location is not None:
            location = _render(location)
        at = f" (in {location})" if location else ""
        super().__init__(f"{kind.value}: {message}{at}")
        self.kind = kind
        self.message = message
        self.location = location
        self.span = span


@dataclass(frozen=True)
class Derivation:
    """One node of the reconstructed typing derivation.

    `node` is the term or distribution the rule types.  `subject` is its
    printed form, clipped to 72 characters; it is rendered when first read,
    so checking never prints a term that nobody looks at.
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


class _Entry:
    __slots__ = ("ty", "flat", "uses")

    def __init__(self, ty: Type):
        self.ty = ty
        self.flat = is_flat(ty)
        self.uses = 0


class _Checker:
    def __init__(self) -> None:
        self.scopes: dict[str, list[_Entry]] = {}

    # -- context plumbing ---------------------------------------------------

    def _bind(self, name: str, ty: Type) -> _Entry:
        e = _Entry(ground_unknowns(ty))
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

    def _snapshot(self) -> list[tuple[_Entry, int]]:
        return [(e, e.uses) for stack in self.scopes.values() for e in stack]

    def _restore(self, snap: list[tuple[_Entry, int]]) -> None:
        for e, u in snap:
            e.uses = u

    @staticmethod
    def _delta(snap: list[tuple[_Entry, int]]) -> list[int]:
        return [e.uses - u for e, u in snap]

    def _merge_branch_usage(
        self,
        snap: list[tuple[_Entry, int]],
        d1: list[int],
        d2: list[int],
        names_hint: Location,
    ) -> None:
        for (e, u0), a, b in zip(snap, d1, d2):
            if not e.flat and a != b:
                raise TypeCheckError(
                    ErrorKind.LINEARITY_VIOLATION,
                    f"a non-duplicable variable of type {e.ty} is consumed by one "
                    "branch but not the other",
                    names_hint,
                )
            e.uses = u0 + max(a, b)

    # -- pure terms ---------------------------------------------------------

    def infer_term(self, t: PureTerm) -> tuple[Type, Derivation]:
        match t:
            case Var(x):
                ty = self._use(x, t)
                return ty, Derivation("var", t, ty)
            case Void():
                return UNIT, Derivation("unit", t, UNIT)
            case Lam(x, ann, body):
                entry = self._bind(x, ann)
                bt, bd = self.infer_dist(body)
                self._unbind(x, t)
                ty = Arrow(entry.ty, bt)
                return ty, Derivation("lambda", t, ty, (bd,))
            case PairV(a, b):
                ta, da = self.infer_term(a)
                tb, db = self.infer_term(b)
                ty = Prod(ta, tb)
                return ty, Derivation("pair", t, ty, (da, db))
            case InlV(v):
                tv, dv = self.infer_term(v)
                ty = Sum(tv, Unknown())
                return ty, Derivation("inl", t, ty, (dv,))
            case InrV(v):
                tv, dv = self.infer_term(v)
                ty = Sum(Unknown(), tv)
                return ty, Derivation("inr", t, ty, (dv,))
            case App(f, a):
                tf, df = self.infer_term(f)
                if not isinstance(tf, Arrow):
                    raise TypeCheckError(
                        ErrorKind.MISMATCH,
                        f"operator has type {tf}, a function type is required",
                        t,
                    )
                ta, da = self.infer_term(a)
                if not subtype(ta, tf.dom):
                    raise TypeCheckError(
                        ErrorKind.MISMATCH,
                        f"argument has type {ta}, expected {tf.dom}",
                        t,
                    )
                return tf.cod, Derivation("apply", t, tf.cod, (df, da))
            case Seq(h, tail):
                th, dh = self.infer_term(h)
                m, core = peel_sharps(th)
                if not isinstance(core, Unit):
                    raise TypeCheckError(
                        ErrorKind.MISMATCH,
                        f"sequencing head has type {th}, the unit type is required",
                        t,
                    )
                tt, dt = self.infer_dist(tail)
                if m == 0:
                    return tt, Derivation("seq-pure", t, tt, (dh, dt))
                ty = sharp_lift(tt)
                return ty, Derivation("seq-super", t, ty, (dh, dt))
            case LetPair(x, y, s, body):
                ts, ds = self.infer_term(s)
                ty, children, rule = self._infer_let_parts(ts, x, y, body, t)
                return ty, Derivation(rule, t, ty, (ds, *children))
            case Match(s, x1, b1, x2, b2):
                ts, ds = self.infer_term(s)
                ty, children, rule = self._infer_match_parts(ts, x1, b1, x2, b2, t)
                return ty, Derivation(rule, t, ty, (ds, *children))
            case _:
                raise TypeCheckError(ErrorKind.MISMATCH, f"not a pure term: {t!r}")

    def _infer_let_parts(
        self, scrut_ty: Type, x: str, y: str, body: Distribution, here: Location
    ) -> tuple[Type, tuple[Derivation, ...], str]:
        m, core = peel_sharps(scrut_ty)
        if not isinstance(core, Prod):
            raise TypeCheckError(
                ErrorKind.MISMATCH,
                f"destructured term has type {scrut_ty}, a product type is required",
                here,
            )
        if m == 0:
            self._bind(x, core.left)
            self._bind(y, core.right)
            bt, bd = self.infer_dist(body)
            self._unbind(y, here)
            self._unbind(x, here)
            return bt, (bd,), "let-pure"
        self._bind(x, sharp_lift(core.left))
        self._bind(y, sharp_lift(core.right))
        bt, bd = self.infer_dist(body)
        self._unbind(y, here)
        self._unbind(x, here)
        return sharp_lift(bt), (bd,), "let-super"

    def _infer_match_parts(
        self,
        scrut_ty: Type,
        x1: str,
        b1: Distribution,
        x2: str,
        b2: Distribution,
        here: Location,
    ) -> tuple[Type, tuple[Derivation, ...], str]:
        m, core = peel_sharps(scrut_ty)
        if not isinstance(core, Sum):
            raise TypeCheckError(
                ErrorKind.MISMATCH,
                f"matched term has type {scrut_ty}, a sum type is required",
                here,
            )
        unitary = m >= 1
        lt = sharp_lift(core.left) if unitary else core.left
        rt = sharp_lift(core.right) if unitary else core.right
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
                ErrorKind.MISMATCH,
                f"match branches have incompatible types {t1} and {t2}",
                here,
            )
        self._require_orthogonal(x1, lt, b1, x2, rt, b2, here)
        if unitary:
            return sharp_lift(joined), (d1, d2), "match-super"
        return joined, (d1, d2), "match-pure"

    # -- distributions ------------------------------------------------------

    def infer_dist(self, d: Distribution) -> tuple[Type, Derivation]:
        s = d.summands
        if len(s) == 1 and s[0][0] == 1:
            return self.infer_term(s[0][1])
        cd = canonicalize(d)
        s = cd.summands
        if len(s) == 1 and s[0][0] == 1:
            return self.infer_term(s[0][1])
        if is_value_distribution(cd):
            return self._infer_superposition(cd, expected_core=None)
        return self._infer_unapplied(cd)

    def check_dist(self, d: Distribution, expected: Type) -> Derivation:
        s = d.summands
        single = None
        if len(s) == 1 and s[0][0] == 1:
            single = s[0][1]
        else:
            cd = canonicalize(d)
            if len(cd.summands) == 1 and cd.summands[0][0] == 1:
                single = cd.summands[0][1]
            elif is_value_distribution(cd):
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
                _, der = self._infer_superposition(cd, expected_core=core)
                return der
            else:
                ty, der = self._infer_unapplied(cd)
                if not subtype(ty, expected):
                    raise TypeCheckError(
                        ErrorKind.MISMATCH,
                        f"distribution has type {ty}, expected {expected}",
                        d,
                    )
                return der
        ty, der = self.infer_term(single)
        if not subtype(ty, expected):
            raise TypeCheckError(
                ErrorKind.MISMATCH,
                f"term has type {ty}, expected {expected}",
                single,
            )
        return der

    def _infer_superposition(
        self, cd: Distribution, expected_core: Type | None
    ) -> tuple[Type, Derivation]:
        """A canonical proper distribution of values: the superposition rule.

        Closed, norm 1 within tolerance, summands pairwise orthogonal (free
        after canonicalization: distinct canonical values have inner product
        zero), no function type.  With an expected core each summand is checked
        against it, otherwise the summand types are joined.
        """
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
        children = []
        joined: Type | None = expected_core
        for _, t in cd.summands:
            sub = _Checker()
            ty, der = sub.infer_term(t)
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
                        ErrorKind.MISMATCH,
                        "superposed values have incompatible types",
                        cd,
                    )
        assert joined is not None
        if expected_core is None and isinstance(joined, Arrow):
            raise TypeCheckError(
                ErrorKind.SUP_AT_ARROW_TYPE,
                "a superposition cannot inhabit a function type",
                cd,
            )
        total = sum(abs(a) ** 2 for a, _ in cd.summands)
        if abs(total - 1.0) > get_tolerance():
            raise TypeCheckError(
                ErrorKind.NORM_VIOLATION,
                f"squared amplitudes sum to {total:.12g}, expected 1",
                cd,
            )
        ty = Sharp(ground_unknowns(joined))
        return ty, Derivation("superposition", cd, ty, tuple(children))

    def _infer_unapplied(self, cd: Distribution) -> tuple[Type, Derivation]:
        """A proper distribution of elimination forms, typed by re-aggregating
        the notation: the same operator applied across an argument
        distribution, the same tail after a head distribution, the same body
        over a scrutinee distribution.  This is exactly the shape reduction
        produces when it distributes an elimination over a superposition."""
        s = cd.summands
        terms = [t for _, t in s]
        if all(isinstance(t, App) for t in terms):
            f0 = terms[0].fun
            if all(alpha_eq(f0, t.fun) for t in terms[1:]):
                tf, df = self.infer_term(f0)
                if not isinstance(tf, Arrow):
                    raise TypeCheckError(
                        ErrorKind.MISMATCH,
                        f"operator has type {tf}, a function type is required",
                        cd,
                    )
                argd = Distribution(tuple((a, t.arg) for a, t in s))
                ta, da = self.infer_dist(argd)
                if not subtype(ta, tf.dom):
                    raise TypeCheckError(
                        ErrorKind.MISMATCH,
                        f"argument distribution has type {ta}, expected {tf.dom}",
                        cd,
                    )
                return tf.cod, Derivation("apply", cd, tf.cod, (df, da))
        elif all(isinstance(t, Seq) for t in terms):
            tail0 = terms[0].tail
            if all(dist_alpha_eq(tail0, t.tail) for t in terms[1:]):
                headd = Distribution(tuple((a, t.head) for a, t in s))
                th, dh = self.infer_dist(headd)
                m, core = peel_sharps(th)
                if not isinstance(core, Unit):
                    raise TypeCheckError(
                        ErrorKind.MISMATCH,
                        f"sequencing heads have type {th}, the unit type is required",
                        cd,
                    )
                tt, dt = self.infer_dist(tail0)
                ty = sharp_lift(tt) if m >= 1 else tt
                rule = "seq-super" if m >= 1 else "seq-pure"
                return ty, Derivation(rule, cd, ty, (dh, dt))
        elif all(isinstance(t, LetPair) for t in terms):
            x, y, body0 = terms[0].left, terms[0].right, terms[0].body
            if all(
                t.left == x and t.right == y and dist_alpha_eq(body0, t.body)
                for t in terms[1:]
            ):
                scrd = Distribution(tuple((a, t.scrutinee) for a, t in s))
                ts, ds = self.infer_dist(scrd)
                ty, children, rule = self._infer_let_parts(ts, x, y, body0, cd)
                return ty, Derivation(rule, cd, ty, (ds, *children))
        elif all(isinstance(t, Match) for t in terms):
            m0 = terms[0]
            if all(
                t.left_name == m0.left_name
                and t.right_name == m0.right_name
                and dist_alpha_eq(m0.left_body, t.left_body)
                and dist_alpha_eq(m0.right_body, t.right_body)
                for t in terms[1:]
            ):
                scrd = Distribution(tuple((a, t.scrutinee) for a, t in s))
                ts, ds = self.infer_dist(scrd)
                ty, children, rule = self._infer_match_parts(
                    ts, m0.left_name, m0.left_body, m0.right_name, m0.right_body, cd
                )
                return ty, Derivation(rule, cd, ty, (ds, *children))
        raise TypeCheckError(
            ErrorKind.MISMATCH,
            "a proper distribution must be a superposition of values or a single "
            "elimination distributed across its summands",
            cd,
        )

    # -- branch orthogonality ----------------------------------------------

    def _require_orthogonal(
        self,
        x1: str,
        t1: Type,
        b1: Distribution,
        x2: str,
        t2: Type,
        b2: Distribution,
        here: Location,
    ) -> None:
        shared_names = sorted(
            (free_vars_dist(b1) - {x1}) | (free_vars_dist(b2) - {x2})
        )
        shared: dict[str, Type] = {}
        for x in shared_names:
            stack = self.scopes.get(x)
            assert stack, f"branch variable {x} escaped typing"
            shared[x] = stack[-1].ty
        _decide_orthogonality(shared, (x1, t1), b1, (x2, t2), b2, here)


def _enumerate_values(ty: Type, cap: int = _INVENTORY_CAP) -> list[PureTerm] | None:
    """All ground values of an arrow-free type, None when not enumerable.

    The superposition modality does not change the inventory of basis values,
    so Sharp is transparent here.
    """
    match ty:
        case Unit() | Unknown():
            return [Void()]
        case Sharp(inner):
            return _enumerate_values(inner, cap)
        case Sum(l, r):
            lv = _enumerate_values(l, cap)
            rv = _enumerate_values(r, cap)
            if lv is None or rv is None or len(lv) + len(rv) > cap:
                return None
            return [InlV(v) for v in lv] + [InrV(v) for v in rv]
        case Prod(l, r):
            lv = _enumerate_values(l, cap)
            rv = _enumerate_values(r, cap)
            if lv is None or rv is None or len(lv) * len(rv) > cap:
                return None
            return [PairV(a, b) for a in lv for b in rv]
        case _:
            return None


def _decide_orthogonality(
    shared: dict[str, Type],
    binder1: tuple[str, Type],
    b1: Distribution,
    binder2: tuple[str, Type],
    b2: Distribution,
    here: Location,
) -> None:
    x1, t1 = binder1
    x2, t2 = binder2
    inventories: dict[str, list[PureTerm]] = {}
    enumerable = True
    for x, ty in shared.items():
        inv = _enumerate_values(ty)
        if inv is None:
            enumerable = False
            break
        inventories[x] = inv
    inv1 = _enumerate_values(t1) if enumerable else None
    inv2 = _enumerate_values(t2) if enumerable else None
    if enumerable and inv1 is not None and inv2 is not None:
        total = len(inv1) * len(inv2)
        for inv in inventories.values():
            total *= len(inv)
        if total <= _PAIR_CAP:
            _enumerated_orthogonality(
                inventories, x1, inv1, b1, x2, inv2, b2, here
            )
            return
    if (
        is_value_distribution(b1)
        and is_value_distribution(b2)
        and _structurally_disjoint(
            [t for _, t in b1.summands], [t for _, t in b2.summands]
        )
    ):
        return
    raise TypeCheckError(
        ErrorKind.ORTHOGONALITY_UNDECIDED,
        "cannot decide that the branches are orthogonal: they are not value "
        "distributions with disjoint constructors, and their free variables "
        "do not all have finitely enumerable types within budget",
        here,
    )


def _enumerated_orthogonality(
    inventories: dict[str, list[PureTerm]],
    x1: str,
    inv1: list[PureTerm],
    b1: Distribution,
    x2: str,
    inv2: list[PureTerm],
    b2: Distribution,
    here: Location,
) -> None:
    names = sorted(inventories)
    for combo in itertools.product(*(inventories[x] for x in names)):
        base = dict(zip(names, combo))
        firsts = [
            (w1, _ground_branch(b1, {**base, x1: w1}, here)) for w1 in inv1
        ]
        for w2 in inv2:
            right = _ground_branch(b2, {**base, x2: w2}, here)
            for w1, left in firsts:
                if not orthogonal(left, right):
                    witness = ", ".join(
                        f"{x} := {show_term(v)}" for x, v in base.items()
                    )
                    witness = witness or "the empty substitution"
                    raise TypeCheckError(
                        ErrorKind.ORTHOGONALITY_FAILURE,
                        f"branches are not orthogonal under {witness} "
                        f"(binders {show_term(w1)} / {show_term(w2)})",
                        here,
                    )


def _ground_branch(
    b: Distribution, assignment: dict[str, PureTerm], here: Location
) -> Distribution:
    inst = substitute_many_dist(b, assignment)
    try:
        nf = normalize(inst, max_steps=_INSTANCE_STEPS)
    except (StuckError, StepLimitExceeded) as e:
        raise TypeCheckError(
            ErrorKind.ORTHOGONALITY_UNDECIDED,
            f"an instantiated branch did not reduce to values ({e})",
            here,
        )
    if not is_value_distribution(nf):
        raise TypeCheckError(
            ErrorKind.ORTHOGONALITY_UNDECIDED,
            "an instantiated branch did not reduce to values",
            here,
        )
    return nf


def _structurally_disjoint(v1: list[PureTerm], v2: list[PureTerm]) -> bool:
    """A rigid position where one side is all inl and the other all inr."""
    if all(isinstance(t, InlV) for t in v1) and all(isinstance(t, InrV) for t in v2):
        return True
    if all(isinstance(t, InrV) for t in v1) and all(isinstance(t, InlV) for t in v2):
        return True
    if all(isinstance(t, InlV) for t in v1) and all(isinstance(t, InlV) for t in v2):
        return _structurally_disjoint([t.value for t in v1], [t.value for t in v2])
    if all(isinstance(t, InrV) for t in v1) and all(isinstance(t, InrV) for t in v2):
        return _structurally_disjoint([t.value for t in v1], [t.value for t in v2])
    if all(isinstance(t, PairV) for t in v1) and all(isinstance(t, PairV) for t in v2):
        return _structurally_disjoint(
            [t.first for t in v1], [t.first for t in v2]
        ) or _structurally_disjoint(
            [t.second for t in v1], [t.second for t in v2]
        )
    return False


# ---------------------------------------------------------------------------
# public interface

def check_pure(ctx: TypingContext, t: PureTerm) -> Type:
    """Infer the type of a pure term under a context.  Non-flat context
    variables must be consumed exactly once."""
    c = _Checker()
    for x, ty in ctx.items():
        c._bind(x, ty)
    ty, _ = c.infer_term(t)
    for x in reversed(list(ctx)):
        c._unbind(x, "the top-level context")
    return ground_unknowns(ty)


def check_distribution(ctx: TypingContext, d: Distribution, expected: Type) -> bool:
    """True when d checks against expected under ctx; raises otherwise."""
    c = _Checker()
    for x, ty in ctx.items():
        c._bind(x, ty)
    c.check_dist(d, expected)
    for x in reversed(list(ctx)):
        c._unbind(x, "the top-level context")
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
    x1, t1 = binder1
    x2, t2 = binder2
    for name, ty, branch in ((x1, t1, v1), (x2, t2, v2)):
        c = _Checker()
        for x, sty in ctx_shared.items():
            c._bind(x, sty)
        c._bind(name, ty)
        c.check_dist(branch, result)
        c._unbind(name, "the orthogonality judgment")
    grounded = {x: ground_unknowns(ty) for x, ty in ctx_shared.items()}
    _decide_orthogonality(
        grounded,
        (x1, ground_unknowns(t1)),
        v1,
        (x2, ground_unknowns(t2)),
        v2,
        "the orthogonality judgment",
    )
    return True


def check_program(d: Distribution) -> tuple[Type, Derivation]:
    """Type a closed program, returning its minimal type and the derivation."""
    c = _Checker()
    ty, der = c.infer_dist(d)
    return ground_unknowns(ty), der


def type_of_program(d: Distribution) -> Type:
    return check_program(d)[0]
