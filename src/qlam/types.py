"""Types: unit, the superposition modality, sums, products, arrows.

The modality Sharp marks types whose inhabitants may be proper superpositions.
Flat types (no Sharp outside arrow codomains) admit free duplication and
discarding; everything else is treated linearly by the checker.

This module also holds the intern table, the one table of hash-consed nodes:
every type, and every ground value (`syntax._interned`), is the one live
object per distinct value, and the table holds its nodes weakly.  Interned
nodes are compared and hashed by identity: two of them are equal only when
they are the same object.  Every construction of a type goes through
`_type_node`, so types are `eq=False` dataclasses, and `subtype`,
`join_types` and `ground_unknowns` keep a memo (`_MEMO` entries each) that
hashes a type in O(1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from weakref import ref


class _Entry(ref):
    """A weak reference to an interned node that knows its probe."""
    __slots__ = ("probe",)


# The one live node per distinct type or ground value, by weak reference: an
# entry goes when the last other reference to its node does.  A probe is the
# node's class and weak references to its parts, which hash and compare as the
# interned parts do: a strong one would keep a part alive past the collection
# that frees its dead parent, one collection per level.
_INTERNED: dict[tuple, _Entry] = {}


def _forget(entry: _Entry, table: dict = _INTERNED) -> None:
    # a dead node's entry, unless a new node for the same value replaced it;
    # the table is bound here because module globals may be gone at exit
    if table.get(entry.probe) is entry:
        del table[entry.probe]


def _enter(probe: tuple, node: object) -> object:
    """Make node the live node of probe, which has none, and return it."""
    entry = _INTERNED[probe] = _Entry(node, _forget)
    entry.probe = probe
    return node


class Type:
    """A type node.  Nodes are made by `__new__`, not by a dataclass
    `__init__`, which would run again on a node `__new__` returns from the
    intern table; `__reduce__` makes copies and pickles go through `__new__`
    too."""
    # the intern table refers to types weakly
    __slots__ = ("__weakref__",)

    def __str__(self) -> str:
        return show_type(self)

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)


@dataclass(frozen=True, slots=True, init=False, eq=False)
class Unit(Type):
    def __new__(cls) -> "Unit":
        return _type_node(cls, ())


@dataclass(frozen=True, slots=True, init=False, eq=False)
class Sharp(Type):
    inner: Type

    def __new__(cls, inner: Type) -> "Sharp":
        return _type_node(cls, (inner,))


@dataclass(frozen=True, slots=True, init=False, eq=False)
class Sum(Type):
    left: Type
    right: Type

    def __new__(cls, left: Type, right: Type) -> "Sum":
        return _type_node(cls, (left, right))


@dataclass(frozen=True, slots=True, init=False, eq=False)
class Prod(Type):
    left: Type
    right: Type

    def __new__(cls, left: Type, right: Type) -> "Prod":
        return _type_node(cls, (left, right))


@dataclass(frozen=True, slots=True, init=False, eq=False)
class Arrow(Type):
    dom: Type
    cod: Type

    def __new__(cls, dom: Type, cod: Type) -> "Arrow":
        return _type_node(cls, (dom, cod))


@dataclass(frozen=True, slots=True, init=False, eq=False)
class Unknown(Type):
    """Inference placeholder for a component no rule determines (the unused side
    of an injection).  Matches anything in subtype tests, merges away in joins,
    and is grounded to Unit at binding sites and at the end of inference.  Never
    appears in a type the surface syntax can write."""

    def __new__(cls) -> "Unknown":
        return _type_node(cls, ())


def _type_node(cls: type, parts: tuple[Type, ...]) -> Type:
    probe = (cls, *map(ref, parts))
    entry = _INTERNED.get(probe)
    node = None if entry is None else entry()
    if node is None:
        node = object.__new__(cls)
        for name, p in zip(cls.__match_args__, parts):
            object.__setattr__(node, name, p)
        _enter(probe, node)
    return node


UNIT = Unit()
BOOL = Sum(UNIT, UNIT)


def qubits(n: int) -> Type:
    """The type of n-qubit states: Sharp of a right-nested product of booleans."""
    if n < 1:
        raise ValueError(f"qubit register needs at least 1 qubit, got {n}")
    t: Type = BOOL
    for _ in range(n - 1):
        t = Prod(BOOL, t)
    return Sharp(t)


def is_flat(a: Type) -> bool:
    """True when a value of this type may be duplicated and discarded freely.

    A type is flat when it contains no Sharp, except that anything goes to the
    right of an arrow.
    """
    match a:
        case Sharp(_):
            return False
        case Sum(l, r) | Prod(l, r):
            return is_flat(l) and is_flat(r)
        case Arrow(dom, _):
            return is_flat(dom)
        case _:
            return True


def peel_sharps(a: Type) -> tuple[int, Type]:
    """Split a into (m, core) with a = Sharp^m core and core not Sharp-headed."""
    m = 0
    while isinstance(a, Sharp):
        a = a.inner
        m += 1
    return m, a


# entries in each of the `subtype` and `join_types` memos; the least recently
# used entry goes first, so a memo keeps at most this many calls' types alive
_MEMO = 1024


@lru_cache(maxsize=_MEMO)
def subtype(a: Type, b: Type) -> bool:
    """Decide a <= b.

    After peeling a = Sharp^m c and b = Sharp^n d (c, d not Sharp-headed):
    with m = 0 the question reduces to the structural order on c and d, since
    any c <= d embeds under n Sharps through c <= Sharp c.  With m >= 1 there
    is no congruence under Sharp, so b must also be Sharp-headed over a core
    that unifies with c: the same core, up to placeholders.
    """
    if isinstance(a, Unknown) or isinstance(b, Unknown):
        return True
    m, c = peel_sharps(a)
    n, d = peel_sharps(b)
    if m == 0:
        return _structural(c, d)
    return n >= 1 and _unify(c, d) is not None


def _structural(c: Type, d: Type) -> bool:
    match c, d:
        case Unit(), Unit():
            return True
        case Sum(l1, r1), Sum(l2, r2):
            return subtype(l1, l2) and subtype(r1, r2)
        case Prod(l1, r1), Prod(l2, r2):
            return subtype(l1, l2) and subtype(r1, r2)
        case Arrow(d1, c1), Arrow(d2, c2):
            return subtype(d2, d1) and subtype(c1, c2)
        case (Unknown(), _) | (_, Unknown()):
            return True
        case _:
            return False


@lru_cache(maxsize=_MEMO)
def ground_unknowns(a: Type) -> Type:
    """Replace every inference placeholder with Unit.

    The result is kept per interned type, in a memo of `_MEMO` entries.  The
    type is rebuilt from the leaves up over an explicit stack, so its depth
    is not bounded by the interpreter's recursion limit, and a part with no
    placeholder is its own result."""
    done: dict[Type, Type] = {}
    stack = [a]
    while stack:
        t = stack[-1]
        parts = [getattr(t, f) for f in t.__match_args__]
        todo = [p for p in parts if p not in done]
        if todo:
            stack += todo
            continue
        stack.pop()
        grounded = [done[p] for p in parts]
        if isinstance(t, Unknown):
            done[t] = UNIT
        elif all(g is p for g, p in zip(grounded, parts)):
            done[t] = t
        else:
            done[t] = type(t)(*grounded)
    return done[a]


def sharp_lift(a: Type) -> Type:
    """Wrap in Sharp unless already Sharp-headed."""
    return a if isinstance(a, Sharp) else Sharp(a)


def type_key(a: Type) -> tuple:
    """Orderable structural key, used to sort terms that carry annotations."""
    match a:
        case Unit():
            return ("U",)
        case Unknown():
            return ("?",)
        case Sharp(inner):
            return ("#", type_key(inner))
        case Sum(l, r):
            return ("+", type_key(l), type_key(r))
        case Prod(l, r):
            return ("x", type_key(l), type_key(r))
        case Arrow(d, c):
            return (">", type_key(d), type_key(c))
        case _:
            raise TypeError(f"not a type: {a!r}")


@lru_cache(maxsize=_MEMO)
def join_types(a: Type, b: Type) -> Type | None:
    """A common supertype of a and b, or None.

    Not a completeness claim: this computes the obvious candidate, then
    verifies it really is an upper bound, so a successful join is always
    sound.  Unknown placeholders unify with anything.
    """
    j = _join(a, b)
    if j is None:
        return None
    if not (subtype(a, j) and subtype(b, j)):
        return None
    return j


def _join(a: Type, b: Type) -> Type | None:
    if isinstance(a, Unknown):
        return b
    if isinstance(b, Unknown):
        return a
    if a == b:
        return a
    ma, ca = peel_sharps(a)
    mb, cb = peel_sharps(b)
    if ma >= 1 and mb >= 1:
        # no congruence under Sharp, so the cores must unify exactly
        u = _unify(ca, cb)
        return None if u is None else _wrap(u, max(ma, mb))
    if ma == 0 and mb == 0:
        return _join_structural(ca, cb)
    # one side bare, one side Sharp-headed: the bare core must fit under the
    # Sharp side as-is
    if ma == 0:
        return Sharp(_wrap(cb, mb - 1)) if subtype(ca, cb) else None
    return Sharp(_wrap(ca, ma - 1)) if subtype(cb, ca) else None


def _wrap(core: Type, m: int) -> Type:
    for _ in range(m):
        core = Sharp(core)
    return core


def _join_structural(c: Type, d: Type) -> Type | None:
    match c, d:
        case Unit(), Unit():
            return UNIT
        case Sum(l1, r1), Sum(l2, r2):
            l = _join(l1, l2)
            r = _join(r1, r2)
            return None if l is None or r is None else Sum(l, r)
        case Prod(l1, r1), Prod(l2, r2):
            l = _join(l1, l2)
            r = _join(r1, r2)
            return None if l is None or r is None else Prod(l, r)
        case Arrow(d1, c1), Arrow(d2, c2):
            dom = _meet(d1, d2)
            cod = _join(c1, c2)
            return None if dom is None or cod is None else Arrow(dom, cod)
        case _:
            return None


def _meet(a: Type, b: Type) -> Type | None:
    if isinstance(a, Unknown):
        return b
    if isinstance(b, Unknown):
        return a
    if subtype(a, b):
        return a
    if subtype(b, a):
        return b
    return None


def _unify(a: Type, b: Type) -> Type | None:
    """Syntactic unification where Unknown is the only variable.  Types are
    interned, so a type unifies with itself as itself."""
    if a is b:
        return a
    if isinstance(a, Unknown):
        return b
    if isinstance(b, Unknown):
        return a
    match a, b:
        case Unit(), Unit():
            return UNIT
        case Sharp(x), Sharp(y):
            u = _unify(x, y)
            return None if u is None else Sharp(u)
        case Sum(l1, r1), Sum(l2, r2):
            l = _unify(l1, l2)
            r = _unify(r1, r2)
            return None if l is None or r is None else Sum(l, r)
        case Prod(l1, r1), Prod(l2, r2):
            l = _unify(l1, l2)
            r = _unify(r1, r2)
            return None if l is None or r is None else Prod(l, r)
        case Arrow(d1, c1), Arrow(d2, c2):
            d = _unify(d1, d2)
            c = _unify(c1, c2)
            return None if d is None or c is None else Arrow(d, c)
        case _:
            return None


# printing: '->' loosest (right assoc), then '+', then '*', '#' tightest
_ARROW, _SUM, _PROD, _ATOM = 0, 1, 2, 3


def show_type(a: Type) -> str:
    return _show(a, _ARROW)


def _show(a: Type, level: int) -> str:
    match a:
        case Unit():
            return "U"
        case Unknown():
            return "U"  # grounded rendering; placeholders never survive inference
        case Sharp(inner):
            return "#" + _show(inner, _ATOM)
        case Sum(l, r):
            s = f"{_show(l, _SUM + 1)}+{_show(r, _SUM)}"
            return f"({s})" if level > _SUM else s
        case Prod(l, r):
            s = f"{_show(l, _PROD + 1)}*{_show(r, _PROD)}"
            return f"({s})" if level > _PROD else s
        case Arrow(d, c):
            s = f"{_show(d, _ARROW + 1)} -> {_show(c, _ARROW)}"
            return f"({s})" if level > _ARROW else s
        case _:
            raise TypeError(f"not a type: {a!r}")
