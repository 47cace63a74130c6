"""Types: unit, the superposition modality, sums, products, arrows.

The modality Sharp marks types whose inhabitants may be proper superpositions.
Flat types (no Sharp outside arrow codomains) admit free duplication and
discarding; everything else is treated linearly by the checker.

This module also holds the intern table, the one table of hash-consed nodes:
every type, and every ground value (`syntax._interned`), is the one live
object per distinct value, and the table holds its nodes weakly.  Interned
nodes are compared and hashed by identity: two of them are equal only when
they are the same object.  Every construction of a type goes through
`_type_node`, so types are `eq=False` dataclasses, and `subtype` and
`join_types` keep a memo (`_MEMO` entries each) that hashes a type in O(1).

`_type_node` also sets three data on each new node, each from its parts' in
O(1): its structural key (`type_key`), whether it is flat (`is_flat`) and
its form with every placeholder grounded to Unit (`ground_unknowns`).
Reading them walks nothing, so a type's depth costs no Python frames there.

Both printers, the types' here and the terms' in `syntax`, run on one loop,
`emit`, over an explicit stack.  Joins, meets and unifiers here, and the
term and type walkers of `syntax`, `typecheck` and `rewrite`, run on
another, `walk`, which builds each result from its children's.  `subtype`
keeps the pairs it has still to decide on a stack of its own.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
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
    too.

    `_key`, `_flat` and `_grounded` are set with the node; `_grounded` is
    None when the type has no placeholder, as it would refer to the node
    itself.  They take no part in construction, `repr` or `match`
    patterns."""
    # the intern table refers to types weakly
    __slots__ = ("__weakref__", "_key", "_flat", "_grounded")

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
        set_ = object.__setattr__
        for name, p in zip(cls.__match_args__, parts):
            set_(node, name, p)
        set_(node, "_key", (_TAGS[cls], *(p._key for p in parts)))
        if cls is Sharp:
            flat = False
        elif cls is Arrow:
            flat = parts[0]._flat
        else:
            flat = all(p._flat for p in parts)
        set_(node, "_flat", flat)
        if cls is Unknown:
            grounded = UNIT
        elif any(p._grounded for p in parts):
            grounded = cls(*(p._grounded or p for p in parts))
        else:
            grounded = None
        set_(node, "_grounded", grounded)
        _enter(probe, node)
    return node


# the head of each type's structural key
_TAGS = {Unit: "U", Unknown: "?", Sharp: "#", Sum: "+", Prod: "x", Arrow: ">"}


UNIT = Unit()
BOOL = Sum(UNIT, UNIT)


# the widest register the front end compiles, and so the most basis values,
# 2^12, the checker enumerates for one type or one `match`
_MAX_REGISTER = 12


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
    return a._flat


def peel_sharps(a: Type) -> tuple[int, Type]:
    """Split a into (m, core) with a = Sharp^m core and core not Sharp-headed."""
    m = 0
    while isinstance(a, Sharp):
        a = a.inner
        m += 1
    return m, a


# entries in each of the `subtype` and `join_types` memos, where the least
# recently used entry goes first; so a memo keeps at most this many calls'
# types alive
_MEMO = 1024


@lru_cache(maxsize=_MEMO)
def subtype(a: Type, b: Type) -> bool:
    """Decide a <= b.

    After peeling a = Sharp^m c and b = Sharp^n d (c, d not Sharp-headed):
    with m = 0 the question reduces to the structural order on c and d, since
    any c <= d embeds under n Sharps through c <= Sharp c.  With m >= 1 there
    is no congruence under Sharp, so b must also be Sharp-headed over a core
    that unifies with c: the same core, up to placeholders.  A type is below
    itself with its placeholders grounded, since a placeholder is below
    anything; types are interned, so that case costs no walk.

    The structural order is covariant in both components of sums and
    products and in arrow codomains, and contravariant in arrow domains.
    a <= b is the conjunction of the pairs of components it leads to, kept
    on one stack and decided left components and domains first, so a deep
    type on either side costs no Python frames.  A pair met twice is decided
    once, so shared parts cost their distinct pairs, not their paths.
    """
    pending = [(a, b)]
    seen = set()
    while pending:
        pair = pending.pop()
        if pair in seen:
            continue
        seen.add(pair)
        a, b = pair
        if isinstance(a, Unknown) or isinstance(b, Unknown) or ground_unknowns(a) is b:
            continue
        m, c = peel_sharps(a)
        n, d = peel_sharps(b)
        if m:
            if n >= 1 and _unify(c, d) is not None:
                continue
            return False
        if isinstance(d, Unknown):
            continue
        cls = c.__class__
        if cls is not d.__class__:
            return False
        if cls is Arrow:
            pending += (c.cod, d.cod), (d.dom, c.dom)
        elif cls is not Unit:
            pending += (c.right, d.right), (c.left, d.left)
    return True


def ground_unknowns(a: Type) -> Type:
    """Replace every inference placeholder with Unit."""
    return a._grounded or a


def sharp_lift(a: Type) -> Type:
    """Wrap in Sharp unless already Sharp-headed."""
    return a if isinstance(a, Sharp) else Sharp(a)


def type_key(a: Type) -> tuple:
    """Orderable structural key, used to sort terms that carry annotations."""
    return a._key


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
    """The candidate join of a and b, which `join_types` verifies."""
    return walk((_JOIN, a, b), _pair_parts, _paired)


def _unify(a: Type, b: Type) -> Type | None:
    """Syntactic unification where Unknown is the only variable."""
    return walk((_UNIFY, a, b), _pair_parts, _paired)


# what a `_pair_parts` item asks of its two types
_JOIN, _MEET, _UNIFY = "join", "meet", "unify"


def _pair_parts(item: tuple) -> Type | None | list:
    """For `walk`: the join, meet or unifier of an (op, a, b) item when it is
    done at once, or else the items of its parts.  Types are interned, so a
    type is its own join, meet and unifier.  A placeholder gives way to
    anything.  A meet is one of the two, by `subtype`.  Under Sharp there is
    no congruence, so a join of two Sharp-headed types unifies their cores,
    and one of a bare type and a Sharp-headed one is the Sharp side when the
    bare core fits under it as it is.  Otherwise both have one constructor,
    and its parts pair up; a join meets arrow domains."""
    op, a, b = item
    if a is b or b.__class__ is Unknown:
        return a
    if a.__class__ is Unknown:
        return b
    if op is _MEET:
        return a if subtype(a, b) else b if subtype(b, a) else None
    if op is _JOIN:
        ma, ca = peel_sharps(a)
        mb, cb = peel_sharps(b)
        if ma and mb:
            return [(_UNIFY, ca, cb)]
        if mb:  # name the Sharp-headed side's count and core ma and ca
            ma, ca, cb = mb, cb, ca
        if ma:
            return _wrap(ca, ma) if subtype(cb, ca) else None
    cls = a.__class__
    if cls is not b.__class__:
        return None
    parts = [(op, getattr(a, f), getattr(b, f)) for f in cls.__match_args__]
    if op is _JOIN and cls is Arrow:
        parts[0] = (_MEET, a.dom, b.dom)
    return parts


def _paired(item: tuple, parts: list) -> Type | None:
    """For `walk`: an item's type, from the results of its parts."""
    op, a, b = item
    if None in parts:
        return None
    if op is _JOIN and a.__class__ is Sharp:
        return _wrap(parts[0], max(peel_sharps(a)[0], peel_sharps(b)[0]))
    return a.__class__(*parts)


def _wrap(core: Type, m: int) -> Type:
    for _ in range(m):
        core = Sharp(core)
    return core


def walk(root: object, expand: Callable[[object], object],
         build: Callable[[object, list], object]) -> object:
    """The result of root, children first.  expand(item) gives the item's
    result when it is done at once (a leaf, or a node whose result is
    cached), or else a new list of its child items; build(item, results)
    makes its result from theirs, in the order of that list, which the loop
    fills in place.  No result is a list.  One loop keeps each unfinished
    item on an explicit stack, so depth costs heap, not Python frames.  A
    child is expanded only after its elder siblings are built, so a node
    that occurs twice finds its cached result the second time.

    Free variables, alpha-keys and substitution (`syntax`), inventories
    (`typecheck`), read-back (`rewrite`), and joins and unifiers here are
    each an expand and a build over it.  The checker's rules do not use
    it: they must run code between premises, which a build cannot."""
    todo = expand(root)
    if todo.__class__ is not list:
        return todo
    unfinished = []
    item, i, n = root, 0, len(todo)
    while True:
        # todo[:i] holds the results of its first i items
        while i < n:
            child = todo[i]
            sub = expand(child)
            if sub.__class__ is list:
                unfinished.append((item, todo, i))
                item, todo, i, n = child, sub, 0, len(sub)
            else:
                todo[i] = sub
                i += 1
        result = build(item, todo)
        if not unfinished:
            return result
        item, todo, i = unfinished.pop()
        todo[i] = result
        i += 1
        n = len(todo)


# printing: '->' loosest (right assoc), then '+', then '*', '#' tightest
_ARROW, _SUM, _PROD, _ATOM = 0, 1, 2, 3


def emit(root: tuple, parts: Callable[[object, int], str | Sequence]) -> str:
    """The text of root, a (node, level) item.  parts(node, level) gives a
    node's text: a string, or its pieces in reading order, strings and
    (node, level) items.  One loop writes the strings and expands the items,
    keeping the pieces of each unfinished node on an explicit stack, so a
    node's depth costs heap, not Python frames."""
    out: list[str] = []
    write = out.append
    unfinished = []
    pieces = iter((root,))
    while True:
        for piece in pieces:
            if piece.__class__ is not str:
                piece = parts(*piece)
                if piece.__class__ is not str:
                    unfinished.append(pieces)
                    pieces = iter(piece)
                    break
            write(piece)
        else:
            if not unfinished:
                return "".join(out)
            pieces = unfinished.pop()


def show_type(a: Type) -> str:
    return emit((a, _ARROW), _type_parts)


def _type_parts(a: Type, level: int) -> str | tuple:
    """The text of a at level, for `emit`, by its exact class."""
    cls = a.__class__
    if cls is Unit or cls is Unknown:
        return "U"  # grounded rendering; placeholders never survive inference
    if cls is Sharp:
        return "#", (a.inner, _ATOM)
    if cls is Sum:
        s = (a.left, _SUM + 1), "+", (a.right, _SUM)
        return ("(", *s, ")") if level > _SUM else s
    if cls is Prod:
        s = (a.left, _PROD + 1), "*", (a.right, _PROD)
        return ("(", *s, ")") if level > _PROD else s
    if cls is Arrow:
        s = (a.dom, _ARROW + 1), " -> ", (a.cod, _ARROW)
        return ("(", *s, ")") if level > _ARROW else s
    raise TypeError(f"not a type: {a!r}")
