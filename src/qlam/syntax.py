"""Pure terms and term distributions.

Terms come in two layers.  Pure values are variables, annotated abstractions,
the unit value, pairs of values, and injections of values.  Pure terms add
application, sequencing, pair destructuring and case analysis.  A distribution
is a non-empty formal complex-linear combination of pure terms; distributions
are what reduction and typing operate on.  A zero coefficient is data, not
nothing: 1·inl⋆ + 0·inr⋆ and inl⋆ are distinct distributions.

Distributions are compared up to a congruence generated by commutativity,
associativity, coefficient merging and scaling.  `canonicalize` picks the
representative (alpha-equivalent summands merged by coefficient addition,
summands sorted by a fixed structural order; a one-summand distribution is
its own representative) and `congruent` compares two distributions through
it.  Distributions nested inside terms (bodies, tails, branches) are plain
syntax and are compared only up to alpha-equivalence in the given summand
order.

The structural order is defined by `compare`, its only implementation: it
walks two terms or distributions side by side on an explicit stack and
returns at their first difference, so ordering, merging and alpha-equality
build no key and cost no Python frame per layer.  Where a value must be
hashed, in the inner product's `keyed` form, a ground value is hashed by its
node's identity and any other value by what alpha-renaming keeps, with
`compare` telling apart the values that share a hash.

The term structure is described once, in `_FORMS`: for each compound form,
its tag in the structural order, its subterm fields in order, the binder
names in scope over each, and an elimination's hole.  Free variables,
substitution and comparison here, and the checker's shared-context test, are
loops over that table rather than one case per form.

Free variables and substitution each run on `types.walk`, the one
children-first loop over an explicit stack, as a pair of functions: one
that gives an item's result at once (a variable, the unit value, a node
whose `_fv` is set, a subterm in which no substituted name is free) or else
lists its subterms, and one that builds the item's result from theirs, in
field order.  A term's depth costs heap, not Python frames.  A substitution
that must rename a binder renames the subterm under it first, in a walk of
its own.

Every compound node and every distribution caches its free-variable set in a
`_fv` field, computed on first use.  Substitution uses it to hand back
untouched every subterm in which no substituted name is free.

Ground values are hash-consed.  A ground value is the unit value, or a pair
or injection built only from ground values: it has no variable and no
abstraction, so it is closed and means the same thing wherever it occurs.
`Void()` is the one unit value, and a `PairV`, `InlV` or `InrV` made of
ground values comes from `_interned`, which hands back the one live object
per distinct ground value from the intern table in `types`, the same table
that holds the types.  Every path that builds one (the parser, the `mk_*`
constructors, substitution, `encode`) therefore shares it, and a ground value
is compared and hashed by identity: it is the only object equal to itself.
A value node with a variable or an abstraction inside is not interned and
keeps the structural dataclass `==` and hash.  An interned node carries its
empty free-variable set and its key, (its tag, *its children's keys), built
in O(1) from its children's.  So two ground values are alpha-equivalent only
when they are one object, and two distinct ones are ordered by comparing
their keys in C, or by `compare`'s walk once they nest too deep for that.
The checker keeps a ground value's type and derivation on the node
(`_typing`), and the printer its text (`_text`), which is the same at every
print level.  The text is kept the first time the value is printed, not
when it is interned, where a deep value would cost time quadratic in its
depth.  Each cached datum is a function of the value alone, so what ran
earlier in the process cannot show.  The cache fields take no part in
construction, equality, `repr` or `match` patterns.
"""

from __future__ import annotations

import cmath
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from functools import cmp_to_key
from itertools import repeat
from operator import itemgetter
from typing import NamedTuple
from weakref import ref

from .config import get_tolerance
from .types import _INTERNED, _TAGS as _TYPE_TAGS, Type, _enter, _type_parts, emit, walk


def _cache():
    """A field for data derived from the node, None until it is computed
    (`_fv` by `free_vars`, `_text` by printing, a distribution's `_ordered`
    by `canonicalize`) or set when an interned node is made.  It takes no
    part in construction, equality, `repr` or `match` patterns."""
    return field(init=False, default=None, compare=False, repr=False)


class PureTerm:
    __slots__ = ()
    # a ground value's key, which `compare` orders ground values by, kept on
    # the node (see `_interned`); no other term has one
    _term_key = None

    def __str__(self) -> str:
        return show_term(self)


@dataclass(frozen=True, slots=True)
class Var(PureTerm):
    name: str


@dataclass(frozen=True, slots=True)
class Lam(PureTerm):
    name: str
    ann: Type
    body: "Distribution"
    _fv: frozenset[str] | None = _cache()


class _ValueNode(PureTerm):
    """The unit value, pairs and injections: nodes the intern table refers
    to weakly.

    They are made by `__new__`, not by a dataclass `__init__`: one that
    `__new__` returns from the table would be initialized again, which
    would reset its cache fields.  `__reduce__` makes copies and pickles go
    through `__new__`.  Pairs and injections set `__hash__` themselves,
    because the dataclass decorator replaces an inherited one; the unit
    value, always interned, keeps the object's own `==` and hash."""
    __slots__ = ("__weakref__",)

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)


def _node_hash(self) -> int:
    # an interned node is the only object equal to itself
    if self._term_key is not None:
        return object.__hash__(self)
    return hash(tuple(getattr(self, f) for f in self.__match_args__))


@dataclass(frozen=True, slots=True, init=False, eq=False)
class Void(_ValueNode):
    """The unit value, written ⋆ (surface syntax: `*`)."""
    _term_key: tuple | None = _cache()
    _typing: tuple | None = _cache()
    _text: str | None = _cache()

    def __new__(cls) -> "Void":
        return _VOID


@dataclass(frozen=True, slots=True, init=False)
class PairV(_ValueNode):
    first: PureTerm
    second: PureTerm
    _fv: frozenset[str] | None = _cache()
    _term_key: tuple | None = _cache()
    _typing: tuple | None = _cache()
    _text: str | None = _cache()

    def __new__(cls, first: PureTerm, second: PureTerm) -> "PairV":
        if (getattr(first, "_term_key", None) is not None
                and getattr(second, "_term_key", None) is not None):
            return _interned(cls, first, second)
        if not (is_value(first) and is_value(second)):
            raise ValueError("pair components must be pure values")
        return _new_node(cls, (first, second), None)

    __hash__ = _node_hash


@dataclass(frozen=True, slots=True, init=False)
class InlV(_ValueNode):
    value: PureTerm
    _fv: frozenset[str] | None = _cache()
    _term_key: tuple | None = _cache()
    _typing: tuple | None = _cache()
    _text: str | None = _cache()

    def __new__(cls, value: PureTerm) -> "InlV":
        if getattr(value, "_term_key", None) is not None:
            return _interned(cls, value)
        if not is_value(value):
            raise ValueError("injection argument must be a pure value")
        return _new_node(cls, (value,), None)

    __hash__ = _node_hash


@dataclass(frozen=True, slots=True, init=False)
class InrV(_ValueNode):
    value: PureTerm
    _fv: frozenset[str] | None = _cache()
    _term_key: tuple | None = _cache()
    _typing: tuple | None = _cache()
    _text: str | None = _cache()

    def __new__(cls, value: PureTerm) -> "InrV":
        if getattr(value, "_term_key", None) is not None:
            return _interned(cls, value)
        if not is_value(value):
            raise ValueError("injection argument must be a pure value")
        return _new_node(cls, (value,), None)

    __hash__ = _node_hash


def _interned(cls: type, first: PureTerm, second: PureTerm | None = None) -> PureTerm:
    """The one node cls(first) or cls(first, second) of a ground value, whose
    children are ground values.  Its key is (its tag, *the children's keys),
    which `compare` reads, built in O(1)."""
    if second is None:
        probe = (cls, ref(first))
    else:
        probe = (cls, ref(first), ref(second))
    entry = _INTERNED.get(probe)
    node = None if entry is None else entry()
    if node is None:
        tag = _FORMS[cls].tag
        if second is None:
            children, key = (first,), (tag, first._term_key)
        else:
            children, key = (first, second), (tag, first._term_key, second._term_key)
        node = _enter(probe, _new_node(cls, children, key))
    return node


def _new_node(cls: type, children: tuple[PureTerm, ...], key: tuple | None) -> PureTerm:
    node = object.__new__(cls)
    set_ = object.__setattr__
    for name, c in zip(cls.__match_args__, children):
        set_(node, name, c)
    if cls is not Void:
        set_(node, "_fv", None if key is None else _CLOSED)
    set_(node, "_term_key", key)
    set_(node, "_typing", None)
    set_(node, "_text", None)
    return node


# the unit value, which every ground value ends in
_VOID = _new_node(Void, (), ("void",))
object.__setattr__(_VOID, "_text", "*")


def is_ground(t: PureTerm) -> bool:
    """Whether t is a ground value: no variable, no abstraction."""
    return t._term_key is not None


@dataclass(frozen=True, slots=True)
class App(PureTerm):
    fun: PureTerm
    arg: PureTerm
    _fv: frozenset[str] | None = _cache()


@dataclass(frozen=True, slots=True)
class Seq(PureTerm):
    head: PureTerm
    tail: "Distribution"
    _fv: frozenset[str] | None = _cache()


@dataclass(frozen=True, slots=True)
class LetPair(PureTerm):
    left: str
    right: str
    scrutinee: PureTerm
    body: "Distribution"
    _fv: frozenset[str] | None = _cache()

    def __post_init__(self) -> None:
        if self.left == self.right:
            raise ValueError("pair destructuring needs two distinct names")


@dataclass(frozen=True, slots=True)
class Match(PureTerm):
    scrutinee: PureTerm
    left_name: str
    left_body: "Distribution"
    right_name: str
    right_body: "Distribution"
    _fv: frozenset[str] | None = _cache()


class _Form(NamedTuple):
    """How a compound term form is built: its tag in the structural order,
    its subterm fields in order, each with the binder-name fields in scope
    over it, and for an elimination the field of its hole."""
    tag: str
    parts: tuple[tuple[str, tuple[str, ...]], ...]
    hole: str | None = None


# the term structure, stated once; the walkers over it treat only variables,
# the unit value and a lambda's annotation apart
_FORMS: dict[type, _Form] = {
    Lam: _Form("lam", (("body", ("name",)),)),
    PairV: _Form("pair", (("first", ()), ("second", ()))),
    InlV: _Form("inl", (("value", ()),)),
    InrV: _Form("inr", (("value", ()),)),
    App: _Form("app", (("fun", ()), ("arg", ())), "arg"),
    Seq: _Form("seq", (("head", ()), ("tail", ())), "head"),
    LetPair: _Form("letp", (("scrutinee", ()), ("body", ("left", "right"))), "scrutinee"),
    Match: _Form("match", (("scrutinee", ()), ("left_body", ("left_name",)),
                           ("right_body", ("right_name",))), "scrutinee"),
}


@dataclass(frozen=True, slots=True)
class Distribution:
    summands: tuple[tuple[complex, PureTerm], ...]
    _fv: frozenset[str] | None = _cache()
    # True once its summands are known to strictly increase in the
    # structural order, set where it is built in order or by `canonicalize`:
    # such a distribution is its own canonical form, and none of its
    # summands is compared again
    _ordered: bool | None = _cache()
    # no key of its own, as a term that is not a ground value has none, so
    # `compare` may read it before it tests the class
    _term_key = None

    def __post_init__(self) -> None:
        if not self.summands:
            raise ValueError("a distribution has at least one summand")
        fixed = []
        for entry in self.summands:
            a, t = entry
            a = complex(a)
            if not (cmath.isfinite(a)):
                raise ValueError(f"non-finite coefficient {a!r}")
            if not isinstance(t, PureTerm):
                raise ValueError(f"not a pure term: {t!r}")
            fixed.append((a, t))
        object.__setattr__(self, "summands", tuple(fixed))

    def __len__(self) -> int:
        return len(self.summands)

    def __str__(self) -> str:
        return show_dist(self)


def _trusted(summands: tuple[tuple[complex, PureTerm], ...],
             ordered: bool | None = None) -> Distribution:
    """A distribution of summands that are already valid: a non-empty tuple
    of finite complex coefficients and pure terms.  It skips the checks of
    `Distribution.__post_init__`, which public construction runs, so callers
    pass only coefficients taken from a validated distribution or literals.
    A caller that built the summands in the structural order says so
    (`ordered`)."""
    d = _new_object(Distribution)
    _set_summands(d, summands)
    _set_dist_fv(d, None)
    _set_dist_ordered(d, ordered)
    return d


# the slot setters themselves, which skip the frozen class's __setattr__
# and the attribute lookup of object.__setattr__
_new_object = object.__new__
_set_summands = Distribution.summands.__set__
_set_dist_fv = Distribution._fv.__set__
_set_dist_ordered = Distribution._ordered.__set__


def singleton(t: PureTerm, coeff: complex = 1) -> Distribution:
    return Distribution(((coeff, t),))


def is_value(t: PureTerm) -> bool:
    return isinstance(t, (Var, Lam, Void, PairV, InlV, InrV))


def is_value_distribution(d: Distribution) -> bool:
    return all(is_value(t) for _, t in d.summands)


# ---------------------------------------------------------------------------
# free variables and substitution

_CLOSED: frozenset[str] = frozenset()
_first, _second = itemgetter(0), itemgetter(1)


def free_vars(t: PureTerm) -> frozenset[str]:
    if not isinstance(t, PureTerm):
        raise TypeError(f"not a pure term: {t!r}")
    return _free(t)


def free_vars_dist(d: Distribution) -> frozenset[str]:
    fv = d._fv
    return _free(d) if fv is None else fv


def _free(x: PureTerm | Distribution) -> frozenset[str]:
    """The free variables of a term or a distribution, set in the `_fv` of
    every compound node below it that has none."""
    return walk(x, _fv_parts, _fv_of)


def _fv_parts(x: PureTerm | Distribution) -> frozenset[str] | list:
    """For `walk`: x's free variables when it is a variable, the unit value
    or a node whose `_fv` is set, else its subterms."""
    cls = x.__class__
    if cls is Var:
        return frozenset((x.name,))
    if cls is Void:
        return _CLOSED
    fv = x._fv
    if fv is not None:
        return fv
    if cls is Distribution:
        return list(map(_second, x.summands))
    # a loop, not a comprehension, which costs a function call in Python 3.11
    parts = []
    for part, _ in _FORMS[cls].parts:
        parts.append(getattr(x, part))
    return parts


def _fv_of(x: PureTerm | Distribution, fvs: list) -> frozenset[str]:
    """For `walk`: x's free variables, from its subterms', set in its `_fv`."""
    out = _CLOSED
    if x.__class__ is Distribution:
        out = out.union(*fvs)
    else:
        for (_, binders), fv in zip(_FORMS[x.__class__].parts, fvs):
            if fv:
                out |= fv.difference(getattr(x, b) for b in binders) if binders else fv
    object.__setattr__(x, "_fv", out)
    return out


def fresh_name(base: str, avoid: frozenset[str] | set[str]) -> str:
    """`base_n` for the smallest n >= 1 that is not in avoid."""
    n = 1
    while f"{base}_{n}" in avoid:
        n += 1
    return f"{base}_{n}"


def substitute(t: PureTerm, name: str, value: PureTerm) -> PureTerm:
    """Capture-avoiding substitution of a pure value for a free variable."""
    return substitute_many(t, {name: value})


def substitute_many(t: PureTerm, mapping: dict[str, PureTerm]) -> PureTerm:
    """Simultaneous capture-avoiding substitution of pure values."""
    for v in mapping.values():
        if not is_value(v):
            raise ValueError("only pure values may be substituted for variables")
    return _subst(t, mapping)


def substitute_dist(d: Distribution, name: str, value: PureTerm) -> Distribution:
    return substitute_many_dist(d, {name: value})


def substitute_many_dist(d: Distribution, mapping: dict[str, PureTerm]) -> Distribution:
    for v in mapping.values():
        if not is_value(v):
            raise ValueError("only pure values may be substituted for variables")
    return _subst(d, mapping)


def _subst(x: PureTerm | Distribution, mapping: dict[str, PureTerm]) -> PureTerm | Distribution:
    """x, a term or a distribution, with the values of mapping substituted
    for their free names."""
    return walk((x, mapping), _subst_parts, _substituted)


def _subst_parts(item: object) -> object:
    """For `walk`: the result of an (x, mapping) item when it is done at
    once, else the items of x's fields in constructor order.  x is done at
    once when it is a variable, the unit value, or a node in which no name of
    mapping is free, and so is a field item that is not a pair: a binder
    name or an annotation.  Each binder group is renamed for the subterm it
    scopes over; the renaming reads only x and mapping, so it picks the names
    it would pick in any order."""
    if item.__class__ is not tuple:
        return item
    x, mapping = item
    cls = x.__class__
    if cls is Var:
        return mapping.get(x.name, x)
    if cls is Void or not mapping:
        return x
    fv = x._fv
    if mapping.keys().isdisjoint(_free(x) if fv is None else fv):
        return x
    if cls is Distribution:
        return list(zip(map(_second, x.summands), repeat(mapping)))
    fields = {f: getattr(x, f) for f in cls.__match_args__}
    for part, binders in _FORMS[cls].parts:
        sub, inner = fields[part], mapping
        if binders:
            names, sub, inner = _under_binders(tuple(fields[b] for b in binders), sub, mapping)
            fields.update(zip(binders, names))
        fields[part] = (sub, inner)
    return list(fields.values())


def _substituted(item: tuple, fields: list) -> PureTerm | Distribution:
    """For `walk`: an (x, mapping) item's result, from its fields'."""
    x = item[0]
    if x.__class__ is Distribution:
        # the coefficients are x's own, already checked
        return _trusted(tuple(zip(map(_first, x.summands), fields)))
    return x.__class__(*fields)


def _under_binders(
    names: tuple[str, ...],
    body: Distribution,
    mapping: dict[str, PureTerm],
) -> tuple[tuple[str, ...], Distribution, dict[str, PureTerm]]:
    """Adjust a binder group for substitution under it.

    Drops shadowed entries and entries not free in the body, renames binders
    that would capture free variables of the substituted values.  Returns the
    (possibly renamed) binder names, the correspondingly renamed body, and the
    remaining mapping (empty when nothing is left to substitute).
    """
    body_fv = _free(body)
    inner = {k: v for k, v in mapping.items() if k not in names and k in body_fv}
    if not inner:
        return names, body, inner
    clash = frozenset()
    for v in inner.values():
        clash |= _free(v)
    out_names = list(names)
    renames: dict[str, PureTerm] = {}
    for i, x in enumerate(out_names):
        if x in clash:
            avoid = clash | body_fv | set(inner) | set(out_names)
            x2 = fresh_name(x, avoid)
            renames[x] = Var(x2)
            out_names[i] = x2
    if renames:
        body = _subst(body, renames)
    return tuple(out_names), body, inner


# ---------------------------------------------------------------------------
# alpha-equivalence, canonical form, congruence

def compare(x: PureTerm | Distribution, y: PureTerm | Distribution) -> int:
    """-1, 0 or 1 as term or distribution x is below, equal to or above y
    in the structural order, which is defined here; so 0 exactly when they
    are alpha-equivalent.  Two terms are ordered by their tags first, as
    strings (`_TAG`; a variable's is "bv" when it is bound, else "fv"), then
    two bound variables by the distance to their binder, nearer first, two
    free ones by name, and two other terms by their parts in field order, a
    lambda's annotation (by its type key) before its body.  Two
    distributions are ordered summand by summand, each by the (real,
    imaginary) parts of its coefficient and then by its term, and the one
    that runs out of summands first is below.  `reference_key` in
    `tests/test_syntax.py` builds this order as nested keys, and is the
    oracle the tests hold `compare` to.  No key is built here: two ground
    values are equal only when they are one object, and otherwise ordered
    by their kept keys."""
    if x is y:
        return 0
    kx, ky = x._term_key, y._term_key
    if kx is not None and ky is not None:
        try:
            return -1 if kx < ky else 1
        except RecursionError:
            pass  # keys nested too deep to compare in C
    return _compare(x, y)


# the tag `compare` orders terms and types by first, by class; a variable's
# is "bv" or "fv", by whether it is bound
_TAG: dict[type, str] = {cls: form.tag for cls, form in _FORMS.items()}
_TAG |= {Void: "void"} | _TYPE_TAGS

# the subterm fields of each compound term form, with the binder fields in
# scope over each, and the parts of each compound type, last first: the
# order `_compare` stacks them in
_STACKED: dict[type, tuple[tuple[str, tuple[str, ...]], ...]] = {
    cls: form.parts[::-1] for cls, form in _FORMS.items()
} | {cls: tuple((f, ()) for f in cls.__match_args__[::-1]) for cls in _TYPE_TAGS}

# what a `_compare` stack entry that is not a pair of nodes holds first
_ENTER, _LEAVE = "enter", "leave"


def _compare(x: object, y: object) -> int:
    """`compare` by one walk of x and y side by side on an explicit stack,
    which returns at their first difference: a tag, a de Bruijn distance, a
    free name, an annotation, a coefficient or a summand count.  Ground
    values and annotations are compared by their kept keys in C until that
    recurses too deep once; from then on they are walked like any node, so
    no pair is tried in C twice over."""
    # the depth of each name's innermost binder, per side; the walk goes
    # into two nodes only when their tags are equal, so both sides are under
    # the same number of binders, `depth`
    bx: dict[str, int] = {}
    by: dict[str, int] = {}
    depth = 0
    # binders in scope that bind other names on each side: while there is
    # none, both sides are in one scope and a node is equal to itself
    skew = 0
    keys_in_c = True
    stack: list = [(x, y)]
    pop, push = stack.pop, stack.append
    while stack:
        x, y = pop()
        # under skewed binders only a closed node (a ground value, a type or
        # a coefficient) is equal to itself for certain
        if x is y and (not skew or getattr(x, "_term_key", x) is not None):
            continue
        cls = x.__class__
        if cls is complex:
            # only unequal coefficients are stacked; a key holds the real
            # and imaginary parts
            return -1 if (x.real, x.imag) < (y.real, y.imag) else 1
        if cls is int:
            return x  # the side with more summands is greater
        if cls is str:
            nx, ny = y[0], y[1]
            if x is _ENTER:
                push((_LEAVE, (nx, ny, [bx.get(n) for n in nx], [by.get(n) for n in ny])))
                for n, m in zip(nx, ny):
                    bx[n] = by[m] = depth
                    depth += 1
                skew += nx != ny
                push(y[2])
            else:
                for names, bound, old in ((nx, bx, y[2]), (ny, by, y[3])):
                    for n, at in zip(names, old):
                        if at is None:
                            del bound[n]
                        else:
                            bound[n] = at
                depth -= len(nx)
                skew -= nx != ny
            continue
        if keys_in_c:
            # types reach the stack only once `keys_in_c` is off
            kx, ky = x._term_key, y._term_key
            if kx is not None and ky is not None:
                try:
                    return -1 if kx < ky else 1
                except RecursionError:
                    keys_in_c = False
        if cls is not y.__class__ or cls is Var:
            tx = _TAG.get(cls) or ("fv" if bx.get(x.name) is None else "bv")
            ty = _TAG.get(y.__class__) or ("fv" if by.get(y.name) is None else "bv")
            if tx != ty:
                return -1 if tx < ty else 1
            if tx == "fv":
                if x.name != y.name:
                    return -1 if x.name < y.name else 1
            elif tx == "bv":
                # the binder further out is the greater distance
                ax, ay = bx[x.name], by[y.name]
                if ax != ay:
                    return -1 if ax > ay else 1
            continue
        if cls is Distribution:
            sx, sy = x.summands, y.summands
            n = len(sx)
            if n != len(sy):
                push((-1 if n < len(sy) else 1, None))
                n = min(n, len(sy))
            for i in range(n - 1, -1, -1):
                (a, t), (b, u) = sx[i], sy[i]
                push((t, u))
                if a != b:
                    push((a, b))
            continue
        for part, binders in _STACKED[cls]:
            sub = getattr(x, part), getattr(y, part)
            if binders:
                sub = (_ENTER, (tuple(getattr(x, b) for b in binders),
                                tuple(getattr(y, b) for b in binders), sub))
            push(sub)
        if cls is Lam:
            # the annotation comes before the body in the key
            ax, ay = x.ann, y.ann
            if ax is not ay:
                if keys_in_c:
                    try:
                        return -1 if ax._key < ay._key else 1
                    except RecursionError:
                        keys_in_c = False
                push((ax, ay))
    return 0


def alpha_eq(t1: PureTerm, t2: PureTerm) -> bool:
    """Whether t1 and t2 are alpha-equivalent, by `compare`."""
    return compare(t1, t2) == 0


def dist_alpha_eq(d1: Distribution, d2: Distribution) -> bool:
    """Whether d1 and d2 are alpha-equivalent summand by summand, in their
    order, by `compare`."""
    return compare(d1, d2) == 0


def canonicalize(d: Distribution) -> Distribution:
    """Merge alpha-equivalent summands by adding coefficients (zeros are
    kept) into the first of them, and order the summands by `compare`, the
    structural order.  A distribution whose summands already strictly
    increase comes back as it is, after one comparison per neighbouring
    pair; a one-summand distribution makes none, and one marked as built in
    order (`_ordered`) none either, so building a term from single summands,
    or from a distribution in one context after another, costs time linear
    in it."""
    if not d._ordered:
        merged = _merged(d.summands)
        d = d if merged is d.summands else Distribution(merged)
        _set_dist_ordered(d, True)
    return d


def _merged(summands: tuple[tuple[complex, PureTerm], ...]) -> tuple[tuple[complex, PureTerm], ...]:
    """The summands in `compare` order, alpha-equivalent ones merged into
    the first; summands that already strictly increase, themselves.
    `canonicalize` and `inner.keyed` both read it."""
    for i in range(1, len(summands)):
        if compare(summands[i - 1][1], summands[i][1]) >= 0:
            break
    else:
        return summands
    # a stable sort puts equal summands next to each other, first one first
    order = cmp_to_key(compare)
    out: list[list] = []
    for a, t in sorted(summands, key=lambda at: order(at[1])):
        if out and compare(out[-1][1], t) == 0:
            out[-1][0] += a
        else:
            out.append([a, t])
    return tuple(map(tuple, out))


def congruent(d1: Distribution, d2: Distribution, tol: float | None = None) -> bool:
    """Equality up to the distribution congruence, with coefficients compared
    within `tol` (the global tolerance when omitted)."""
    if tol is None:
        tol = get_tolerance()
    c1 = canonicalize(d1)
    c2 = canonicalize(d2)
    if len(c1.summands) != len(c2.summands):
        return False
    for (a1, t1), (a2, t2) in zip(c1.summands, c2.summands):
        if abs(a1 - a2) > tol:
            return False
        if compare(t1, t2) != 0:
            return False
    return True


def scale(alpha: complex, d: Distribution) -> Distribution:
    return Distribution(tuple((complex(alpha) * a, t) for a, t in d.summands))


def add(*ds: Distribution) -> Distribution:
    if not ds:
        raise ValueError("add needs at least one distribution")
    out: list[tuple[complex, PureTerm]] = []
    for d in ds:
        out.extend(d.summands)
    return Distribution(tuple(out))


# ---------------------------------------------------------------------------
# composite constructors
#
# Distributions enter composite positions by multiplying out, so the stored
# syntax only ever carries pure terms at those positions.  All results are
# canonical; a one-summand result is canonical as it stands.

def mk_pair(first: Distribution, second: Distribution) -> Distribution:
    _require_values(first, "pair components")
    _require_values(second, "pair components")
    out = tuple(
        (a * b, PairV(v, w))
        for a, v in first.summands
        for b, w in second.summands
    )
    return canonicalize(Distribution(out))


def mk_inl(d: Distribution) -> Distribution:
    _require_values(d, "injection arguments")
    return _in_context(d, InlV)


def mk_inr(d: Distribution) -> Distribution:
    _require_values(d, "injection arguments")
    return _in_context(d, InrV)


def mk_app(fun: PureTerm, arg: Distribution) -> Distribution:
    if not isinstance(fun, PureTerm):
        raise ValueError(f"operator must be a single pure term, got {fun!r}")
    return _in_context(arg, lambda t: App(fun, t))


def mk_seq(heads: Distribution, tail: Distribution) -> Distribution:
    return _in_context(heads, lambda h: Seq(h, tail))


def mk_let(left: str, right: str, scrutinees: Distribution, body: Distribution) -> Distribution:
    return _in_context(scrutinees, lambda s: LetPair(left, right, s, body))


def mk_match(
    scrutinees: Distribution,
    left_name: str,
    left_body: Distribution,
    right_name: str,
    right_body: Distribution,
) -> Distribution:
    return _in_context(
        scrutinees, lambda s: Match(s, left_name, left_body, right_name, right_body)
    )


def _in_context(d: Distribution, build: Callable[[PureTerm], PureTerm]) -> Distribution:
    """Put every summand of d into the same one-hole context.  The context
    is shared, so the built terms merge and sort exactly as their holes do:
    canonicalizing the holes gives the canonical result without keying a
    copy of the context per summand.  The coefficients come from a validated
    distribution and the terms from node constructors, so the result skips
    re-validation, and it is in order."""
    return _trusted(tuple((a, build(t)) for a, t in canonicalize(d).summands), True)


def _require_values(d: Distribution, what: str) -> None:
    for _, t in d.summands:
        if not is_value(t):
            raise ValueError(f"{what} must be pure values, got {show_term(t)}")


# ---------------------------------------------------------------------------
# printing
#
# Levels: 0 terms that swallow everything to their right (abstraction, let),
# 1 sequencing, 2 application, 3 atoms.  Match is brace-delimited and counts
# as an atom, except as the operator or argument of an application, where it
# is parenthesized.  The output re-parses to an alpha-equivalent distribution.
# Terms, distributions and a lambda's annotation print in the one loop of
# `types.emit`, so a term's depth costs no Python frames.

_LOW, _SEQ, _APP, _ATOMIC = 0, 1, 2, 3


def show_scalar(c: complex) -> str:
    re, im = c.real, c.imag
    if re < 0:
        return "-" + show_scalar(-c)
    if im == 0:
        return _show_float(re)
    if im >= 0:
        return f"{_show_float(re)}+{_show_float(im)}i"
    return f"{_show_float(re)}-{_show_float(-im)}i"


def _show_float(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def show_dist(d: Distribution) -> str:
    return emit((d, _LOW), _parts)


def show_term(t: PureTerm, level: int = _LOW) -> str:
    return emit((t, level), _parts)


def _parts(t: PureTerm | Distribution | Type, level: int) -> str | Sequence:
    """The text of a term, a distribution or a type at level, for `emit`.
    It tests the exact class, commonest first, which is cheaper than the
    isinstance tests of a `match`."""
    cls = t.__class__
    if cls is InlV or cls is PairV or cls is InrV or cls is Void:
        text = t._text
        if text is None:
            if t._term_key is None:
                return _value_parts(t)
            # a ground value's text is the same at every level
            text = emit((t, _LOW), _kept_parts)
            object.__setattr__(t, "_text", text)
        return text
    if cls is Var:
        return t.name
    if cls is Distribution:
        summands = t.summands
        if len(summands) == 1 and summands[0][0] == 1:
            return ((summands[0][1], _SEQ),)
        out: list = []
        for a, u in summands:
            if out:
                out.append(" + ")
            if a != 1:
                out += show_scalar(a), " * "
            out.append((u, _SEQ))
        return out
    if isinstance(t, Type):
        return _type_parts(t, level)
    if cls is Seq:
        # a tail that is one unscaled term prints at the sequencing level, so
        # a right-nested chain reads `h1 ; h2 ; ...`
        (a, u), *more = t.tail.summands
        if more or a != 1:
            s = (t.head, _APP), " ; (", (t.tail, _LOW), ")"
        else:
            s = (t.head, _APP), " ; ", (u, _SEQ)
        return ("(", *s, ")") if level > _SEQ else s
    if cls is App:
        s = (*_applied(t.fun, _APP), " ", *_applied(t.arg, _ATOMIC))
        return ("(", *s, ")") if level > _APP else s
    if cls is Lam:
        # the annotation at the loosest type level, which is 0 too
        s = f"\\{t.name}:", (t.ann, _LOW), ". ", (t.body, _LOW)
        return ("(", *s, ")") if level > _LOW else s
    if cls is Match:
        return ("match ", (t.scrutinee, _LOW), f" {{ inl {t.left_name} -> ",
                (t.left_body, _LOW), f" | inr {t.right_name} -> ", (t.right_body, _LOW), " }")
    if cls is LetPair:
        s = f"let ({t.left}, {t.right}) = ", (t.scrutinee, _LOW), " in ", (t.body, _LOW)
        return ("(", *s, ")") if level > _LOW else s
    raise TypeError(f"not a pure term: {t!r}")


def _value_parts(t: PureTerm) -> tuple:
    """The pieces of a pair or an injection."""
    if t.__class__ is PairV:
        return "(", (t.first, _LOW), ", ", (t.second, _LOW), ")"
    return "inl " if t.__class__ is InlV else "inr ", (t.value, _ATOMIC)


def _kept_parts(t: PureTerm, level: int) -> str | tuple:
    """For `emit`: the text of a ground value, kept or else by its parts."""
    return t._text or _value_parts(t)


def _applied(t: PureTerm, level: int) -> tuple:
    # the parser reads a match only where a term may start, not as an
    # operator or argument, so there it needs parentheses
    return ("(", (t, level), ")") if t.__class__ is Match else ((t, level),)
