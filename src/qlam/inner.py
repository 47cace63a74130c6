"""Pseudo inner product on value distributions.

Two value distributions pair up summand by summand: alpha-equivalent value
terms contribute the product of conjugated left coefficient and right
coefficient, distinct terms contribute nothing.  This makes distinct pure
values an orthonormal family by construction.  Only value distributions have
an inner product; anything else is a usage error.  Either side may also be
given in its `keyed` form, so a distribution paired with many others is keyed
once.

A keyed form keys a ground value by its node's `id`, a flat int that hashes
in O(1) however deep the value is: ground values are interned, so while the
keyed form keeps its summands' nodes alive, two equal ground values are one
live node and have one id.  A value with a variable or a lambda inside is
keyed by an `_Alpha` wrapper, hashed by what alpha-renaming keeps of the
value's whole shape, read in one walk, and equal to another wrapper exactly
when `compare` finds their values alpha-equivalent.  Alpha-distinct values
of different shapes hash apart, so few keys share a bucket.  No key nests,
so a value's depth costs no recursion.
"""

from __future__ import annotations

import math

from .config import get_tolerance
from .syntax import _STACKED, Distribution, PureTerm, _merged, compare, free_vars, is_value, show_term


class _Alpha:
    """The key of a value that is not ground.  Its hash reads only what
    alpha-renaming keeps, from one walk of the whole value on an explicit
    stack: its free names, and in walk order each node's class and a
    lambda's interned annotation, each distribution's summand count and
    each ground sub-value's id, where the walk stops.  Bound names are left
    out, so alpha-variants hash alike.  The hash is one flat tuple's, taken
    once.  Keys in one hash bucket are told apart by `compare`."""
    __slots__ = ("t", "_hash")

    def __init__(self, t: PureTerm):
        self.t = t
        shape, stack = [free_vars(t)], [t]
        while stack:
            x = stack.pop()
            if x._term_key is not None:
                shape.append(id(x))
            elif x.__class__ is Distribution:
                shape.append(len(x.summands))
                stack += [u for _, u in x.summands]
            else:
                shape += (x.__class__, getattr(x, "ann", None))
                stack += [getattr(x, part) for part, _ in _STACKED.get(x.__class__, ())]
        self._hash = hash(tuple(shape))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return other.__class__ is _Alpha and compare(self.t, other.t) == 0


class Keyed(dict):
    """A value distribution's canonical coefficients by flat key, holding
    in `summands`, as a distribution does, the summands whose nodes the
    keys of ground values are the ids of."""
    __slots__ = ("summands",)


def keyed(v: Distribution) -> Keyed:
    """The form inner products are taken in: alpha-equivalent summands
    merged and the keys in `canonicalize` order, so sums run in the same
    order.  A caller that pairs one value distribution with many others keys
    it once and passes this instead."""
    _require_values(v)
    merged = v.summands if v._ordered else _merged(v.summands)
    out = Keyed((_Alpha(t) if t._term_key is None else id(t), a) for a, t in merged)
    out.summands = merged
    return out


def inner_product(v: Distribution | Keyed, w: Distribution | Keyed) -> complex:
    left = v if isinstance(v, dict) else keyed(v)
    right = w if isinstance(w, dict) else keyed(w)
    out = 0j
    for k, b in right.items():
        a = left.get(k)
        if a is not None:
            out += a.conjugate() * b
    return out


def orthogonal(v: Distribution | Keyed, w: Distribution | Keyed, tol: float | None = None) -> bool:
    """|<v|w>| <= tol.  Pass tol=0.0 to demand an exact zero."""
    if tol is None:
        tol = get_tolerance()
    return abs(inner_product(v, w)) <= tol


def norm(v: Distribution) -> float:
    ip = inner_product(v, v)
    # the self inner product is a sum of |a|^2, so real and nonnegative
    return math.sqrt(max(ip.real, 0.0))


def _require_values(d: Distribution) -> None:
    for _, t in d.summands:
        if not is_value(t):
            raise ValueError(
                f"inner products are defined on value distributions only, got {show_term(t)}"
            )
