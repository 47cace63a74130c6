"""Pseudo inner product on value distributions.

Two value distributions pair up summand by summand: alpha-equivalent value
terms contribute the product of conjugated left coefficient and right
coefficient, distinct terms contribute nothing.  This makes distinct pure
values an orthonormal family by construction.  Only value distributions have
an inner product; anything else is a usage error.  Either side may also be
given in its `keyed` form, so a distribution paired with many others is keyed
once.
"""

from __future__ import annotations

import math

from .config import get_tolerance
from .syntax import Distribution, _merged, is_value, show_term, term_key


# a value distribution's canonical coefficients by alpha-key
Keyed = dict[tuple, complex]


def keyed(v: Distribution) -> Keyed:
    """The form inner products are taken in: alpha-equivalent summands
    merged and the keys in `canonicalize` order, so sums run in the same
    order.  A caller that pairs one value distribution with many others keys
    it once and passes this instead."""
    _require_values(v)
    return {term_key(t): a for a, t in _merged(v.summands)}


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
