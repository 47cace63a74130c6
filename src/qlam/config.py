"""Numeric tolerance.

A single tolerance governs coefficient comparison, norm checks, orthogonality
tests, and isometry validation. Exact structural operations (canonicalization,
alpha-equivalence, substitution) never consult it.

The value lives in a context variable, so a thread or an asyncio task that
sets it sees its own value, and `tolerance` restores exactly the value it
found when its block ends.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator

DEFAULT_TOLERANCE = 1e-6

_tolerance: ContextVar[float] = ContextVar("tolerance", default=DEFAULT_TOLERANCE)


def get_tolerance() -> float:
    return _tolerance.get()


def set_tolerance(value: float) -> None:
    _tolerance.set(_checked(value))


@contextmanager
def tolerance(value: float) -> Iterator[None]:
    """Override the tolerance for the duration of the block."""
    token = _tolerance.set(_checked(value))
    try:
        yield
    finally:
        _tolerance.reset(token)


def _checked(value: float) -> float:
    if not value > 0:
        raise ValueError(f"tolerance must be positive, got {value!r}")
    return float(value)
