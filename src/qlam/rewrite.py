"""Weak reduction on distributions.

One step rewrites a single summand: the leftmost whose term is not a value
(or a randomly chosen one under the optional randomized strategy).  Inside a
term the order is fixed: in an application the argument reduces before the
operator, sequencing, destructuring and case analysis reduce their head
position first, and redexes fire only on values.  A summand's reduct is a
distribution.  A contraction at the top of the term (beta, sequencing on the
unit value, a pair destructured, a case taken) gives the substituted body as
it stands.  A redex inside an evaluation context gives a reduct rebuilt
through the `mk_*` constructors, which canonicalize that one reduct.

`step`, `normalize` and `trace_normalize` all read one generator,
`_reductions`.  It keeps the summands in a single list, splices each reduct
in place of its summand with the coefficient multiplied through, and is the
only place that counts steps against the limit.  The splice merges nothing
across summands; `normalize` canonicalizes once, at the end, so traces show
the raw arithmetic between summands, including interference terms that later
merge away.
"""

from __future__ import annotations

import cmath
import random
from collections.abc import Iterator
from dataclasses import dataclass

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
    Void,
    canonicalize,
    is_value,
    mk_app,
    mk_let,
    mk_match,
    mk_seq,
    show_term,
    singleton,
    substitute_dist,
    substitute_many_dist,
)

DEFAULT_MAX_STEPS = 100_000


class StuckError(Exception):
    def __init__(self, term: PureTerm, reason: str):
        super().__init__(f"stuck term {show_term(term)}: {reason}")
        self.term = term
        self.reason = reason


class StepLimitExceeded(Exception):
    def __init__(self, limit: int):
        super().__init__(f"no normal form within {limit} steps")
        self.limit = limit


@dataclass(frozen=True)
class Stepped:
    dist: Distribution


@dataclass(frozen=True)
class NormalForm:
    pass


@dataclass(frozen=True)
class Stuck:
    term: PureTerm
    reason: str


StepResult = Stepped | NormalForm | Stuck


def reduce_term(t: PureTerm) -> Distribution | None:
    """One reduction of a single pure term, None when t is a value.

    Raises StuckError when the fixed strategy reaches a non-redex.
    """
    match t:
        case App(f, a):
            ra = reduce_term(a)
            if ra is not None:
                return mk_app(f, ra)
            rf = reduce_term(f)
            if rf is not None:
                return mk_app(_as_operator(t, rf), singleton(a))
            if isinstance(f, Lam):
                return substitute_dist(f.body, f.name, a)
            raise StuckError(t, f"{show_term(f, 3)} applied to {show_term(a, 3)}")
        case Seq(h, tail):
            if isinstance(h, Void):
                return tail
            rh = reduce_term(h)
            if rh is not None:
                return mk_seq(rh, tail)
            raise StuckError(t, "sequencing head is not the unit value")
        case LetPair(x, y, s, body):
            if isinstance(s, PairV):
                return substitute_many_dist(body, {x: s.first, y: s.second})
            rs = reduce_term(s)
            if rs is not None:
                return mk_let(x, y, rs, body)
            raise StuckError(t, "destructured term is not a pair value")
        case Match(s, x1, b1, x2, b2):
            if isinstance(s, InlV):
                return substitute_dist(b1, x1, s.value)
            if isinstance(s, InrV):
                return substitute_dist(b2, x2, s.value)
            rs = reduce_term(s)
            if rs is not None:
                return mk_match(rs, x1, b1, x2, b2)
            raise StuckError(t, "matched term is not an injection value")
        case _:
            return None


def _as_operator(at: PureTerm, d: Distribution) -> PureTerm:
    # an operator that reduces must stay a single unscaled term
    if len(d.summands) == 1 and d.summands[0][0] == 1:
        return d.summands[0][1]
    raise StuckError(at, "operator reduced to a proper distribution")


def step(d: Distribution, rng: random.Random | None = None) -> StepResult:
    """The one-step relation: reduce one summand, the leftmost reducible one
    by default, any reducible one under rng."""
    try:
        summands = next(_reductions(d, 1, rng), None)
    except StuckError as e:
        return Stuck(e.term, e.reason)
    return NormalForm() if summands is None else Stepped(Distribution(tuple(summands)))


def normalize(
    d: Distribution,
    max_steps: int = DEFAULT_MAX_STEPS,
    rng: random.Random | None = None,
) -> Distribution:
    """Iterate step to a normal form, canonicalized.  Raises StuckError on a
    stuck summand and StepLimitExceeded past max_steps."""
    summands = d.summands
    for summands in _reductions(d, max_steps, rng):
        pass
    return canonicalize(Distribution(tuple(summands)))


def trace_normalize(
    d: Distribution,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> list[Distribution]:
    """Like normalize but returns every intermediate distribution.

    The first element is the input, each later element is the result of one
    step, and the final element is canonicalized in place (it equals what
    normalize returns).  Length is at most max_steps + 1.
    """
    trace = [d]
    for summands in _reductions(d, max_steps, None):
        trace.append(Distribution(tuple(summands)))
    trace[-1] = canonicalize(trace[-1])
    return trace


def _reductions(
    d: Distribution, max_steps: int, rng: random.Random | None
) -> Iterator[list[tuple[complex, PureTerm]]]:
    """Step until no summand is reducible, yielding the one summand list
    after every step.  Summands left of the cursor are values.  The step past
    max_steps is taken before the limit raises, so if it is stuck, StuckError
    wins.  A spliced coefficient that overflows raises the ValueError a
    `Distribution` would, at the step that makes it, whether or not the
    caller builds a distribution from every step."""
    summands = list(d.summands)
    i = 0
    steps = 0
    while True:
        if rng is None:
            while i < len(summands) and is_value(summands[i][1]):
                i += 1
            if i == len(summands):
                return
        else:
            candidates = [j for j, (_, t) in enumerate(summands) if not is_value(t)]
            if not candidates:
                return
            i = rng.choice(candidates)
        a, t = summands[i]
        r = reduce_term(t)
        steps += 1
        if steps > max_steps:
            raise StepLimitExceeded(max_steps)
        spliced = [(a * b, u) for b, u in r.summands]
        for c, _ in spliced:
            if not cmath.isfinite(c):
                raise ValueError(f"non-finite coefficient {c!r}")
        summands[i:i + 1] = spliced
        yield summands
