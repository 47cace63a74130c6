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

The small-step generator `_reductions` is the definition.  It keeps the
summands in a single list, splices each reduct in place of its summand with
the coefficient multiplied through, and counts steps against the limit.  The
splice merges nothing across summands; its readers canonicalize once, at the
end, so traces show the raw arithmetic between summands, including
interference terms that later merge away.  `step`, `trace_normalize` and
`normalize` under an `rng` read it.

`normalize` under the leftmost strategy evaluates in environments instead
(`_evaluate`, an environment machine in the style of Landin's SECD and the
CEK machine).  Every contraction binds a value, so the substitution can wait:
a name is bound to a value in an environment, a lambda becomes a closure of
the lambda and its environment, and a closure is read back into a term, with
one substitution, only where a term must be seen: in the normal form, and in
a reduct of several summands inside an evaluation context, which is
canonicalized there as the `mk_*` constructors do.  The machine takes the
same contractions in the same order, multiplies the same coefficients in the
same order and counts the same steps, so the normal form is the same, down
to the coefficient bits.  Where the small-step loop would raise, or where a
read-back would substitute an open value (the small-step loop may rename a
binder there), the machine gives up and `normalize` runs `_reductions` from
the start, which raises or answers as it always has.
"""

from __future__ import annotations

import cmath
import random
from collections.abc import Iterator
from dataclasses import dataclass

from .syntax import (
    _VOID,
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
    _subst,
    _subst_dist,
    canonicalize,
    free_vars,
    free_vars_dist,
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
    if rng is None:
        try:
            summands = _evaluate(d, max_steps)
        except _GiveUp:
            pass
        else:
            return canonicalize(Distribution(tuple(summands)))
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


# ---------------------------------------------------------------------------
# the environment machine behind `normalize`
#
# A machine value is a pair (value term, environment).  The environment maps
# names to machine values; it is empty for a ground value and for a term that
# was read back.  A continuation is `_TOP` (the top of the summand) or a frame
# (tag, node, data, parent, in_operator): data is the environment of node, or
# the argument's value in an operator frame, and in_operator says whether an
# operator frame is on the chain, where a reduct must be one unscaled term.

class _GiveUp(Exception):
    """The machine met a case it leaves to `_reductions`."""


_NO_ENV: dict = {}
_ONE = complex(1)
_ARG, _OP, _SEQ, _LET, _MATCH = range(5)
_TOP = (None, None, None, None, False)


def _value(t: PureTerm, env: dict) -> tuple:
    """The machine value of a value term t whose free names env binds."""
    if type(t) is Var:
        return env.get(t.name) or (t, _NO_ENV)
    if t._term_key is not None:
        return (t, _NO_ENV)
    return (t, env)


def _evaluate(d: Distribution, max_steps: int) -> list[tuple[complex, PureTerm]]:
    """The summands `_reductions` ends with, under the leftmost strategy.
    Each summand is evaluated left to right with an explicit continuation, so
    summands come out in the order the splices leave them.  Raises _GiveUp
    where `_reductions` would raise, and where a read-back would substitute
    an open value."""
    out = []
    steps = 0
    work = [(a, t, _NO_ENV, _TOP) for a, t in reversed(d.summands)]
    while work:
        c, t, env, k = work.pop()
        while True:
            cls = type(t)
            if cls is App:
                k = (_ARG, t, env, k, k[4])
                t = t.arg
                continue
            if cls is Seq:
                k = (_SEQ, t, env, k, k[4])
                t = t.head
                continue
            if cls is LetPair:
                k = (_LET, t, env, k, k[4])
                t = t.scrutinee
                continue
            if cls is Match:
                k = (_MATCH, t, env, k, k[4])
                t = t.scrutinee
                continue
            v = _value(t, env)
            if k is _TOP:
                out.append((c, v))
                break
            tag, node, env, k, _ = k
            if tag == _ARG:
                # the argument is a value: evaluate the operator
                k = (_OP, node, v, k, True)
                t = node.fun
                continue
            w, wenv = v
            if tag == _OP:
                if type(w) is not Lam:
                    raise _GiveUp
                body = w.body
                env = {**wenv, w.name: env}
            elif tag == _SEQ:
                if w is not _VOID:
                    raise _GiveUp
                body = node.tail
            elif tag == _LET:
                if type(w) is not PairV:
                    raise _GiveUp
                body = node.body
                env = {**env, node.left: _value(w.first, wenv),
                       node.right: _value(w.second, wenv)}
            elif type(w) is InlV:
                body = node.left_body
                env = {**env, node.left_name: _value(w.value, wenv)}
            elif type(w) is InrV:
                body = node.right_body
                env = {**env, node.right_name: _value(w.value, wenv)}
            else:
                raise _GiveUp
            # a contraction: splice its reduct as `_reductions` does
            steps += 1
            if steps > max_steps:
                raise _GiveUp
            summands = body.summands
            if k is not _TOP:
                if len(summands) > 1 and k[0] != _OP:
                    # the context canonicalizes the reduct, as `mk_*` does;
                    # an operator position takes it as it stands
                    try:
                        summands = canonicalize(_read_back(body, env)).summands
                    except ValueError:
                        raise _GiveUp from None
                    env = _NO_ENV
                if k[4]:
                    if len(summands) > 1 or summands[0][0] != 1:
                        raise _GiveUp
                    summands = ((_ONE, summands[0][1]),)
            if len(summands) == 1:
                b, t = summands[0]
                c = c * b
                if not cmath.isfinite(c):
                    raise _GiveUp
                continue
            spliced = [(c * b, u, env, k) for b, u in summands]
            if not all(cmath.isfinite(s[0]) for s in spliced):
                raise _GiveUp
            work.extend(reversed(spliced))
            break
    return [(c, _read_back(t, env) if env else t) for c, (t, env) in out]


def _read_back(x: PureTerm | Distribution, env: dict) -> PureTerm | Distribution:
    """x, a term or a body, with the values env binds to its free names
    substituted in: one `_subst` per closure, children first, without
    recursion.  Raises _GiveUp if one of those values is open, because the
    small-step loop may rename a binder where it substitutes an open value."""
    root = (x, env)
    done: dict[int, PureTerm | Distribution] = {}
    todo = [root]
    while todo:
        v = todo[-1]
        if id(v) in done:
            todo.pop()
            continue
        y, yenv = v
        fv, subst = ((free_vars_dist, _subst_dist) if type(y) is Distribution
                     else (free_vars, _subst))
        names = fv(y).intersection(yenv) if yenv else ()
        waiting = [yenv[n] for n in names if id(yenv[n]) not in done]
        if waiting:
            todo.extend(waiting)
            continue
        todo.pop()
        mapping = {n: done[id(yenv[n])] for n in names}
        if any(free_vars(u) for u in mapping.values()):
            raise _GiveUp
        done[id(v)] = subst(y, mapping)
    return done[id(root)]
