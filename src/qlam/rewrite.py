"""Weak reduction on distributions.

One step rewrites a single summand: the leftmost whose term is not a value
(or a randomly chosen one under the optional randomized strategy).  Inside a
term the order is fixed: in an application the argument reduces before the
operator, sequencing, destructuring and case analysis reduce their head
position first, and redexes fire only on values.  A summand's reduct is a
distribution.  A contraction at the top of the term (beta, sequencing on the
unit value, a pair destructured, a case taken) gives the substituted body as
it stands.  A redex inside an evaluation context gives a reduct merged and
sorted once there (canonicalized, as the `mk_*` constructors would) and put
back into the context summand by summand; an operator position takes only a
single unscaled term.  The reduct is spliced in place of its summand with
the coefficient multiplied through.  The splice merges nothing across
summands; its readers canonicalize once, at the end, so traces show the raw
arithmetic between summands, including interference terms that later merge
away.

One machine, `_run`, evaluates for every reader (an environment machine in
the style of Landin's SECD and the CEK machine).  It holds each unfinished
summand as a term, an environment and an explicit continuation of frames,
and finds the next redex by pushing frames, so no evaluation recurses.  It
has one binding rule.  A contraction binds its values in the environment: a
name is bound to a value, a lambda becomes a closure of the lambda and its
environment, and the reduct stays under the continuation.  A closure is read
back into a term, with one substitution, only where a term must be seen: in
the normal form, in a reduct of several summands inside an evaluation
context, and in the stuck term of an error.  A contraction substitutes
instead when its step is seen (`step`, `trace_normalize`, `normalize` under
an rng) or when a value it binds has a name free in the input.  It then
reads its body back in the rest of the environment, and only after that
substitutes its own values (`substitute_many_dist`), as the small-step
relation does at that step: one simultaneous substitution of both would give
`fresh_name` another set of names to avoid, and so another renamed binder.
After a seen step each summand of the reduct is plugged back through its
frames (`_term`), and the next step descends from the top: the small-step
relation, decomposed by the machine instead of by recursion (refocusing:
Danvy and Nielsen, *Refocusing in reduction semantics*, BRICS RS-04-26,
2004).

So an environment only ever holds closed values and a read-back never
renames a binder.  Whatever it substitutes, the machine takes the same
contractions in the same order, multiplies the same coefficients in the
same order and counts the same steps as the small-step relation, so the
normal form is the same, down to the coefficient bits.  It fails at the step
that the small-step relation fails at, and within a step in its order:
StuckError where the redex position holds no redex or an operator reduces to
more than one unscaled term, the ValueError of a merge that overflows where
a context canonicalizes the reduct, StepLimitExceeded for the step past the
limit, then the ValueError of a spliced coefficient that overflows.

The checker grounds a branch instance on the same machine: its summands
start in an environment that binds the branch's free names to ground
values, so nothing is substituted, and it passes a memo of the instances
it keeps.  Under the memo, a contraction at the top of a summand whose
coefficient is still 1 ends that summand's cell, in one step, with a reduct
of values kept whole: a case taken whose entered branch has an instance in
the memo under the environment takes that instance, the normal form the
summand would have reached from there by the same contractions and
multiplications, and any contraction whose reduct is two or more ground
values takes that reduct.  The cell is not split into a cell per summand,
and no coefficient is multiplied or checked: 1 times a finite coefficient
is finite, and the reader multiplies each through when it reads the
summands back.  Evaluation starts every summand in the empty environment
and passes no memo, so it splits every reduct.
"""

from __future__ import annotations

import cmath
import random
from collections.abc import Callable, Iterator
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
    _free,
    _subst,
    _trusted,
    canonicalize,
    free_vars,
    is_value,
    show_term,
    substitute_many_dist,
)

# bound here, though no longer called, for callers that patch this module's
# namespace: a reduct is plugged back by `_term`, and every contraction that
# substitutes calls `substitute_many_dist`
from .syntax import mk_app, mk_let, mk_match, mk_seq, substitute_dist  # noqa: F401
from .types import walk

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


def step(d: Distribution, rng: random.Random | None = None) -> StepResult:
    """The one-step relation: reduce one summand, the leftmost reducible one
    by default, any reducible one under rng."""
    cells = _cells(d)
    try:
        stepped = next(_run(cells, 1, rng, True), False)
    except StuckError as e:
        return Stuck(e.term, e.reason)
    return Stepped(Distribution(tuple(_summands(cells)))) if stepped else NormalForm()


def normalize(
    d: Distribution,
    max_steps: int = DEFAULT_MAX_STEPS,
    rng: random.Random | None = None,
) -> Distribution:
    """Iterate step to a normal form, canonicalized.  Raises StuckError on a
    stuck summand and StepLimitExceeded past max_steps."""
    cells = _cells(d)
    for _ in _run(cells, max_steps, rng, rng is not None):
        pass
    return canonicalize(Distribution(tuple(_summands(cells))))


def trace_normalize(
    d: Distribution,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> list[Distribution]:
    """Like normalize but returns every intermediate distribution.

    The first element is the input, each later element is the result of one
    step, and the final element is canonicalized in place (it equals what
    normalize returns).  Length is at most max_steps + 1.
    """
    cells = _cells(d)
    trace = [d]
    for _ in _run(cells, max_steps, None, True):
        # every coefficient is a finite complex product, checked at its splice
        trace.append(_trusted(tuple(_summands(cells))))
    trace[-1] = canonicalize(trace[-1])
    return trace


# ---------------------------------------------------------------------------
# the machine
#
# A machine value is a pair (value term, environment).  The environment maps
# names to closed machine values; it is empty for a ground value, for a term
# that was read back or substituted into, and whenever the steps are seen.
# A continuation is `_TOP` (the top of the summand) or a frame (tag, node,
# data, parent, in_operator): data is the environment of node, or in an
# operator frame the pair (the argument's value, the environment of node);
# in_operator says whether an operator frame is on the chain, where a reduct
# must be one unscaled term.
#
# A summand is a cell [coefficient, term, environment, continuation].  A
# finished cell holds a machine value; a cell that a step splits into
# several summands becomes [None, its parts' cells, None, None]; a cell
# ended whole under the memo holds [coefficient, its reduct, None, None],
# whose summands are closed values.

_NO_ENV: dict = {}
_ONE = complex(1)
_ARG, _OP, _SEQ, _LET, _MATCH = range(5)
_TOP = (None, None, None, None, False)
# why a value in each redex position is stuck; an operator's reason names it
_STUCK = (None, None, "sequencing head is not the unit value",
          "destructured term is not a pair value", "matched term is not an injection value")


def _cells(d: Distribution, env: dict = _NO_ENV) -> list[list]:
    """The summands of d as cells, each started in env, which binds d's free
    names to closed machine values."""
    return [[c, t, env, _TOP] for c, t in d.summands]


def _summands(cells: list[list]) -> list[tuple[complex, PureTerm]]:
    """The summands of cells in list order, values bound in an environment
    read back, and a reduct that ended a cell whole multiplied through by
    the cell's coefficient, as a split would multiply each part."""
    out = []
    todo = cells[::-1]
    while todo:
        c, t, env, _ = todo.pop()
        if c is None:
            todo.extend(reversed(t))
        elif env is None:
            out += [(c * a, u) for a, u in t.summands]
        else:
            out.append((c, _read_back(t, env) if t._term_key is None else t))
    return out


def _value(t: PureTerm, env: dict) -> tuple:
    """The machine value of a value term t whose free names env binds."""
    if type(t) is Var:
        return env.get(t.name) or (t, _NO_ENV)
    if t._term_key is not None:
        return (t, _NO_ENV)
    return (t, env)


def _run(cells: list[list], max_steps: int, rng: random.Random | None,
         stepping: bool, memo: Callable[[Distribution, dict], tuple | None] | None = None
         ) -> Iterator[bool]:
    """Evaluate the summands of cells in place, yielding after every step
    when stepping.  A contraction binds its values in the environment, unless
    the step is seen (stepping) or a value it binds has a name free in the
    input: then it substitutes them, and a seen step plugs its reduct back
    through the frames.  `work` holds the unfinished cells from the
    rightmost to the leftmost, so the leftmost is popped from the end; under
    rng the one popped is drawn as `rng.choice` draws from the list of
    reducible summands.

    Given a memo, a contraction at the top of a summand whose coefficient
    is still 1 ends the cell whole, in one step, when its reduct is the
    memo's or two or more ground values.  A case taken asks memo for the
    normal form of the branch it enters under the environment: an object
    whose `summands` are closed values, or None; given one, that is the
    reduct.  Evaluation passes no memo."""
    work = [cell for cell in reversed(cells) if not is_value(cell[1])]
    steps = 0
    while work:
        j = len(work) - 1 - (0 if rng is None else rng.choice(range(len(work))))
        cell = work.pop(j)
        c, t, env, k = cell
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
                cell[:3] = c, *v
                break
            frame = k
            tag, node, env, k, _ = frame
            if tag == _ARG:
                # the argument is a value: evaluate the operator
                k = (_OP, node, (v, env), k, True)
                t = node.fun
                continue
            # a value in a redex position: contract, binding names to v or to
            # the parts of v
            w, wenv = v
            if tag == _OP and type(w) is Lam:
                v = env[0]
                body, env, own = w.body, wenv, {w.name: v}
            elif tag == _SEQ and w is _VOID:
                body, own = node.tail, _NO_ENV
            elif tag == _LET and type(w) is PairV:
                body = node.body
                own = {node.left: _value(w.first, wenv), node.right: _value(w.second, wenv)}
            elif tag == _MATCH and type(w) is InlV:
                body, own = node.left_body, {node.left_name: _value(w.value, wenv)}
            elif tag == _MATCH and type(w) is InrV:
                body, own = node.right_body, {node.right_name: _value(w.value, wenv)}
            else:
                stuck = _term(w, wenv, frame, k)
                raise StuckError(stuck, _STUCK[tag] or f"{show_term(stuck.fun, 3)} applied "
                                                       f"to {show_term(stuck.arg, 3)}")
            if stepping or v[0]._term_key is None and not free_vars(v[0]) <= v[1].keys():
                # substitute as a step does: the closed values bound earlier,
                # which rename nothing, then this redex's own in one go
                body = _read_back(body, env)
                if own:
                    body = substitute_many_dist(body, {x: _read_back(*u) for x, u in own.items()})
                env = _NO_ENV
            else:
                env = {**env, **own} if own else env
                if memo is not None and k is _TOP and c == 1:
                    whole = memo(body, env) if tag == _MATCH else None
                    if whole is not None or len(body.summands) > 1 and all(
                            u._term_key is not None for _, u in body.summands):
                        # the cell is done: every summand of the reduct is a
                        # closed value, and 1 times a finite coefficient is
                        # finite, so nothing is split or checked
                        steps += 1
                        if steps > max_steps:
                            raise StepLimitExceeded(max_steps)
                        cell[:] = c, body if whole is None else whole, None, None
                        break
            summands = body.summands
            if k is not _TOP:
                if len(summands) > 1 and k[0] != _OP:
                    # the context canonicalizes the reduct, as `mk_*` does;
                    # an operator position takes it as it stands
                    summands = canonicalize(_read_back(body, env)).summands
                    env = _NO_ENV
                if k[4]:
                    if len(summands) > 1 or summands[0][0] != 1:
                        op = k
                        while op[0] != _OP:
                            op = op[3]
                        raise StuckError(_term(w, wenv, frame, op[3]),
                                         "operator reduced to a proper distribution")
                    summands = ((_ONE, summands[0][1]),)
            steps += 1
            if steps > max_steps:
                raise StepLimitExceeded(max_steps)
            if stepping:
                # plug the reduct back: the next step descends from the top
                summands = [(b, _term(u, env, k)) for b, u in summands]
                env, k = _NO_ENV, _TOP
            elif len(summands) == 1:
                c *= summands[0][0]
                if not cmath.isfinite(c):
                    raise ValueError(f"non-finite coefficient {c!r}")
                t = summands[0][1]
                continue
            parts = [[c * b, u, env, k] for b, u in summands]
            for part in parts:
                if not cmath.isfinite(part[0]):
                    raise ValueError(f"non-finite coefficient {part[0]!r}")
            if len(parts) == 1:
                cell[:] = parts[0]
                parts = [cell]
            else:
                cell[:] = None, parts, None, None
            work[j:j] = [p for p in reversed(parts) if p[3] is not _TOP or not is_value(p[1])]
            break
        if stepping:
            yield True


def _term(t: PureTerm, env: dict, k: tuple, stop: tuple = _TOP) -> PureTerm:
    """The term that the machine state (t with env, under k) stands for, as
    far out as the frame whose parent is stop: t read back, then each frame's
    node read back in its environment around it."""
    t = _read_back(t, env)
    while k is not stop:
        tag, node, env, k, _ = k
        if tag == _OP:
            (a, aenv), env = env
            t = App(t, _read_back(a, aenv))
        elif tag == _ARG:
            t = App(_read_back(node.fun, env), t)
        else:
            node = _read_back(node, env)
            if tag == _SEQ:
                t = Seq(t, node.tail)
            elif tag == _LET:
                t = LetPair(node.left, node.right, t, node.body)
            else:
                t = Match(t, node.left_name, node.left_body, node.right_name, node.right_body)
    return t


def _read_back(x: PureTerm | Distribution, env: dict) -> PureTerm | Distribution:
    """x, a term or a body, with the values env binds to its free names
    substituted in: one `_subst` per closure, children first (`walk`).  A
    closure that several environments share is read back once.  Every value
    env binds is closed, so no binder is renamed."""
    if not env:
        return x
    done: dict[int, PureTerm | Distribution] = {}

    def parts(v: tuple) -> PureTerm | Distribution | list:
        y, yenv = v
        if not yenv:
            return y
        got = done.get(id(v))
        return [yenv[n] for n in _free(y).intersection(yenv)] if got is None else got

    def read(v: tuple, values: list) -> PureTerm | Distribution:
        y, yenv = v
        done[id(v)] = y = _subst(y, dict(zip(_free(y).intersection(yenv), values)))
        return y

    return walk((x, env), parts, read)
