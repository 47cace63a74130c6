"""Small-step reduction: redex rules, context order, strategies, traces.

The stepping loop is one worklist generator read by `step`, `normalize` and
`trace_normalize`.  The equivalence tests hold it to the loop it replaced,
kept below as `reference_*`: every step rebuilt the whole distribution as a
tuple splice, and each driver kept its own step count.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qlam.rewrite as rewrite
from generator import ProgramGen
from qlam.quantum import StateVector, compile_isometry, encode, gate_library
from qlam.rewrite import (
    DEFAULT_MAX_STEPS,
    NormalForm,
    StepLimitExceeded,
    Stepped,
    Stuck,
    StuckError,
    normalize,
    reduce_term,
    step,
    trace_normalize,
)
from qlam.surface import parse_program
from qlam.syntax import (
    App,
    Distribution,
    InlV,
    InrV,
    Lam,
    LetPair,
    Match,
    PairV,
    Seq,
    Var,
    Void,
    add,
    canonicalize,
    congruent,
    is_value,
    mk_app,
    mk_seq,
    scale,
    singleton,
)
from qlam.types import BOOL, UNIT, Sharp

STAR = Void()
INL = InlV(STAR)
INR = InrV(STAR)
_R2 = 1 / math.sqrt(2)
PLUS = Distribution(((_R2, INL), (_R2, INR)))

IDENT = Lam("x", BOOL, singleton(Var("x")))


def _stepped(d):
    r = step(d)
    assert isinstance(r, Stepped), r
    return r.dist


# ------------------------------------------------------------ redex rules


def test_beta():
    assert _stepped(mk_app(IDENT, singleton(INL))) == singleton(INL)


def test_seq_discards_unit():
    d = singleton(Seq(STAR, PLUS))
    assert _stepped(d) == PLUS


def test_match_inl():
    d = singleton(Match(INL, "x", singleton(INR), "y", singleton(INL)))
    assert _stepped(d) == singleton(INR)


def test_match_inr():
    d = singleton(Match(INR, "x", singleton(INR), "y", singleton(INL)))
    assert _stepped(d) == singleton(INL)


def test_let_pair_substitutes_both_components():
    d = singleton(
        LetPair("a", "b", PairV(INL, INR), singleton(PairV(Var("b"), Var("a"))))
    )
    assert _stepped(d) == singleton(PairV(INR, INL))


def test_value_distribution_is_normal():
    assert isinstance(step(PLUS), NormalForm)
    assert reduce_term(INL) is None


# ------------------------------------------------------------ context order


def test_argument_reduces_before_operator():
    inner = App(IDENT, STAR)
    d = singleton(App(IDENT, inner))
    first = _stepped(d)
    assert first == singleton(App(IDENT, STAR))


def test_operator_reduces_once_argument_is_a_value():
    make_const = Lam("x", UNIT, singleton(Lam("y", UNIT, singleton(Var("x")))))
    d = singleton(App(App(make_const, STAR), INL))
    first = _stepped(d)
    (coeff, t), = first.summands
    assert coeff == 1
    assert isinstance(t, App) and isinstance(t.fun, Lam)
    assert normalize(d) == singleton(STAR)


def test_head_positions_reduce_first():
    d = singleton(Seq(App(IDENT, STAR), singleton(INL)))
    assert _stepped(d) == singleton(Seq(STAR, singleton(INL)))

    d2 = singleton(Match(App(IDENT, INL), "x", singleton(INR), "y", singleton(INL)))
    assert _stepped(d2) == singleton(
        Match(INL, "x", singleton(INR), "y", singleton(INL))
    )


def test_leftmost_summand_with_a_redex_moves():
    d = add(singleton(INL, 0.5), singleton(Seq(STAR, singleton(INL)), 0.5),
            singleton(Seq(STAR, singleton(INR)), 0.5))
    out = _stepped(d)
    # second summand fired, third untouched
    assert out.summands[1] == (0.5 + 0j, INL)
    assert isinstance(out.summands[2][1], Seq)


def test_splice_multiplies_coefficients():
    d = singleton(Seq(STAR, PLUS), 2)
    out = _stepped(d)
    assert all(abs(a - 2 * _R2) < 1e-12 for a, _ in out.summands)


def test_no_reduction_under_lambda():
    frozen = Lam("x", UNIT, singleton(App(IDENT, INL)))
    assert reduce_term(frozen) is None
    assert isinstance(step(singleton(frozen)), NormalForm)


# ------------------------------------------------------------------ stuck


def test_unit_applied_to_unit_is_stuck():
    d = singleton(App(STAR, STAR))
    r = step(d)
    assert isinstance(r, Stuck)
    assert "applied to" in r.reason
    with pytest.raises(StuckError):
        normalize(d)


def test_match_on_non_injection_is_stuck():
    d = singleton(Match(STAR, "x", singleton(INL), "y", singleton(INR)))
    assert isinstance(step(d), Stuck)


def test_operator_must_stay_a_singleton():
    # the operator position rewrites to a two-summand distribution: no rule
    # of the calculus covers that shape, so reduction reports it as stuck
    sup_maker = Lam("x", UNIT, Distribution(((_R2, IDENT), (_R2, Lam("z", BOOL, singleton(INL))))))
    d = singleton(App(App(sup_maker, STAR), INR))
    r = step(d)
    assert isinstance(r, Stuck)
    assert "proper distribution" in r.reason


def test_operator_must_keep_coefficient_one():
    half_maker = Lam("x", UNIT, singleton(IDENT, 0.5))
    d = singleton(App(App(half_maker, STAR), INR))
    assert isinstance(step(d), Stuck)


# ------------------------------------------------------------- normalize


def test_normalize_merges_interference():
    d = add(singleton(Seq(STAR, singleton(INL))), singleton(INL))
    assert normalize(d) == singleton(INL, 2)


def test_normalize_identity_on_values():
    assert normalize(PLUS) == PLUS


def test_normalize_step_limit():
    omega = Lam("x", UNIT, singleton(App(Var("x"), Var("x"))))
    loop = singleton(App(omega, omega))
    with pytest.raises(StepLimitExceeded):
        normalize(loop, max_steps=50)


def test_normalize_h_gate_against_matrix():
    h = compile_isometry(gate_library["H"])
    zero = encode(StateVector([1, 0]))
    assert congruent(normalize(mk_app(h, zero)), PLUS)


def test_normalize_cnot_flips_target():
    cnot = compile_isometry(gate_library["CNOT"])
    ten = encode(StateVector([0, 0, 1, 0]))       # |10>
    eleven = encode(StateVector([0, 0, 0, 1]))    # |11>
    assert congruent(normalize(mk_app(cnot, ten)), eleven)


# ----------------------------------------------------------------- traces


def test_trace_shape():
    d = singleton(App(IDENT, App(IDENT, STAR)))
    trace = trace_normalize(d)
    assert trace[0] == d
    assert trace[-1] == normalize(d)
    assert len(trace) == 3            # two beta steps
    for earlier, later in zip(trace, trace[1:]):
        assert earlier != later


def test_trace_respects_step_limit():
    omega = Lam("x", UNIT, singleton(App(Var("x"), Var("x"))))
    with pytest.raises(StepLimitExceeded):
        trace_normalize(singleton(App(omega, omega)), max_steps=25)


def test_trace_on_normal_input_is_singleton_list():
    trace = trace_normalize(PLUS)
    assert trace == [PLUS]


# ------------------------------------------------------------- strategies


def test_randomized_strategy_reaches_the_same_normal_form():
    h = compile_isometry(gate_library["H"])
    plus_prog = mk_app(h, encode(StateVector([1, 0])))
    two_step = mk_seq(singleton(STAR), scale(1, plus_prog))
    reference = normalize(two_step)
    for seed in range(8):
        alt = normalize(two_step, rng=random.Random(seed))
        assert congruent(alt, reference)


def test_randomized_strategy_on_wide_distribution():
    mk = lambda tail: singleton(Seq(STAR, tail))
    d = add(
        scale(0.5, mk(singleton(INL))),
        scale(0.5, mk(singleton(INR))),
        scale(0.5, mk(singleton(PairV(STAR, STAR)))),
        scale(0.5, mk(PLUS)),
    )
    reference = normalize(d)
    for seed in range(12):
        assert congruent(normalize(d, rng=random.Random(seed)), reference)


# ------------------------------------------------- worklist vs tuple splice


def _reference_step_from(d, start, rng):
    if rng is None:
        candidates = []
        for i in range(start, len(d.summands)):
            if not is_value(d.summands[i][1]):
                candidates = [i]
                break
    else:
        candidates = [i for i, (_, t) in enumerate(d.summands) if not is_value(t)]
        start = 0
    if not candidates:
        return NormalForm(), start
    i = candidates[0] if rng is None else rng.choice(candidates)
    a, t = d.summands[i]
    try:
        r = reduce_term(t)
    except StuckError as e:
        return Stuck(e.term, e.reason), start
    spliced = (
        d.summands[:i]
        + tuple((a * b, u) for b, u in r.summands)
        + d.summands[i + 1:]
    )
    return Stepped(Distribution(spliced)), i


def reference_step(d, rng=None):
    return _reference_step_from(d, 0, rng)[0]


def reference_normalize(d, max_steps=DEFAULT_MAX_STEPS, rng=None):
    cur = d
    cursor = 0
    steps = 0
    while True:
        res, cursor = _reference_step_from(cur, cursor, rng)
        match res:
            case NormalForm():
                return canonicalize(cur)
            case Stuck(term, reason):
                raise StuckError(term, reason)
            case Stepped(nd):
                steps += 1
                if steps > max_steps:
                    raise StepLimitExceeded(max_steps)
                cur = nd


def reference_trace_normalize(d, max_steps=DEFAULT_MAX_STEPS):
    trace = [d]
    cur = d
    cursor = 0
    while True:
        res, cursor = _reference_step_from(cur, cursor, None)
        match res:
            case NormalForm():
                trace[-1] = canonicalize(cur)
                return trace
            case Stuck(term, reason):
                raise StuckError(term, reason)
            case Stepped(nd):
                if len(trace) > max_steps:
                    raise StepLimitExceeded(max_steps)
                cur = nd
                trace.append(nd)


def _outcome(run, *args, **kwargs):
    """The result of a call, or the type and text of what it raised."""
    try:
        return run(*args, **kwargs)
    except (StuckError, StepLimitExceeded) as e:
        return type(e), str(e)


@st.composite
def _runs(draw):
    """A generator program, a sum of two, or one with a stuck summand added,
    and a step limit that some of them exceed."""
    g = ProgramGen(draw(st.integers(0, 2**32)))

    def program():
        return g.trace_program()[0] if draw(st.booleans()) else g.flow_program()[0]

    d = program()
    shape = draw(st.sampled_from(["one", "sum", "stuck"]))
    if shape == "sum":
        d = add(d, scale(draw(st.sampled_from([1, -1, 0.5j])), program()))
    elif shape == "stuck":
        d = add(d, singleton(App(STAR, STAR), 0.5))
    return d, draw(st.sampled_from([1, 3, 10, DEFAULT_MAX_STEPS]))


@settings(max_examples=300, deadline=None)
@given(_runs())
def test_worklist_matches_the_tuple_splice_loop(run):
    d, limit = run
    assert _outcome(trace_normalize, d, limit) == _outcome(reference_trace_normalize, d, limit)
    assert _outcome(normalize, d, limit) == _outcome(reference_normalize, d, limit)
    for seed in range(3):
        assert _outcome(normalize, d, limit, random.Random(seed)) == _outcome(
            reference_normalize, d, limit, random.Random(seed))
    # every step result along the leftmost reduction, and under a seeded rng
    cur = d
    for _ in range(100):
        res = step(cur)
        assert res == reference_step(cur)
        assert step(cur, random.Random(7)) == reference_step(cur, random.Random(7))
        if not isinstance(res, Stepped):
            break
        cur = res.dist


def test_normalize_builds_one_distribution_not_one_per_step(monkeypatch):
    wide = Distribution(tuple(
        (0.1, App(IDENT, App(IDENT, (INL, INR)[k % 2]))) for k in range(100)))
    assert len(trace_normalize(wide)) - 1 == 200
    want = reference_normalize(wide)
    built = 0
    real = rewrite.Distribution

    def counting(*args, **kwargs):
        nonlocal built
        built += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(rewrite, "Distribution", counting)
    assert normalize(wide) == want
    assert built <= 2


def test_a_stuck_step_past_the_limit_raises_stuck_error():
    # one beta step, then the unit value applied to the unit value
    d = singleton(App(App(IDENT, STAR), STAR))
    assert isinstance(step(_stepped(d)), Stuck)
    for run in (normalize, trace_normalize):
        with pytest.raises(StuckError):
            run(d, max_steps=1)
        with pytest.raises(StepLimitExceeded):
            run(d, max_steps=0)


# --------------------------------------------------------------- overflow

# scaled by 1e200 twice: the spliced coefficient overflows to infinity, which
# only a program that skipped the norm check can reach
OVERFLOW_SRC = r"1e200 * ((\x:U. 1e200 * x) *)"


@pytest.mark.parametrize("run", [normalize, trace_normalize])
def test_a_non_finite_coefficient_is_rejected(run):
    with pytest.raises(ValueError, match="non-finite coefficient"):
        run(parse_program(OVERFLOW_SRC))
