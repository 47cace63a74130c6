"""Small-step reduction: redex rules, context order, strategies, traces.

One machine evaluates for `step`, `trace_normalize` and `normalize`.  It
binds values in environments, and substitutes where a step is seen or a
value it binds has a free name.  The equivalence tests hold it to two loops
it replaced, kept below as references.  `reduce_term`, `_as_operator` and
`_reductions` are the recursive small-step loop that `step`,
`trace_normalize` and `normalize` under an rng ran before the machine served
them, read by the `loop_*` functions.  The `reference_*` functions are the
loop before that: every step rebuilt the whole distribution as a tuple
splice, and each caller kept its own step count.  Results are compared down
to the coefficient bits, and errors by type and text.
"""

from __future__ import annotations

import cmath
import importlib.util
import math
import random
import time
from collections.abc import Iterator
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qlam.rewrite as rewrite
from generator import ProgramGen
from qlam.quantum import (
    GateMatrix,
    StateVector,
    compile_gate,
    compile_isometry,
    encode,
    gate_library,
    run_circuit,
)
from qlam.rewrite import (
    DEFAULT_MAX_STEPS,
    NormalForm,
    StepLimitExceeded,
    Stepped,
    Stuck,
    StuckError,
    normalize,
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
    PureTerm,
    Seq,
    Var,
    Void,
    add,
    canonicalize,
    congruent,
    is_value,
    mk_app,
    mk_let,
    mk_match,
    mk_seq,
    scale,
    show_term,
    singleton,
    substitute_dist,
    substitute_many_dist,
)
from qlam.types import BOOL, UNIT, Arrow, Sharp

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
    assert isinstance(step(singleton(INL)), NormalForm)


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
    assert isinstance(step(singleton(frozen)), NormalForm)
    assert trace_normalize(singleton(frozen)) == [singleton(frozen)]


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


# ------------------------------------------------------ the reference loops
#
# `reduce_term`, `_as_operator` and `_reductions` are kept as `rewrite` had
# them; `loop_step`, `loop_normalize` and `loop_trace_normalize` are the
# public functions that read them.


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


def loop_step(d, rng=None):
    try:
        summands = next(_reductions(d, 1, rng), None)
    except StuckError as e:
        return Stuck(e.term, e.reason)
    return NormalForm() if summands is None else Stepped(Distribution(tuple(summands)))


def loop_normalize(d, max_steps=DEFAULT_MAX_STEPS, rng=None):
    summands = d.summands
    for summands in _reductions(d, max_steps, rng):
        pass
    return canonicalize(Distribution(tuple(summands)))


def loop_trace_normalize(d, max_steps=DEFAULT_MAX_STEPS):
    trace = [d]
    for summands in _reductions(d, max_steps, None):
        trace.append(Distribution(tuple(summands)))
    trace[-1] = canonicalize(trace[-1])
    return trace


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


def _bits(x):
    """A distribution, a list of them or a step result, with every
    coefficient as the bits of its two parts: `==` alone takes 0.0 and -0.0
    for the same number."""
    if isinstance(x, list):
        return [_bits(d) for d in x]
    if isinstance(x, Stepped):
        return Stepped(_bits(x.dist))
    if isinstance(x, (NormalForm, Stuck)):
        return x
    return tuple((a.real.hex(), a.imag.hex(), t) for a, t in x.summands)


def _outcome(run, *args, **kwargs):
    """The result of a call down to the coefficient bits, or the type and
    text of what it raised."""
    try:
        return _bits(run(*args, **kwargs))
    except (StuckError, StepLimitExceeded, ValueError) as e:
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
        assert _bits(res) == _bits(reference_step(cur))
        assert _outcome(step, cur, random.Random(7)) == _outcome(
            reference_step, cur, random.Random(7))
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


# ------------------------------------------------- the environment machine


def _machine(d, max_steps=DEFAULT_MAX_STEPS):
    """The normal form of the machine with no step seen, whether or not d
    is closed: values bound in environments, an open one substituted at its
    own contraction."""
    cells = rewrite._cells(d)
    for _ in rewrite._run(cells, max_steps, None, False):
        pass
    return canonicalize(Distribution(tuple(rewrite._summands(cells))))


def _last(d, max_steps=DEFAULT_MAX_STEPS):
    return trace_normalize(d, max_steps)[-1]


def _same_as_the_stepping_loop(d, max_steps=DEFAULT_MAX_STEPS):
    """What the recursive loop's normalize gives or raises, which normalize
    and the last element of trace_normalize must match."""
    want = _outcome(loop_normalize, d, max_steps)
    assert _outcome(_last, d, max_steps) == want
    assert _outcome(normalize, d, max_steps) == want
    return want


def test_the_machine_answers_every_generator_program():
    for seed in range(300):
        g = ProgramGen(seed)
        for d in (g.trace_program()[0], g.flow_program()[0]):
            assert _bits(_machine(d)) == _same_as_the_stepping_loop(d)


def test_a_reduct_in_an_argument_merges_and_sorts_there():
    # the three inr summands merge inside the argument, before the scaling
    # by 3 reaches them: 3 * ((0.1 + 0.2) + 0.3), not 3*0.1 + 3*0.2 + 3*0.3
    maker = Lam("y", UNIT, Distribution(((0.1, INR), (0.5, INL), (0.2, INR), (0.3, INR))))
    d = singleton(App(IDENT, App(maker, STAR)), 3)
    want = _same_as_the_stepping_loop(d)
    assert _bits(_machine(d)) == want
    assert want == _bits(Distribution(((1.5, INL), (3 * (0.1 + 0.2 + 0.3), INR))))
    assert 3 * (0.1 + 0.2 + 0.3) != 3 * 0.1 + 3 * 0.2 + 3 * 0.3


@pytest.mark.parametrize("body", [
    Distribution(((_R2, IDENT), (_R2, Lam("z", BOOL, singleton(INL))))),
    singleton(IDENT, 0.5),
], ids=["a proper distribution", "one scaled term"])
def test_an_operator_that_reduces_to_more_than_one_unscaled_term_is_stuck(body):
    d = singleton(App(App(Lam("x", UNIT, body), STAR), INR))
    kind, text = _same_as_the_stepping_loop(d)
    assert kind is StuckError and "proper distribution" in text
    assert _outcome(_machine, d) == (kind, text)


def test_an_operator_that_took_steps_is_stuck_as_it_stands():
    # the operator takes one step, to \y, then reduces to two summands: the
    # stuck application shows it after that first step, not as written
    maker = Lam("x", UNIT, singleton(Lam("y", UNIT, Distribution(
        ((_R2, IDENT), (_R2, Lam("z", BOOL, singleton(INL))))))))
    d = singleton(App(App(App(maker, STAR), STAR), INR))
    kind, text = _same_as_the_stepping_loop(d)
    assert kind is StuckError and text.startswith("stuck term (\\y:U. ")
    assert _outcome(_machine, d) == (kind, text)


def test_an_operator_whose_argument_reduces_to_a_proper_distribution_is_stuck():
    # the inner argument is reduced in an argument frame under the operator
    # frame, so the stuck term is found by looking past that argument frame
    d = parse_program(r"((\g:#(U+U). \y:U. y) ((\x:U. 0.6 * inl x + 0.8 * inr x) *)) *")
    res = step(d)
    assert isinstance(res, Stuck) and res.reason == "operator reduced to a proper distribution"
    assert _bits(res) == _bits(reference_step(d))
    kind, text = _outcome(normalize, d)
    assert kind is StuckError and text.endswith("operator reduced to a proper distribution")
    assert _outcome(reference_normalize, d) == (kind, text)


def test_an_operator_whose_reduct_merges_to_one_term_applies():
    # merged where an argument's context canonicalizes the reduct; at the
    # top of the operator the two summands stand as they are, and are stuck
    halves = Lam("x", UNIT, Distribution(((0.5, IDENT), (0.5, IDENT))))
    pass_on = Lam("f", Arrow(BOOL, BOOL), singleton(Var("f")))
    d = singleton(App(App(pass_on, App(halves, STAR)), INR), -1j)
    want = _same_as_the_stepping_loop(d)
    assert _bits(_machine(d)) == want
    # -1j is (-0.0)-1j; each step multiplies by the reduct's coefficient
    # 1+0j, and -0.0*1 - (-1)*0 is +0.0
    assert want == _bits(singleton(INR, complex(0.0, -1.0)))
    d = singleton(App(App(halves, STAR), INR))
    want = _same_as_the_stepping_loop(d)
    assert want[0] is StuckError
    assert _outcome(_machine, d) == want


@pytest.mark.parametrize("src", [
    OVERFLOW_SRC,
    # the reduct overflows where the argument's context merges it
    r"(\x:U+U. x) ((\y:U. 1e308 * inl * + 1e308 * inl *) *)",
])
def test_a_coefficient_that_overflows_leaves_the_machine(src):
    # the machine raises the overflow itself, at the step the loop does
    d = parse_program(src)
    kind, text = _same_as_the_stepping_loop(d)
    assert kind is ValueError and "non-finite coefficient" in text
    assert _outcome(_machine, d) == (kind, text)


def test_the_step_limit_inside_a_summand():
    # three beta steps in one summand, after a summand of one step
    d = add(singleton(App(IDENT, INL), 0.5),
            singleton(App(IDENT, App(IDENT, App(IDENT, INR))), 0.5))
    assert _same_as_the_stepping_loop(d, 3) == (
        StepLimitExceeded, "no normal form within 3 steps")
    assert _outcome(_machine, d, 3) == (StepLimitExceeded, "no normal form within 3 steps")
    assert _bits(_machine(d, 4)) == _same_as_the_stepping_loop(d, 4)


def test_a_closure_read_back_into_an_open_program_renames_as_substitution_does():
    # y is free: substituting it under \y renames that binder.  An open
    # value is substituted at its own contraction, as the loop does.
    d = parse_program(r"(\x:U. \y:U. x) y")
    want = _same_as_the_stepping_loop(d)
    assert _outcome(step, d) == _outcome(loop_step, d)
    assert want == _bits(singleton(Lam("y_1", UNIT, singleton(Var("y")))))


def test_a_closure_in_the_normal_form_is_read_back():
    d = parse_program(r"(\x:U+U. \f:U -> U. \y:U. f y ; x) (inl *) (\z:U. z)")
    want = _same_as_the_stepping_loop(d)
    assert _bits(_machine(d)) == want
    assert want == _bits(parse_program(r"\y:U. (\z:U. z) y ; inl *"))


def test_every_gate_of_a_six_qubit_circuit_normalizes_as_the_stepping_loop():
    rng = np.random.default_rng(6)
    n = 6
    gates = [(gate_library["H"], [q]) for q in range(n)]
    for _ in range(3):
        for q in range(n - 1):
            gates.append((gate_library[("CNOT", "CZ", "SWAP")[q % 3]], [q, q + 1]))
        for q in range(n):
            u, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            gates.append((GateMatrix(u), [q]))
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    state = StateVector(v / np.linalg.norm(v))
    d = encode(state)
    for gate, targets in gates:
        lam = compile_gate(gate, targets, n)
        app = Distribution(tuple((a, App(lam, t)) for a, t in d.summands))
        d = normalize(app)
        assert _bits(d) == _bits(_last(app))
        assert _bits(_machine(app)) == _bits(d)
    assert _bits(run_circuit(gates, state)[0]) == _bits(d)


def test_a_deep_evaluation_context_normalizes_without_recursion():
    # 20000 nested arguments: the machine keeps its continuation on the heap
    t = STAR
    for _ in range(20000):
        t = App(IDENT, t)
    assert normalize(singleton(t)) == singleton(STAR)


def _chain(depth):
    """An identity applied to an identity applied ... to *, depth deep."""
    t = STAR
    for _ in range(depth):
        t = App(IDENT, t)
    return singleton(t)


def test_a_step_in_a_deep_evaluation_context_needs_no_recursion():
    ((c, t),) = _stepped(_chain(20000)).summands
    assert c == 1
    depth = 0
    while t is not STAR:
        assert isinstance(t, App) and t.fun is IDENT
        t = t.arg
        depth += 1
    assert depth == 19999


def test_a_trace_through_a_deep_evaluation_context_ends_in_the_normal_form():
    d = _chain(1500)
    trace = trace_normalize(d)
    assert len(trace) == 1501
    assert trace[0] is d
    assert _bits(trace[-1]) == _bits(normalize(d)) == _bits(singleton(STAR))


def test_a_beta_into_a_deep_value_needs_no_recursion():
    # (\y:U. inr^10000 y) *: the step substitutes * under 10,000 injections
    depth = 10_000
    body = Var("y")
    for _ in range(depth):
        body = InrV(body)
    d = singleton(App(Lam("y", UNIT, singleton(body)), STAR))
    want = STAR
    for _ in range(depth):
        want = InrV(want)
    assert normalize(d) == singleton(want)
    trace = trace_normalize(d)
    assert len(trace) == 2 and trace[0] is d and trace[1] == singleton(want)


# ------------------------------------------- the machine against the loop


def _agrees_with_the_loop(d, max_steps=DEFAULT_MAX_STEPS, walk=30):
    """step, trace_normalize and normalize, with and without a seeded rng,
    give or raise what the recursive loop does, down to the coefficient
    bits."""
    assert _outcome(trace_normalize, d, max_steps) == _outcome(loop_trace_normalize, d, max_steps)
    assert _outcome(normalize, d, max_steps) == _outcome(loop_normalize, d, max_steps)
    for seed in range(2):
        assert _outcome(normalize, d, max_steps, random.Random(seed)) == _outcome(
            loop_normalize, d, max_steps, random.Random(seed))
    cur = d
    for i in range(walk):
        assert _outcome(step, cur, random.Random(i)) == _outcome(loop_step, cur, random.Random(i))
        res = _outcome(step, cur)
        assert res == _outcome(loop_step, cur)
        if not isinstance(res, Stepped):
            break
        cur = step(cur).dist


def _benchmark_programs():
    """The benchmark's corpus generator (perfbench/programs.py)."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "programs.py"
    spec = importlib.util.spec_from_file_location("perfbench_programs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_machine_matches_the_loop_on_benchmark_corpus_programs():
    stream = _benchmark_programs().programs("machine-vs-loop")
    for i in range(240):
        d, _ = next(stream)
        _agrees_with_the_loop(d, (DEFAULT_MAX_STEPS, 2)[i % 2])


def test_the_machine_matches_the_loop_on_compiled_gate_steps():
    rng = np.random.default_rng(16)
    for n, targets in [(1, [0]), (2, [1]), (2, [1, 0]), (3, [2, 0]), (3, [0, 1, 2])]:
        g = len(targets)
        u, _ = np.linalg.qr(rng.normal(size=(1 << g, 1 << g))
                            + 1j * rng.normal(size=(1 << g, 1 << g)))
        lam = compile_gate(GateMatrix(u), targets, n)
        v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        d = encode(StateVector(v / np.linalg.norm(v)))
        _agrees_with_the_loop(Distribution(tuple((a, App(lam, t)) for a, t in d.summands)))


def _rebuild(x, leaf):
    """x with every unit value and variable u in it replaced by leaf(u),
    visited left to right."""
    if isinstance(x, Distribution):
        return Distribution(tuple((a, _rebuild(t, leaf)) for a, t in x.summands))
    if isinstance(x, (Void, Var)):
        return leaf(x)
    return type(x)(**{
        f: _rebuild(v, leaf) if isinstance(v, (PureTerm, Distribution)) else v
        for f, v in ((f, getattr(x, f)) for f in x.__match_args__)})


def _opened(d, rng):
    """d with one unit value replaced by a free name: mostly the name of a
    variable d binds, so that substituting it under that binder renames."""
    names, units = [], []

    def look(u):
        (units if u is STAR else names).append(u)
        return u

    _rebuild(d, look)
    k = rng.randrange(len(units))
    free = Var(rng.choice(names).name if names and rng.random() < 0.8 else "q")
    seen = iter(range(len(units)))
    return _rebuild(d, lambda u: free if u is STAR and next(seen) == k else u)


@pytest.mark.parametrize("src", [
    r"(\x:U. \y:U. x) y",
    r"(\x:U. \y:U. \y_1:U. x y) y",
    r"(\f:U -> U. \y:U. f y) (\z:U. y)",
    r"let (a, b) = (y, *) in \y:U. (a, b)",
    r"match inl y { inl a -> \y:U. a | inr b -> b }",
    r"(\x:U. x) y ; *",
    # the machine binds closed values, splits a summand inside a context,
    # then meets an open value and substitutes it
    r"(\x:U+U. (\y:U. x) q) ((\u:U. 0.6 * inl * + 0.8 * inr *) *)",
    r"match (\u:U. 0.6 * inl * + 0.8 * inr *) * "
    r"{ inl a -> (\y:U. a) q | inr b -> let (c, d) = (b, q) in (\d:U. c) d }",
    r"((\y:U. \q:U. y) q ; *) ; inl *",
])
def test_the_machine_matches_the_loop_on_open_programs_that_rename(src):
    _agrees_with_the_loop(parse_program(src))


def test_a_closed_program_normalizes_in_environments(monkeypatch):
    # closed values are bound, not substituted: neither the benchmark's
    # closed programs nor a compiled gate applied to a state substitute
    programs = _benchmark_programs().programs("environments")
    closed = [next(programs)[0] for _ in range(100)]
    lam = compile_gate(gate_library["CNOT"], [1, 0], 3)
    closed.append(Distribution(tuple(
        (a, App(lam, t)) for a, t in encode(StateVector([0.6, 0, 0, 0, 0, 0, 0.8, 0])).summands)))
    want = [loop_normalize(d) for d in closed]

    def refuse(*args):
        raise AssertionError("substituted a closed value")

    monkeypatch.setattr(rewrite, "substitute_dist", refuse)
    monkeypatch.setattr(rewrite, "substitute_many_dist", refuse)
    assert [_bits(normalize(d)) for d in closed] == [_bits(d) for d in want]
    with pytest.raises(AssertionError, match="substituted"):
        normalize(parse_program(r"(\x:U. \y:U. x) y"))


def test_an_open_value_is_substituted_once_at_its_own_contraction(monkeypatch):
    # only y := q binds a name free in the input; the contractions after it
    # bind closed values in the environment
    calls = 0

    def counting(real):
        def count(*args):
            nonlocal calls
            calls += 1
            return real(*args)
        return count

    monkeypatch.setattr(rewrite, "substitute_dist", counting(rewrite.substitute_dist))
    monkeypatch.setattr(rewrite, "substitute_many_dist", counting(rewrite.substitute_many_dist))
    assert normalize(parse_program(r"(\y:U. (\a:U. a) ((\b:U. b) *)) q")) == singleton(STAR)
    assert calls == 1


def test_a_seen_step_plugs_its_reduct_back_without_the_constructors(monkeypatch):
    # each summand of a reduct goes back through its frames as the machine
    # reads them; the loop, which builds with the constructors, is not patched
    def refuse(*args):
        raise AssertionError("plugged back through a constructor")

    for name in ("mk_app", "mk_seq", "mk_let", "mk_match"):
        monkeypatch.setattr(rewrite, name, refuse)
    stream = _benchmark_programs().programs("plug-back")
    for _ in range(60):
        _agrees_with_the_loop(next(stream)[0])
    lam = compile_gate(gate_library["CNOT"], [0, 2], 3)
    state = encode(StateVector([0, 0.6, 0, 0, 0.8j, 0, 0, 0]))
    _agrees_with_the_loop(Distribution(tuple((a, App(lam, t)) for a, t in state.summands)))


def test_the_machine_matches_the_loop_on_opened_generator_programs():
    rng = random.Random(16)
    for seed in range(150):
        g = ProgramGen(seed)
        for d in (g.trace_program()[0], g.flow_program()[0]):
            _agrees_with_the_loop(_opened(d, rng))


def test_a_random_strategy_draws_without_rescanning_the_summands():
    # 4000 summands of one step each: drawing from a rebuilt list of the
    # reducible summands made the rng run hundreds of times slower
    d = Distribution(tuple((1 / 64, App(IDENT, (INL, INR)[k % 2])) for k in range(4000)))

    def best(run):
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            run()
            times.append(time.perf_counter() - t0)
        return min(times)

    leftmost = best(lambda: normalize(d))
    drawn = best(lambda: normalize(d, rng=random.Random(1)))
    assert drawn < 20 * leftmost
