"""Property-based tests (hypothesis; skipped where it is not installed).

Interval arithmetic gives equal values, with equal `str`, whether its
inputs are all `Fraction` or normalised by `model.exact` (an int where
the value is integral), and the normalised run never yields a float.
"""

from fractions import Fraction

import pytest

from flowplan import model, rpg
from flowplan.model import GE, GT, LE, LT, EQ, LinearExpr, exact

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

N_VARS = 3
number = st.one_of(st.integers(-20, 20).map(Fraction),
                   st.fractions(-20, 20, max_denominator=6))
bound = st.one_of(st.none(), number)


@st.composite
def interval(draw):
    lo, hi = draw(bound), draw(bound)
    if lo is not None and hi is not None and lo > hi:
        lo, hi = hi, lo
    return lo, hi


@st.composite
def linear_expr(draw):
    weights = draw(st.dictionaries(st.integers(0, N_VARS - 1),
                                   number.filter(lambda w: w != 0), max_size=N_VARS))
    return weights, draw(number)


def _normalise(x):
    """x with every number in it replaced by its `exact` form."""
    if isinstance(x, Fraction):
        return exact(x)
    if isinstance(x, tuple):
        return tuple(_normalise(y) for y in x)
    if isinstance(x, list):
        return [_normalise(y) for y in x]
    if isinstance(x, dict):
        return {k: _normalise(v) for k, v in x.items()}
    return x


def _flat(x):
    if isinstance(x, (tuple, list)):
        for y in x:
            yield from _flat(y)
    else:
        yield x


def _same(fraction_result, exact_result):
    assert fraction_result == exact_result
    flat_f, flat_e = list(_flat(fraction_result)), list(_flat(exact_result))
    assert [str(v) for v in flat_f] == [str(v) for v in flat_e]
    assert not any(isinstance(v, float) for v in flat_e)


def _task(effects):
    """A task with one action per (variable, op, (weights, constant)) effect."""
    actions = tuple(
        model.GroundAction(i, f"(a{i})", frozenset(), (), frozenset(), frozenset(),
                           (model.NumericEffect(var, op, LinearExpr.build(*magnitude)),))
        for i, (var, op, magnitude) in enumerate(effects))
    return model.GroundTask((), tuple(f"(v{i})" for i in range(N_VARS)), actions,
                            model.State(frozenset(), (0,) * N_VARS), frozenset(), ())


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(st.data())
def test_interval_arithmetic_agrees_on_fraction_and_exact_inputs(data):
    weights, constant = data.draw(linear_expr())
    values = tuple(data.draw(number) for _ in range(N_VARS))
    intervals = [data.draw(interval()) for _ in range(N_VARS)]
    op = data.draw(st.sampled_from((GE, GT, LE, LT, EQ)))
    rhs = data.draw(number)
    effects = data.draw(st.lists(
        st.tuples(st.integers(0, N_VARS - 1),
                  st.sampled_from(("increase", "decrease", "assign")),
                  linear_expr()),
        max_size=4))
    unbounded = data.draw(st.booleans())

    def run(norm):
        expr = LinearExpr.build(norm(weights), norm(constant))
        ivals = norm(intervals)
        lo, hi = rpg.expr_range(expr, ivals)
        return (expr.evaluate(norm(values)), (lo, hi),
                rpg.range_satisfies(lo, hi, op, norm(rhs)),
                rpg._interval_update(_task(norm(effects)), range(len(effects)), ivals,
                                     unbounded))

    fraction_results = run(lambda x: x)
    exact_results = run(_normalise)
    for f_result, e_result in zip(fraction_results, exact_results):
        _same(f_result, e_result)
