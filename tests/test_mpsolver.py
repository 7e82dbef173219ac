"""Solver tests: scratch integrity, spec examples, and brute-force oracles."""

import hashlib
import io
import logging
import random
from fractions import Fraction

import pytest

from flowplan import mpsolver as mp
from flowplan.errors import SolverError
from flowplan.model import exact

from coldsolve import cold_vertex, model_state, status_and_objective, status_read
from oracles import (
    lp_by_vertex_enumeration, lp_optimal_vertices, mip_by_lattice_enumeration, simplex_values,
)


def exchange_model():
    """Maximise v0' subject to v0' = 2C, v1' = 2 - 2C, all non-negative."""
    model = mp.MPModel()
    count = model.add_variable(0, None, name="C")
    v0 = model.add_variable(0, None, name="v0p")
    v1 = model.add_variable(0, None, name="v1p")
    model.add_constraint({v0: 1, count: -2}, "=", 0)
    model.add_constraint({v1: 1, count: 2}, "=", 2)
    model.set_objective({v0: 1}, mp.MAXIMIZE)
    return model, v0, v1


def test_flow_fragment_maximum_is_two():
    model, v0, v1 = exchange_model()
    solution = model.solve()
    assert solution.status == mp.OPTIMAL
    assert solution.objective == 2
    model.set_objective({v1: 1}, mp.MINIMIZE)
    assert model.solve().objective == 0


def test_minimize_nonnegative_variable_gives_zero():
    model = mp.MPModel()
    x = model.add_variable(0, None)
    model.set_objective({x: 1}, mp.MINIMIZE)
    assert model.solve().objective == 0


def test_small_integer_program():
    model = mp.MPModel()
    x = model.add_variable(0, None, kind=mp.INTEGER)
    y = model.add_variable(0, None, kind=mp.INTEGER)
    model.add_constraint({x: 1, y: 1}, "<=", 4)
    model.add_constraint({x: 1}, "<=", 2)
    model.set_objective({x: 3, y: 2}, mp.MAXIMIZE)
    solution = model.solve()
    assert solution.objective == 10
    assert solution.values == (2, 2)


def test_scratch_pop_restores_constraints():
    model = mp.MPModel()
    v = model.add_variable(0, 10)
    before = len(model.constraints)
    model.push_scratch()
    model.add_constraint({v: 1}, "<=", 3)
    model.pop_scratch()
    assert len(model.constraints) == before


def test_scratch_pop_restores_kind_past_inner_change():
    model = mp.MPModel()
    a = model.add_variable(0, 10)
    model.push_scratch()
    model.set_variable_kind(a, mp.INTEGER)
    assert model.variables[a].kind == mp.INTEGER
    model.pop_scratch()
    assert model.variables[a].kind == mp.CONTINUOUS


def test_nested_scratch_lifo():
    model = mp.MPModel()
    v = model.add_variable(0, 5)
    model.set_objective({v: 1}, mp.MAXIMIZE)
    model.push_scratch()
    model.add_constraint({v: 1}, "<=", 4)
    model.push_scratch()
    model.set_variable_bounds(v, 0, 2)
    assert model.solve().objective == 2
    model.pop_scratch()
    assert model.solve().objective == 4
    model.pop_scratch()
    assert model.solve().objective == 5
    assert model.constraints == [] and model.variables[v].ub == 5


def test_mismatched_pop_raises():
    model = mp.MPModel()
    with pytest.raises(SolverError):
        model.pop_scratch()


def test_bad_index_raises():
    model = mp.MPModel()
    with pytest.raises(SolverError):
        model.set_variable_kind(3, mp.INTEGER)
    with pytest.raises(SolverError):
        model.add_constraint({0: 1}, "<=", 1)


def test_scratch_integrity_through_solves():
    """push/mutate/solve/pop leaves later solves identical to a fresh model."""
    def fresh():
        model = mp.MPModel()
        x = model.add_variable(0, 8)
        y = model.add_variable(0, 8, kind=mp.INTEGER)
        model.add_constraint({x: 2, y: 3}, "<=", 12)
        model.set_objective({x: 1, y: 2}, mp.MAXIMIZE)
        return model

    touched = fresh()
    touched.push_scratch()
    touched.add_constraint({0: 1}, "<=", 1)
    touched.set_variable_kind(0, mp.INTEGER)
    touched.set_variable_bounds(1, 0, 2)
    touched.set_objective({0: 5}, mp.MINIMIZE)
    touched.solve()
    touched.pop_scratch()
    reference = fresh()
    for _ in range(3):
        a = touched.solve()
        b = reference.solve()
        assert (a.status, a.objective, a.values) == (b.status, b.objective, b.values)


def test_determinism_identical_models_identical_solutions():
    def build():
        model = mp.MPModel()
        x = model.add_variable(0, 6)
        y = model.add_variable(0, 6)
        z = model.add_variable(0, 6, kind=mp.INTEGER)
        model.add_constraint({x: 1, y: 2, z: 1}, "<=", 9)
        model.add_constraint({x: -1, y: 1}, ">=", -2)
        model.set_objective({x: 2, y: 3, z: 1}, mp.MAXIMIZE)
        return model.solve()
    first, second = build(), build()
    assert first.values == second.values and first.objective == second.objective


def _draw(rng: random.Random, lo: int, hi: int, rational: bool) -> Fraction:
    """An integer in [lo, hi]; with rational data, over a denominator q <= 6."""
    value = rng.randint(lo, hi)
    return Fraction(value, rng.randint(1, 6)) if rational else Fraction(value)


# Integer data, and rational data whose coefficients, right-hand sides and
# bounds are p/q with q <= 6: tableau rows then sit over denominators other
# than 1, flips of a column with a bound p/q scale its rows by q, and the
# ratio test meets fractional caps.
DATA = ("integer", "rational")


def _random_bounds(rng: random.Random, rational: bool) -> tuple[Fraction, Fraction]:
    if not rational:
        return Fraction(0), Fraction(rng.randint(1, 10))
    lb = _draw(rng, -6, 0, True)
    return lb, lb + _draw(rng, 6, 30, True)


def _random_lp(rng: random.Random, rational: bool) -> mp.MPModel:
    n = rng.randint(2, 4)
    rhs_lo = -4 if rational else -10
    model = mp.MPModel()
    for _ in range(n):
        model.add_variable(*_random_bounds(rng, rational))
    for _ in range(rng.randint(2, 6)):
        cols = rng.sample(range(n), rng.randint(1, n))
        coeffs = {c: _draw(rng, -5, 5, rational) for c in cols}
        coeffs = {c: w for c, w in coeffs.items() if w}
        if not coeffs:
            continue
        op = rng.choice(["<=", ">=", "="]) if rng.random() < 0.15 else rng.choice(["<=", ">="])
        model.add_constraint(coeffs, op, _draw(rng, rhs_lo, 20, rational))
    model.set_objective({i: _draw(rng, -5, 5, rational) for i in range(n)},
                        rng.choice([mp.MINIMIZE, mp.MAXIMIZE]))
    return model


@pytest.mark.parametrize("data", DATA)
def test_simplex_matches_vertex_enumeration_on_500_random_lps(data):
    rng = random.Random(12345)
    for trial in range(500):
        model = _random_lp(rng, data == "rational")
        got = model.solve()
        want_status, want_objective = lp_by_vertex_enumeration(model)
        assert got.status == want_status, f"trial {trial}"
        if want_objective is not None:
            gap = abs(got.objective - want_objective)
            assert gap <= Fraction(1, 10**6), f"trial {trial}: gap {gap}"
            assert gap == 0  # exact arithmetic: the tolerance never bites
            assert model.check_assignment(list(got.values)) == [], f"trial {trial}"


def _random_mips(data: str):
    """The 200 random MIPs of one data variant, always the same ones."""
    rational = data == "rational"
    rhs_lo = -4 if rational else -10
    rng = random.Random(777)
    for _ in range(200):
        n = rng.randint(2, 3)
        model = mp.MPModel()
        for _ in range(n):
            model.add_variable(*_random_bounds(rng, rational),
                               kind=rng.choice([mp.INTEGER, mp.INTEGER, mp.BINARY]))
        for _ in range(rng.randint(2, 5)):
            cols = rng.sample(range(n), rng.randint(1, n))
            coeffs = {c: _draw(rng, -5, 5, rational) for c in cols}
            coeffs = {c: w for c, w in coeffs.items() if w}
            if not coeffs:
                continue
            model.add_constraint(coeffs, rng.choice(["<=", ">="]),
                                 _draw(rng, rhs_lo, 20, rational))
        model.set_objective({i: _draw(rng, -5, 5, rational) for i in range(n)},
                            rng.choice([mp.MINIMIZE, mp.MAXIMIZE]))
        yield model


@pytest.mark.parametrize("data", DATA)
def test_branch_and_bound_matches_lattice_enumeration_on_200_random_mips(data):
    for trial, model in enumerate(_random_mips(data)):
        got = model.solve()
        want_status, want_objective = mip_by_lattice_enumeration(model)
        assert got.status == want_status, f"trial {trial}"
        if want_objective is not None:
            assert got.objective == want_objective, f"trial {trial}"
            assert model.check_assignment(list(got.values)) == [], f"trial {trial}"


def test_relaxation_dominates_integer_optimum():
    rng = random.Random(5)
    for _ in range(60):
        model = mp.MPModel()
        n = 3
        for _ in range(n):
            model.add_variable(0, rng.randint(2, 8), kind=mp.INTEGER)
        model.add_constraint({0: 2, 1: 3}, "<=", rng.randint(5, 20))
        model.add_constraint({1: 1, 2: -2}, ">=", rng.randint(-6, 2))
        sense = rng.choice([mp.MINIMIZE, mp.MAXIMIZE])
        model.set_objective({i: Fraction(rng.randint(-4, 4)) for i in range(n)}, sense)
        integral = model.solve()
        if integral.status != mp.OPTIMAL:
            continue
        for i in range(n):
            model.set_variable_kind(i, mp.CONTINUOUS)
        relaxed = model.solve()
        if sense == mp.MINIMIZE:
            assert relaxed.objective <= integral.objective
        else:
            assert relaxed.objective >= integral.objective


def test_lp_format_dump():
    model, _, _ = exchange_model()
    model.set_variable_kind(0, mp.INTEGER)
    out = io.StringIO()
    model.write_lp(out)
    text = out.getvalue()
    assert text.startswith("\\ flowplan mpsolver model\nMaximize\n")
    assert "Subject To" in text and "Bounds" in text and text.endswith("End\n")
    assert "Generals" in text and "C" in text


def test_check_assignment_reports_violations():
    model, v0, v1 = exchange_model()
    ok = model.check_assignment([Fraction(1), Fraction(2), Fraction(0)])
    assert ok == []
    bad = model.check_assignment([Fraction(0), Fraction(2), Fraction(0)])
    assert any("c0" in line for line in bad)


def test_unbounded_and_infeasible_statuses():
    unbounded = mp.MPModel()
    x = unbounded.add_variable(0, None)
    unbounded.set_objective({x: 1}, mp.MAXIMIZE)
    assert unbounded.solve().status == mp.UNBOUNDED

    infeasible = mp.MPModel()
    y = infeasible.add_variable(0, 1)
    infeasible.add_constraint({y: 1}, ">=", 2)
    assert infeasible.solve().status == mp.INFEASIBLE


def test_oracles_with_negative_lower_bounds():
    """Flow models use negative and free bounds; stress the shifted/mirrored
    column handling against both oracles."""
    rng = random.Random(31337)
    for trial in range(100):
        n = rng.randint(2, 4)
        model = mp.MPModel()
        for _ in range(n):
            lb = rng.randint(-5, 0)
            model.add_variable(Fraction(lb), Fraction(lb + rng.randint(1, 10)))
        for _ in range(rng.randint(2, 6)):
            cols = rng.sample(range(n), rng.randint(1, n))
            coeffs = {c: Fraction(rng.randint(-5, 5)) for c in cols}
            coeffs = {c: w for c, w in coeffs.items() if w}
            if not coeffs:
                continue
            op = rng.choice(["<=", ">=", "="]) if rng.random() < 0.2 \
                else rng.choice(["<=", ">="])
            model.add_constraint(coeffs, op, Fraction(rng.randint(-15, 15)))
        model.set_objective({i: Fraction(rng.randint(-5, 5)) for i in range(n)},
                            rng.choice([mp.MINIMIZE, mp.MAXIMIZE]))
        got = model.solve()
        want_status, want_objective = lp_by_vertex_enumeration(model)
        assert got.status == want_status, f"trial {trial}"
        if want_objective is not None:
            assert got.objective == want_objective, f"trial {trial}"
    for trial in range(60):
        n = rng.randint(2, 3)
        model = mp.MPModel()
        for _ in range(n):
            lb = rng.randint(-4, 0)
            model.add_variable(Fraction(lb), Fraction(lb + rng.randint(1, 8)),
                               kind=mp.INTEGER)
        for _ in range(rng.randint(2, 4)):
            cols = rng.sample(range(n), rng.randint(1, n))
            coeffs = {c: Fraction(rng.randint(-4, 4)) for c in cols}
            coeffs = {c: w for c, w in coeffs.items() if w}
            if not coeffs:
                continue
            model.add_constraint(coeffs, rng.choice(["<=", ">="]),
                                 Fraction(rng.randint(-12, 12)))
        model.set_objective({i: Fraction(rng.randint(-4, 4)) for i in range(n)},
                            rng.choice([mp.MINIMIZE, mp.MAXIMIZE]))
        got = model.solve()
        want_status, want_objective = mip_by_lattice_enumeration(model)
        assert got.status == want_status, f"trial {trial}"
        if want_objective is not None:
            assert got.objective == want_objective, f"trial {trial}"


def test_check_assignment_is_exact():
    """Values are exact rationals, so a violation of any size is reported."""
    model = mp.MPModel()
    x = model.add_variable(0, 4, kind=mp.INTEGER)
    y = model.add_variable(0, None)
    model.add_constraint({x: 1, y: 1}, "=", 3)
    tiny = Fraction(1, 10**9)
    assert model.check_assignment([Fraction(1), Fraction(2)]) == []
    problems = model.check_assignment([Fraction(1) + tiny, Fraction(2)])
    assert any("not integral" in line for line in problems)
    assert any("c0" in line for line in problems)
    assert any("below lower bound" in line
               for line in model.check_assignment([Fraction(3), -tiny]))


# -- sparse tableau rows ---------------------------------------------------------


def _run_simplex(model):
    """Solve the relaxation through `_Simplex` directly, keeping the simplex
    so a test can inspect its final tableau."""
    bounds = [model.effective_bounds(i) for i in range(len(model.variables))]
    simplex = mp._Simplex(model, bounds)
    return simplex.result(simplex.finish(simplex.add_rows(0), mp.VERTEX), mp.VERTEX), simplex


def _assert_rows_hold_nonzeros_only(simplex):
    for row in simplex.tableau:
        assert all(value != 0 for value in row.values()), row


def test_redundant_equality_keeps_its_artificial_basic_at_zero():
    model = mp.MPModel()
    x = model.add_variable(0, None)
    y = model.add_variable(0, None)
    model.add_constraint({x: 1, y: 1}, "=", 2)
    model.add_constraint({x: 2, y: 2}, "=", 4)  # twice the first row
    model.set_objective({x: 1, y: 3}, mp.MAXIMIZE)
    solution, simplex = _run_simplex(model)
    assert (solution.status, solution.objective, solution.values) == (mp.OPTIMAL, 6, (0, 2))
    assert lp_by_vertex_enumeration(model) == (mp.OPTIMAL, 6)
    # equality rows get no slack, so every column past the structural ones
    # is an artificial; phase 2 pins artificials to an upper bound of 0
    stuck = [i for i, b in enumerate(simplex.basis) if b >= simplex.nstruct]
    assert len(stuck) == 1
    row = stuck[0]
    assert simplex.upper[simplex.basis[row]] == 0 and simplex.rhs[row] == 0
    # _drive_out found no structural nonzero: x and y cancelled and are gone
    assert all(col >= simplex.nstruct for col in simplex.tableau[row])
    _assert_rows_hold_nonzeros_only(simplex)


def test_pivot_deletes_entries_that_cancel_to_zero():
    model = mp.MPModel()
    x = model.add_variable(0, None)
    y = model.add_variable(0, None)
    z = model.add_variable(0, 3)
    model.add_constraint({x: 1, y: 1}, "<=", 4)
    model.add_constraint({x: 1, y: 1, z: 1}, "<=", 6)
    model.set_objective({x: 1}, mp.MAXIMIZE)
    solution, simplex = _run_simplex(model)
    assert solution.objective == 4
    # x entered on the first row; subtracting it from the second cancelled
    # both x and y there exactly
    assert simplex.basis[0] == x
    assert x not in simplex.tableau[1] and y not in simplex.tableau[1]
    assert simplex.tableau[1][z] == 1
    _assert_rows_hold_nonzeros_only(simplex)


def test_bound_flip_on_a_column_in_no_row():
    model = mp.MPModel()
    x = model.add_variable(0, 5)   # appears in no constraint
    y = model.add_variable(-2, 4)
    model.add_constraint({y: 1}, "<=", 3)
    model.set_objective({x: 1, y: 1}, mp.MAXIMIZE)
    solution, simplex = _run_simplex(model)
    assert solution.values == (5, 3) and solution.objective == 8
    assert simplex.flipped[x] and all(x not in row for row in simplex.tableau)
    # the flip of x and the pivot of y both count as pivots
    assert simplex.pivots == 2
    assert model.solve().values == (5, 3)
    assert model.counters.pivots == 2 and model.counters.bb_nodes == 0


def test_pivots_that_drive_artificials_out_are_counted(monkeypatch):
    """Phase 1 ends with row 0's artificial still basic at zero; the pivot
    that drives it out of the basis counts like any other pivot."""
    model = mp.MPModel()
    x = model.add_variable(0, None)
    y = model.add_variable(0, None)
    model.add_constraint({x: 2, y: 2}, "=", 2)
    model.add_constraint({x: 2, y: 1}, "=", 1)
    model.set_objective({x: 1}, mp.MINIMIZE)
    driven = []
    real_drive_out = mp._Simplex._drive_out

    def drive_out(self, artificial_cols):
        before = (self.basis[0] in artificial_cols, self.rhs[0], self.pivots)
        real_drive_out(self, artificial_cols)
        driven.append(before + (self.basis[0], self.pivots))

    monkeypatch.setattr(mp._Simplex, "_drive_out", drive_out)
    solution, simplex = _run_simplex(model)
    assert solution.values == (0, 1)
    assert driven == [(True, 0, 2, x, 3)]
    assert model.solve().values == (0, 1)
    assert model.counters.pivots == simplex.pivots


def _record_artificials(monkeypatch):
    """Wrap `finish`: the artificial columns of every root it solves."""
    real_finish = mp._Simplex.finish
    seen = []

    def finish(self, artificial_cols, reads):
        seen.append(list(artificial_cols))
        return real_finish(self, artificial_cols, reads)

    monkeypatch.setattr(mp._Simplex, "finish", finish)
    return seen


def test_cold_solve_takes_the_slack_of_a_greater_equal_row_tight_at_zero(monkeypatch):
    """`x - y >= 0` holds with equality at x = y = 0, where the empty simplex
    starts, and neither column is a singleton, so no crash covers it: the
    row takes its slack as basic, and the solve needs no artificial and no
    phase-1 pivot."""
    artificials = _record_artificials(monkeypatch)
    model = mp.MPModel()
    x = model.add_variable(0, None)
    y = model.add_variable(0, None)
    model.add_constraint({x: 1, y: -1}, ">=", 0)
    model.add_constraint({x: 1, y: 1}, "<=", 4)
    model.set_objective({y: 1}, mp.MAXIMIZE)
    simplex = mp._Simplex(model, [model.effective_bounds(i) for i in range(2)])
    assert simplex.add_rows(0) == []
    assert simplex.basis == [2, 3]  # both slacks, numbered in row order
    assert model.solve() == mp.MPSolution(mp.OPTIMAL, 2, (2, 2))
    assert artificials == [[]]
    assert model.counters.pivots == 2  # y enters, then x: phase 2 only
    assert lp_by_vertex_enumeration(model) == (mp.OPTIMAL, 2)


# -- objective-only solves from the live simplex ------------------------------------


def _query(model, objective, sense):
    """An objective-only solve under a scratch-scoped objective, and the cold
    vertex solve of the same model."""
    model.push_scratch()
    try:
        model.set_objective(objective, sense)
        return model.solve(reads=mp.OBJECTIVE), cold_vertex(model)
    finally:
        model.pop_scratch()


def _grown_lps(rng: random.Random, rational: bool, mirrored: bool = False):
    """Models whose columns join in layers, as a flow model's do: rows over
    structural columns with general bounds (an equality row over a
    singleton column, as a flow row over its post column, among them), and
    columns wired into those rows, pinned to [0, 0] until their layer
    raises their upper bound. Between layers an existing coefficient
    sometimes changes, and a scratch row is sometimes added and solved.
    Every other pinned column is written whole by `add_column`, the others
    cell by cell, from the same draws. Yields the model at every
    objective-only query. With `mirrored`, a fifth of the structural
    columns have an upper bound only, and every column's bounds are moved
    by an integer."""
    for _ in range(60):
        model = mp.MPModel()
        base = []
        for _ in range(rng.randint(1, 3)):
            lb, ub = _random_bounds(rng, rational)
            kind = rng.random()
            if mirrored:
                move = rng.randint(-3, 3)
                lb, ub = lb + move, ub + move
                if kind < 0.2:
                    base.append(model.add_variable(None, ub))
                    continue
            base.append(model.add_variable(None if kind < 0.2 else lb,
                                           None if kind < 0.4 else ub))
        for var in base[:rng.randint(0, len(base))]:
            model.add_constraint({var: _draw(rng, 1, 3, rational)}, "=",
                                 _draw(rng, -4, 8, rational))
        for _ in range(rng.randint(1, 4)):
            cols = rng.sample(base, rng.randint(0, len(base)))
            coeffs = {c: _draw(rng, -5, 5, rational) for c in cols}
            model.add_constraint(coeffs, rng.choice(["<=", ">="]),
                                 _draw(rng, -4, 20, rational))
        layers = []
        for _ in range(rng.randint(2, 5)):
            layer = []
            for _ in range(rng.randint(0, 3)):
                ub = rng.choice([None, _draw(rng, 1, 8, rational)])
                coeffs = {row: _draw(rng, -5, 5, rational)
                          for row in rng.sample(range(len(model.constraints)),
                                                rng.randint(1, len(model.constraints)))}
                if len(model.variables) % 2:
                    layer.append((model.add_column(0, 0, coeffs), ub))
                    continue
                col = model.add_variable(0, 0)
                for row, weight in coeffs.items():
                    model.set_coefficient(row, col, weight)
                layer.append((col, ub))
            layers.append(layer)
        for layer in layers:
            for col, ub in layer:
                model.set_variable_bounds(col, 0, ub)
            if rng.random() < 0.15:
                row = rng.randrange(len(model.constraints))
                model.set_coefficient(row, rng.randrange(len(model.variables)),
                                      _draw(rng, -3, 3, rational))
            if rng.random() < 0.2:
                model.push_scratch()
                model.add_constraint({rng.randrange(len(model.variables)): 1}, ">=",
                                     _draw(rng, 0, 4, rational))
                model.solve()
                model.pop_scratch()
            for _ in range(rng.randint(1, 3)):
                yield model


@pytest.mark.parametrize("data", DATA)
def test_objective_only_solves_equal_cold_solves_on_grown_lps(data):
    """Every objective-only solve of a model grown column by column returns
    the status and objective, types included, of a cold solve, warm from
    the live simplex or cold where the model changed otherwise."""
    rng = random.Random(4242)
    warm = cold_roots = 0
    for model in _grown_lps(rng, data == "rational"):
        cols = rng.sample(range(len(model.variables)),
                          min(len(model.variables), rng.randint(1, 2)))
        objective = {c: _draw(rng, -3, 3, data == "rational") or 1 for c in cols}
        before = (model.counters.root_warm, model.counters.root_cold)
        got, cold = _query(model, objective, rng.choice([mp.MINIMIZE, mp.MAXIMIZE]))
        warm += model.counters.root_warm - before[0]
        cold_roots += model.counters.root_cold - before[1]
        assert status_and_objective(got) == status_and_objective(cold)
        assert got.values == ()
    assert warm > 100 and cold_roots > 50, (warm, cold_roots)


def _solution_key(solution):
    """Status, objective and values, types included."""
    return (solution.status, solution.objective, type(solution.objective),
            solution.values, tuple(map(type, solution.values)))


def _count_roots(monkeypatch):
    """Wrap root solves: asserts that no cold solve follows a warm root, and
    counts the warm roots that work on a copy of the live simplex, those of
    them read for their vertex, and those of these whose canonical point
    took tie-break pivots, so that the optimum first reached was not
    unique."""
    real_solve_root, real_solve_cold = mp.MPModel._solve_root, mp.MPModel._solve_cold
    real_canonicalize = mp._Simplex.canonicalize
    seen = {"cold": 0, "tie_broken": 0, "warm": 0, "warm_vertex": 0, "warm_tie_broken": 0}

    def solve_cold(self, bounds, reads):
        seen["cold"] += 1
        return real_solve_cold(self, bounds, reads)

    def canonicalize(self):
        before = self.pivots
        status = real_canonicalize(self)
        seen["tie_broken"] += self.pivots > before
        return status

    def solve_root(self, reads, keep=False):
        warm, cold, tie_broken = self.counters.root_warm, seen["cold"], seen["tie_broken"]
        status, simplex = real_solve_root(self, reads, keep)
        if self.counters.root_warm > warm and not keep:
            assert seen["cold"] == cold  # kept: never solved again cold
            seen["warm"] += 1
            if reads == mp.VERTEX:
                seen["warm_vertex"] += 1
                seen["warm_tie_broken"] += seen["tie_broken"] > tie_broken
        return status, simplex

    monkeypatch.setattr(mp.MPModel, "_solve_cold", solve_cold)
    monkeypatch.setattr(mp.MPModel, "_solve_root", solve_root)
    monkeypatch.setattr(mp._Simplex, "canonicalize", canonicalize)
    return seen


@pytest.mark.parametrize("data", DATA)
def test_warm_roots_equal_cold_solves_on_grown_lps(monkeypatch, data):
    """After each objective-only query of a grown LP, scratch <=, >= and =
    rows, negative right-hand sides among them, over the structural
    columns (shifted, mirrored, free, and flipped in the live simplex) and
    sometimes a new column are added, and sometimes a column is made
    integer, and the model is solved for its status under the empty
    objective or for its vertex under a new one. The solve, warm from a copy
    of the live simplex where the model allows, keeps every warm root and
    returns the cold solve's status, and for a vertex read its objective
    and values, types included, also where the warm optimum was not unique
    until the tie-break moved it to the canonical point."""
    rational = data == "rational"
    rng = random.Random(2718)
    counters = mp.Counters()
    roots = _count_roots(monkeypatch)
    flipped_terms = 0
    for model in _grown_lps(rng, rational, mirrored=True):
        model.counters = counters
        col = rng.randrange(len(model.variables))
        _query(model, {col: _draw(rng, 1, 3, rational)},
               rng.choice([mp.MINIMIZE, mp.MAXIMIZE]))
        live = model._live
        model.push_scratch()
        try:
            if rng.random() < 0.3:
                # a new column, as a fact column of a goal check is: its
                # entries lie in the rows appended after it
                model.add_variable(0, rng.choice([None, _draw(rng, 1, 6, rational)]))
            for _ in range(rng.randint(1, 3)):
                cols = rng.sample(range(len(model.variables)),
                                  rng.randint(1, min(3, len(model.variables))))
                model.add_constraint({c: _draw(rng, -4, 4, rational) for c in cols},
                                     rng.choice(["<=", ">=", "="]),
                                     _draw(rng, -8, 6, rational))
                if live is not None:
                    flipped_terms += sum(live.flipped[j] for c in cols if c < len(live.col_of)
                                         for j, _ in live.col_of[c])
            if rng.random() < 0.25:
                model.set_variable_kind(rng.randrange(len(model.variables)), mp.INTEGER)
            if rng.random() < 0.5:
                model.set_objective({}, mp.MINIMIZE)
                got = model.solve(reads=mp.STATUS)
                assert status_and_objective(got) == status_and_objective(cold_vertex(model))
            else:
                cols = rng.sample(range(len(model.variables)),
                                  min(len(model.variables), rng.randint(1, 3)))
                model.set_objective({c: _draw(rng, -3, 3, rational) or 1 for c in cols},
                                    rng.choice([mp.MINIMIZE, mp.MAXIMIZE]))
                assert _solution_key(model.solve()) == _solution_key(cold_vertex(model))
        finally:
            model.pop_scratch()
    assert roots["warm"] > 100 and roots["warm_vertex"] > 50, roots
    assert roots["warm_tie_broken"] > 20, roots
    assert flipped_terms > 40


def _live_model():
    """A model whose live simplex holds x at its upper bound (flipped) and
    y basic, with the slack of row 0 nonbasic."""
    model = mp.MPModel()
    x = model.add_variable(0, 3)
    y = model.add_variable(-2, 5)
    model.add_constraint({x: 1, y: 1}, "<=", 6)
    got, _ = _query(model, {x: 1, y: 1}, mp.MAXIMIZE)
    assert got.objective == 6 and model._live.flipped[0]
    return model, x, y


def test_warm_root_leaves_the_live_simplex_as_it_was():
    """A warm root that raises a pinned column's upper bound and adds rows
    in its copy of the live simplex changes nothing the next
    objective-only query sees: it returns what it returns without that
    root, with the same pivots."""
    runs = []
    for goal_check in (False, True):
        model = mp.MPModel()
        x = model.add_variable(0, 3)
        y = model.add_variable(-2, 5)
        z = model.add_variable(0, 0)
        model.add_constraint({x: 1, y: 1, z: 1}, "<=", 6)
        assert _query(model, {x: 1, y: 1}, mp.MAXIMIZE)[0].objective == 6
        model.set_variable_bounds(z, 0, 4)
        if goal_check:
            model.push_scratch()
            model.add_constraint({z: 1, y: -1}, ">=", 1)
            model.add_constraint({x: 1}, "<=", 2)
            assert model.solve(reads=mp.STATUS).status == mp.OPTIMAL
            model.pop_scratch()
            assert model.counters.root_warm == 1
        counters = model.counters
        before = (counters.pivots, counters.root_warm, counters.root_cold)
        got, cold = _query(model, {z: 1, x: 2}, mp.MAXIMIZE)
        assert status_and_objective(got) == status_and_objective(cold)
        runs.append((got, counters.pivots - before[0], counters.root_warm - before[1],
                     counters.root_cold - before[2]))
    assert runs[0] == runs[1]


def test_objective_read_after_an_appended_row_is_warm():
    """A row appended for good after a query, violated at the live point, is
    written onto the live simplex itself with an artificial: the next
    objective read is warm, returns the cold solve's status and objective,
    and leaves the row in the live simplex, so the query after it is warm
    too."""
    model, x, y = _live_model()
    live = model._live
    model.add_constraint({x: 1, y: -1}, ">=", 2)  # x = y = 3 at the live point
    for objective, sense, want in (({x: 1, y: 1}, mp.MAXIMIZE, 4), ({y: 1}, mp.MINIMIZE, -2)):
        got, cold = _query(model, objective, sense)
        assert status_and_objective(got) == status_and_objective(cold) == (mp.OPTIMAL, want,
                                                                            int)
        assert model._live is live and len(live.tableau) == 2
    assert (model.counters.root_warm, model.counters.root_cold) == (2, 1)


def test_warm_objective_read_at_the_pivot_limit_drops_the_live_simplex():
    """A warm objective read cut by the pivot limit returns LIMIT and leaves
    no live simplex, so the next query is cold, and correct."""
    model, x, y = _live_model()
    model.pivot_limit = 0
    assert _query(model, {y: 1}, mp.MINIMIZE)[0] == mp.MPSolution(mp.LIMIT, None, ())
    assert model._live is None
    assert (model.counters.root_warm, model.counters.root_cold) == (1, 1)
    model.pivot_limit = mp.DEFAULT_PIVOT_LIMIT
    got, cold = _query(model, {y: 1}, mp.MINIMIZE)
    assert status_and_objective(got) == status_and_objective(cold) == (mp.OPTIMAL, -2, int)
    assert (model.counters.root_warm, model.counters.root_cold) == (1, 2)
    assert model._live is not None


def test_live_simplex_of_an_unbounded_query_seeds_a_warm_root():
    """A query whose cold solve ends unbounded, with no phase 1, keeps its
    simplex live though no objective was proved optimal; a feasibility
    check then starts from a copy of it."""
    model = mp.MPModel()
    x = model.add_variable(0, None)
    y = model.add_variable(0, None)
    model.add_constraint({x: 1, y: -1}, "<=", 2)
    assert _query(model, {x: 1}, mp.MAXIMIZE)[0].status == mp.UNBOUNDED
    assert model._live is not None
    for rhs, want in ((5, mp.OPTIMAL), (-1, mp.INFEASIBLE)):
        model.push_scratch()
        model.add_constraint({x: 1, y: 1}, "<=", rhs)
        model.add_constraint({x: 1}, ">=", 3)
        got = model.solve(reads=mp.STATUS)
        assert got.status == cold_vertex(model).status == want
        model.pop_scratch()
    assert model.counters.root_warm == 2


def test_warm_roots_at_the_pivot_limit(monkeypatch):
    """At a pivot limit of 0, a warm root returns LIMIT whatever it is read
    for, as the cold solve at that limit does; the warm root is kept, so no
    cold solve follows it. At the default limit the warm vertex read
    returns the cold solve's vertex."""
    roots = _count_roots(monkeypatch)
    model, x, y = _live_model()
    model.pivot_limit = 0
    model.push_scratch()
    model.add_constraint({x: 1}, "<=", 1)                 # violated: an artificial
    assert model.solve(reads=mp.STATUS).status == mp.LIMIT
    assert model.counters.root_warm == 1
    model.set_objective({x: -1, y: 1}, mp.MINIMIZE)
    assert model.solve() == mp.MPSolution(mp.LIMIT, None, ())
    assert model.counters.root_warm == 2 and roots["warm_vertex"] == 1
    assert cold_vertex(model) == mp.MPSolution(mp.LIMIT, None, ())
    model.pivot_limit = mp.DEFAULT_PIVOT_LIMIT
    assert model.solve() == cold_vertex(model) == mp.MPSolution(mp.OPTIMAL, -3, (1, -2))
    assert model.counters.root_warm == 3 and roots["warm_vertex"] == 2
    model.pop_scratch()


def test_warm_root_crashes_a_column_in_no_live_row(monkeypatch):
    """A scratch equality row over x, which has entries in the live rows,
    and z, which has none: z, whose value 1 fits its bounds there, becomes
    the row's basic column, so the warm root adds no artificial and
    returns the cold solve's vertex."""
    artificials = _record_artificials(monkeypatch)
    model = mp.MPModel()
    x = model.add_variable(0, 3)
    y = model.add_variable(0, 5)
    z = model.add_variable(0, 4)
    model.add_constraint({x: 1, y: 1}, "<=", 6)
    assert _query(model, {x: 1, y: 1}, mp.MAXIMIZE)[0].objective == 6
    live = model._live
    assert live.flipped[x] and live.basis == [y]
    model.push_scratch()
    model.add_constraint({z: 2, x: 1}, "=", 5)  # 2z - x' = 2 over x = 3 - x'
    model.set_objective({x: 1, z: 1}, mp.MAXIMIZE)
    artificials.clear()
    roots = []
    real_solve_root = mp.MPModel._solve_root

    def solve_root(self, reads, keep=False):
        status, simplex = real_solve_root(self, reads, keep)
        roots.append(simplex)
        return status, simplex

    monkeypatch.setattr(mp.MPModel, "_solve_root", solve_root)
    got = model.solve()
    assert model.counters.root_warm == 1 and artificials == [[]]
    assert roots[0].basis[1] == z
    assert got == cold_vertex(model) == mp.MPSolution(mp.OPTIMAL, 4, (3, 0, 1))
    model.pop_scratch()


def test_warm_root_copy_leaves_out_columns_fixed_at_zero(monkeypatch):
    """p and q sit nonbasic and fixed at 0 in the live simplex; q's upper
    bound is then raised. The copy that a vertex read works on keeps q,
    leaves out p's column, which its rows and the appended row are written
    without, and returns the cold solve's vertex with the pivots of a copy
    that keeps every column; the live simplex keeps both."""
    runs = []
    for leave_out in (True, False):
        model = mp.MPModel()
        x = model.add_variable(0, 3)
        y = model.add_variable(0, 5)
        p = model.add_variable(0, 0)
        q = model.add_variable(0, 0)
        model.add_constraint({x: 1, y: 1, p: 1, q: 1}, "<=", 6)
        model.add_constraint({y: 1, p: -2, q: 1}, "<=", 4)
        assert _query(model, {x: 1, y: 1}, mp.MAXIMIZE)[0].objective == 6
        live = model._live
        model.set_variable_bounds(q, 0, 2)
        model.push_scratch()
        model.add_constraint({x: 1, p: 1, q: -1}, ">=", 2)
        model.set_objective({q: 1, y: -1}, mp.MAXIMIZE)
        roots = []
        real_copy = mp._Simplex.copy

        def copy(self, fixed_except=None):
            clone = real_copy(self, fixed_except if leave_out else None)
            roots.append(clone)
            return clone

        monkeypatch.setattr(mp._Simplex, "copy", copy)
        got = model.solve()
        monkeypatch.undo()
        ((p_col, _),) = live.col_of[p]
        if leave_out:
            assert roots[0].col_of[p] == [] and roots[0].col_of[q] == live.col_of[q]
            assert all(p_col not in row for row in roots[0].tableau)
        assert live.col_of[p] == [(p_col, 1)] and any(p_col in row for row in live.tableau)
        assert _solution_key(got) == _solution_key(cold_vertex(model))
        runs.append((got, model.counters.pivots))
        model.pop_scratch()
    assert runs[0] == runs[1]


@pytest.mark.parametrize("data", DATA)
def test_raised_and_new_columns_equal_cold_solves(data):
    """On the live simplex of a grown LP, some pinned columns get their
    upper bound raised, a new column sometimes joins with its entries in
    the rows appended after it only, and rows are appended: the root, warm
    from a copy of the live simplex, returns the cold solve's vertex, and
    an objective read on the live simplex itself its status and
    objective."""
    rational = data == "rational"
    rng = random.Random(1618)
    raised = joined = 0
    for model in _grown_lps(rng, rational, mirrored=True):
        _query(model, {rng.randrange(len(model.variables)): 1}, mp.MINIMIZE)
        if model._live is None:
            continue
        pinned = [v for v in range(len(model.variables))
                  if model.effective_bounds(v) == (0, 0)]
        model.push_scratch()
        try:
            for var in pinned:
                if rng.random() < 0.6:
                    model.set_variable_bounds(var, 0, rng.choice([None, _draw(rng, 1, 6,
                                                                              rational)]))
                    raised += 1
            if rng.random() < 0.5:
                cols = [model.add_variable(0, rng.choice([None, _draw(rng, 1, 6, rational)]))]
                joined += 1
            else:
                cols = []
            for _ in range(rng.randint(0, 2)):
                cols += rng.sample(range(len(model.variables)), 1)
                model.add_constraint({c: _draw(rng, -4, 4, rational) or 1 for c in cols},
                                     rng.choice(["<=", ">=", "="]), _draw(rng, -8, 6, rational))
            objective = {c: _draw(rng, -3, 3, rational) or 1
                         for c in rng.sample(range(len(model.variables)), 2)
                         if len(model.variables) > 1}
            sense = rng.choice([mp.MINIMIZE, mp.MAXIMIZE])
            warm = model.counters.root_warm
            model.set_objective(objective, sense)
            assert _solution_key(model.solve()) == _solution_key(cold_vertex(model))
            got, cold = _query(model, objective, sense)
            assert status_and_objective(got) == status_and_objective(cold)
            assert model.counters.root_warm == warm + 2
        finally:
            model.pop_scratch()
    assert raised > 50 and joined > 30, (raised, joined)


@pytest.mark.parametrize("case", ["nonbasic", "flipped", "basic"])
def test_raising_a_pinned_column_on_a_live_simplex(case):
    """z, pinned to [0, 0], sits in the live simplex nonbasic, nonbasic and
    flipped at its bound 0, or basic at 0 in a degenerate row. Raising its
    upper bound to 2 keeps the live basis primal feasible: every solve
    after it is warm and returns the cold solve's vertex, or its status
    and objective for an objective read."""
    model = mp.MPModel()
    x = model.add_variable(0, 4)
    y = model.add_variable(0, 5)
    z = model.add_variable(0, 0)
    model.add_constraint({x: 1, z: 1}, "<=", 3)
    model.add_constraint({z: 1, y: -1}, "<=", 0)
    model.add_constraint({x: 1, y: 1}, "<=", 6)
    assert _query(model, {x: 1}, mp.MAXIMIZE)[0].objective == 3
    live = model._live
    ((col, _),) = live.col_of[z]
    assert col not in live.row_of and not live.flipped[col]
    if case == "flipped":
        live._flip_column(col)
    elif case == "basic":
        row = next(i for i, entries in enumerate(live.tableau)
                   if col in entries and live.rhs[i] == 0)
        live._pivot(row, col)
    model.set_variable_bounds(z, 0, 2)
    for objective, sense in (({z: 1}, mp.MAXIMIZE), ({x: 1, z: 1}, mp.MAXIMIZE),
                             ({z: 1, y: 1}, mp.MINIMIZE), ({z: -1, y: 1}, mp.MAXIMIZE)):
        model.push_scratch()
        model.set_objective(objective, sense)
        assert _solution_key(model.solve()) == _solution_key(cold_vertex(model))
        model.pop_scratch()
        got, cold = _query(model, objective, sense)
        assert status_and_objective(got) == status_and_objective(cold)
    assert (model.counters.root_warm, model.counters.root_cold) == (8, 1)


def test_pop_scratch_after_add_column_restores_every_row():
    """`add_column` writes the column's nonzero cells, a zero left out, with
    one undo entry; popping it restores every row, its dict order included,
    and the variables, also where later cells and rows came on top."""
    model = mp.MPModel()
    x = model.add_variable(0, 5)
    y = model.add_variable(None, 3)
    model.add_constraint({x: 1, y: 2}, "<=", 4)
    model.add_constraint({y: 1}, "=", 1)
    model.add_constraint({x: -1}, ">=", -3)
    before = [(dict(c.coeffs), list(c.coeffs), c.op, c.rhs) for c in model.constraints]
    variables = [(v.lb, v.ub, v.kind, v.name) for v in model.variables]
    model.push_scratch()
    z = model.add_column(0, 7, {0: Fraction(1, 2), 1: 0, 2: -3}, name="z")
    assert model._undo[-1] == ("pop_column", z, {0: Fraction(1, 2), 2: -3})
    assert [c.coeffs.get(z) for c in model.constraints] == [Fraction(1, 2), None, -3]
    model.set_coefficient(1, z, 4)
    model.set_coefficient(0, z, 0)
    model.add_constraint({z: 1, x: 1}, "<=", 9)
    model.pop_scratch()
    assert [(dict(c.coeffs), list(c.coeffs), c.op, c.rhs)
            for c in model.constraints] == before
    assert [(v.lb, v.ub, v.kind, v.name) for v in model.variables] == variables
    undo = list(model._undo)
    with pytest.raises(SolverError):
        model.add_column(0, 1, {3: 1})
    assert len(model.variables) == 2 and model._undo == undo


def test_added_column_with_a_later_cell_joins_a_warm_root():
    """A column written whole by `add_column` with no entry in a live row,
    then given cells in the rows appended after it, as a fact column of a
    goal check is, joins the live simplex nonbasic at 0 and its cells with
    those rows: each warm root returns what a cold vertex solve returns. A
    cell of it in a live row sends the root cold."""
    model = mp.MPModel()
    x = model.add_variable(0, 6)
    post = model.add_variable(-10, 10)
    y = model.add_variable(0, 3)
    model.add_constraint({x: 1, y: 1}, "<=", 4)
    model.add_constraint({post: 1, x: -1}, "=", 1)
    model.add_constraint({x: 1, y: -1}, ">=", -2)
    assert _query(model, {post: 1}, mp.MAXIMIZE)[0].objective == 5
    col = model.add_column(0, 5, {})
    model.add_constraint({col: 2, x: -1}, ">=", 1)
    model.add_constraint({col: 1, post: 1}, "<=", 7)
    model.set_coefficient(3, col, Fraction(3, 2))
    for objective, sense in (({post: 1}, mp.MAXIMIZE), ({col: 1}, mp.MAXIMIZE),
                             ({col: 1, post: -1}, mp.MINIMIZE)):
        warm = model.counters.root_warm
        model.push_scratch()
        model.set_objective(objective, sense)
        assert _solution_key(model.solve()) == _solution_key(cold_vertex(model))
        model.pop_scratch()
        assert model.counters.root_warm == warm + 1
    model.set_coefficient(0, col, 1)
    cold = model.counters.root_cold
    model.push_scratch()
    model.set_objective({col: 1}, mp.MAXIMIZE)
    assert _solution_key(model.solve()) == _solution_key(cold_vertex(model))
    model.pop_scratch()
    assert model.counters.root_cold == cold + 1


@pytest.mark.parametrize("seed", range(4))
def test_integral_count_follows_kinds_through_scratch(seed):
    """After any sequence of added columns of every kind, kind changes and
    nested scratch scopes, `MPModel.integral` counts the integer and binary
    variables, as a scan of their kinds does."""
    rng = random.Random(seed)
    model = mp.MPModel()
    kinds = (mp.CONTINUOUS, mp.INTEGER, mp.BINARY)
    depth = 0
    for _ in range(300):
        step = rng.random()
        if step < 0.3 or not model.variables:
            if rng.random() < 0.5:
                model.add_variable(0, rng.choice([None, 1, 4]), kind=rng.choice(kinds))
            else:
                model.add_column(0, 3, {}, kind=rng.choice(kinds))
        elif step < 0.6:
            model.set_variable_kind(rng.randrange(len(model.variables)), rng.choice(kinds))
        elif step < 0.8 or depth == 0:
            model.push_scratch()
            depth += 1
        else:
            model.pop_scratch()
            depth -= 1
        assert model.integral == sum(v.kind in (mp.INTEGER, mp.BINARY)
                                     for v in model.variables)
    while depth:
        model.pop_scratch()
        depth -= 1
        assert model.integral == sum(v.kind in (mp.INTEGER, mp.BINARY)
                                     for v in model.variables)


def test_changed_coefficient_or_undo_below_the_live_point_goes_cold():
    model = mp.MPModel()
    x = model.add_variable(0, 5)
    y = model.add_variable(0, 5)
    model.add_constraint({x: 1, y: 1}, "<=", 4)
    assert _query(model, {x: 1}, mp.MAXIMIZE)[0].objective == 4   # cold build
    assert _query(model, {y: 1}, mp.MAXIMIZE)[0].objective == 4   # warm
    model.set_coefficient(0, x, 2)                                 # existing column
    assert _query(model, {x: 1}, mp.MAXIMIZE)[0].objective == 2   # cold
    model.set_coefficient(0, x, 2)                                 # same value again
    assert _query(model, {x: 1}, mp.MAXIMIZE)[0].objective == 2   # warm
    model.push_scratch()
    model.set_variable_bounds(y, 0, 1)
    assert _query(model, {y: 1}, mp.MAXIMIZE)[0].objective == 1   # cold: bounds moved
    model.pop_scratch()                                            # undoes the live point
    assert _query(model, {y: 1}, mp.MAXIMIZE)[0].objective == 4   # cold
    z = model.add_variable(1, 5)                                   # lower bound not 0
    model.set_coefficient(0, z, 1)
    assert _query(model, {z: 1}, mp.MAXIMIZE)[0].objective == 4   # cold
    assert (model.counters.root_warm, model.counters.root_cold) == (2, 5)


def test_undo_and_redo_to_the_same_length_goes_cold():
    """The live simplex is brought up to date inside a scratch scope that
    ends with a new column; the scope is undone and another column, with
    other bounds, takes its place at the same undo-log length."""
    model = mp.MPModel()
    x = model.add_variable(0, 5)
    model.add_constraint({x: 1}, "<=", 4)
    model.push_scratch()
    model.add_variable(0, 5)
    assert _query(model, {x: 1}, mp.MAXIMIZE)[0].objective == 4
    model.pop_scratch()
    z = model.add_variable(0, 1)
    got, cold = _query(model, {z: 1}, mp.MAXIMIZE)
    assert got.objective == cold.objective == 1
    assert (model.counters.root_warm, model.counters.root_cold) == (0, 2)


def test_objective_only_solve_of_a_mip_is_its_branch_and_bound_result():
    model = mp.MPModel()
    x = model.add_variable(0, 5, kind=mp.INTEGER)
    model.add_constraint({x: 2}, "<=", 7)
    got, cold = _query(model, {x: 1}, mp.MAXIMIZE)
    assert (got.status, got.objective, got.values) == (cold.status, 3, ())
    assert (model.counters.root_warm, model.counters.root_cold) == (0, 1)  # the B&B root


def test_status_only_solve_stops_after_phase_one(monkeypatch):
    """A feasibility check under the empty objective returns its 0 once phase
    1 finds a feasible basis; here that basis keeps an artificial basic at
    zero, which a vertex solve drives out and a status-only solve leaves."""
    drive_outs = []
    real_drive_out = mp._Simplex._drive_out
    monkeypatch.setattr(mp._Simplex, "_drive_out",
                        lambda self, cols: drive_outs.append(cols) or real_drive_out(self, cols))
    model = mp.MPModel()
    x = model.add_variable(0, None)
    y = model.add_variable(0, None)
    model.add_constraint({x: 2, y: 2}, "=", 2)
    model.add_constraint({x: 2, y: 1}, "=", 1)
    assert model.solve(reads=mp.STATUS) == mp.MPSolution(mp.OPTIMAL, 0, ())
    assert drive_outs == [] and model.counters.pivots == 2
    assert model.solve() == mp.MPSolution(mp.OPTIMAL, 0, (0, 1))
    assert len(drive_outs) == 1 and model.counters.pivots == 2 + 3
    model.add_constraint({x: 1}, ">=", 1)
    assert model.solve(reads=mp.STATUS).status == mp.INFEASIBLE
    # under an objective, a status-only solve still runs phase 2
    unbounded = mp.MPModel()
    z = unbounded.add_variable(0, None)
    unbounded.set_objective({z: 1}, mp.MAXIMIZE)
    assert unbounded.solve(reads=mp.STATUS).status == mp.UNBOUNDED


def _free_and_negative_model():
    model = mp.MPModel()
    x = model.add_variable(None, None, kind=mp.INTEGER)  # free: split in two columns
    y = model.add_variable(-3, 2, kind=mp.INTEGER)       # shifted by its lower bound
    z = model.add_variable(None, 1, kind=mp.INTEGER)     # mirrored about its upper bound
    model.add_constraint({x: 2}, ">=", -5)
    model.add_constraint({x: 2}, "<=", 7)
    model.add_constraint({z: 1}, ">=", -4)
    model.add_constraint({x: 2, y: 3, z: 1}, "<=", Fraction(1, 2))
    model.add_constraint({x: 1, y: -2, z: -3}, ">=", Fraction(-13, 2))
    model.set_objective({x: 3, y: 2, z: 1}, mp.MAXIMIZE)
    return model


def test_branch_and_bound_over_free_and_negative_lower_bound_columns():
    model = _free_and_negative_model()
    solution = model.solve()
    best = max(3 * a + 2 * b + c
               for a in range(-3, 5) for b in range(-4, 4) for c in range(-5, 3)
               if model.check_assignment([Fraction(a), Fraction(b), Fraction(c)]) == [])
    assert solution.status == mp.OPTIMAL and solution.objective == best
    assert model.check_assignment(list(solution.values)) == []
    assert model.counters.bb_nodes > 1  # the root relaxation was fractional


# Pivots, B&B nodes and a digest of every solve's (status, objective, nonzero
# values keyed by column name) over whole plan_task runs, so that a model
# with more columns, or with its columns in another order, records the same
# solve alike. Solves, nodes and the status and objective of
# every record were recorded from the dense-tableau simplex that the sparse
# one replaced; every vertex is the canonical point of its optimal face
# (`_Simplex.canonicalize`), which moved the values of non-unique optima
# when the digests were last recorded. The pivot counts are those of
# unclamped bound queries, with the pivots that drive artificials out of the
# basis counted and no phase-2 bound flips of artificial columns, which
# leave the tableau after phase 1. They include those of the dual simplex on
# warm branch-and-bound children, of bound queries re-optimised from the
# live simplex, of goal checks and extraction roots warm from a copy of it,
# and of the tie-break stages of vertex reads; a feasibility check of an LP
# stops after phase 1. A cold solve writes its rows onto the empty simplex
# as a warm root writes its appended ones, so a >= row that holds with
# equality at the start point takes its slack as basic, not an artificial.
# Bound queries and feasibility checks read no vertex, so their records are
# those of a cold solve of the same model, whose status and objective they
# must return. Any change to the pivot rules (entering choice, ratio
# tie-break, Bland switch, bound flips) moves at least one of the pivot
# counts.
PINNED_RUNS = (
    ("market-trader", 2, False, 50, 43, 10,
     "2f6a32215eebf30bceddaf107051372f23d7d2b85628a9aacb89a413cb7cd461"),
    ("mini-settlers", 2, False, 49, 67, 10,
     "1857f6b632493706843c955fa3f58505c356beebc913bfe9d6beb1fdde82e11f"),
    ("pump-catalyst", 3, True, 29, 66, 13,
     "fa04214776daf0201cefc8dd839c7cc886736f1cabb5415305aec894c7ea124c"),
)


@pytest.mark.parametrize("family,size,all_props,solves,pivots,nodes,digest", PINNED_RUNS,
                         ids=[f"{run[0]}-{run[1]}" for run in PINNED_RUNS])
def test_solver_behaviour_over_plan_task_is_pinned(monkeypatch, family, size, all_props,
                                                   solves, pivots, nodes, digest):
    from flowplan import generators, model as task_model, planner
    from flowplan.lpmodel import HeuristicConfig

    records: list[str] = []
    totals = {"pivots": 0, "bb_nodes": 0}
    real_solve = mp.MPModel.solve

    def recording_solve(self, reads=mp.VERTEX):
        counters = self.counters
        before = (counters.pivots, counters.bb_nodes, counters.root_warm + counters.root_cold)
        solution = real_solve(self, reads=reads)
        totals["pivots"] += counters.pivots - before[0]
        totals["bb_nodes"] += counters.bb_nodes - before[1]
        # every solve is one root relaxation, warm or cold
        assert counters.root_warm + counters.root_cold == before[2] + 1
        if reads != mp.VERTEX:
            # a bound query or feasibility check: record the vertex of a cold
            # solve, whose status and objective the solve must return
            vertex = cold_vertex(self)
            assert status_and_objective(solution) == status_and_objective(vertex)
            solution = vertex
        records.append(repr((solution.status, str(solution.objective),
                             sorted((self.variables[col].name, str(value))
                                    for col, value in enumerate(solution.values) if value))))
        return solution

    monkeypatch.setattr(mp.MPModel, "solve", recording_solve)
    task = task_model.parse_and_ground(*generators.generate(family, size, 1))
    outcome = planner.plan_task(
        task, mode=planner.MODE_LPRPG,
        config=HeuristicConfig(include_all_propositions=all_props))
    assert outcome.status == "solved"
    assert len(records) == outcome.stats.lp_solves == solves
    assert totals == {"pivots": pivots, "bb_nodes": nodes}
    assert hashlib.sha256("\n".join(records).encode()).hexdigest() == digest


def test_exactness_recorder_records_the_same_runs_twice():
    """The exactness recorder in `tests/exactness.py` returns the same
    records for two runs of market-trader-2 and mini-settlers-2, and in
    each run every LP solve is one root relaxation, warm or cold."""
    import exactness

    instances = [exactness.workloads.Instance(family, 2, 1, "lprpg")
                 for family in ("market-trader", "mini-settlers")]
    records = [exactness.record_instance(instance) for instance in instances]
    assert records == [exactness.record_instance(instance) for instance in instances]
    for record in records:
        counters = record["counters"]
        assert record["status"] == "solved" and record["valid"]
        assert counters["root_warm"] + counters["root_cold"] == counters["solves"] \
            == record["lp_solves"] > 0


def test_exactness_comparison_lists_pivots_apart():
    """`exactness.compare` names each differing field and counter per
    instance and the first differing solve, and lists moved pivot counts
    after all of those; two equal recordings give no line."""
    import exactness

    old = [{"id": "a", "status": "solved", "plan": [0, 1], "solves": ["x", "y", "z"],
            "counters": {"solves": 3, "pivots": 7}},
           {"id": "b", "status": "solved", "plan": [2], "solves": ["x"],
            "counters": {"solves": 1, "pivots": 2}}]
    new = [dict(old[0], plan=[1, 0], solves=["x", "w", "z"],
                counters={"solves": 3, "pivots": 9}), old[1]]
    assert exactness.compare(old, old) == []
    assert exactness.compare(old, new) == ["a: plan [0, 1] -> [1, 0]",
                                           "a: solve 1 is the first to differ",
                                           "a: pivots 7 -> 9 (+2)"]


def _plan_pinned_run(family, size, all_props):
    from flowplan import generators, model as task_model, planner
    from flowplan.lpmodel import HeuristicConfig

    task = task_model.parse_and_ground(*generators.generate(family, size, 1))
    return planner.plan_task(
        task, mode=planner.MODE_LPRPG,
        config=HeuristicConfig(include_all_propositions=all_props))


@pytest.mark.parametrize("family,size,all_props", [run[:3] for run in PINNED_RUNS],
                         ids=[f"{run[0]}-{run[1]}" for run in PINNED_RUNS])
def test_phase_two_never_flips_an_artificial_column(monkeypatch, family, size, all_props):
    """Artificial columns leave pricing once phase 1 ends: no solve of a
    whole plan_task run flips one at its zero upper bound."""
    real_drive_out = mp._Simplex._drive_out
    real_flip = mp._Simplex._flip_column
    drive_outs = 0
    artificial_flips = []

    def drive_out(self, artificial_cols):
        nonlocal drive_outs
        drive_outs += 1
        self.artificial = set(artificial_cols)
        real_drive_out(self, artificial_cols)

    def flip_column(self, col):
        if col in getattr(self, "artificial", ()):
            artificial_flips.append(col)
        real_flip(self, col)

    monkeypatch.setattr(mp._Simplex, "_drive_out", drive_out)
    monkeypatch.setattr(mp._Simplex, "_flip_column", flip_column)
    assert _plan_pinned_run(family, size, all_props).status == "solved"
    assert drive_outs > 0  # phase 1 ran, so there were artificials to flip
    assert artificial_flips == []


def test_branch_on_a_column_with_a_fractional_bound(monkeypatch):
    """x integer in [1/2, 7/4]: the root relaxation sits at x = 1/2, the
    floor branch x <= 0 crosses the lower bound 1/2 and is infeasible
    without a simplex, and the ceil branch x >= 1 is optimal."""
    model = mp.MPModel()
    x = model.add_variable(Fraction(1, 2), Fraction(7, 4), kind=mp.INTEGER)
    y = model.add_variable(0, None)
    model.add_constraint({x: 1, y: 1}, ">=", Fraction(1, 3))
    model.set_objective({x: 1}, mp.MINIMIZE)
    relaxations = []
    real_solve_node = mp.MPModel._solve_node

    # every relaxation, warm or cold, goes through _solve_node
    def solve_node(self, bounds, parent, var, shared, reads):
        status, simplex = real_solve_node(self, bounds, parent, var, shared, reads)
        relaxations.append((bounds[x], status))
        return status, simplex

    monkeypatch.setattr(mp.MPModel, "_solve_node", solve_node)
    solution = model.solve()
    assert (solution.status, solution.objective) == (mp.OPTIMAL, 1)
    assert solution.values[x] == 1
    assert model.check_assignment(list(solution.values)) == []
    assert model.counters.bb_nodes == 3
    # root and ceil branch only
    assert relaxations == [((Fraction(1, 2), Fraction(7, 4)), mp.OPTIMAL),
                           ((1, Fraction(7, 4)), mp.OPTIMAL)]


def test_truncated_branch_and_bound_warns_and_counts(caplog):
    """With node_limit 2 the search stops after the root (x = 3/2) and its
    floor branch (x = 1, integral), before the ceil branch is explored: the
    incumbent comes back, with a warning and a count."""
    model = mp.MPModel(node_limit=2)
    x = model.add_variable(0, 10, kind=mp.INTEGER)
    model.add_constraint({x: 2}, "<=", 3)
    model.set_objective({x: 1}, mp.MAXIMIZE)
    with caplog.at_level(logging.WARNING, logger="flowplan"):
        solution = model.solve()
    assert (solution.status, solution.objective, solution.values) == (mp.OPTIMAL, 1, (1,))
    assert model.counters.bb_nodes == 2 and model.counters.bb_truncated == 1
    assert [(r.name, r.getMessage()) for r in caplog.records] == [
        ("flowplan.mpsolver",
         "branch-and-bound limit reached; returning the best incumbent, not proven optimal")]
    # a search that runs to the end is not truncated
    model.node_limit = mp.DEFAULT_NODE_LIMIT
    assert model.solve().objective == 1 and model.counters.bb_truncated == 1


def test_flip_and_capped_ratio_test_on_fractional_bounds(monkeypatch):
    """x in [0, 7/3] sits in both rows. x enters first and reaches its own
    bound 7/3 before either row limits it, so it flips, and both rows go
    over a denominator of 3. y then enters on row 0 and is basic. Last,
    x's complement enters; it lowers x and raises y until y reaches its
    cap 3/2, so y leaves the basis at that cap and flips too."""
    model = mp.MPModel()
    x = model.add_variable(0, Fraction(7, 3))
    y = model.add_variable(0, Fraction(3, 2))
    z = model.add_variable(0, None)
    model.add_constraint({x: 2, y: 1, z: 1}, "<=", 5)
    model.add_constraint({x: 1, y: 2}, "<=", 6)
    model.set_objective({x: 1, y: 1, z: -1}, mp.MAXIMIZE)
    events = []
    real_pivot, real_flip = mp._Simplex._pivot, mp._Simplex._flip_column

    def pivot(self, row, col):
        events.append(("pivot", self.basis[row], col))
        real_pivot(self, row, col)

    def flip_column(self, col):
        events.append(("flip", col, self.upper[col]))
        real_flip(self, col)

    monkeypatch.setattr(mp._Simplex, "_pivot", pivot)
    monkeypatch.setattr(mp._Simplex, "_flip_column", flip_column)
    solution = model.solve()
    slack0 = 3  # the slack of row 0 follows the three structural columns
    assert events == [("flip", x, Fraction(7, 3)), ("pivot", slack0, y),
                      ("pivot", y, x), ("flip", y, Fraction(3, 2))]
    assert lp_by_vertex_enumeration(model) == (mp.OPTIMAL, Fraction(13, 4))
    assert lp_optimal_vertices(model) == {(Fraction(7, 4), Fraction(3, 2), 0)}
    assert (solution.status, solution.objective) == (mp.OPTIMAL, Fraction(13, 4))
    assert solution.values == (Fraction(7, 4), Fraction(3, 2), 0)
    assert model.check_assignment(list(solution.values)) == []


@pytest.mark.parametrize("family,size,all_props", [run[:3] for run in PINNED_RUNS],
                         ids=[f"{run[0]}-{run[1]}" for run in PINNED_RUNS])
def test_integral_solver_results_are_ints(monkeypatch, family, size, all_props):
    """Every objective and value of a whole plan_task run is an int where
    it is integral; only a value with a denominator above 1 is a Fraction."""
    real_solve = mp.MPModel.solve
    solves = 0
    integral_fractions = []

    def checked_solve(self, reads=mp.VERTEX):
        nonlocal solves
        solution = real_solve(self, reads=reads)
        solves += 1
        for value in (solution.objective, *solution.values):
            if isinstance(value, Fraction) and value.denominator == 1:
                integral_fractions.append((solves, value))
        return solution

    monkeypatch.setattr(mp.MPModel, "solve", checked_solve)
    assert _plan_pinned_run(family, size, all_props).status == "solved"
    assert solves > 0
    assert integral_fractions == []


def _solve_with_highs(model):
    """Re-solve a model with HiGHS through `scipy.optimize.milp`; returns
    (status, objective as a float or None)."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    n = len(model.variables)
    sign = 1 if model.sense == mp.MINIMIZE else -1
    cost = np.zeros(n)
    for col, weight in model.objective.items():
        cost[col] = sign * float(weight)
    bounds = [model.effective_bounds(i) for i in range(n)]
    lower = np.array([-np.inf if lb is None else float(lb) for lb, _ in bounds])
    upper = np.array([np.inf if ub is None else float(ub) for _, ub in bounds])
    integrality = np.array([0 if v.kind == mp.CONTINUOUS else 1 for v in model.variables])
    constraints = []
    if model.constraints:
        matrix = np.zeros((len(model.constraints), n))
        row_lo = np.full(len(model.constraints), -np.inf)
        row_hi = np.full(len(model.constraints), np.inf)
        for i, constraint in enumerate(model.constraints):
            for col, weight in constraint.coeffs.items():
                matrix[i, col] = float(weight)
            if constraint.op in (">=", "="):
                row_lo[i] = float(constraint.rhs)
            if constraint.op in ("<=", "="):
                row_hi[i] = float(constraint.rhs)
        constraints = [LinearConstraint(matrix, row_lo, row_hi)]
    result = milp(cost, integrality=integrality, bounds=Bounds(lower, upper),
                  constraints=constraints)
    status = {0: mp.OPTIMAL, 2: mp.INFEASIBLE, 3: mp.UNBOUNDED}.get(result.status, "other")
    objective = sign * result.fun if status == mp.OPTIMAL else None
    return status, objective


@pytest.mark.parametrize("family,size,all_props", [run[:3] for run in PINNED_RUNS],
                         ids=[f"{run[0]}-{run[1]}" for run in PINNED_RUNS])
def test_every_solve_agrees_with_highs(monkeypatch, family, size, all_props):
    """Differential check: every `MPModel.solve` of a whole plan_task run,
    bound queries, goal checks and extraction MIPs alike, gets the same
    status from HiGHS and an optimum within 1e-6 relative (absolute below
    magnitude 1). Warm and cold solves write their rows with the same code,
    so every vertex read is also checked on its own: its values satisfy
    every bound, integrality and row of the model exactly, and give back
    the reported objective, type included."""
    pytest.importorskip("scipy")
    mismatches = []
    solves = vertices = 0
    real_solve = mp.MPModel.solve

    def checked_solve(self, reads=mp.VERTEX):
        nonlocal solves, vertices
        solution = real_solve(self, reads=reads)
        solves += 1
        status, objective = _solve_with_highs(self)
        if status != solution.status:
            mismatches.append((solves, solution.status, status))
        elif objective is not None:
            exact = float(solution.objective)
            if abs(exact - objective) > 1e-6 * max(1.0, abs(exact)):
                mismatches.append((solves, solution.objective, objective))
        if reads == mp.VERTEX and solution.status == mp.OPTIMAL:
            vertices += 1
            values = solution.values
            problems = self.check_assignment(list(values))
            if problems:
                mismatches.append((solves, problems))
            total = mp._number(sum(w * values[col] for col, w in self.objective.items()))
            if (total, type(total)) != (solution.objective, type(solution.objective)):
                mismatches.append((solves, solution.objective, total))
        return solution

    monkeypatch.setattr(mp.MPModel, "solve", checked_solve)
    outcome = _plan_pinned_run(family, size, all_props)
    assert mismatches == []
    assert outcome.status == "solved"
    assert solves == outcome.stats.lp_solves > 0 and vertices > 0


def _check_warm_children(monkeypatch):
    """Re-solve every child that `_solve_node` solves by the dual simplex
    cold on the same bounds. Returns the counts of warm children, of those
    whose status, objective or values (type included) differ, and of those
    whose canonical point took tie-break pivots, so that their first
    optimum was not unique."""
    real_solve_node = mp.MPModel._solve_node
    real_canonicalize = mp._Simplex.canonicalize
    seen = {"warm": 0, "mismatched": 0, "tie_broken": 0}
    moved = []

    def canonicalize(self):
        before = self.pivots
        status = real_canonicalize(self)
        moved.append(self.pivots > before)
        return status

    def solve_node(self, bounds, parent, var, shared, reads):
        before = self.counters.bb_warm
        moved.clear()
        status, simplex = real_solve_node(self, bounds, parent, var, shared, reads)
        if self.counters.bb_warm > before:
            seen["warm"] += 1
            seen["tie_broken"] += any(moved)
            cold_status, cold = self._solve_cold(bounds, reads)
            seen["mismatched"] += (_solution_key(cold.result(cold_status, reads))
                                   != _solution_key(simplex.result(status, reads)))
        return status, simplex

    monkeypatch.setattr(mp._Simplex, "canonicalize", canonicalize)
    monkeypatch.setattr(mp.MPModel, "_solve_node", solve_node)
    return seen


def test_warm_children_equal_cold_solves_over_pinned_runs(monkeypatch):
    seen = _check_warm_children(monkeypatch)
    for family, size, all_props in [run[:3] for run in PINNED_RUNS]:
        assert _plan_pinned_run(family, size, all_props).status == "solved"
    assert seen["warm"] > 0 and seen["mismatched"] == 0, seen


@pytest.mark.parametrize("data", DATA)
def test_warm_children_equal_cold_solves_on_200_random_mips(monkeypatch, data):
    seen = _check_warm_children(monkeypatch)
    for model in _random_mips(data):
        model.solve()
    assert seen["warm"] > 0 and seen["mismatched"] == 0, seen


def test_warm_children_of_shifted_and_mirrored_columns(monkeypatch):
    """Children that tighten a column shifted by a fractional lower bound
    and one mirrored about its upper bound, through both branch sides."""
    seen = _check_warm_children(monkeypatch)
    model = mp.MPModel()
    y = model.add_variable(Fraction(-7, 2), 4, kind=mp.INTEGER)      # shifted
    z = model.add_variable(None, Fraction(5, 2), kind=mp.INTEGER)    # mirrored
    w = model.add_variable(0, Fraction(9, 4), kind=mp.INTEGER)
    model.add_constraint({y: 3, z: 2, w: 1}, "<=", Fraction(7, 2))
    model.add_constraint({y: 1, z: -3, w: 2}, ">=", Fraction(-17, 3))
    model.add_constraint({z: 1}, ">=", -6)
    model.set_objective({y: 2, z: 3, w: 1}, mp.MAXIMIZE)
    solution = model.solve()
    best = max(2 * a + 3 * b + c
               for a in range(-3, 5) for b in range(-6, 3) for c in range(0, 3)
               if model.check_assignment([a, b, c]) == [])
    assert (solution.status, solution.objective) == (mp.OPTIMAL, best)
    assert model.check_assignment(list(solution.values)) == []
    assert model.counters.bb_warm == seen["warm"] > 0 and seen["mismatched"] == 0, seen


# -- status reads of MIPs: a feasibility search ---------------------------------------


@pytest.mark.parametrize("data", DATA)
def test_status_reads_of_random_mips_equal_cold_solves(data):
    """A status read of each random MIP, under the empty objective (a
    feasibility search) and under its own, returns the status and objective
    of a cold vertex solve and leaves the model as it was; the search
    returns no values."""
    searches, optima = mp.Counters(), mp.Counters()
    for trial, model in enumerate(_random_mips(data)):
        model.counters = searches
        got, cold = status_read(model)
        assert status_and_objective(got) == status_and_objective(cold), trial
        assert got.values == (), trial
        model.counters = optima
        before = model_state(model)
        got = model.solve(reads=mp.STATUS)
        assert model_state(model) == before
        assert status_and_objective(got) == status_and_objective(cold_vertex(model)), trial
    assert searches.bb_warm > 30 and optima.bb_warm > 30, (searches, optima)
    assert searches.bb_truncated == optima.bb_truncated == 0


@pytest.mark.parametrize("data", DATA)
def test_status_reads_of_grown_mips_equal_cold_solves(data):
    """After each objective-only query of a grown LP, some columns are made
    integer or binary and scratch rows are sometimes added; a status read
    under the empty objective, its root warm from a copy of the live
    simplex where the model allows, returns the cold solve's status and
    objective and leaves the objective, the undo log and the live simplex
    as they were."""
    rational = data == "rational"
    rng = random.Random(1618)
    counters = mp.Counters()
    for model in _grown_lps(rng, rational, mirrored=True):
        model.counters = counters
        col = rng.randrange(len(model.variables))
        _query(model, {col: _draw(rng, 1, 3, rational)},
               rng.choice([mp.MINIMIZE, mp.MAXIMIZE]))
        model.push_scratch()
        try:
            for col in rng.sample(range(len(model.variables)),
                                  rng.randint(1, len(model.variables))):
                model.set_variable_kind(col, rng.choice([mp.INTEGER, mp.INTEGER, mp.BINARY]))
            if rng.random() < 0.5:
                cols = rng.sample(range(len(model.variables)),
                                  rng.randint(1, min(3, len(model.variables))))
                model.add_constraint({c: _draw(rng, -4, 4, rational) for c in cols},
                                     rng.choice(["<=", ">=", "="]),
                                     _draw(rng, -8, 6, rational))
            got, cold = status_read(model)
            assert status_and_objective(got) == status_and_objective(cold)
        finally:
            model.pop_scratch()
    assert counters.root_warm > 40 and counters.bb_warm > 200, counters


def test_status_read_with_an_unbounded_integer_column_is_a_vertex_read():
    """x0 integer with no lower bound and x1 integer with no upper bound: a
    feasibility search, which follows whatever vertex each node reaches,
    dives along them past the node limit, while the cold vertex read finds
    an integral point at its fifth node. A status read of such a model is
    read for its vertex, so it returns the cold solve's status."""
    model = mp.MPModel()
    model.add_variable(None, Fraction(16, 3), kind=mp.INTEGER)
    model.add_variable(0, None, kind=mp.INTEGER)
    model.add_variable(0, Fraction(7, 4), kind=mp.BINARY)
    model.add_variable(0, None)
    model.add_variable(0, None)
    model.add_variable(0, 0)
    model.add_constraint({0: Fraction(2, 3), 1: 4, 3: 1, 4: Fraction(-3, 5),
                          5: Fraction(3, 2)}, "=", Fraction(4, 5))
    model.add_constraint({0: Fraction(2, 3), 1: 1, 2: 1, 3: Fraction(3, 2),
                          4: Fraction(-2, 3), 5: 1}, "<=", -3)
    got, cold = status_read(model)
    assert status_and_objective(got) == status_and_objective(cold) == (mp.OPTIMAL, 0, int)
    assert model.counters.bb_nodes == 5


def test_status_read_at_the_node_limit_without_an_integral_node():
    """x integer with 2x >= 3: the root (x = 3/2) and its floor branch
    (infeasible) use up a node limit of 2 before the ceil branch finds
    x = 2, so the search returns LIMIT; one more node finds it."""
    model = mp.MPModel(node_limit=2)
    x = model.add_variable(0, 10, kind=mp.INTEGER)
    model.add_constraint({x: 2}, ">=", 3)
    assert model.solve(reads=mp.STATUS) == mp.MPSolution(mp.LIMIT, None, ())
    model.node_limit = 3
    assert model.solve(reads=mp.STATUS) == mp.MPSolution(mp.OPTIMAL, 0, ())
    assert model.counters.bb_nodes == 5 and model.counters.bb_truncated == 0


def test_status_read_at_the_pivot_limit():
    """x = y integer with 2x + 2y >= 3: the root needs two pivots, so a
    pivot limit of 2 stops it with no integral node and the search
    returns LIMIT; at 3 the root (x = y = 3/4) and its two branches run."""
    model = mp.MPModel(pivot_limit=2)
    x = model.add_variable(0, 10, kind=mp.INTEGER)
    y = model.add_variable(0, 10, kind=mp.INTEGER)
    model.add_constraint({x: 2, y: 2}, ">=", 3)
    model.add_constraint({x: 1, y: -1}, "=", 0)
    assert model.solve(reads=mp.STATUS) == mp.MPSolution(mp.LIMIT, None, ())
    assert (model.counters.bb_nodes, model.counters.pivots) == (1, 2)
    model.pivot_limit = 3
    assert model.solve(reads=mp.STATUS) == mp.MPSolution(mp.OPTIMAL, 0, ())
    assert model.counters.bb_nodes == 1 + 3 and model.counters.bb_truncated == 0


def test_status_read_that_finds_an_integral_node_is_not_truncated(caplog):
    """x integer and y continuous with 2x + 2y >= 3: the root sits at
    x = 3/2 and its floor branch at x = 1, y = 1/2, whose integer column is
    integral. That proves the model feasible, so the search returns there,
    at the node limit of 2 with the ceil branch still open, with no
    warning and no truncation counted."""
    model = mp.MPModel(node_limit=2)
    x = model.add_variable(0, 10, kind=mp.INTEGER)
    y = model.add_variable(0, 10)
    model.add_constraint({x: 2, y: 2}, ">=", 3)
    with caplog.at_level(logging.WARNING, logger="flowplan"):
        assert model.solve(reads=mp.STATUS) == mp.MPSolution(mp.OPTIMAL, 0, ())
    assert model.counters.bb_nodes == 2 and model.counters.bb_truncated == 0
    assert caplog.records == []


# -- the canonical optimum ------------------------------------------------------


def _canonical_key(model, point):
    """The order a vertex read's point minimises: each variable's distance
    from its finite bound, in index order (the lower bound where it is
    finite)."""
    key = []
    for index, value in enumerate(point):
        lb, ub = model.effective_bounds(index)
        key.append(value - lb if lb is not None else ub - value)
    return tuple(key)


@pytest.mark.parametrize("data", DATA)
def test_vertex_reads_are_the_lexicographic_minimum_of_the_optimal_vertices(data):
    """Over the random LPs, a vertex read returns the optimal vertex, found
    by enumerating every vertex, that is least in the canonical order,
    also where several vertices are optimal."""
    rng = random.Random(12345)
    ties = 0
    for trial in range(300):
        model = _random_lp(rng, data == "rational")
        got = model.solve()
        vertices = lp_optimal_vertices(model)
        if got.status != mp.OPTIMAL:
            assert vertices == set(), f"trial {trial}"
            continue
        ties += len(vertices) > 1
        want = min(vertices, key=lambda point: _canonical_key(model, point))
        assert got.values == want, f"trial {trial}"
    assert ties > 12, ties


def _two_optimal_vertices():
    """x, y in [0, 4] with x + y <= 2, maximise x + y: (2, 0) and (0, 2) are
    both optimal. Phase 2 reaches (2, 0) in one pivot, x entering first."""
    model = mp.MPModel()
    x = model.add_variable(0, 4)
    y = model.add_variable(0, 4)
    model.add_constraint({x: 1, y: 1}, "<=", 2)
    model.set_objective({x: 1, y: 1}, mp.MAXIMIZE)
    return model


def test_lp_with_two_optimal_vertices_returns_the_canonical_one():
    """The canonical point has x at its least, so (0, 2): the tie-break
    stage pivots y in for x. An objective-only read stops at (2, 0)."""
    model = _two_optimal_vertices()
    assert lp_optimal_vertices(model) == {(2, 0), (0, 2)}
    assert model.solve() == mp.MPSolution(mp.OPTIMAL, 2, (0, 2))
    assert model.counters.pivots == 1 + 1
    assert model.solve(reads=mp.OBJECTIVE) == mp.MPSolution(mp.OPTIMAL, 2, ())
    assert model._live.result(mp.OPTIMAL, mp.VERTEX).values == (2, 0)


def test_tie_break_stage_at_the_pivot_limit():
    """A pivot limit of 2 lets phase 2 prove (2, 0) optimal after its one
    pivot, and a status read returns that optimum; the tie-break stage of a
    vertex read then stops at the limit, so the read returns LIMIT, as any
    relaxation cut by the limit does. A limit of 3 lets it finish."""
    model = _two_optimal_vertices()
    model.pivot_limit = 2
    assert model.solve(reads=mp.STATUS) == mp.MPSolution(mp.OPTIMAL, 2, ())
    assert model.solve() == mp.MPSolution(mp.LIMIT, None, ())
    model.pivot_limit = 3
    assert model.solve() == mp.MPSolution(mp.OPTIMAL, 2, (0, 2))


def _mirrored_narrowed_from_below():
    """y continuous in [0, 100], z integer with upper bound 10 only, so
    mirrored about it, w integer in [0, 10]; minimise y subject to
    y - 2z >= -7, z >= 13/4 and y + 2w >= 5/2.

    The root's canonical point is (0, 7/2, 5/4): z at its largest, being
    nearest its only bound. Its floor branch z <= 3 is infeasible; the ceil
    branch z >= 4 narrows the mirrored column from below, and its optimum
    (1, 4, 3/4) branches on w. In its floor branch w <= 0, y is 5/2 and z
    may lie anywhere in [4, 19/4]: the canonical point takes z = 4, nearest
    the node's lower bound, though the warm column, still mirrored, reads
    10 - z."""
    model = mp.MPModel()
    y = model.add_variable(0, 100)
    z = model.add_variable(None, 10, kind=mp.INTEGER)
    w = model.add_variable(0, 10, kind=mp.INTEGER)
    model.add_constraint({y: 1, z: -2}, ">=", -7)
    model.add_constraint({z: 1}, ">=", Fraction(13, 4))
    model.add_constraint({y: 1, w: 2}, ">=", Fraction(5, 2))
    model.set_objective({y: 1}, mp.MINIMIZE)
    return model


def _record_nodes(monkeypatch, models, cold=False):
    """The bounds, status and solution (types included) of every
    branch-and-bound node of a vertex read of each model, warm as solved or,
    with `cold`, every node solved cold, and each read's result."""
    real_solve_node = mp.MPModel._solve_node
    nodes = []

    def solve_node(self, bounds, parent, var, shared, reads):
        if cold:
            status, simplex = self._solve_cold(bounds, reads)
        else:
            status, simplex = real_solve_node(self, bounds, parent, var, shared, reads)
        nodes.append((tuple(bounds), _solution_key(simplex.result(status, reads))))
        return status, simplex

    with monkeypatch.context() as patch:
        patch.setattr(mp.MPModel, "_solve_node", solve_node)
        results = [_solution_key(model.solve()) for model in models]
    return nodes, results


def test_warm_child_of_a_mirrored_column_narrowed_from_below(monkeypatch):
    """Every node of the tree, warm from its parent by the dual simplex,
    equals the cold solve of its bounds: each variable's tie-break
    direction comes from the node's bounds, not from its column's form."""
    seen = _check_warm_children(monkeypatch)
    nodes, results = _record_nodes(monkeypatch, [_mirrored_narrowed_from_below()])
    assert [values for _, (_, _, _, values, _) in nodes] == [
        (0, Fraction(7, 2), Fraction(5, 4)), (), (1, 4, Fraction(3, 4)),
        (Fraction(5, 2), 4, 0), (1, 4, 1)]
    assert seen == {"warm": 4, "mismatched": 0, "tie_broken": 1}
    assert results == [_solution_key(mp.MPSolution(mp.OPTIMAL, 1, (1, 4, 1)))]


@pytest.mark.parametrize("data", DATA)
def test_all_warm_trees_equal_all_cold_trees(monkeypatch, data):
    """Branch-and-bound over the random MIPs and over free, shifted and
    mirrored columns visits the same nodes with the same relaxation
    results, node for node, whether every child is warm from its parent
    or every node is solved cold."""
    def models():
        yield from _random_mips(data)
        yield _free_and_negative_model()
        yield _mirrored_narrowed_from_below()

    warm = _record_nodes(monkeypatch, models())
    cold = _record_nodes(monkeypatch, models(), cold=True)
    assert len(warm[0]) > 200
    assert warm == cold


def _check_node_reads(monkeypatch):
    """At every optimal branch-and-bound node, the int-arithmetic reads of
    the objective, of every column and of the full value tuple equal the
    point read column by column in Fraction arithmetic, types included;
    returns the count of nodes checked."""
    real_solve_node = mp.MPModel._solve_node
    checked = [0]

    def solve_node(self, bounds, parent, var, shared, reads):
        status, simplex = real_solve_node(self, bounds, parent, var, shared, reads)
        if status == mp.OPTIMAL:
            values = simplex_values(simplex)
            assert _solution_key(simplex.result(status, mp.VERTEX))[3:] == (
                tuple(values), tuple(map(type, values)))
            point = [Fraction(n, d) for _, n, d in simplex._point(range(len(values)))]
            assert point == values
            objective = exact(sum(w * values[v] for v, w in self.objective.items()))
            got = simplex._objective_value()
            assert (got, type(got)) == (objective, type(objective))
            checked[0] += 1
        return status, simplex

    monkeypatch.setattr(mp.MPModel, "_solve_node", solve_node)
    return checked


@pytest.mark.parametrize("data", DATA)
def test_node_reads_equal_the_full_value_tuple_on_random_mips(monkeypatch, data):
    checked = _check_node_reads(monkeypatch)
    for model in _random_mips(data):
        model.solve()
        status_read(model)
    assert checked[0] > 150, checked


def test_node_reads_equal_the_full_value_tuple_over_an_all_propositions_run(monkeypatch):
    checked = _check_node_reads(monkeypatch)
    family, size, all_props = next(run[:3] for run in PINNED_RUNS if run[2])
    assert _plan_pinned_run(family, size, all_props).status == "solved"
    assert checked[0] > 5, checked
