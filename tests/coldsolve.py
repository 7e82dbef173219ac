"""Shared helper: the cold vertex solve that a solve reading less than the
vertex (a bound query, a feasibility check) must agree with."""

from __future__ import annotations

from flowplan import mpsolver as mp

_SOLVE = mp.MPModel.solve  # taken at import, before any test wraps it


def cold_vertex(model: mp.MPModel) -> mp.MPSolution:
    """A cold solve of `model` for its vertex, left out of the model's
    counters: the live simplex is set aside, so no root starts from it."""
    counters, model.counters = model.counters, mp.Counters()
    live, model._live = model._live, None
    try:
        return _SOLVE(model)
    finally:
        model.counters = counters
        model._live = live


def status_and_objective(solution: mp.MPSolution) -> tuple:
    """What every solve returns exactly, the objective's type included."""
    return solution.status, solution.objective, type(solution.objective)


def model_state(model: mp.MPModel) -> tuple:
    """What a solve must leave as it found it: the objective and its sense,
    the undo log, and the live simplex, the object and its tableau."""
    live = model._live
    tableau = None if live is None else (
        [row.copy() for row in live.tableau], live.rhs.copy(), live.den.copy(),
        live.basis.copy(), live.upper.copy(), live.flipped.copy(),
        live.reduced.copy(), live.rden, live.ncols)
    return (dict(model.objective), model.sense, model._undo.copy(), live,
            model._live_at, tableau)


def artificial_entries(simplex: mp._Simplex) -> list[tuple[int, int]]:
    """The (row, column) of every entry an artificial column holds in the
    tableau, other than its own entry in a row it is basic in; none is
    left once phase 1 ends. An artificial is a column past the structural
    ones with upper bound 0; a slack has none."""
    upper, basis = simplex.upper, simplex.basis
    return [(i, j) for i, row in enumerate(simplex.tableau) for j in row
            if j >= simplex.nstruct and upper[j] == 0 and j != basis[i]]


def status_read(model: mp.MPModel) -> tuple[mp.MPSolution, mp.MPSolution]:
    """A status read of `model` under the empty objective, set in a scratch
    scope as a goal check sets it, and the cold vertex solve of the same
    model; asserts that the read leaves `model_state` as it was."""
    model.push_scratch()
    try:
        model.set_objective({}, mp.MINIMIZE)
        before = model_state(model)
        got = model.solve(reads=mp.STATUS)
        assert model_state(model) == before
        return got, cold_vertex(model)
    finally:
        model.pop_scratch()
