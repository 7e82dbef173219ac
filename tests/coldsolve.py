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
