"""Independent brute-force oracles used by the solver tests.

These stay deliberately naive: vertex enumeration solves every n-subset
of tight constraints by exact Gaussian elimination; the MIP oracle
enumerates the whole integer lattice inside the variable bounds. Neither
shares any code with the simplex or branch-and-bound paths they check.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from flowplan import mpsolver as mp


def solve_linear_system(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Solve a square system exactly; None if singular."""
    n = len(rows)
    a = [row[:] + [rhs[i]] for i, row in enumerate(rows)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot_row is None:
            return None
        a[col], a[pivot_row] = a[pivot_row], a[col]
        inv = Fraction(1) / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]


def _halfplanes(model: mp.MPModel) -> list[tuple[list[Fraction], str, Fraction]]:
    n = len(model.variables)
    planes = []
    for constraint in model.constraints:
        row = [Fraction(0)] * n
        for col, weight in constraint.coeffs.items():
            row[col] = weight
        planes.append((row, constraint.op, constraint.rhs))
    for index in range(n):
        lb, ub = model.effective_bounds(index)
        unit = [Fraction(0)] * n
        unit[index] = Fraction(1)
        if lb is not None:
            planes.append((unit[:], ">=", lb))
        if ub is not None:
            planes.append((unit[:], "<=", ub))
    return planes


def _feasible(point: list[Fraction], planes) -> bool:
    for row, op, rhs in planes:
        value = sum(w * x for w, x in zip(row, point))
        if op == "<=" and value > rhs:
            return False
        if op == ">=" and value < rhs:
            return False
        if op == "=" and value != rhs:
            return False
    return True


def lp_by_vertex_enumeration(model: mp.MPModel):
    """(status, objective) for a model whose feasible region is bounded."""
    n = len(model.variables)
    planes = _halfplanes(model)
    best = None
    minimize = model.sense == mp.MINIMIZE
    objective = [model.objective.get(i, Fraction(0)) for i in range(n)]
    for subset in itertools.combinations(range(len(planes)), n):
        rows = [planes[i][0] for i in subset]
        rhs = [planes[i][2] for i in subset]
        point = solve_linear_system(rows, rhs)
        if point is None or not _feasible(point, planes):
            continue
        value = sum(w * x for w, x in zip(objective, point))
        if best is None or (value < best if minimize else value > best):
            best = value
    if best is None:
        return mp.INFEASIBLE, None
    return mp.OPTIMAL, best


def lp_optimal_vertices(model: mp.MPModel) -> set[tuple[Fraction, ...]]:
    """Every vertex at which `lp_by_vertex_enumeration`'s optimum is attained."""
    status, best = lp_by_vertex_enumeration(model)
    if status != mp.OPTIMAL:
        return set()
    n = len(model.variables)
    planes = _halfplanes(model)
    objective = [model.objective.get(i, Fraction(0)) for i in range(n)]
    optimal = set()
    for subset in itertools.combinations(range(len(planes)), n):
        point = solve_linear_system([planes[i][0] for i in subset],
                                    [planes[i][2] for i in subset])
        if (point is not None and _feasible(point, planes)
                and sum(w * x for w, x in zip(objective, point)) == best):
            optimal.add(tuple(point))
    return optimal


def mip_by_lattice_enumeration(model: mp.MPModel):
    """(status, objective) by enumerating every integer point in the bounds."""
    n = len(model.variables)
    ranges = []
    for index in range(n):
        lb, ub = model.effective_bounds(index)
        assert lb is not None and ub is not None, "lattice oracle needs finite bounds"
        import math
        ranges.append(range(math.ceil(lb), math.floor(ub) + 1))
    planes = _halfplanes(model)
    objective = [model.objective.get(i, Fraction(0)) for i in range(n)]
    minimize = model.sense == mp.MINIMIZE
    best = None
    for point in itertools.product(*ranges):
        frac_point = [Fraction(x) for x in point]
        if not _feasible(frac_point, planes):
            continue
        value = sum(w * x for w, x in zip(objective, frac_point))
        if best is None or (value < best if minimize else value > best):
            best = value
    if best is None:
        return mp.INFEASIBLE, None
    return mp.OPTIMAL, best
