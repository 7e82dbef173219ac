"""Self-contained LP/MIP solver behind a small model-building interface.

The simplex works on exact rationals, so identical models always produce
identical solutions and the optimum is exact whenever the inputs are
exact. The model stores every number as `model.exact` leaves it, an int
where it is integral and a Fraction otherwise, and a solution's objective
and values come back the same way. Two-phase tableau whose rows are
sparse (a dict of nonzero coefficients per row, so pivots, bound flips
and pricing touch nonzeros only) and fraction-free: a row holds int
numerators over one int denominator, so no pivot does Fraction
arithmetic, and every pivot rule compares the same rationals a Fraction
tableau would. Variable upper bounds are implicit (bound-flip
substitution); the entering column has the most negative reduced cost,
with Bland's lowest-index rule as the anti-cycling fallback after a run
of degenerate pivots.
Phase 1 minimises the sum of the artificial columns; once it ends, the
artificials leave the tableau, so phase 2 never prices one (Chvátal,
*Linear Programming*, 1983). Models containing integer or binary
variables are solved by depth-first branch-and-bound over the simplex
relaxation: every node carries the full list of column bounds, and a
branch on the first fractional variable in `MPModel.variable_order`
replaces one side of its bounds, floor branch first, prune on bound. The
root starts from the live simplex where it can (below) and from the empty
simplex otherwise; a child starts from a copy of its parent's final
tableau with the one bound changed and is re-optimised by the dual simplex
(Koberstein, *The Dual Simplex Method*, 2005).

Every optimum read for its vertex, LP or branch-and-bound node, is moved
to the lexicographically smallest point of its optimal face
(`_Simplex.canonicalize`; Isermann, 1982), which depends on the LP only,
never on the starting basis. So every warm root and child is kept, and a
tree read for its vertex is the cold tree, node for node.

`MPModel.solve(reads=...)` takes what the caller reads of the result:
the vertex (`VERTEX`, the default), the objective (`OBJECTIVE`) or the
status (`STATUS`). Every root relaxation, an LP's or a branch-and-bound
root's, starts from the model's live simplex, the final state of the
last LP read for its objective or status only, if the model has since
only gained columns and rows and raised the upper bound of columns fixed
at 0. A raised column keeps its value 0, and a new column, whose entries
lie in the new rows only, joins the tableau nonbasic at 0, so the basis
stays primal feasible. The new rows are written over that basis, each with a
basic slack, a crashed structural column or an artificial, and phase 1
over those artificials restores feasibility (the row-addition warm start;
Chvátal, *Linear Programming*, 1983, ch. 10). A cold solve writes every
row onto the empty simplex the same way; any other change to a column,
a coefficient or a right-hand side the live simplex holds sends a root
cold. An LP read for less than its vertex (a bound query, a goal check)
works on the live simplex itself and leaves its final state live where
it is optimal or unbounded; any other root (an extraction, a
branch-and-bound root) works on a copy and leaves the live simplex as it
was; the copy leaves out the columns that sit nonbasic and fixed at 0,
as none of its bounds is raised again. A warm root is kept whatever it
returns; one cut by the pivot limit returns `LIMIT`, as a cold solve cut
by it does. An LP read for its status only under the empty objective
stops after phase 1 and the drive-out of its artificials, so the simplex
it leaves live holds no artificial entry, and a vertex read of the same
rows under an objective then starts with phase 2. An LP's optimum value
and status are unique, so these return what a cold solve returns; only
the pivot count differs.

A MIP read for its status skips the canonical point: a node's status is
unique even where its vertex is not, so its tree may differ from the
cold one, though not its status. Under the empty objective,
as in a goal check, it is a feasibility search: the solve sets a
steering cost of 1 on every column with lower bound 0 and a positive
finite upper bound (in a flow model, the action counts in the layer,
switches and fact columns)
in a scratch scope of its own, so that the reduced costs steer the dual
simplex of every child, and returns at the first node whose integer
columns are integral. It returns a cold solve's `(OPTIMAL, 0, ())` or
`INFEASIBLE`, or `LIMIT` when a limit cuts it before an integral node;
the model's objective, undo log and live simplex are as they were.
`Counters` accumulates solves, pivots, branch-and-bound nodes and warm
children, and warm and cold roots: every solve is one root, warm or
cold, except a MIP whose bounds cross, which solves none.

The model is single-owner mutable; `push_scratch`/`pop_scratch` give
exact undo of any mutations made in between, which callers use for
temporary constraints and temporary integrality. The undo log also tells
the live simplex what changed since its last solve: a column written
whole by `add_column` is one entry, which holds its coefficients. The
model counts its integer and binary columns as they come and go, so a
solve tells an LP from a MIP without scanning the kinds. Its variable
order (`variable_order`), which the canonical point and branching read,
is index order unless the owner sets one; a flow model, whose columns
exist before the actions join, keeps the order in which they joined.
"""

from __future__ import annotations

import logging
import time
from collections.abc import Collection
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, gcd, lcm

from .errors import SolverError
from .model import Number, exact

CONTINUOUS = "continuous"
INTEGER = "integer"
BINARY = "binary"

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
LIMIT = "limit"

MINIMIZE = "minimize"
MAXIMIZE = "maximize"

# what the caller of `MPModel.solve` reads from the solution
VERTEX = "vertex"        # status, objective and values
OBJECTIVE = "objective"  # status and objective; values stay empty
STATUS = "status"        # status; objective and values may be left out

DEFAULT_PIVOT_LIMIT = 100_000
DEFAULT_NODE_LIMIT = 100_000

log = logging.getLogger(__name__)


def _number(value) -> Number:
    """`value` as an exact number: an int where it is integral (`model.exact`)."""
    if type(value) is int:
        return value
    return exact(value if isinstance(value, Fraction) else Fraction(value))


@dataclass
class Counters:
    """Shared accounting for model building and solving: the seconds spent
    building flow models (`extend` included) and solving them, and the
    solves, pivots, branch-and-bound nodes and root relaxations behind them.
    Every solve is one root, warm or cold, except a MIP whose bounds cross,
    which solves none."""

    solves: int = 0
    build_time: float = 0.0
    solve_time: float = 0.0
    pivots: int = 0      # simplex pivots, bound flips included, over all relaxations
    bb_nodes: int = 0    # branch-and-bound nodes whose relaxation was solved
    bb_warm: int = 0     # B&B children solved by the dual simplex
    bb_truncated: int = 0      # B&B runs cut by a limit that returned an incumbent
    root_warm: int = 0   # root relaxations solved from the live simplex or a copy of it
    root_cold: int = 0   # root relaxations solved cold or found crossed: a model's
                         # first, or one after a change the live simplex cannot take


@dataclass
class MPSolution:
    status: str
    objective: Number | None
    values: tuple[Number, ...]


@dataclass
class _Variable:
    lb: Number | None
    ub: Number | None
    kind: str
    name: str


@dataclass
class _Constraint:
    coeffs: dict[int, Number]
    op: str  # "<=", ">=", "="
    rhs: Number
    name: str


class MPModel:
    def __init__(self, counters: Counters | None = None,
                 pivot_limit: int = DEFAULT_PIVOT_LIMIT,
                 node_limit: int = DEFAULT_NODE_LIMIT):
        self.variables: list[_Variable] = []
        self.constraints: list[_Constraint] = []
        self.objective: dict[int, Number] = {}
        self.sense = MINIMIZE
        self.counters = counters if counters is not None else Counters()
        self.pivot_limit = pivot_limit
        self.node_limit = node_limit
        self._undo: list[tuple] = []
        self._marks: list[int] = []
        # the number of integer and binary variables, which `solve` reads
        self.integral = 0
        # the variables that canonical points and branching read first, in
        # this order (`variable_order`)
        self.order: list[int] = []
        # the final state of the last LP read for its objective or status
        # only, from which every root starts where it can, and the length of
        # the undo log at that point; an undo below that point drops it
        self._live: _Simplex | None = None
        self._live_at = 0

    # -- building -----------------------------------------------------------

    def add_variable(self, lb=0, ub=None, kind: str = CONTINUOUS,
                     name: str = "") -> int:
        return self.add_column(lb, ub, {}, name, kind)

    def add_column(self, lb, ub, coeffs: dict[int, Number], name: str = "",
                   kind: str = CONTINUOUS) -> int:
        """A new variable with its coefficients in existing rows, `{row: coeff}`,
        written whole: it leaves one undo entry, which holds the nonzero
        coefficients and from which the live simplex reads the column."""
        lb = None if lb is None else _number(lb)
        ub = None if ub is None else _number(ub)
        if lb is not None and ub is not None and lb > ub:
            raise SolverError(f"variable bounds crossed: [{lb}, {ub}]")
        constraints = self.constraints
        nrows = len(constraints)
        index = len(self.variables)
        clean = {}
        for row, weight in coeffs.items():
            if not 0 <= row < nrows:
                raise SolverError(f"unknown constraint row {row}")
            weight = _number(weight)
            if weight:
                clean[row] = weight
        self.variables.append(_Variable(lb, ub, kind, name or f"x{index}"))
        if kind in (INTEGER, BINARY):
            self.integral += 1
        for row, weight in clean.items():
            constraints[row].coeffs[index] = weight
        # the index makes each entry a distinct object, which the live
        # simplex tells apart by identity
        self._undo.append(("pop_column", index, clean))
        return index

    def add_constraint(self, coeffs: dict[int, Number], op: str, rhs,
                       name: str = "") -> int:
        if op not in ("<=", ">=", "="):
            raise SolverError(f"unsupported constraint operator {op}")
        clean = {}
        for col, weight in coeffs.items():
            if not 0 <= col < len(self.variables):
                raise SolverError(f"constraint references unknown column {col}")
            weight = _number(weight)
            if weight != 0:
                clean[col] = weight
        index = len(self.constraints)
        self.constraints.append(_Constraint(clean, op, _number(rhs), name or f"c{index}"))
        self._undo.append(("pop_constraint", index))
        return index

    def set_objective(self, coeffs: dict[int, Number], sense: str = MINIMIZE) -> None:
        if sense not in (MINIMIZE, MAXIMIZE):
            raise SolverError(f"unknown objective sense {sense}")
        self._undo.append(("objective", dict(self.objective), self.sense))
        self.objective = {col: v for col, w in coeffs.items() if (v := _number(w)) != 0}
        self.sense = sense

    def set_variable_kind(self, index: int, kind: str) -> None:
        if kind not in (CONTINUOUS, INTEGER, BINARY):
            raise SolverError(f"unknown variable kind {kind}")
        var = self._var(index)
        self._undo.append(("kind", index, var.kind))
        self._set_kind(var, kind)

    def _set_kind(self, var: _Variable, kind: str) -> None:
        self.integral += (kind in (INTEGER, BINARY)) - (var.kind in (INTEGER, BINARY))
        var.kind = kind

    def set_variable_bounds(self, index: int, lb, ub) -> None:
        var = self._var(index)
        lb = None if lb is None else _number(lb)
        ub = None if ub is None else _number(ub)
        if lb is not None and ub is not None and lb > ub:
            raise SolverError(f"variable bounds crossed: [{lb}, {ub}]")
        self._undo.append(("bounds", index, var.lb, var.ub))
        var.lb, var.ub = lb, ub

    def set_coefficient(self, row: int, col: int, value) -> None:
        if not 0 <= row < len(self.constraints):
            raise SolverError(f"unknown constraint row {row}")
        self._var(col)
        coeffs = self.constraints[row].coeffs
        self._undo.append(("coefficient", row, col, coeffs.get(col)))
        value = _number(value)
        if value == 0:
            coeffs.pop(col, None)
        else:
            coeffs[col] = value

    def set_rhs(self, row: int, value) -> None:
        if not 0 <= row < len(self.constraints):
            raise SolverError(f"unknown constraint row {row}")
        constraint = self.constraints[row]
        self._undo.append(("rhs", row, constraint.rhs))
        constraint.rhs = _number(value)

    def add_to_order(self, index: int) -> None:
        """Read variable `index` next in `variable_order`, after every
        variable ordered so far."""
        self._var(index)
        self.order.append(index)
        self._undo.append(("order",))

    def variable_order(self) -> list[int]:
        """The variables in the order that the canonical point and
        branch-and-bound branching read them: those of `order`, then every
        other variable by index."""
        if not self.order:
            return list(range(len(self.variables)))
        ordered = set(self.order)
        return self.order + [i for i in range(len(self.variables)) if i not in ordered]

    def _var(self, index: int) -> _Variable:
        if not 0 <= index < len(self.variables):
            raise SolverError(f"unknown variable index {index}")
        return self.variables[index]

    # -- scratch ------------------------------------------------------------

    def push_scratch(self) -> None:
        self._marks.append(len(self._undo))

    def pop_scratch(self) -> None:
        if not self._marks:
            raise SolverError("pop_scratch without a matching push_scratch")
        mark = self._marks.pop()
        if mark < self._live_at:
            self._live = None
        while len(self._undo) > mark:
            entry = self._undo.pop()
            tag = entry[0]
            if tag == "pop_column":
                index = entry[1]
                for row in entry[2]:
                    del self.constraints[row].coeffs[index]
                if self.variables.pop().kind in (INTEGER, BINARY):
                    self.integral -= 1
            elif tag == "pop_constraint":
                self.constraints.pop()
            elif tag == "objective":
                self.objective, self.sense = entry[1], entry[2]
            elif tag == "kind":
                self._set_kind(self.variables[entry[1]], entry[2])
            elif tag == "bounds":
                self.variables[entry[1]].lb, self.variables[entry[1]].ub = entry[2], entry[3]
            elif tag == "coefficient":
                row, col, old = entry[1], entry[2], entry[3]
                if old is None:
                    self.constraints[row].coeffs.pop(col, None)
                else:
                    self.constraints[row].coeffs[col] = old
            elif tag == "rhs":
                self.constraints[entry[1]].rhs = entry[2]
            elif tag == "order":
                self.order.pop()

    # -- diagnostics ---------------------------------------------------------

    def effective_bounds(self, index: int) -> tuple[Number | None, Number | None]:
        var = self.variables[index]
        lb, ub = var.lb, var.ub
        if var.kind == BINARY:
            lb = 0 if lb is None else max(lb, 0)
            ub = 1 if ub is None else min(ub, 1)
        return lb, ub

    def check_assignment(self, values: list[Number]) -> list[str]:
        """Bound, integrality and constraint violations of a full assignment.

        Values are exact rationals, so every test is exact: no tolerance.
        """
        problems = []
        for index, var in enumerate(self.variables):
            lb, ub = self.effective_bounds(index)
            value = _number(values[index])
            if lb is not None and value < lb:
                problems.append(f"{var.name} = {value} below lower bound {lb}")
            if ub is not None and value > ub:
                problems.append(f"{var.name} = {value} above upper bound {ub}")
            if var.kind in (INTEGER, BINARY) and value.denominator != 1:
                problems.append(f"{var.name} = {value} not integral")
        for constraint in self.constraints:
            total = sum(w * _number(values[c]) for c, w in constraint.coeffs.items())
            ok = (total <= constraint.rhs if constraint.op == "<="
                  else total >= constraint.rhs if constraint.op == ">="
                  else total == constraint.rhs)
            if not ok:
                problems.append(
                    f"{constraint.name}: {total} {constraint.op} {constraint.rhs} violated")
        return problems

    def write_lp(self, stream) -> None:
        """Dump the model in CPLEX LP text format (fixed layout, for hand checks)."""
        def term_string(coeffs: dict[int, Number]) -> str:
            parts = []
            for col in sorted(coeffs):
                weight = coeffs[col]
                name = _sanitize(self.variables[col].name)
                sign = "+" if weight >= 0 else "-"
                parts.append(f"{sign} {abs(weight)} {name}")
            if not parts:
                return "0 x_nothing"
            joined = " ".join(parts)
            return joined[2:] if joined.startswith("+ ") else joined

        stream.write("\\ flowplan mpsolver model\n")
        stream.write("Minimize\n" if self.sense == MINIMIZE else "Maximize\n")
        stream.write(f" obj: {term_string(self.objective)}\n")
        stream.write("Subject To\n")
        op_text = {"<=": "<=", ">=": ">=", "=": "="}
        for constraint in self.constraints:
            stream.write(f" {_sanitize(constraint.name)}: {term_string(constraint.coeffs)} "
                         f"{op_text[constraint.op]} {constraint.rhs}\n")
        stream.write("Bounds\n")
        for index, var in enumerate(self.variables):
            lb, ub = self.effective_bounds(index)
            name = _sanitize(var.name)
            left = "-inf" if lb is None else str(lb)
            right = "+inf" if ub is None else str(ub)
            stream.write(f" {left} <= {name} <= {right}\n")
        generals = [v.name for v in self.variables if v.kind == INTEGER]
        binaries = [v.name for v in self.variables if v.kind == BINARY]
        if generals:
            stream.write("Generals\n " + " ".join(_sanitize(n) for n in generals) + "\n")
        if binaries:
            stream.write("Binaries\n " + " ".join(_sanitize(n) for n in binaries) + "\n")
        stream.write("End\n")

    # -- solving ------------------------------------------------------------

    def solve(self, reads: str = VERTEX) -> MPSolution:
        """Solve the model; `reads` says what the caller reads of the result.

        A model with integer or binary columns is solved by branch-and-bound
        and returns its vertex, unless it is read for its status only
        (`STATUS`) under the empty objective: that is a feasibility search
        under a steering cost set and undone here, which returns
        `(OPTIMAL, 0, ())` at its first integral node, unless an integer
        column has an infinite bound, along which a search could dive
        without end; such a model is read for its vertex. The root relaxation
        of every solve starts from the live simplex where it can
        (`_solve_root`): an LP read for its objective (`OBJECTIVE`) or its
        status only (`STATUS`) carries the live simplex on, and one read for
        its status only under the empty objective stops after phase 1 and
        the drive-out of its artificials. Status and objective are
        those of a cold solve in every case that no limit cuts short: an
        LP's optimum value is unique, and a vertex the canonical point of
        its optimal face.
        """
        start = time.perf_counter()
        self.counters.solves += 1
        try:
            if self.integral:
                bounds = [self.effective_bounds(i) for i in range(len(self.variables))]
                if reads != STATUS or self.objective:
                    return self._branch_and_bound(bounds, reads)
                variables = self.variables
                if any(variables[i].kind == INTEGER and None in bounds[i]
                       for i in range(len(bounds))):
                    # a search can dive without end along an integer column
                    # with an infinite bound; the vertex read's tree is the
                    # cold solve's
                    return self._branch_and_bound(bounds, VERTEX)
                # a feasibility search, steered by a cost that lives only
                # inside this solve
                self.push_scratch()
                try:
                    self.set_objective({col: 1 for col, (lb, ub) in enumerate(bounds)
                                        if lb == 0 and ub})
                    return self._branch_and_bound(bounds, reads, search=True)
                finally:
                    self.pop_scratch()
            status, simplex = self._solve_root(reads, keep=reads != VERTEX)
            if simplex is None:
                return MPSolution(status, None, ())
            return simplex.result(status, reads)
        finally:
            self.counters.solve_time += time.perf_counter() - start

    def _solve_cold(self, bounds: list[tuple[Number | None, Number | None]],
                    reads: str) -> tuple[str, _Simplex]:
        """A warm start from the empty simplex: every row written onto it."""
        simplex = _Simplex(self, bounds)
        try:
            return simplex.finish(simplex.add_rows(0), reads), simplex
        finally:
            self.counters.pivots += simplex.pivots

    def _solve_root(self, reads: str, keep: bool = False) -> tuple[str, _Simplex | None]:
        """A root relaxation, an LP's or a branch-and-bound root's, and its
        final simplex, None where its bounds cross (`INFEASIBLE`).

        If, since the live simplex was last brought up to date, the model
        has only gained columns and rows, raised the upper bound of columns
        fixed at 0, changed its objective, or changed a column's kind but
        not its effective bounds (`_live_changes`), the live simplex takes
        the raised bounds (`raise_upper`), the new columns nonbasic at 0
        (`add_columns`) and the new rows (`add_rows`), and phase 1 over
        their artificials restores feasibility from the live basis. The
        warm result is kept whatever it is; every other change means a cold
        solve, which writes every row onto the empty simplex instead. A root
        works on a copy of the live simplex, without the columns fixed at
        0 that it does not raise (`copy`), unless it is to `keep` its
        final state, as an LP read for less than its vertex is: then it
        works on the live simplex itself, and its final state becomes the
        live simplex if it is optimal or unbounded, so that its basis is
        primal feasible and, after phase 1, free of artificials. A status
        read keeps its rows in the live simplex, so a vertex read of the
        same rows, such as the extraction after a goal check, starts from
        a copy of that basis with no row to write and no phase 1.
        """
        live = self._live
        raised = self._live_changes() if live is not None else None
        if keep:
            self._live = None
        if raised is not None:
            simplex = live if keep else live.copy(fixed_except=raised)
            for var, ub in raised.items():
                simplex.raise_upper(var, ub)
            simplex.add_columns()
            try:
                status = simplex.finish(simplex.add_rows(len(simplex.tableau)), reads)
            finally:
                self.counters.pivots += simplex.pivots
            self.counters.root_warm += 1
        else:
            self.counters.root_cold += 1
            bounds = [self.effective_bounds(i) for i in range(len(self.variables))]
            if _crossed(bounds):
                return INFEASIBLE, None
            status, simplex = self._solve_cold(bounds, reads)
        if keep and status in (OPTIMAL, UNBOUNDED):
            self._live = simplex
            # objective entries are left out: every solve reprices the
            # objective, and a scratch-scoped objective is undone right after
            # its solve
            at = len(self._undo)
            while at and self._undo[at - 1][0] == "objective":
                at -= 1
            self._live_at = at
        return status, simplex

    def _live_changes(self) -> dict[int, Number | None] | None:
        """The columns fixed at 0 in the live simplex whose upper bound has
        been raised since it was last brought up to date, each with its new
        upper bound, or None if anything else it depends on changed since:
        another change of an existing column's effective bounds, a
        coefficient in one of its rows, be it an existing column's or a new
        one's, or a right-hand side of one. A new column must have effective
        lower bound 0; `add_columns` takes it, and `add_rows` its entries
        in the rows appended since, which it writes whole. An undo below
        that point has dropped the live simplex (`pop_scratch`)."""
        live = self._live
        nrows = len(live.tableau)
        first = len(live.col_of)
        raised: dict[int, Number | None] = {}
        seen = set()
        undo = self._undo
        for index in range(self._live_at, len(undo)):
            entry = undo[index]
            tag = entry[0]
            if tag == "pop_column":
                if any(row < nrows for row in entry[2]):
                    return None
            # the first undo entry of a cell holds its value at that point
            elif tag == "coefficient":
                row, col, old = entry[1], entry[2], entry[3]
                if row < nrows and (row, col) not in seen:
                    seen.add((row, col))
                    if col >= first or self.constraints[row].coeffs.get(col) != old:
                        return None
            elif tag == "rhs":
                if entry[1] < nrows:
                    return None
            elif tag == "bounds" or tag == "kind":
                col = entry[1]
                if col < first and col not in seen:
                    seen.add(col)
                    bounds = self.effective_bounds(col)
                    if bounds != live.bounds_of(col):
                        if live.bounds_of(col) != (0, 0) or bounds[0] != 0:
                            return None
                        raised[col] = bounds[1]
        for var in range(first, len(self.variables)):
            if self.effective_bounds(var)[0] != 0:
                return None
        return raised

    def _solve_node(self, bounds: list[tuple[Number | None, Number | None]],
                    parent: _Simplex | None, var: int, shared: bool,
                    reads: str) -> tuple[str, _Simplex]:
        """The relaxation of a branch-and-bound node whose bounds do not
        cross: its status and the simplex whose final state its children
        start from. The root (`var` < 0) is solved by `_solve_root`; a
        child by the dual simplex from its `parent`'s final state with
        `var`'s bounds replaced, in a copy when the parent is `shared`,
        then, for a vertex read, moved to the canonical point. A free `var`,
        which `tighten` cannot narrow, is solved cold.
        """
        if var < 0:
            return self._solve_root(reads)
        warm = parent.copy() if shared else parent
        if not warm.tighten(var, *bounds[var]):
            return self._solve_cold(bounds, reads)
        try:
            status = warm.dual()
            if status == OPTIMAL and reads == VERTEX:
                status = warm.canonicalize()
        finally:
            self.counters.pivots += warm.pivots
        self.counters.bb_warm += 1
        return status, warm

    def _branch_and_bound(self, bounds: list[tuple[Number | None, Number | None]],
                          reads: str = VERTEX, search: bool = False) -> MPSolution:
        """Depth-first branch-and-bound, floor branch first.

        The root relaxation is solved warm from the live simplex where the
        model allows, and each child by the dual simplex from its parent's
        final `_Simplex` (`_solve_node`). Every node's optimum is the
        canonical point, so the tree and the result are those of cold
        solves, unless the run is read for its status only: that takes any
        optimal vertex, so its tree may differ, though not its status. A
        node reads its objective and integer columns in int arithmetic;
        only an incumbent builds the value tuple, and only if the run is
        read for its vertex. With `search`, a feasibility search under the
        steering cost `solve` set, the run returns `(OPTIMAL, 0, ())` at
        the first node whose integer columns are integral. A run cut
        short by `node_limit` or a relaxation's pivot limit returns its
        incumbent if it has one, which is feasible but not proven optimal,
        and logs a warning; a search has no incumbent, so it returns
        `LIMIT`.
        """
        variables = self.variables
        integer_cols = [i for i in self.variable_order()
                        if variables[i].kind in (INTEGER, BINARY)]
        # a status read needs an optimum at each node, not the canonical one
        node_reads = OBJECTIVE if reads == STATUS else VERTEX
        minimize = self.sense == MINIMIZE
        best: MPSolution | None = None
        nodes = 0
        hit_limit = False
        # depth-first stack of (per-column bounds, parent simplex, branched
        # variable, parent shared with a later sibling); the floor branch is
        # pushed last so it is explored first
        stack: list[tuple[list, _Simplex | None, int, bool]] = [(bounds, None, -1, False)]
        while stack:
            if nodes >= self.node_limit:
                hit_limit = True
                break
            bounds, parent, var, shared = stack.pop()
            nodes += 1
            self.counters.bb_nodes += 1
            # a child changes only the branched variable's bounds
            if _crossed(bounds if var < 0 else (bounds[var],)):
                continue
            status, simplex = self._solve_node(bounds, parent, var, shared, node_reads)
            if status == LIMIT:
                hit_limit = True
                break
            if status == INFEASIBLE:
                continue
            if status == UNBOUNDED:
                # unbounded relaxation at the root means the MIP is unbounded
                # (bounded feasible integer region would have bounded relaxation)
                return MPSolution(UNBOUNDED, None, ())
            if best is not None and not _better(simplex._objective_value(), best.objective,
                                                minimize):
                continue
            # exact arithmetic: a value n / d is integral iff d divides n, so
            # big-M-sized coefficients can never fake integrality
            fractional = next(((col, Fraction(n, d)) for col, n, d
                               in simplex._point(integer_cols) if n % d), None)
            if fractional is None:
                if search:
                    return MPSolution(OPTIMAL, 0, ())
                best = simplex.result(OPTIMAL, reads)
                continue
            # the relaxed value lies within the node's bounds, so ceil(value)
            # is at least lb and floor(value) at most ub: each branch only
            # replaces one side of the column's bounds
            col, value = fractional
            lb, ub = bounds[col]
            ceil_bounds = list(bounds)
            ceil_bounds[col] = (ceil(value), ub)
            floor_bounds = list(bounds)
            floor_bounds[col] = (lb, floor(value))
            stack.append((ceil_bounds, simplex, col, False))
            stack.append((floor_bounds, simplex, col, True))
        if best is not None:
            if hit_limit:
                self.counters.bb_truncated += 1
                log.warning("branch-and-bound limit reached; returning the best "
                            "incumbent, not proven optimal")
            return best
        return MPSolution(LIMIT if hit_limit else INFEASIBLE, None, ())


def _crossed(bounds) -> bool:
    return any(lb is not None and ub is not None and lb > ub for lb, ub in bounds)


def _better(a: Number, b: Number, minimize: bool) -> bool:
    return a < b if minimize else a > b


def _sanitize(name: str) -> str:
    out = "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in name)
    return out if out and not out[0].isdigit() else "v_" + out


# ---------------------------------------------------------------------------
# Two-phase simplex over fraction-free sparse rows with implicit upper bounds


def _lower_terms(values: list[int], den: int) -> tuple[list[int], int]:
    """A dense row of numerators over `den`, divided by their common factor."""
    g = gcd(den, *values)
    if g == 1:
        return values, den
    return [x // g for x in values], den // g


class _Simplex:
    """Simplex over a standard-form copy of the model.

    Every structural variable is shifted/mirrored/split so its lower
    bound is 0; finite upper bounds stay implicit and are handled by
    bound-flip substitution (a nonbasic variable conceptually sitting at
    its upper bound is replaced by its complement, so all nonbasic
    variables read 0).

    Rows are fraction-free. `tableau[i]` maps each column with a nonzero
    entry to an int numerator, `rhs[i]` is an int numerator, and both are
    over one positive int denominator `den[i]`; the row's basic column has
    the entry `den[i]`, the value 1. Flow models are a few percent dense,
    so every loop below (crash, pivot, bound flip, reduced costs, ratio
    test) touches nonzeros only, and an entry that cancels to zero is
    deleted. Zeros carry no information in exact arithmetic, so the pivot
    sequence is that of a dense tableau. A row update multiplies ints only,
    as in integer-preserving elimination (Edmonds, 1967; Bareiss, 1968),
    and then divides the row by the gcd of its denominator, rhs and
    entries, which keeps its numbers small; a row over 1, as every row of
    an all-integer tableau with unit pivots is, skips the gcd. The
    reduced costs are one more row of the same kind, dense, over `rden`. A
    column upper bound stays an exact number p/q, and flipping the column
    scales the rows it touches by q.

    The pivot rules read exactly the rationals a tableau of Fractions
    holds: pricing compares numerators over the shared `rden`, and the
    ratio test and the bound-flip test compare ratios by
    cross-multiplication. So the pivots, statuses and solutions are those
    of the Fraction tableau, and no pivot makes a Fraction.

    `add_rows` writes every row: a row whose slack is nonnegative at the
    current point takes it as basic, the crash gives a row still without a
    basic column a structural column that has its only entry there, where
    its value fits the column's bounds, and each row left gets an
    artificial. Phase 1 is infeasible exactly when an artificial is still
    basic at a nonzero value. `_drive_out` then pivots basic artificials
    out where the row allows; the entries of every nonbasic artificial are
    deleted, so phase 2 prices none of them, and an artificial left basic
    in a redundant row keeps an upper bound of 0. The tableau therefore
    holds no copy of B^-1 after phase 1.

    A cold solve writes every row onto the empty simplex (`add_rows`),
    and `finish` runs both phases and keeps the final state, the reduced
    costs included. A branch-and-bound child takes that state (`copy`),
    narrows one variable's bounds (`tighten`), which keeps the basis dual
    feasible, and `dual` re-optimises it. A warm root relaxation takes the
    model's live simplex or a copy of it, raises the upper bounds of
    columns fixed at 0 (`raise_upper`), appends the model's new columns
    (`add_columns`) and rows (`add_rows`), and `finish` runs phase 1 over
    the new rows' artificials only. No column ever enters a row the
    simplex already holds, so no B^-1 a is needed.
    """

    def __init__(self, model: MPModel, bounds: list[tuple[Number | None, Number | None]]):
        self.model = model
        self.pivots = 0
        # columns: per model variable one or two transformed columns
        self.col_of: list[list[tuple[int, int]]] = []  # model var -> [(col, sign)]
        self.offset: list[Number] = []                 # model var -> additive offset
        self.upper: list[Number | None] = []           # transformed upper bounds
        ncols = 0
        for lb, ub in bounds:
            if lb is not None:
                self.col_of.append([(ncols, 1)])
                self.offset.append(lb)
                self.upper.append(None if ub is None else ub - lb)
                ncols += 1
            elif ub is not None:
                self.col_of.append([(ncols, -1)])
                self.offset.append(ub)
                self.upper.append(None)
                ncols += 1
            else:
                self.col_of.append([(ncols, 1), (ncols + 1, -1)])
                self.offset.append(0)
                self.upper.extend([None, None])
                ncols += 2
        self.nstruct = self.ncols = ncols
        self.flipped = [False] * ncols
        # no rows yet: `add_rows` writes them
        self.tableau: list[dict[int, int]] = []
        self.rhs: list[int] = []
        self.den: list[int] = []
        self.basis: list[int] = []
        self.row_of: dict[int, int] = {}  # basic column -> row
        # the reduced costs of the last objective `_optimize` proved optimal
        self.reduced: list[int] = []
        self.rden = 1

    def finish(self, artificial_cols: list[int], reads: str) -> str:
        """Phase 1 over the basic `artificial_cols`, from a basis feasible
        but for them, after which the artificials leave the tableau, then
        phase 2 unless a status read of the empty objective is settled;
        returns the status. So a feasible final state holds no artificial
        entry, also one that a status read leaves live. Pivots count from
        0, also on a simplex that an earlier solve left, so every solve
        counts its own."""
        self.pivots = 0
        if artificial_cols:
            artificial = set(artificial_cols)
            status = self._optimize(dict.fromkeys(artificial_cols, 1))
            if status == LIMIT:
                return LIMIT
            # artificials have no upper bound in phase 1, so none is flipped
            # and the phase-1 objective is the sum of the basic ones' rhs
            if any(value and b in artificial for value, b in zip(self.rhs, self.basis)):
                return INFEASIBLE
            self._drive_out(artificial_cols)
            # phase 2 never lets an artificial re-enter: a nonbasic one leaves
            # the tableau, and one still basic in a redundant row stays
            # pinned at zero
            leaving = artificial.difference(self.basis)
            for row in self.tableau:
                for col in leaving.intersection(row):
                    del row[col]
            for col in artificial_cols:
                self.upper[col] = 0
        if reads == STATUS and not self.model.objective:
            # a feasible basis settles a feasibility check: the empty
            # objective is 0 everywhere
            return OPTIMAL
        sign = 1 if self.model.sense == MINIMIZE else -1
        cost = {col: sign * weight * col_sign
                for var, weight in self.model.objective.items()
                for col, col_sign in self.col_of[var]}
        status = self._optimize(cost)
        if status == OPTIMAL and reads == VERTEX:
            return self.canonicalize()
        return status

    def result(self, status: str, reads: str) -> MPSolution:
        """The solution of a solve that ended with `status`, as `reads` asks."""
        if status != OPTIMAL:
            return MPSolution(status, None, ())
        values = () if reads != VERTEX else tuple(
            n // d if n % d == 0 else Fraction(n, d)
            for _, n, d in self._point(range(len(self.model.variables))))
        return MPSolution(OPTIMAL, self._objective_value(), values)

    def _point(self, variables):
        """Each of the model variables `variables` with its value at the current
        basis as (var, n, d) for n / d, d > 0, in int arithmetic."""
        rhs, den, upper, flipped = self.rhs, self.den, self.upper, self.flipped
        row_of, offsets, col_of = self.row_of, self.offset, self.col_of
        for var in variables:
            offset = offsets[var]
            vn, vd = offset.numerator, offset.denominator
            for col, sign in col_of[var]:
                i = row_of.get(col)
                if i is not None:
                    xn, xd = rhs[i], den[i]
                    if flipped[col]:
                        cap = upper[col]
                        xn, xd = cap.numerator * xd - xn * cap.denominator, xd * cap.denominator
                elif flipped[col]:
                    cap = upper[col]
                    xn, xd = cap.numerator, cap.denominator
                else:
                    continue
                if sign != 1:
                    xn = -xn
                vn, vd = (vn + xn, vd) if vd == xd else (vn * xd + xn * vd, vd * xd)
            yield var, vn, vd

    def _objective_value(self) -> Number:
        """The objective at the current basis, from the objective's columns
        only, in int arithmetic: each partial sum is a pair (n, d) for n / d."""
        objective = self.model.objective
        num, d = 0, 1
        for var, vn, vd in self._point(objective):
            weight = objective[var]
            wn, wd = weight.numerator * vn, weight.denominator * vd
            num, d = (num + wn, d) if d == wd else (num * wd + wn * d, d * wd)
        return num // d if num % d == 0 else Fraction(num, d)

    # -- warm start from an earlier solve of the same model -------------------

    def add_columns(self) -> None:
        """Append the model variables added since this simplex was built or
        last brought up to date as columns nonbasic at 0. Each has effective
        lower bound 0 and no entry in a row this simplex holds
        (`MPModel._live_changes`), so the basis stays primal feasible, and
        `add_rows` writes its entries with the rows that hold them."""
        model = self.model
        for var in range(len(self.col_of), len(model.variables)):
            self.col_of.append([(self.ncols, 1)])
            self.offset.append(0)
            self.upper.append(model.effective_bounds(var)[1])
            self.flipped.append(False)
            self.ncols += 1

    def raise_upper(self, var: int, ub: Number | None) -> None:
        """Raise the upper bound of model variable `var` from 0, where it is
        fixed, to `ub` (None: no upper bound). Its column is first unflipped
        at 0, which negates its entries and moves no value; a basic column's
        row is then divided by its negated entry. The column keeps its value
        0, so the basis stays primal feasible."""
        ((col, _),) = self.col_of[var]
        if self.flipped[col]:
            self._flip_column(col)
            i = self.row_of.get(col)
            if i is not None:
                self._make_unit(i, col)
            if col < len(self.reduced):
                self.reduced[col] = -self.reduced[col]
        self.upper[col] = ub

    def add_rows(self, first: int) -> list[int]:
        """Append the model's rows from index `first` on to this basis,
        feasible or empty; returns the artificial columns of those that
        need one, for `finish`. A cold solve writes every row onto the
        empty simplex.

        A row is written over the current columns: each term's offset moves
        to the rhs, a mirrored or split column takes its sign, and a flipped
        column reads upper - x', so its entry is negated and the entry times
        its upper bound moves to the rhs too. Each basic column is then
        eliminated with its tableau row, in int arithmetic, which leaves the
        row over nonbasic columns, with its rhs less its value at the
        current point as its rhs. A <= or >= row whose slack is nonnegative
        there gets that slack as its basic column, and the slacks are
        numbered in row order. Any other row (an equality, or an inequality
        the point violates) is negated if its rhs is negative. The crash
        then makes basic in such a row a structural column with its only
        entry among the new rows there and none in the old ones, where its
        value fits its bounds; each row still left gets a basic artificial,
        numbered after the slacks. So the basis is feasible but for the
        artificials, and phase 1 over them alone restores feasibility (the
        row-addition warm start; Chvátal, *Linear Programming*, 1983,
        ch. 10).
        """
        model = self.model
        if first == len(model.constraints):
            return []
        tableau, rhs, den, basis = self.tableau, self.rhs, self.den, self.basis
        offset, upper, flipped = self.offset, self.upper, self.flipped
        row_of, col_of = self.row_of, self.col_of
        old = len(tableau)
        ncols = self.ncols
        # the new rows without a basic column, in row order
        pending: dict[int, None] = {}
        for constraint in model.constraints[first:]:
            row: dict[int, Number] = {}
            value = constraint.rhs
            for var, weight in constraint.coeffs.items():
                if offset[var]:
                    value -= weight * offset[var]
                for col, sign in col_of[var]:
                    a = weight if sign == 1 else -weight
                    if flipped[col]:
                        value -= a * upper[col]
                        a = -a
                    row[col] = a
            # numerators over the least common denominator d, which leaves no
            # factor common to d and every numerator
            d = value.denominator
            for x in row.values():
                if type(x) is not int:
                    d = lcm(d, x.denominator)
            if d != 1:
                row = {col: x.numerator * (d // x.denominator) for col, x in row.items()}
            value = value.numerator * (d // value.denominator)
            eliminated = [col for col in row if col in row_of] if old else ()
            # row / d - (c / d) (tableau[i] / den[i]) is over d * den[i]; the
            # other basic columns are 0 in tableau[i], so one pass clears all
            for col in eliminated:
                c = row.pop(col)
                i = row_of[col]
                di = den[i]
                if di != 1:
                    row = {j: x * di for j, x in row.items()}
                    value *= di
                    d *= di
                for j, x in tableau[i].items():
                    if j != col:
                        y = row.get(j, 0) - c * x
                        if y:
                            row[j] = y
                        else:
                            del row[j]
                value -= c * rhs[i]
            # the sign of the slack s in row + s = value (<=) or
            # row - s = value (>=); s is slack * value / d at the current
            # point, and its entry is sign * slack once the row is negated
            op = constraint.op
            slack = 0 if op == "=" else 1 if op == "<=" else -1
            basic_slack = slack != 0 and slack * value >= 0
            sign = 1
            if (slack == -1) if basic_slack else (value < 0):
                row = {j: -x for j, x in row.items()}
                value = -value
                sign = -1
            i = len(tableau)
            if slack:
                row[ncols] = sign * slack * d
                ncols += 1
            if basic_slack:
                row_of[ncols - 1] = i
                basis.append(ncols - 1)
            else:
                basis.append(-1)
                pending[i] = None
            tableau.append(row)
            rhs.append(value)
            den.append(d)
            if eliminated:
                self._reduce(i)

        artificial_cols = []
        if pending:
            # the crash: structural columns with one entry among the new rows
            # and none in the old ones, in ascending order
            nstruct = self.nstruct
            only_row: dict[int, int] = {}  # column -> its new row, -1 if several
            for i in range(old, len(tableau)):
                for j in tableau[i]:
                    if j < nstruct:
                        only_row[j] = -1 if j in only_row else i
            for j in sorted(only_row):
                i = only_row[j]
                if i not in pending or (old and any(j in tableau[k] for k in range(old))):
                    continue
                entry = tableau[i][j]
                # the column's basic value would be rhs[i] / entry
                num, value_den = (rhs[i], entry) if entry > 0 else (-rhs[i], -entry)
                limit = upper[j]
                if num < 0 or (limit is not None and
                               num * limit.denominator > limit.numerator * value_den):
                    continue
                self._make_unit(i, j)
                basis[i] = j
                row_of[j] = i
                del pending[i]
            for i in pending:
                tableau[i][ncols] = den[i]
                basis[i] = ncols
                row_of[ncols] = i
                artificial_cols.append(ncols)
                ncols += 1
        upper.extend([None] * (ncols - self.ncols))
        flipped.extend([False] * (ncols - self.ncols))
        self.ncols = ncols
        return artificial_cols

    # -- warm start from a parent's final state -------------------------------

    def copy(self, fixed_except: Collection[int] | None = None) -> _Simplex:
        """An independent copy of the state after `finish` or `dual`,
        whatever status it ended with; its pivots count from 0.

        With `fixed_except`, the copy is for a root whose bounds are never
        raised again: it leaves out the column of every model variable,
        other than those in `fixed_except`, that sits nonbasic and fixed at
        0. No pivot enters such a column, so leaving it out changes no
        pivot and no point; the variable keeps its value 0 and every later
        row is written without it."""
        clone = _Simplex.__new__(_Simplex)
        clone.model = self.model
        clone.pivots = 0
        # add_columns appends to col_of, never changes an entry
        clone.col_of = self.col_of.copy()
        clone.offset = self.offset.copy()
        clone.upper = self.upper.copy()
        clone.flipped = self.flipped.copy()
        clone.nstruct = self.nstruct
        clone.ncols = self.ncols
        left_out = set()
        if fixed_except is not None:
            upper, row_of, offset, col_of = self.upper, self.row_of, self.offset, clone.col_of
            for var, cols in enumerate(col_of):
                if len(cols) == 1 and var not in fixed_except:
                    col = cols[0][0]
                    if upper[col] == 0 and not offset[var] and col not in row_of:
                        left_out.add(col)
                        col_of[var] = []
        if left_out:
            clone.tableau = [{j: x for j, x in row.items() if j not in left_out}
                             for row in self.tableau]
        else:
            clone.tableau = [row.copy() for row in self.tableau]
        clone.rhs = self.rhs.copy()
        clone.den = self.den.copy()
        clone.basis = self.basis.copy()
        clone.row_of = self.row_of.copy()
        clone.reduced = self.reduced.copy()
        clone.rden = self.rden
        return clone

    def bounds_of(self, var: int) -> tuple[Number | None, Number | None]:
        """The bounds of model variable `var` as this simplex holds them."""
        cols = self.col_of[var]
        if len(cols) == 2:
            return None, None
        ((col, sign),) = cols
        if sign == -1:
            return None, self.offset[var]
        upper = self.upper[col]
        return self.offset[var], None if upper is None else self.offset[var] + upper

    def tighten(self, var: int, lb: Number | None, ub: Number | None) -> bool:
        """Narrow model variable `var` to [lb, ub] inside its current bounds.

        The column t of `var` (x = offset + sign * t, 0 <= t <= upper)
        gets a new lower bound by the substitution t = d + t', which moves
        each row's rhs by its entry times d, and a new upper bound in
        place; a flipped column reads upper - t, so the two cases swap.
        The basis and reduced costs stay, so the basis remains dual
        feasible and only basic values may leave their bounds. Returns
        False for a free variable, which has two columns.
        """
        if len(self.col_of[var]) != 1:
            return False
        ((col, sign),) = self.col_of[var]
        offset = self.offset[var]
        if sign == 1:
            low, high = lb - offset, None if ub is None else ub - offset
        else:
            low, high = offset - ub, None if lb is None else offset - lb
        upper = self.upper[col]
        if low:
            if not self.flipped[col]:
                self._shift_column(col, low)
            self.offset[var] = offset + sign * low
            if upper is not None:
                upper -= low
            if high is not None:
                high -= low
        if high != upper:
            if self.flipped[col]:
                self._shift_column(col, upper - high)
            upper = high
        self.upper[col] = upper
        return True

    def dual(self) -> str:
        """Dual simplex from a dual-feasible basis back to primal feasibility.

        The leaving row holds the basic value furthest outside its bounds;
        one above its upper bound is flipped first, so it reads below 0.
        The entering column has a negative entry in that row and the least
        ratio of reduced cost to entry size, which keeps every reduced cost
        of a column that can move nonnegative; fixed columns never enter.
        Ties go to the lowest column index, and after a run of degenerate
        pivots Bland's rule picks the infeasible row with the lowest basic
        column. A row with no candidate proves the LP infeasible. Pivots
        count from 0, as in a cold solve.
        """
        self.pivots = 0
        tableau, rhs, den = self.tableau, self.rhs, self.den
        basis, upper = self.basis, self.upper
        reduced, rden = self.reduced, self.rden
        degenerate_streak = 0
        bland_threshold = 4 * (len(tableau) + self.ncols)
        bland = False
        while True:
            if self.pivots >= self.model.pivot_limit:
                return LIMIT
            # infeasibility of each basic value as num / vden, vden > 0
            leave_row = -1
            best_num = best_den = 0
            for i, b in enumerate(basis):
                num, vden = rhs[i], den[i]
                if num < 0:
                    num = -num
                else:
                    cap = upper[b]
                    if cap is None:
                        continue
                    q = cap.denominator
                    num = num * q - cap.numerator * vden
                    if num <= 0:
                        continue
                    vden *= q
                if leave_row != -1:
                    if bland:
                        if b > basis[leave_row]:
                            continue
                    else:
                        left, right = num * best_den, best_num * vden
                        if left < right or (left == right and b > basis[leave_row]):
                            continue
                best_num, best_den, leave_row = num, vden, i
            if leave_row == -1:
                self.reduced, self.rden = reduced, rden
                return OPTIMAL
            leaving = basis[leave_row]
            if rhs[leave_row] > 0:
                # above its upper bound: the complement is below 0
                self._flip_column(leaving)
                self._make_unit(leave_row, leaving)

            # ratio test over the row's negative entries: raising column j
            # raises the leaving value; reduced[j] / -a is compared by
            # cross-multiplication, both sides over the same denominators
            entering = -1
            best_r = best_a = 0
            for j, a in tableau[leave_row].items():
                if a >= 0 or upper[j] == 0:
                    continue
                r = reduced[j]
                if entering != -1:
                    left, right = r * best_a, best_r * -a
                    if left > right or (left == right and j > entering):
                        continue
                entering, best_r, best_a = j, r, -a
            if entering == -1:
                return INFEASIBLE

            self.pivots += 1
            degenerate_streak = degenerate_streak + 1 if best_r == 0 else 0
            bland = degenerate_streak > bland_threshold
            self._pivot(leave_row, entering)
            reduced, rden = self._price_out(reduced, rden, leave_row, entering)

    def canonicalize(self) -> str:
        """Move an optimal basis to the canonical point of its optimal face:
        the lexicographically smallest, taking the model variables in
        `MPModel.variable_order`, each by its distance from its finite bound (x - lb, or
        ub - x where only ub is finite; a free variable by its positive
        column, then its negative one), which depends on the LP only
        (Isermann, 1982; Dantzig, Orden and Wolfe, 1955).

        A nonbasic column is free while no objective so far prices it and
        it is not fixed; the others are frozen. Each variable that can
        still move on the face has its distance minimised by primal phase 2
        in which only free columns enter, and that stage's nonzero reduced
        costs freeze more. Entering columns have reduced cost 0 under every
        earlier objective, so the primary reduced costs, which a child's
        dual simplex reads, stay. A unique optimum takes no stage. Returns
        OPTIMAL, or LIMIT if a stage hits the pivot limit.
        """
        upper, flipped, row_of = self.upper, self.flipped, self.row_of
        # the basic columns and the free nonbasic ones; a frozen column
        # never enters, so it never rejoins
        free = {j for j, r in enumerate(self.reduced)
                if not r and (j in row_of or upper[j] != 0)}
        if len(free) == len(row_of):
            return OPTIMAL
        primary = self.reduced, self.rden
        col_of = self.col_of
        for col, sign in [pair for var in self.model.variable_order() for pair in col_of[var]]:
            if len(free) == len(row_of):
                break
            # the distance as a cost on t, x = offset + sign * t: a mirrored
            # column with a finite upper bound (narrowed from below by
            # `tighten`) has a finite lb, and x - lb falls as t rises
            cost = -1 if sign == -1 and upper[col] is not None else 1
            i = row_of.get(col)
            if i is not None:
                if not any(j in free and j != col for j in self.tableau[i]):
                    continue  # no free column moves its value
            elif col not in free:
                continue
            elif (-cost if flipped[col] else cost) > 0:
                free.discard(col)  # nonbasic at its nearer end already
                continue
            status = self._optimize({col: cost}, free)
            if status != OPTIMAL:
                return status
            reduced = self.reduced
            free = {j for j in free if j in row_of or (not reduced[j] and upper[j] != 0)}
        self.reduced, self.rden = primary
        return OPTIMAL

    # -- core pivoting -------------------------------------------------------

    def _reduced_costs(self, cost: dict[int, Number]) -> tuple[list[int], int]:
        """Reduced costs of the column costs `cost` (absent columns cost 0)
        as int numerators over one denominator."""
        rden = 1
        for c in cost.values():
            if type(c) is not int:
                rden = lcm(rden, c.denominator)
        reduced = [0] * self.ncols
        flipped = self.flipped
        for j, c in cost.items():
            x = c.numerator * (rden // c.denominator)
            reduced[j] = -x if flipped[j] else x
        for row, d, b in zip(self.tableau, self.den, self.basis):
            cb = reduced[b]
            if cb:
                if d != 1:
                    reduced = [x * d for x in reduced]
                    rden *= d
                for j, x in row.items():
                    reduced[j] -= cb * x
                if rden != 1:
                    reduced, rden = _lower_terms(reduced, rden)
        return reduced, rden

    def _optimize(self, cost: dict[int, Number], allowed: set[int] | None = None) -> str:
        reduced, rden = self._reduced_costs(cost)
        tableau, rhs, den = self.tableau, self.rhs, self.den
        basis, upper, basic = self.basis, self.upper, self.row_of
        degenerate_streak = 0
        bland_threshold = 4 * (len(tableau) + self.ncols)
        bland = False
        while True:
            if self.pivots >= self.model.pivot_limit:
                return LIMIT
            # pricing: reduced costs share the denominator rden > 0, so their
            # numerators order them; basic columns have reduced cost 0, so
            # the sign test rejects them and every zero; a fixed column never
            # enters, and only columns in `allowed` do, if given
            entering = -1
            if bland:
                for j, r in enumerate(reduced):
                    if r < 0 and j not in basic and upper[j] != 0 and (
                            allowed is None or j in allowed):
                        entering = j
                        break
            else:
                best = 0
                for j, r in enumerate(reduced):
                    if r < best and j not in basic and upper[j] != 0 and (
                            allowed is None or j in allowed):
                        best = r
                        entering = j
            if entering == -1:
                self.reduced, self.rden = reduced, rden
                return OPTIMAL

            # ratio test: how far can the entering variable rise before a
            # basic variable hits one of its bounds? Each step is a ratio
            # num / tden with tden > 0, compared by cross-multiplication
            best_num = best_den = 0
            leave_row = -1
            leave_to_upper = False
            for i, row in enumerate(tableau):
                a = row.get(entering)
                if a is None:
                    continue
                if a > 0:
                    # basic variable falls to 0; den[i] cancels
                    num, tden = rhs[i], a
                    hits_upper = False
                else:
                    cap = upper[basis[i]]
                    if cap is None:
                        continue
                    # basic variable climbs to cap = p/q
                    q = cap.denominator
                    num, tden = cap.numerator * den[i] - q * rhs[i], -a * q
                    hits_upper = True
                if leave_row != -1:
                    left, right = num * best_den, best_num * tden
                    if left > right or (left == right and basis[i] > basis[leave_row]):
                        continue
                best_num, best_den, leave_row, leave_to_upper = num, tden, i, hits_upper

            limit = upper[entering]              # entering hits its own bound
            if limit is not None and (leave_row == -1 or limit.numerator * best_den
                                      <= best_num * limit.denominator):
                self.pivots += 1
                degenerate_streak = degenerate_streak + 1 if limit == 0 else 0
                bland = degenerate_streak > bland_threshold
                self._flip_column(entering)
                reduced[entering] = -reduced[entering]
                continue
            if leave_row == -1:
                return UNBOUNDED

            self.pivots += 1
            degenerate_streak = degenerate_streak + 1 if best_num == 0 else 0
            bland = degenerate_streak > bland_threshold

            leaving = basis[leave_row]
            self._pivot(leave_row, entering)
            reduced, rden = self._price_out(reduced, rden, leave_row, entering)
            if leave_to_upper:
                # leaving variable exits at its upper bound; flip so the
                # nonbasic value-0 convention holds
                self._flip_column(leaving)
                reduced[leaving] = -reduced[leaving]

    def _price_out(self, reduced: list[int], rden: int, row: int, entering: int
                   ) -> tuple[list[int], int]:
        """The reduced-cost row after a pivot on (`row`, `entering`): it takes
        the same update as a tableau row, which leaves the entering column
        at 0."""
        factor = reduced[entering]
        if factor:
            pivot_den = self.den[row]
            if pivot_den != 1:
                reduced = [x * pivot_den for x in reduced]
                rden *= pivot_den
            for j, x in self.tableau[row].items():
                reduced[j] -= factor * x
            if rden != 1:
                reduced, rden = _lower_terms(reduced, rden)
        return reduced, rden

    def _reduce(self, i: int) -> None:
        """Divide row i by the gcd of its denominator, rhs and entries."""
        d = self.den[i]
        if d == 1:
            return
        row = self.tableau[i]
        g = gcd(d, self.rhs[i], *row.values())
        if g != 1:
            self.tableau[i] = {j: x // g for j, x in row.items()}
            self.rhs[i] //= g
            self.den[i] = d // g

    def _make_unit(self, i: int, col: int) -> None:
        """Divide row i by its entry in `col`, which then reads den[i]."""
        a = self.tableau[i][col]
        if a == self.den[i]:
            return
        if a < 0:
            self.tableau[i] = {j: -x for j, x in self.tableau[i].items()}
            self.rhs[i] = -self.rhs[i]
            a = -a
        self.den[i] = a
        self._reduce(i)

    def _flip_column(self, col: int) -> None:
        bound = self.upper[col]
        if bound is None:
            raise SolverError("cannot flip a column without an upper bound")
        self._shift_column(col, bound, negate=True)
        self.flipped[col] = not self.flipped[col]

    def _shift_column(self, col: int, amount: Number, negate: bool = False) -> None:
        """Substitute amount + x' (amount - x' if `negate`) for the variable
        of `col`: each row's rhs drops by its entry times `amount`."""
        p, q = amount.numerator, amount.denominator
        tableau, rhs, den = self.tableau, self.rhs, self.den
        for i, row in enumerate(tableau):
            a = row.get(col)
            if a is None:
                continue
            if q == 1:
                rhs[i] -= a * p
                if negate:
                    row[col] = -a
            else:
                # rhs - (a / den) * (p / q) is over den * q: scale the row by q
                row = tableau[i] = {j: x * q for j, x in row.items()}
                if negate:
                    row[col] = -a * q
                rhs[i] = rhs[i] * q - a * p
                den[i] *= q
                self._reduce(i)

    def _pivot(self, row: int, col: int) -> None:
        tableau, rhs, den = self.tableau, self.rhs, self.den
        self._make_unit(row, col)
        pivot_den = den[row]
        pr_rhs = rhs[row]
        pivot_items = list(tableau[row].items())
        for i, target in enumerate(tableau):
            if i == row:
                continue
            factor = target.get(col)
            if factor is None:
                continue
            # target / den[i] - (factor / den[i]) * (pivot row / pivot_den)
            # is over den[i] * pivot_den
            if pivot_den != 1:
                target = tableau[i] = {j: x * pivot_den for j, x in target.items()}
                rhs[i] *= pivot_den
                den[i] *= pivot_den
            for j, b in pivot_items:
                value = target.get(j)
                if value is None:
                    target[j] = -factor * b
                else:
                    value -= factor * b
                    if value:
                        target[j] = value
                    else:
                        del target[j]  # includes the entering column itself
            rhs[i] -= factor * pr_rhs
            self._reduce(i)
        del self.row_of[self.basis[row]]
        self.row_of[col] = row
        self.basis[row] = col

    def _drive_out(self, artificial_cols: list[int]) -> None:
        artificial = set(artificial_cols)
        for i in range(len(self.tableau)):
            if self.basis[i] not in artificial:
                continue
            candidates = [j for j in self.tableau[i] if j not in artificial]
            if candidates:
                self.pivots += 1
                self._pivot(i, min(candidates))
            # an all-zero row is redundant; its artificial stays basic at 0
