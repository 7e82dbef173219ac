"""Independent brute-force oracles used by the solver and planning-graph tests.

These stay deliberately naive: vertex enumeration solves every n-subset
of tight constraints by exact Gaussian elimination; the MIP oracle
enumerates the whole integer lattice inside the variable bounds. Neither
shares any code with the simplex or branch-and-bound paths they check.
`expand_by_scanning` is the planning-graph expansion without precondition
counters or changed-variable re-tests: every layer rescans every action,
condition and in-layer effect. It shares the graph record, the interval
helpers with `rpg.expand`, not the bookkeeping, and uses the per-state
flow model below. `StateFlowModel` is the flow model built afresh for one
state, holding only the actions that joined its layer, in the order they
joined: the reference for the per-task model, which holds every action
from the start and makes each state a scratch scope. `CellFlowModel` is
the per-state model with the column builder that compiled columns
replaced: it writes each action's column cell by cell from the
classification. `replay_flow_layers` runs a flow model over given layers
and records its query results, vertices keyed by column name, so that
any two of them can be compared.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from flowplan import mpsolver as mp
from flowplan import rpg
from flowplan.analysis import CATALYTIC
from flowplan.lpmodel import FlowModel, LandmarkView
from flowplan.model import GE, exact


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


def _vertices(model: mp.MPModel):
    """Every feasible vertex of the model's region, with its objective value,
    once per defining subset of its bounding hyperplanes."""
    n = len(model.variables)
    planes = _halfplanes(model)
    objective = [model.objective.get(i, Fraction(0)) for i in range(n)]
    for subset in itertools.combinations(range(len(planes)), n):
        point = solve_linear_system([planes[i][0] for i in subset],
                                    [planes[i][2] for i in subset])
        if point is not None and _feasible(point, planes):
            yield tuple(point), sum(w * x for w, x in zip(objective, point))


def lp_by_vertex_enumeration(model: mp.MPModel):
    """(status, objective) for a model whose feasible region is bounded."""
    values = [value for _, value in _vertices(model)]
    if not values:
        return mp.INFEASIBLE, None
    return mp.OPTIMAL, min(values) if model.sense == mp.MINIMIZE else max(values)


def lp_optimal_vertices(model: mp.MPModel) -> set[tuple[Fraction, ...]]:
    """Every vertex at which `lp_by_vertex_enumeration`'s optimum is attained."""
    vertices = list(_vertices(model))
    if not vertices:
        return set()
    pick = min if model.sense == mp.MINIMIZE else max
    best = pick(value for _, value in vertices)
    return {point for point, value in vertices if value == best}


def simplex_values(simplex) -> list:
    """The values of the model variables at a `_Simplex`'s current basis,
    read column by column in Fraction arithmetic: each basic column's
    rhs / den, a flipped column's upper bound less that, then each
    variable's offset plus or minus its columns. The reference for the
    solver's int-arithmetic reads of the same point."""
    transformed = [simplex.upper[j] if simplex.flipped[j] else 0
                   for j in range(simplex.ncols)]
    for i, b in enumerate(simplex.basis):
        value = Fraction(simplex.rhs[i], simplex.den[i])
        transformed[b] = simplex.upper[b] - value if simplex.flipped[b] else value
    values = []
    for var in range(len(simplex.model.variables)):
        total = Fraction(simplex.offset[var])
        for col, sign in simplex.col_of[var]:
            total += sign * transformed[col]
        values.append(exact(total))
    return values


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


# ---------------------------------------------------------------------------
# Reference planning-graph expansion


def interval_update(task, layer_actions, intervals, unbounded):
    """One parallel interval-arithmetic step over the given action set,
    effect by effect."""
    new = list(intervals)
    for action_id in layer_actions:
        for effect in task.actions[action_id].numeric_effects:
            var = effect.variable
            base_lo, base_hi = intervals[var]
            mag_lo, mag_hi = rpg.expr_range(effect.magnitude, intervals)
            cur_lo, cur_hi = new[var]
            if effect.op == "assign":
                reach_lo, reach_hi = mag_lo, mag_hi
            elif effect.op == "increase":
                if unbounded:
                    reach_lo = None if (mag_lo is None or mag_lo < 0) else base_lo
                    reach_hi = None if (mag_hi is None or mag_hi > 0) else base_hi
                else:
                    reach_lo = None if (base_lo is None or mag_lo is None) else base_lo + mag_lo
                    reach_hi = None if (base_hi is None or mag_hi is None) else base_hi + mag_hi
            else:  # decrease
                if unbounded:
                    reach_lo = None if (mag_hi is None or mag_hi > 0) else base_lo
                    reach_hi = None if (mag_lo is None or mag_lo < 0) else base_hi
                else:
                    reach_lo = None if (base_lo is None or mag_hi is None) else base_lo - mag_hi
                    reach_hi = None if (base_hi is None or mag_lo is None) else base_hi - mag_lo
            new_lo = None if (cur_lo is None or reach_lo is None) else min(cur_lo, reach_lo)
            new_hi = None if (cur_hi is None or reach_hi is None) else max(cur_hi, reach_hi)
            new[var] = (new_lo, new_hi)
    return new


def expand_by_scanning(analysed, state, config, mode=rpg.LPRPG, counters=None,
                       landmarks=None):
    """`rpg.expand` as a rescan of every action and every condition per layer.

    Each layer tests every action not yet in the graph against the fact
    layer and the satisfiable conditions, unions the adds of every in-layer
    action, recomputes every variable over every in-layer effect, and tests
    every unsatisfied condition; the stagnation test compares every
    unsatisfied condition's extremum, and fails while a variable that an
    effect's magnitude reads changed. No counters, no changed-variable rule.
    """
    task = analysed.task
    n_vars = len(task.var_names)
    landmarks = landmarks if landmarks is not None else LandmarkView()

    fact_layers = [frozenset(state.facts)]
    numeric_layers = [[(state.values[v], state.values[v]) for v in range(n_vars)]]
    action_layers = [frozenset()]
    first_fact_layer = {fact: 0 for fact in state.facts}
    first_action_layer = {}
    condition_first = {}

    all_conditions = analysed.conditions
    for cond in all_conditions:
        if rpg.condition_satisfiable(cond, numeric_layers[0]):
            condition_first[cond] = 0

    flow = None
    if mode == rpg.LPRPG:
        flow = StateFlowModel(analysed, state, counters)
        flow.add_catalytic()

    graph = rpg.RPGraph(mode, state, fact_layers, numeric_layers, action_layers,
                        first_fact_layer, first_action_layer, [],
                        rpg.RELAXED_UNSOLVABLE, 0, flow, analysed)

    def finish(status, final_layer):
        graph.status = status
        graph.final_layer = final_layer
        graph.condition_first_by_id = [condition_first.get(c) for c in all_conditions]
        return graph

    def goal_reached(layer):
        if not task.goal_facts <= fact_layers[layer]:
            return False
        if not all(c in condition_first for c in task.goal_conditions):
            return False
        if mode == rpg.LPRPG and config.uses_goal_check():
            flow.model.push_scratch()
            try:
                flow.add_goal_constraints(config, landmarks, action_layers[layer])
                return flow.feasible()
            finally:
                flow.model.pop_scratch()
        return True

    if goal_reached(0):
        return finish(rpg.GOALS_REACHED, 0)

    layer = 0
    while layer < config.max_layers:
        intervals = numeric_layers[layer]
        next_actions = set(action_layers[layer])
        for action in task.actions:
            if action.id in next_actions:
                continue
            if not action.preconditions <= fact_layers[layer]:
                continue
            if all(c in condition_first for c in action.numeric_preconditions):
                next_actions.add(action.id)
        new_actions = next_actions - action_layers[layer]

        next_facts = set(fact_layers[layer])
        for action_id in next_actions:
            next_facts.update(task.actions[action_id].add_effects)

        if mode == rpg.LPRPG:
            if new_actions:
                flow.extend(new_actions)
            next_intervals = _scanning_lp_layer_bounds(graph, analysed, next_actions,
                                                       new_actions, condition_first)
        else:
            next_intervals = interval_update(task, sorted(next_actions), intervals,
                                             unbounded=(mode == rpg.METRICFF_UNBOUNDED))

        changed = [var for var in range(n_vars) if intervals[var] != next_intervals[var]]
        if not new_actions and not any(var in analysed.magnitude_readers
                                       for var in changed) and all(
                cond in condition_first
                or rpg._relevant_extremum(cond, intervals)
                == rpg._relevant_extremum(cond, next_intervals)
                for cond in all_conditions):
            action_layers.append(frozenset(next_actions))
            fact_layers.append(frozenset(next_facts))
            numeric_layers.append(next_intervals)
            return finish(rpg.RELAXED_UNSOLVABLE, layer)

        layer += 1
        action_layers.append(frozenset(next_actions))
        fact_layers.append(frozenset(next_facts))
        numeric_layers.append(next_intervals)
        for action_id in sorted(new_actions):
            first_action_layer.setdefault(action_id, layer)
        for fact in sorted(next_facts - fact_layers[layer - 1]):
            first_fact_layer.setdefault(fact, layer)
        for cond in all_conditions:
            if cond not in condition_first and rpg.condition_satisfiable(cond, next_intervals):
                condition_first[cond] = layer

        if goal_reached(layer):
            return finish(rpg.GOALS_REACHED, layer)
    return finish(rpg.RELAXED_UNSOLVABLE, layer)


def _scanning_lp_layer_bounds(graph, analysed, layer_actions, new_actions, satisfiable):
    task = analysed.task
    flow = graph.flow
    conditions = analysed.conditions
    previous = graph.numeric_layers[-1]
    intervals = list(previous)
    if not new_actions:
        return intervals
    affectors = analysed.untracked_affectors
    untracked_update = interval_update(
        task, sorted(a for a in layer_actions if a in affectors), previous, False)
    for var in range(len(task.var_names)):
        if var not in analysed.tracked:
            intervals[var] = untracked_update[var]
            continue
        lo, hi = previous[var]
        up_conditions = [conditions[c] for c in analysed.relevant_up.get(var, ())]
        if hi is not None and not all(c in satisfiable for c in up_conditions):
            hi = flow.query_bound(var, "max", hi)
        down_conditions = [conditions[c] for c in analysed.relevant_down.get(var, ())]
        if lo is not None and not all(c in satisfiable for c in down_conditions):
            lo = flow.query_bound(var, "min", lo)
        intervals[var] = (lo, hi)
    return intervals


# ---------------------------------------------------------------------------
# Reference flow models


class StateFlowModel(FlowModel):
    """The flow model of one state, grown with its layer: the constructor
    writes the post columns and flow rows with the state's values, and a
    one-shot row only where its fact holds; `add_catalytic` the catalytic
    bound columns and switch rows, anchored at the state's value where the
    classification has no bound; `extend` appends a count column per
    joining action, so the columns stand in the order the actions joined.
    Its queries are the per-task model's."""

    def __init__(self, analysed, state, counters=None):
        self.analysed = analysed
        self.task = analysed.task
        self.cls = analysed.classification
        self.state = state
        self.counters = counters if counters is not None else mp.Counters()
        self.model = mp.MPModel(self.counters)
        self.tracked = analysed.tracked
        self.action_col = {}
        self.post_col = {}
        self.up_col = {}
        self.down_col = {}
        self.flow_row = {}
        self.up_row = {}
        self.down_row = {}
        # one-shot set index -> its row, for the sets whose fact holds
        self.one_shot_rows = {}
        self.switch_cols = []
        self.switches = []
        self.big_m_rows = {}
        self.increased = set()
        self.decreased = set()
        model, values = self.model, state.values
        for var, post_name, flow_name, lb, ub in analysed.flow_posts:
            value = values[var]
            col = model.add_variable(None if lb is None else min(lb, value),
                                     None if ub is None else max(ub, value), name=post_name)
            self.post_col[var] = col
            self.flow_row[var] = model.add_constraint({col: 1}, "=", value, name=flow_name)
        for index, oss in enumerate(analysed.one_shot_sets):
            if oss.fact in state.facts:
                self.one_shot_rows[index] = model.add_constraint(
                    {}, "<=", 1, name=f"oneshot {self.task.fact_names[oss.fact]}")

    def add_catalytic(self):
        task, cls, model, values = self.task, self.cls, self.model, self.state.values
        for var in sorted(self.tracked):
            if cls.status.get(var) != CATALYTIC:
                continue
            name = task.var_names[var]
            up = model.add_variable(None, None, name=f"up {name}")
            down = model.add_variable(None, None, name=f"down {name}")
            self.up_col[var] = up
            self.down_col[var] = down
            self.up_row[var] = model.add_constraint({up: 1}, "=", values[var],
                                                    name=f"uprow {name}")
            self.down_row[var] = model.add_constraint({down: 1}, "=", values[var],
                                                      name=f"downrow {name}")
        for index, group in enumerate(cls.catalytic_groups):
            if group.variable not in self.up_col:
                continue
            switch = model.add_variable(0, 1, name=f"switch{index}")
            self.switch_cols.append(switch)
            present = [a for a in group.actions if a in self.action_col]
            coeffs = {self.action_col[a]: -1 for a in present}
            coeffs[switch] = sum(cls.count_bound[a] for a in present)
            big_m_row = model.add_constraint(coeffs, ">=", 0, name=f"bigM{index}")
            self.big_m_rows[index] = big_m_row
            var = group.variable
            if group.op == GE:
                anchor = cls.lb[var] if cls.lb[var] is not None else values[var]
                bound_row = model.add_constraint(
                    {self.up_col[var]: 1, switch: -(group.threshold - anchor)}, ">=", anchor,
                    name=f"catal{index}")
            else:
                anchor = cls.ub[var] if cls.ub[var] is not None else values[var]
                bound_row = model.add_constraint(
                    {self.down_col[var]: 1, switch: (anchor - group.threshold)}, "<=", anchor,
                    name=f"catal{index}")
            self.switches.append((frozenset(group.actions), switch, big_m_row, bound_row))

    def extend(self, new_action_ids):
        columns, model, action_col = self.analysed.flow_columns, self.model, self.action_col
        added = False
        for action_id in sorted(new_action_ids):
            if action_id in action_col:
                continue
            added = True
            bound, name, coeffs, ups, downs, one_shots, groups = columns[action_id]
            self.increased.update(ups)
            self.decreased.update(downs)
            coeffs = dict(coeffs)
            for var in ups:
                if var in self.up_row:
                    coeffs[self.up_row[var]] = coeffs[self.flow_row[var]]
            for var in downs:
                if var in self.down_row:
                    coeffs[self.down_row[var]] = coeffs[self.flow_row[var]]
            for index in one_shots:
                if index in self.one_shot_rows:
                    coeffs[self.one_shot_rows[index]] = 1
            for index in groups:
                if index in self.big_m_rows:
                    coeffs[self.big_m_rows[index]] = -1
            action_col[action_id] = model.add_column(0, bound, coeffs, name)
        if added:
            self._refresh_switch_rows()


class CellFlowModel(StateFlowModel):
    """`StateFlowModel` with the cell-by-cell column builder: `extend` adds
    each action's count column empty and writes its coefficients one
    `set_coefficient` cell at a time, read from the classification and the
    one-shot sets, and `_refresh_switch_rows` rewrites the -1 of every
    group member in the layer along with each switch's big-M coefficient."""

    def extend(self, new_action_ids) -> None:
        cls = self.cls
        added = False
        for action_id in sorted(new_action_ids):
            if action_id in self.action_col:
                continue
            added = True
            action = self.task.actions[action_id]
            col = self.model.add_variable(0, cls.count_bound[action_id],
                                          name=f"count {action.name}")
            self.action_col[action_id] = col
            for var, delta in cls.delta.get(action_id, {}).items():
                if var not in self.tracked:
                    continue
                self.model.set_coefficient(self.flow_row[var], col, -delta)
                if delta > 0:
                    self.increased.add(var)
                    if var in self.up_row:
                        self.model.set_coefficient(self.up_row[var], col, -delta)
                else:
                    self.decreased.add(var)
                    if var in self.down_row:
                        self.model.set_coefficient(self.down_row[var], col, -delta)
            for index, row in self.one_shot_rows.items():
                if action_id in self.analysed.one_shot_sets[index].actions:
                    self.model.set_coefficient(row, col, 1)
        if added:
            self._refresh_switch_rows()

    def _refresh_switch_rows(self) -> None:
        for members, switch, big_m_row, _ in self.switches:
            present = [a for a in members if a in self.action_col]
            big_m = sum(self.cls.count_bound[a] for a in present)
            self.model.set_coefficient(big_m_row, switch, big_m)
            for action_id in present:
                self.model.set_coefficient(big_m_row, self.action_col[action_id], -1)


def state_flow(flow_class, analysed, state, counters=None):
    """A per-state reference flow model of `flow_class` for `state`, its
    catalytic rows added, before any action joins."""
    flow = flow_class(analysed, state, counters)
    flow.add_catalytic()
    return flow


def named_vertex(model: mp.MPModel, solution: mp.MPSolution) -> tuple:
    """A solution's status and objective and its nonzero values keyed by
    column name, numbers with their types."""
    values = sorted((model.variables[col].name, value, type(value))
                    for col, value in enumerate(solution.values) if value)
    return solution.status, solution.objective, type(solution.objective), values


def replay_flow_layers(flow, config, layers, weights, first_layer) -> list:
    """`flow`, with no action in its layer yet, extended by each action set
    of `layers` in turn, with a record per layer: a max and a min bound
    query per tracked variable, a goal check, and an extraction-like vertex
    solve under `config`'s integrality and the action `weights`, keyed by
    column name. Every solve reads through the live simplex, which the
    queries bring up, so warm roots are compared along with the model."""
    records = []
    for actions in layers:
        flow.extend(actions)
        model = flow.model
        record = []
        for var in sorted(flow.tracked):
            for direction in ("max", "min"):
                bound = flow.query_bound(var, direction, None)
                record.append((var, direction, bound, type(bound)))
        model.push_scratch()
        try:
            flow.add_goal_constraints(config, LandmarkView(), actions)
            record.append(flow.feasible())
            flow.apply_integrality(config, first_layer, frozenset(), frozenset())
            flow.set_action_objective(weights)
            record.append(named_vertex(model, model.solve()))
        finally:
            model.pop_scratch()
        records.append(record)
    return records
