"""Flow models: LP/MIP encodings of resource flow over an action layer.

A FlowModel wraps an MPModel with one count column per action in the
layer and one post-value column per tracked numeric variable, tied by a
flow-conservation row per variable. Optional rows encode one-shot sets,
catalytic bounds and switches, propositional goals, landmarks, the
full-proposition encoding, and the numeric goal conjunct. The model
grows monotonically as RPG layers add actions; temporary rows (goal
checks, subgoal constraints) are scratch-scoped, and bound queries add
no rows at all. An action's column is compiled once per task
(`AnalysedTask.flow_columns`); `extend` only adds its cells in the rows
that depend on the state and hands it to `MPModel.add_column` whole.
Every solve starts from the model's live simplex, which takes the columns
that `extend` appended since the last bound query, each read from its
one undo entry, and any rows appended since. A bound query reads only
the optimum, so it is solved with `reads=OBJECTIVE`, on the live simplex
itself, and carries it on to the next query. A feasibility check reads
only the status (`reads=STATUS`); it, and an extraction solve at the
final layer, work on a copy of the live simplex with the scratch rows
appended, which leaves the live simplex as the bound queries left it.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

from . import mpsolver as mp
from .analysis import AnalysedTask, CATALYTIC
from .errors import SolverError
from .model import GE, GT, LE, LT, EQ, Number, NumericCondition, State

log = logging.getLogger(__name__)

WEIGHT_LAYER = "layer"
WEIGHT_HADD = "hadd"
WEIGHT_HMAX = "hmax"

INTS_MINIMAL = "minimal"
INTS_FIRST_LAYER = "first-layer"
INTS_PROP_GOAL = "prop-goal-achievers"
INTS_NUM_GOAL = "num-goal-achievers"
INTS_ALL = "all"

_INT_POLICIES = (INTS_MINIMAL, INTS_FIRST_LAYER, INTS_PROP_GOAL, INTS_NUM_GOAL, INTS_ALL)


@dataclass(frozen=True)
class HeuristicConfig:
    """Ablation axes of the heuristic; defaults follow the evaluation setup:
    layer weighting with k=3, first-layer integrality, propositional goals
    and landmarks in the LP, numeric goal conjunct on."""

    weight_scheme: str = WEIGHT_LAYER
    layer_k: Number = 3
    integrality: str = INTS_FIRST_LAYER
    include_prop_goals: bool = True
    include_landmarks: bool = True
    include_all_propositions: bool = False
    include_numeric_goal_conjunct: bool = True
    lp_call_budget: int = 500
    max_layers: int = 200

    def __post_init__(self):
        if self.weight_scheme not in (WEIGHT_LAYER, WEIGHT_HADD, WEIGHT_HMAX):
            raise ValueError(f"unknown weight scheme {self.weight_scheme}")
        if self.weight_scheme == WEIGHT_LAYER and self.layer_k < 1:
            raise ValueError("layer weighting needs k >= 1")
        if self.integrality not in _INT_POLICIES:
            raise ValueError(f"unknown integrality policy {self.integrality}")
        if self.include_landmarks and not self.include_prop_goals:
            raise ValueError("landmarks in the LP require propositional goals in the LP")
        if self.include_all_propositions and not self.include_landmarks:
            raise ValueError("the all-propositions encoding requires landmarks in the LP")
        if self.max_layers < 1:
            raise ValueError("the layer cap needs max_layers >= 1")

    def uses_goal_check(self) -> bool:
        return (self.include_prop_goals or self.include_landmarks
                or self.include_all_propositions or self.include_numeric_goal_conjunct)


@dataclass(frozen=True)
class LandmarkView:
    """Unachieved-landmark slice passed to model building by the search."""

    conjunctive: tuple[int, ...] = ()
    disjunctive: tuple[frozenset[int], ...] = ()


class FlowModel:
    """Mutable flow encoding for a growing action layer.

    Build with the constructor, extend with `extend`; every query that
    needs extra rows (goal checks, subgoals) or an objective pushes a
    scratch mark and pops it afterwards, so the persistent model only ever
    contains the flow skeleton for the current layer.
    """

    def __init__(self, analysed: AnalysedTask, state: State,
                 counters: mp.Counters | None = None):
        self.analysed = analysed
        self.task = analysed.task
        self.cls = analysed.classification
        self.state = state
        self.counters = counters if counters is not None else mp.Counters()
        self.model = mp.MPModel(self.counters)
        self.tracked = analysed.tracked
        self.action_col: dict[int, int] = {}
        self.post_col: dict[int, int] = {}
        self.up_col: dict[int, int] = {}
        self.down_col: dict[int, int] = {}
        self.flow_row: dict[int, int] = {}
        self.up_row: dict[int, int] = {}
        self.down_row: dict[int, int] = {}
        # one-shot set index -> its row, for the sets whose fact holds
        self.one_shot_rows: dict[int, int] = {}
        self.switch_cols: list[int] = []
        # catalytic switches: (group members, switch col, bigM row, bound row)
        self.switches: list[tuple[frozenset[int], int, int, int]] = []
        # catalytic group index -> the bigM row of its switch
        self.big_m_rows: dict[int, int] = {}
        # the tracked variables that an action in the layer increases, and
        # those that one changes by delta <= 0
        self.increased: set[int] = set()
        self.decreased: set[int] = set()
        self._build_skeleton()

    # -- construction --------------------------------------------------------

    def _build_skeleton(self) -> None:
        start = time.perf_counter()
        model, values, facts = self.model, self.state.values, self.state.facts
        for var, post_name, flow_name, lb, ub in self.analysed.flow_posts:
            # clamp by the evaluated state so zero counts stay feasible even
            # when the state sits outside the producer/consumer bounds
            value = values[var]
            col = model.add_variable(None if lb is None else min(lb, value),
                                     None if ub is None else max(ub, value), name=post_name)
            self.post_col[var] = col
            self.flow_row[var] = model.add_constraint({col: 1}, "=", value, name=flow_name)
        for index, oss in enumerate(self.analysed.one_shot_sets):
            if oss.fact in facts:
                self.one_shot_rows[index] = model.add_constraint(
                    {}, "<=", 1, name=f"oneshot {self.task.fact_names[oss.fact]}")
        self.counters.build_time += time.perf_counter() - start

    def add_catalytic(self) -> None:
        """Optimistic-ordering bound columns and switch rows for catalytic variables."""
        start = time.perf_counter()
        task, cls = self.task, self.cls
        for var in sorted(self.tracked):
            if cls.status.get(var) != CATALYTIC:
                continue
            name = task.var_names[var]
            up = self.model.add_variable(None, None, name=f"up {name}")
            down = self.model.add_variable(None, None, name=f"down {name}")
            self.up_col[var] = up
            self.down_col[var] = down
            self.up_row[var] = self.model.add_constraint(
                {up: 1}, "=", self.state.values[var], name=f"uprow {name}")
            self.down_row[var] = self.model.add_constraint(
                {down: 1}, "=", self.state.values[var], name=f"downrow {name}")
        for index, group in enumerate(self.cls.catalytic_groups):
            if group.variable not in self.up_col:
                continue
            switch = self.model.add_variable(0, 1,
                                             name=f"switch{index}")
            self.switch_cols.append(switch)
            # N*s >= sum of group counts; N grows with the layer (sum of U_a)
            present = [a for a in group.actions if a in self.action_col]
            coeffs = {self.action_col[a]: -1 for a in present}
            coeffs[switch] = sum(cls.count_bound[a] for a in present)
            big_m_row = self.model.add_constraint(coeffs, ">=", 0, name=f"bigM{index}")
            self.big_m_rows[index] = big_m_row
            var = group.variable
            if group.op == GE:
                anchor = self.cls.lb[var]
                if anchor is None:
                    anchor = self.state.values[var]
                # up >= anchor + (threshold - anchor) * s
                bound_row = self.model.add_constraint(
                    {self.up_col[var]: 1,
                     switch: -(group.threshold - anchor)}, ">=", anchor,
                    name=f"catal{index}")
            else:
                anchor = self.cls.ub[var]
                if anchor is None:
                    anchor = self.state.values[var]
                # down <= anchor - (anchor - threshold) * s
                bound_row = self.model.add_constraint(
                    {self.down_col[var]: 1,
                     switch: (anchor - group.threshold)}, "<=", anchor,
                    name=f"catal{index}")
            self.switches.append((frozenset(group.actions), switch, big_m_row, bound_row))
        self.counters.build_time += time.perf_counter() - start

    def extend(self, new_action_ids) -> None:
        """Append a count column for each newly reachable action, in id order.

        An action's column is compiled once per task
        (`AnalysedTask.flow_columns`), its flow part keyed by row, as the
        skeleton writes the flow rows first, in `flow_posts` order. Here it
        gets its cells in the rows that depend on the state: -delta in the up
        (delta > 0) or down row of a catalytic variable, 1 in a one-shot row,
        -1 in a bigM row. `MPModel.add_column` writes it whole; then each
        switch gets its new big-M coefficient.
        """
        start = time.perf_counter()
        columns, model, action_col = self.analysed.flow_columns, self.model, self.action_col
        up_row, down_row = self.up_row, self.down_row
        one_shot_rows, big_m_rows = self.one_shot_rows, self.big_m_rows
        added = False
        for action_id in sorted(new_action_ids):
            if action_id in action_col:
                continue
            added = True
            bound, name, coeffs, ups, downs, one_shots, groups = columns[action_id]
            self.increased.update(ups)
            self.decreased.update(downs)
            if up_row or (one_shots and one_shot_rows):
                coeffs = dict(coeffs)
                for var in ups:
                    if var in up_row:
                        coeffs[up_row[var]] = coeffs[self.flow_row[var]]
                for var in downs:
                    if var in down_row:
                        coeffs[down_row[var]] = coeffs[self.flow_row[var]]
                for index in one_shots:
                    if index in one_shot_rows:
                        coeffs[one_shot_rows[index]] = 1
                for index in groups:
                    if index in big_m_rows:
                        coeffs[big_m_rows[index]] = -1
            action_col[action_id] = model.add_column(0, bound, coeffs, name)
        if added:
            self._refresh_switch_rows()
        self.counters.build_time += time.perf_counter() - start

    def _refresh_switch_rows(self) -> None:
        """Set each switch's big-M coefficient to the sum of the count bounds
        of its group's actions in the layer."""
        for members, switch, big_m_row, _ in self.switches:
            big_m = sum(self.cls.count_bound[a] for a in members if a in self.action_col)
            self.model.set_coefficient(big_m_row, switch, big_m)

    # -- temporary structure -------------------------------------------------

    def restrict_to(self, action_ids: frozenset[int]) -> None:
        """Scratch-scope: pin counts of actions outside the given set to zero."""
        for action_id, col in self.action_col.items():
            if action_id not in action_ids:
                self.model.set_variable_bounds(col, 0, 0)

    def condition_row(self, cond: NumericCondition) -> tuple[dict[int, Number], str, Number]:
        """A numeric condition as a row over post-value columns.

        Strict comparisons are relaxed to their closed forms (the model is
        already a relaxation); equalities stay equalities.
        """
        coeffs = {self.post_col[v]: w for v, w in cond.expr.terms}
        op = {GE: ">=", GT: ">=", LE: "<=", LT: "<=", EQ: "="}[cond.op]
        return coeffs, op, cond.rhs

    def add_goal_constraints(self, config: HeuristicConfig, landmarks: LandmarkView,
                             layer_action_ids: frozenset[int]) -> None:
        """Add the configured goal/landmark/proposition rows (scratch-scope them).

        A goal fact with no in-layer achiever produces an unsatisfiable
        0 >= 1 row, which is what drives further RPG extension.
        """
        start = time.perf_counter()
        task, state = self.task, self.state

        def achiever_row(facts, name: str) -> None:
            coeffs = {self.action_col[a]: 1 for fact in facts
                      for a in self._layer_adders(fact, layer_action_ids)}
            self.model.add_constraint(coeffs, ">=", 1, name=name)

        if config.include_numeric_goal_conjunct:
            for index, cond in enumerate(task.goal_conditions):
                coeffs, op, rhs = self.condition_row(cond)
                self.model.add_constraint(coeffs, op, rhs, name=f"numgoal{index}")
        if config.include_prop_goals:
            for fact in sorted(task.goal_facts):
                if fact not in state.facts:
                    achiever_row([fact], f"goal {task.fact_names[fact]}")
        if config.include_landmarks:
            for fact in landmarks.conjunctive:
                if fact not in state.facts and fact not in task.goal_facts:
                    achiever_row([fact], f"landmark {task.fact_names[fact]}")
            for index, group in enumerate(landmarks.disjunctive):
                if not (group & state.facts):
                    achiever_row(sorted(group), f"disjlandmark{index}")
        if config.include_all_propositions:
            self._add_all_propositions(layer_action_ids)
        self.counters.build_time += time.perf_counter() - start

    def _layer_adders(self, fact: int, layer_action_ids: frozenset[int]) -> list[int]:
        return [a for a in self.analysed.adders.get(fact, ()) if a in layer_action_ids]

    def _add_all_propositions(self, layer_action_ids: frozenset[int]) -> None:
        """Binary fact columns: adders cover the fact, big-M links requirers."""
        task, state = self.task, self.state
        requirers: dict[int, list[int]] = {}
        for action_id in layer_action_ids:
            for fact in task.actions[action_id].preconditions:
                if fact not in state.facts:
                    requirers.setdefault(fact, []).append(action_id)
        for fact in sorted(requirers):
            name = task.fact_names[fact]
            fcol = self.model.add_variable(0, 1, kind=mp.BINARY,
                                           name=f"fact {name}")
            add_coeffs = {self.action_col[a]: 1
                          for a in self._layer_adders(fact, layer_action_ids)}
            add_coeffs[fcol] = -1
            self.model.add_constraint(add_coeffs, ">=", 0, name=f"covers {name}")
            users = requirers[fact]
            big_m = sum(self.cls.count_bound[a] for a in users)
            req_coeffs = {self.action_col[a]: -1 for a in users}
            req_coeffs[fcol] = big_m
            self.model.add_constraint(req_coeffs, ">=", 0, name=f"needs {name}")

    def set_action_objective(self, weights: dict[int, Number]) -> None:
        """Minimise the weighted action-count sum; non-action columns weigh zero."""
        coeffs = {self.action_col[a]: w for a, w in weights.items()
                  if a in self.action_col}
        self.model.set_objective(coeffs, mp.MINIMIZE)

    def apply_integrality(self, config: HeuristicConfig,
                          first_layer_ids: frozenset[int],
                          goal_achiever_ids: frozenset[int],
                          numeric_goal_affector_ids: frozenset[int]) -> None:
        """Set column kinds for the configured policy (scratch-scope this too).

        Binary switch/fact columns are made binary under every policy.
        """
        policy = config.integrality
        integral: set[int] = set(self.task.assignment_rewritten)
        if policy in (INTS_FIRST_LAYER, INTS_PROP_GOAL, INTS_NUM_GOAL, INTS_ALL):
            integral |= set(first_layer_ids)
        if policy in (INTS_PROP_GOAL, INTS_NUM_GOAL, INTS_ALL):
            integral |= set(goal_achiever_ids)
        if policy in (INTS_NUM_GOAL, INTS_ALL):
            integral |= set(numeric_goal_affector_ids)
        if policy == INTS_ALL:
            integral |= set(self.action_col)
        for action_id in integral:
            col = self.action_col.get(action_id)
            if col is not None:
                self.model.set_variable_kind(col, mp.INTEGER)
        for col in self.switch_cols:
            self.model.set_variable_kind(col, mp.BINARY)

    # -- queries --------------------------------------------------------------

    def feasible(self) -> bool:
        """Feasibility of the current model (plus scratch rows), solved as
        built, integrality included: under `--lp-all-props` the fact columns
        are binary, so each such check is a branch-and-bound run, which
        `MPModel.solve` runs as a feasibility search that stops at the first
        integral node. The model is read for its status only, so the root
        starts from a copy of the live simplex whenever the model since the
        last bound query has only gained columns and rows, and an LP check
        stops once phase 1 settles it. A check cut by the pivot or node
        limit before it settles counts as feasible, with a warning."""
        self.model.push_scratch()
        try:
            self.model.set_objective({}, mp.MINIMIZE)
            solution = self.model.solve(reads=mp.STATUS)
        finally:
            self.model.pop_scratch()
        if solution.status == mp.LIMIT:
            log.warning("LP iteration limit during feasibility check; assuming feasible")
            return True
        return solution.status == mp.OPTIMAL

    def query_bound(self, var: int, direction: str,
                    previous: Number | None) -> Number | None:
        """Max/min of a tracked variable's post-value over the current layer.

        Returns None for an unbounded direction. The optimum is widened from
        the previous bound by max/min, so bounds widen as layers grow. That
        equals the LP with a `post >= previous` row (`<=` for min): when the
        optimum falls short of `previous`, no point meets that row, and an
        infeasible clamped LP keeps `previous`.
        """
        if direction == "max" and var not in self.increased:
            return previous if previous is not None else self.state.values[var]
        if direction == "min" and var not in self.decreased:
            return previous if previous is not None else self.state.values[var]
        sense = mp.MAXIMIZE if direction == "max" else mp.MINIMIZE
        self.model.push_scratch()
        try:
            self.model.set_objective({self.post_col[var]: 1}, sense)
            solution = self.model.solve(reads=mp.OBJECTIVE)
        finally:
            self.model.pop_scratch()
        if solution.status == mp.UNBOUNDED:
            return None
        if solution.status == mp.LIMIT:
            log.warning("LP iteration limit during bound query; treating as unbounded")
            return None
        if solution.status != mp.OPTIMAL:
            if previous is not None:
                return previous
            raise SolverError(
                f"bound query infeasible for {self.task.var_names[var]} ({direction})")
        optimum = solution.objective
        if previous is None:
            return optimum
        return max(previous, optimum) if direction == "max" else min(previous, optimum)


def layer_weights(config: HeuristicConfig, first_action_layer: dict[int, int],
                  action_costs: dict[int, Number] | None) -> dict[int, Number]:
    """Objective weight per action: k^layer, or 1 + propagated cost."""
    weights: dict[int, Number] = {}
    if config.weight_scheme == WEIGHT_LAYER:
        for action_id, layer in first_action_layer.items():
            weights[action_id] = config.layer_k ** layer
    else:
        assert action_costs is not None, "cost propagation required for hadd/hmax weights"
        for action_id in first_action_layer:
            weights[action_id] = 1 + action_costs.get(action_id, 0)
    return weights
