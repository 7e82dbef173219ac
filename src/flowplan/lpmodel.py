"""Flow models: LP/MIP encodings of resource flow over an action layer.

A FlowModel wraps an MPModel with one count column per ground action and
one post-value column per tracked numeric variable, tied by a
flow-conservation row per variable, plus rows for one-shot sets and
catalytic bounds and switches. It is built once per search run, from the
columns `AnalysedTask` compiles once per task (`flow_posts`,
`flow_columns`), with every count column pinned to [0, 0]. Each evaluated
state is a scratch scope on it: `begin(state)` sets the right-hand sides,
post bounds, one-shot rows and catalytic anchors that depend on the state,
`extend` raises the upper bound of each action that joins the layer, and
`end()` pops the scope. Goal checks add scratch rows for propositional
goals, landmarks, the full-proposition encoding and the numeric goal
conjunct; bound queries add no rows at all. The solver reads the columns
in the order the skeleton and the joining actions give them
(`MPModel.variable_order`), so that every canonical point and
branch-and-bound tree is that of a model holding only the layer's
actions, in the order they joined.

Every solve starts from the model's live simplex where it can. Within a
state, the live simplex takes the raised bounds of the actions that
joined since the last bound query, and any rows appended since; the first
bound query of a state is solved cold, as its right-hand sides changed,
so an evaluation is a pure function of its state and landmarks. A bound
query reads only the optimum, so it is solved with `reads=OBJECTIVE`, on
the live simplex itself, and carries it on to the next query. A
feasibility check reads only the status (`reads=STATUS`); it, and an
extraction solve at the final layer, work on a copy of the live simplex
with the scratch rows appended, which leaves the live simplex as the bound
queries left it.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

from . import mpsolver as mp
from .analysis import AnalysedTask, CATALYTIC, CatalyticGroup
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
    """The flow encoding of one task, shared by every state of a search run.

    The constructor builds the model once. `begin(state)` opens a scratch
    scope and sets what depends on the state; `extend` lets the actions
    that join the layer run; `end()` pops the scope, which leaves the model
    as built. Inside the scope every query that needs extra rows (goal
    checks, subgoals) or an objective pushes a scratch mark of its own and
    pops it afterwards.
    """

    def __init__(self, analysed: AnalysedTask, counters: mp.Counters | None = None):
        start = time.perf_counter()
        self.analysed = analysed
        self.task = analysed.task
        self.cls = analysed.classification
        self.counters = counters if counters is not None else mp.Counters()
        self.model = mp.MPModel(self.counters)
        self.tracked = analysed.tracked
        # the state of the open scope, and the actions in its layer, each
        # with its column, in the order they joined
        self.state: State | None = None
        self.action_col: dict[int, int] = {}
        # the tracked variables that an action in the layer increases, and
        # those that one changes by delta <= 0
        self.increased: set[int] = set()
        self.decreased: set[int] = set()
        self.post_col: dict[int, int] = {}
        self.up_col: dict[int, int] = {}
        self.down_col: dict[int, int] = {}
        self.flow_row: dict[int, int] = {}
        self.up_row: dict[int, int] = {}
        self.down_row: dict[int, int] = {}
        # one row per one-shot set, by set index
        self.one_shot_rows: list[int] = []
        self.switch_cols: list[int] = []
        # catalytic switches: (group members, switch col, bigM row, bound row)
        self.switches: list[tuple[frozenset[int], int, int, int]] = []
        # catalytic group index -> the bigM row of its switch
        self.big_m_rows: dict[int, int] = {}
        # the bound rows whose anchor is the state's value: (group, switch
        # col, bound row)
        self.state_anchors: list[tuple[CatalyticGroup, int, int]] = []
        self._build_skeleton()
        self._add_catalytic()
        self.first_action = len(self.model.variables)
        self._add_actions()
        # the skeleton columns come first in the solver's variable order;
        # an action's column follows when it joins the layer
        self.model.order.extend(range(self.first_action))
        self.counters.build_time += time.perf_counter() - start

    # -- construction --------------------------------------------------------

    def _build_skeleton(self) -> None:
        """A post-value column and a flow row per tracked variable, then a row
        per one-shot set. The post bounds and the right-hand sides are those
        of no state; `begin` sets them."""
        model, cls = self.model, self.cls
        for var, post_name, flow_name, lb, ub in self.analysed.flow_posts:
            col = model.add_variable(lb, ub, name=post_name)
            self.post_col[var] = col
            self.flow_row[var] = model.add_constraint({col: 1}, "=", 0, name=flow_name)
        for oss in self.analysed.one_shot_sets:
            # sum of the members' counts <= the sum of their count bounds,
            # which holds at every point; `begin` sets 1 where the fact holds
            self.one_shot_rows.append(model.add_constraint(
                {}, "<=", sum(cls.count_bound[a] for a in oss.actions),
                name=f"oneshot {self.task.fact_names[oss.fact]}"))

    def _add_catalytic(self) -> None:
        """Optimistic-ordering bound columns and switch rows for catalytic
        variables. A group's big-M coefficient is the sum of the count
        bounds of its actions in the layer: 0 until one joins."""
        task, cls, model = self.task, self.cls, self.model
        for var in self.analysed.tracked_order:
            if cls.status.get(var) != CATALYTIC:
                continue
            name = task.var_names[var]
            up = model.add_variable(None, None, name=f"up {name}")
            down = model.add_variable(None, None, name=f"down {name}")
            self.up_col[var] = up
            self.down_col[var] = down
            self.up_row[var] = model.add_constraint({up: 1}, "=", 0, name=f"uprow {name}")
            self.down_row[var] = model.add_constraint({down: 1}, "=", 0,
                                                      name=f"downrow {name}")
        for index, group in enumerate(cls.catalytic_groups):
            if group.variable not in self.up_col:
                continue
            switch = model.add_variable(0, 1, name=f"switch{index}")
            self.switch_cols.append(switch)
            # N*s >= sum of group counts
            big_m_row = model.add_constraint({}, ">=", 0, name=f"bigM{index}")
            self.big_m_rows[index] = big_m_row
            var = group.variable
            anchor = cls.lb[var] if group.op == GE else cls.ub[var]
            if anchor is None:
                # the state's value, which `begin` sets
                self.state_anchors.append((group, switch, len(model.constraints)))
            base = 0 if anchor is None else anchor
            # up >= anchor + (threshold - anchor) * s, or
            # down <= anchor - (anchor - threshold) * s
            col, op = (self.up_col[var], ">=") if group.op == GE else (self.down_col[var], "<=")
            bound_row = model.add_constraint({col: 1, switch: base - group.threshold}, op, base,
                                             name=f"catal{index}")
            self.switches.append((frozenset(group.actions), switch, big_m_row, bound_row))

    def _add_actions(self) -> None:
        """Every action's count column, pinned to [0, 0], in id order.

        An action's column is compiled once per task
        (`AnalysedTask.flow_columns`), its flow part keyed by row, as the
        skeleton writes the flow rows first, in `flow_posts` order. Here it
        gets its cells in the other rows: -delta in the up (delta > 0) or
        down row of a catalytic variable, 1 in each of its one-shot rows, -1
        in each of its bigM rows. `MPModel.add_column` writes it whole.
        """
        model, flow_row = self.model, self.flow_row
        up_row, down_row = self.up_row, self.down_row
        one_shot_rows, big_m_rows = self.one_shot_rows, self.big_m_rows
        for _, name, coeffs, ups, downs, one_shots, groups in self.analysed.flow_columns:
            if up_row or one_shots:
                coeffs = dict(coeffs)
                for var in ups:
                    if var in up_row:
                        coeffs[up_row[var]] = coeffs[flow_row[var]]
                for var in downs:
                    if var in down_row:
                        coeffs[down_row[var]] = coeffs[flow_row[var]]
                for index in one_shots:
                    coeffs[one_shot_rows[index]] = 1
                for index in groups:
                    if index in big_m_rows:
                        coeffs[big_m_rows[index]] = -1
            model.add_column(0, 0, coeffs, name)

    # -- the scope of one state ----------------------------------------------

    def begin(self, state: State) -> None:
        """Open the scope of `state`, with no action in the layer: the flow
        and up/down rows take its values as right-hand sides, the post
        columns their static bounds widened to its values, so zero counts
        stay feasible even where the state sits outside the producer and
        consumer bounds, a one-shot row 1 where its fact holds, and a
        catalytic bound row without a static anchor the state's value."""
        start = time.perf_counter()
        model, values = self.model, state.values
        model.push_scratch()
        self.state = state
        self.action_col = {}
        self.increased = set()
        self.decreased = set()
        for var, _, _, lb, ub in self.analysed.flow_posts:
            value = values[var]
            model.set_variable_bounds(self.post_col[var], None if lb is None else min(lb, value),
                                      None if ub is None else max(ub, value))
            model.set_rhs(self.flow_row[var], value)
        for var, row in self.up_row.items():
            model.set_rhs(row, values[var])
            model.set_rhs(self.down_row[var], values[var])
        for oss, row in zip(self.analysed.one_shot_sets, self.one_shot_rows):
            if oss.fact in state.facts:
                model.set_rhs(row, 1)
        for group, switch, bound_row in self.state_anchors:
            anchor = values[group.variable]
            model.set_coefficient(bound_row, switch, anchor - group.threshold)
            model.set_rhs(bound_row, anchor)
        self.counters.build_time += time.perf_counter() - start

    def end(self) -> None:
        """Close the scope `begin` opened; the model is as built again."""
        self.model.pop_scratch()
        self.state = None
        self.action_col = {}

    def extend(self, new_action_ids) -> None:
        """Let each newly reachable action run, in id order: raise its count
        column's upper bound from 0 to its count bound, and read it next in
        the solver's variable order. Then each switch gets its new big-M
        coefficient."""
        start = time.perf_counter()
        columns, model, action_col = self.analysed.flow_columns, self.model, self.action_col
        first = self.first_action
        added = False
        for action_id in sorted(new_action_ids):
            if action_id in action_col:
                continue
            added = True
            bound, _, _, ups, downs, _, _ = columns[action_id]
            self.increased.update(ups)
            self.decreased.update(downs)
            col = action_col[action_id] = first + action_id
            model.set_variable_bounds(col, 0, bound)
            model.add_to_order(col)
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
