"""Layered relaxed planning graph with interval or LP-tightened numeric bounds.

Interval mode extends each variable's reachable range by every in-layer
effect once per layer (the classic metric relaxation); the unbounded
variant lets effects repeat arbitrarily within a layer. LP mode asks the
flow model for bounds instead, with the standard work-avoidance rules:
reuse a bound while every condition it could help is already satisfiable,
track only variables that occur in conditions or goals, widen from the
previous layer's bound, and skip directions with no in-layer effect.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

from . import mpsolver as mp
from .analysis import AnalysedTask
from .lpmodel import FlowModel, HeuristicConfig, LandmarkView
from .model import (
    GE, GT, LE, LT, GroundTask, LinearExpr, Number, NumericCondition, State, divide,
)

log = logging.getLogger(__name__)

METRICFF = "metricff"
LPRPG = "lprpg"
METRICFF_UNBOUNDED = "metricff-unbounded"

GOALS_REACHED = "goals-reached"
RELAXED_UNSOLVABLE = "relaxed-unsolvable"

Interval = tuple[Number | None, Number | None]


def expr_range(expr: LinearExpr, intervals: list[Interval]) -> Interval:
    """Range of a linear expression over box intervals; None encodes infinity.

    A weight of int 1 skips the multiply and a running sum of int 0 skips
    the add: both give the same number of the same type, and most
    conditions read `1*v op c` over Fraction bounds.
    """
    lo: Number | None = expr.constant
    hi: Number | None = expr.constant
    for var, weight in expr.terms:
        var_lo, var_hi = intervals[var]
        if weight > 0:
            term_lo, term_hi = var_lo, var_hi
        else:
            term_lo, term_hi = var_hi, var_lo
        unit = type(weight) is int and weight == 1
        if lo is not None:
            if term_lo is None:
                lo = None
            else:
                term = term_lo if unit else weight * term_lo
                lo = term if type(lo) is int and lo == 0 else lo + term
        if hi is not None:
            if term_hi is None:
                hi = None
            else:
                term = term_hi if unit else weight * term_hi
                hi = term if type(hi) is int and hi == 0 else hi + term
    return lo, hi


def range_satisfies(lo: Number | None, hi: Number | None, op: str,
                    rhs: Number) -> bool:
    """Whether some value in [lo, hi] (None: unbounded) satisfies `value op rhs`."""
    if op == GE:
        return hi is None or hi >= rhs
    if op == GT:
        return hi is None or hi > rhs
    if op == LE:
        return lo is None or lo <= rhs
    if op == LT:
        return lo is None or lo < rhs
    return (lo is None or lo <= rhs) and (hi is None or hi >= rhs)


def condition_satisfiable(cond: NumericCondition, intervals: list[Interval]) -> bool:
    lo, hi = expr_range(cond.expr, intervals)
    return range_satisfies(lo, hi, cond.op, cond.rhs)


def _relevant_extremum(cond: NumericCondition, intervals: list[Interval]):
    """The side of the expression range that could satisfy the condition."""
    lo, hi = expr_range(cond.expr, intervals)
    if cond.op in (GE, GT):
        return ("hi", hi)
    if cond.op in (LE, LT):
        return ("lo", lo)
    return ("both", (lo, hi))


@dataclass
class RPGraph:
    mode: str
    state: State
    fact_layers: list[frozenset[int]]
    numeric_layers: list[list[Interval]]
    action_layers: list[frozenset[int]]  # action_layers[0] is always empty
    first_fact_layer: dict[int, int]
    first_action_layer: dict[int, int]
    condition_first_layer: dict[NumericCondition, int]
    status: str
    final_layer: int
    flow: FlowModel | None
    adders: dict[int, tuple[int, ...]]  # fact -> adding action ids, from the analysis
    signatures: tuple[frozenset, ...]   # action id -> positive signature, from the analysis
    affectors: dict[int, tuple[int, ...]]  # variable -> ids of actions with an effect on it

    def actions_at(self, layer: int) -> frozenset[int]:
        return self.action_layers[min(layer, len(self.action_layers) - 1)]

    def interval_at(self, layer: int, var: int) -> Interval:
        return self.numeric_layers[min(layer, len(self.numeric_layers) - 1)][var]

    def lp_bounds(self, layer: int) -> list[Interval]:
        """Full LP bounds at a layer, one minimise and one maximise per tracked
        variable, with counts outside the layer pinned to zero. The expansion
        itself skips queries the termination test cannot need; this helper
        computes the complete picture for tests and debug dumps."""
        assert self.flow is not None, "lp_bounds needs an LP-mode graph"
        flow = self.flow
        out: list[Interval] = []
        flow.model.push_scratch()
        try:
            flow.restrict_to(frozenset(self.actions_at(layer)))
            for var in range(len(self.numeric_layers[0])):
                if var not in flow.tracked:
                    out.append(self.interval_at(layer, var))
                    continue
                base = self.state.values[var]
                hi = flow.query_bound(var, "max", base)
                lo = flow.query_bound(var, "min", base)
                out.append((lo, hi))
        finally:
            flow.model.pop_scratch()
        return out

    def first_hold_layer(self, cond: NumericCondition) -> int | None:
        """First fact layer where the condition is interval-satisfiable."""
        if cond in self.condition_first_layer:
            return self.condition_first_layer[cond]
        for layer, intervals in enumerate(self.numeric_layers):
            if condition_satisfiable(cond, intervals):
                self.condition_first_layer[cond] = layer
                return layer
        return None

    def dump(self, task: GroundTask) -> str:
        """Layer-by-layer text dump for debugging."""
        lines = [f"status: {self.status} (final layer {self.final_layer})"]
        for layer in range(len(self.fact_layers)):
            lines.append(f"fact layer {layer}:")
            for fact in sorted(self.fact_layers[layer]):
                marker = "+" if self.first_fact_layer.get(fact) == layer else " "
                lines.append(f"  {marker} {task.fact_names[fact]}")
            for var, (lo, hi) in enumerate(self.numeric_layers[layer]):
                left = "-inf" if lo is None else str(lo)
                right = "+inf" if hi is None else str(hi)
                lines.append(f"    {task.var_names[var]} in [{left}, {right}]")
            if layer + 1 < len(self.action_layers):
                lines.append(f"action layer {layer + 1}:")
                for action in sorted(self.action_layers[layer + 1]):
                    marker = "+" if self.first_action_layer.get(action) == layer + 1 else " "
                    lines.append(f"  {marker} {task.actions[action].name}")
        return "\n".join(lines)


def _interval_update(task: GroundTask, layer_actions, intervals: list[Interval],
                     unbounded: bool) -> list[Interval]:
    """One parallel interval-arithmetic step over the given action set."""
    new = list(intervals)
    for action_id in layer_actions:
        for effect in task.actions[action_id].numeric_effects:
            var = effect.variable
            base_lo, base_hi = intervals[var]
            mag_lo, mag_hi = expr_range(effect.magnitude, intervals)
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


def expand(analysed: AnalysedTask, state: State, config: HeuristicConfig,
           mode: str = LPRPG, counters: mp.Counters | None = None,
           landmarks: LandmarkView | None = None) -> RPGraph:
    """Build the layered graph until the goal is reachable or growth stagnates.

    Layers only widen: every numeric interval contains its predecessor. So a
    collected condition is interval-satisfiable at layer L exactly when it
    is in `condition_first` once layer L is recorded, and the expansion asks
    that dict instead of re-evaluating conditions on intervals.
    """
    task = analysed.task
    n_vars = len(task.var_names)
    landmarks = landmarks if landmarks is not None else LandmarkView()

    fact_layers = [frozenset(state.facts)]
    numeric_layers = [[(state.values[v], state.values[v]) for v in range(n_vars)]]
    action_layers: list[frozenset[int]] = [frozenset()]
    first_fact_layer = {fact: 0 for fact in state.facts}
    first_action_layer: dict[int, int] = {}
    condition_first: dict[NumericCondition, int] = {}

    all_conditions = analysed.conditions
    for cond in all_conditions:
        if condition_satisfiable(cond, numeric_layers[0]):
            condition_first[cond] = 0

    flow: FlowModel | None = None
    if mode == LPRPG:
        flow = FlowModel(analysed, state, counters)
        flow.add_catalytic()

    graph = RPGraph(mode, state, fact_layers, numeric_layers, action_layers,
                    first_fact_layer, first_action_layer, condition_first,
                    RELAXED_UNSOLVABLE, 0, flow, analysed.adders, analysed.signatures,
                    analysed.affectors)

    def goal_reached(layer: int) -> bool:
        if not task.goal_facts <= fact_layers[layer]:
            return False
        if not all(c in condition_first for c in task.goal_conditions):
            return False
        if mode == LPRPG and config.uses_goal_check():
            flow.model.push_scratch()
            try:
                flow.add_goal_constraints(config, landmarks, action_layers[layer])
                return flow.feasible()
            finally:
                flow.model.pop_scratch()
        return True

    if goal_reached(0):
        graph.status = GOALS_REACHED
        return graph

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
        no_new_actions = not new_actions

        next_facts = set(fact_layers[layer])
        for action_id in next_actions:
            next_facts.update(task.actions[action_id].add_effects)

        if mode == LPRPG:
            if flow is not None and new_actions:
                flow.extend(new_actions)
            next_intervals = _lp_layer_bounds(graph, analysed, next_actions, new_actions)
        else:
            next_intervals = _interval_update(task, sorted(next_actions), intervals,
                                              unbounded=(mode == METRICFF_UNBOUNDED))

        if no_new_actions and _stagnated(all_conditions, condition_first, intervals,
                                         next_intervals):
            graph.final_layer = layer
            graph.status = RELAXED_UNSOLVABLE
            # keep the tentative layer visible for diagnostics and tests
            action_layers.append(frozenset(next_actions))
            fact_layers.append(frozenset(next_facts))
            numeric_layers.append(next_intervals)
            return graph

        layer += 1
        action_layers.append(frozenset(next_actions))
        fact_layers.append(frozenset(next_facts))
        numeric_layers.append(next_intervals)
        for action_id in sorted(new_actions):
            first_action_layer.setdefault(action_id, layer)
        for fact in sorted(next_facts - fact_layers[layer - 1]):
            first_fact_layer.setdefault(fact, layer)
        for cond in all_conditions:
            if cond not in condition_first and condition_satisfiable(cond, next_intervals):
                condition_first[cond] = layer

        if goal_reached(layer):
            graph.final_layer = layer
            graph.status = GOALS_REACHED
            return graph

    log.warning("RPG layer cap (%d) reached; treating state as relaxed-unsolvable",
                config.max_layers)
    graph.final_layer = layer
    graph.status = RELAXED_UNSOLVABLE
    return graph


def _lp_layer_bounds(graph: RPGraph, analysed: AnalysedTask, layer_actions,
                     new_actions) -> list[Interval]:
    """Next numeric layer in LP mode, applying the four skip rules.

    Each query widens from the previous layer's bound. A side that is
    already infinite stays infinite without a query: a bound query that hit
    the LP limit reports infinity, and re-asking the next layer with nothing
    to widen from could return a finite bound, which would shrink the
    interval and break the monotone widening `expand` relies on.
    """
    task = analysed.task
    flow = graph.flow
    satisfiable = graph.condition_first_layer
    previous = graph.numeric_layers[-1]
    intervals = list(previous)
    if not new_actions:
        return intervals
    # interval arithmetic still covers variables excluded from the LP; an
    # untracked variable's interval moves only with the actions affecting it
    affectors = analysed.untracked_affectors
    untracked_update = _interval_update(
        task, sorted(a for a in layer_actions if a in affectors), previous, False)
    for var in range(len(task.var_names)):
        if var not in analysed.tracked:
            intervals[var] = untracked_update[var]
            continue
        lo, hi = previous[var]
        up_conditions = analysed.relevant_up.get(var, ())
        if hi is not None and not all(c in satisfiable for c in up_conditions):
            hi = flow.query_bound(var, "max", hi)
        down_conditions = analysed.relevant_down.get(var, ())
        if lo is not None and not all(c in satisfiable for c in down_conditions):
            lo = flow.query_bound(var, "min", lo)
        intervals[var] = (lo, hi)
    return intervals


def _stagnated(all_conditions, satisfiable: dict[NumericCondition, int],
               intervals: list[Interval], next_intervals: list[Interval]) -> bool:
    """No unsatisfied condition's satisfiability extremum would move."""
    for cond in all_conditions:
        if cond in satisfiable:
            continue
        if _relevant_extremum(cond, intervals) != _relevant_extremum(cond, next_intervals):
            return False
    return True


# ---------------------------------------------------------------------------
# Cost propagation


def propagate_costs(graph: RPGraph, task: GroundTask, variant: str) -> dict[int, Number]:
    """Propositional cost propagation; returns final-layer action costs.

    Facts true in the evaluated state cost 0; an action costs the max or
    sum of its propositional precondition costs one layer earlier; a fact's
    cost drops to the cheapest adder's cost plus one.
    """
    assert variant in ("max", "sum")
    infinity = None  # represented as None, compared as +infinity
    fact_cost: dict[int, Number | None] = {}
    for fact in graph.fact_layers[0]:
        fact_cost[fact] = 0
    action_cost: dict[int, Number | None] = {}

    def combined(action_id: int) -> Number | None:
        total = 0
        for fact in task.actions[action_id].preconditions:
            cost = fact_cost.get(fact)
            if cost is None:
                return None
            total = max(total, cost) if variant == "max" else total + cost
        return total

    for layer in range(1, len(graph.action_layers)):
        for action_id in sorted(graph.action_layers[layer]):
            cost = combined(action_id)
            previous = action_cost.get(action_id)
            if cost is not None and (previous is None or cost < previous):
                action_cost[action_id] = cost
        updates: dict[int, Number] = {}
        for action_id in sorted(graph.action_layers[layer]):
            cost = action_cost.get(action_id)
            if cost is None:
                continue
            for fact in task.actions[action_id].add_effects:
                candidate = cost + 1
                current = fact_cost.get(fact)
                if current is None or candidate < current:
                    if fact not in updates or candidate < updates[fact]:
                        updates[fact] = candidate
        for fact, cost in updates.items():
            current = fact_cost.get(fact)
            if current is None or cost < current:
                fact_cost[fact] = cost
    return {a: c for a, c in action_cost.items() if c is not None}


# ---------------------------------------------------------------------------
# Production-shortfall penalty (the optional interval-heuristic booster)


def sapa_penalty(state: State, action_counts: dict[int, int],
                 analysed: AnalysedTask) -> int | None:
    """Extra actions needed to cover the relaxed plan's net consumption.

    For each variable the relaxed plan overdraws, adds ceil(shortfall /
    best single-action production). Returns None (dead end) when a
    shortfall variable has no producer at all.
    """
    consumption: dict[int, Number] = {}
    production: dict[int, Number] = {}
    for action_id, count in action_counts.items():
        for effect in analysed.task.actions[action_id].numeric_effects:
            delta = effect.delta()
            if delta is None:
                continue
            if delta > 0:
                production[effect.variable] = production.get(effect.variable, 0) \
                    + delta * count
            elif delta < 0:
                consumption[effect.variable] = consumption.get(effect.variable, 0) \
                    - delta * count
    penalty = 0
    for var, consumed in sorted(consumption.items()):
        produced = production.get(var, 0)
        stock = state.values[var]
        shortfall = consumed - produced - stock
        if shortfall <= 0:
            continue
        best = analysed.best_production.get(var)
        if best is None:
            return None
        penalty += math.ceil(divide(shortfall, best))
    return penalty
