"""Layered relaxed planning graph with interval or LP-tightened numeric bounds.

Interval mode extends each variable's reachable range by every in-layer
effect once per layer (the classic metric relaxation); the unbounded
variant lets effects repeat arbitrarily within a layer. LP mode asks the
flow model for bounds instead, with the standard work-avoidance rules:
reuse a bound while every condition it could help is already satisfiable,
track only variables that occur in conditions or goals, widen from the
previous layer's bound, and skip directions with no in-layer effect.

Expansion is event-driven, after Metric-FF (Hoffmann & Nebel, JAIR 2001;
Hoffmann, JAIR 2003), over the static index `AnalysedTask` builds once:
each action counts its unmet preconditions (facts plus distinct condition
ids), a fact or condition that appears for the first time decrements the
counters of the actions that need it, and an action joins the next layer
when its counter reaches 0. Because layers only widen, only unsatisfied
conditions over variables whose interval changed are re-tested, and an
interval step recomputes only the variables whose reach can have moved.
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
    expr = cond.expr
    terms = expr.terms
    if len(terms) == 1 and terms[0][1] == 1 and not expr.constant:
        lo, hi = intervals[terms[0][0]]  # `1*v op c`, the common form
    else:
        lo, hi = expr_range(expr, intervals)
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
    # condition id -> first layer where the condition is interval-satisfiable
    condition_first_by_id: list[int | None]
    status: str
    final_layer: int
    flow: FlowModel | None
    analysed: AnalysedTask

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


def _effect_reach(op: str, base: Interval, magnitude: Interval, unbounded: bool) -> Interval:
    """Values one effect can give its variable from the interval `base`,
    with its magnitude ranging over `magnitude`."""
    base_lo, base_hi = base
    mag_lo, mag_hi = magnitude
    if op == "assign":
        return mag_lo, mag_hi
    if op == "increase":
        if unbounded:
            return (None if (mag_lo is None or mag_lo < 0) else base_lo,
                    None if (mag_hi is None or mag_hi > 0) else base_hi)
        return (None if (base_lo is None or mag_lo is None) else base_lo + mag_lo,
                None if (base_hi is None or mag_hi is None) else base_hi + mag_hi)
    # decrease
    if unbounded:
        return (None if (mag_hi is None or mag_hi > 0) else base_lo,
                None if (mag_lo is None or mag_lo < 0) else base_hi)
    return (None if (base_lo is None or mag_hi is None) else base_lo - mag_hi,
            None if (base_hi is None or mag_lo is None) else base_hi - mag_lo)


class _LayerEffects:
    """The numeric effects of the actions in the graph so far, summarised
    per variable for the interval step: the least and greatest constant
    signed change, the least and greatest constant assigned value, and the
    effects whose magnitude reads a variable."""

    def __init__(self, analysed: AnalysedTask):
        self.action_effects = analysed.action_effects
        self.readers = analysed.magnitude_readers
        self.changes: dict[int, list[Number]] = {}
        self.assigned: dict[int, list[Number]] = {}
        self.general: dict[int, list[tuple[str, LinearExpr]]] = {}

    def join(self, new_actions, changed) -> set[int]:
        """Take in the effects of the actions that joined the layer, and
        return the variables whose next interval can differ from their
        current one.

        A variable's next interval is its current one widened by the reach
        of every in-layer effect on it, and the current one already holds
        the reaches computed one layer earlier. So only a variable that a
        new action affects, whose own interval changed, or one of whose
        effects reads a changed variable in its magnitude can move.
        """
        dirty: set[int] = set()
        for action_id in new_actions:
            for var, op, constant, magnitude in self.action_effects[action_id]:
                dirty.add(var)
                if constant is None:
                    self.general.setdefault(var, []).append((op, magnitude))
                    continue
                if op == "assign":
                    table, value = self.assigned, constant
                else:
                    table, value = self.changes, constant if op == "increase" else -constant
                extremes = table.get(var)
                if extremes is None:
                    table[var] = [value, value]
                elif value < extremes[0]:
                    extremes[0] = value
                elif value > extremes[1]:
                    extremes[1] = value
        readers = self.readers
        for var in changed:
            dirty.add(var)
            dirty.update(readers.get(var, ()))
        return dirty

    def step(self, variables, intervals: list[Interval],
             unbounded: bool) -> tuple[list[Interval], list[int]]:
        """One parallel interval-arithmetic step over the effects on
        `variables`; every other variable keeps its interval. Returns the
        next layer and the variables whose interval changed.

        Constant changes d widen [lo, hi] to [lo + min d, hi + max d] (to
        infinity on the side a change points to, when unbounded), which is
        the hull of the effect-by-effect reaches."""
        new = list(intervals)
        moved: list[int] = []
        changes, assigned, general = self.changes, self.assigned, self.general
        for var in variables:
            base = intervals[var]
            lo, hi = base
            extremes = changes.get(var)
            if extremes is not None:
                least, greatest = extremes
                if least < 0 and lo is not None:
                    lo = None if unbounded else lo + least
                if greatest > 0 and hi is not None:
                    hi = None if unbounded else hi + greatest
            extremes = assigned.get(var)
            if extremes is not None:
                if lo is not None:
                    lo = min(lo, extremes[0])
                if hi is not None:
                    hi = max(hi, extremes[1])
            for op, magnitude in general.get(var, ()):
                reach_lo, reach_hi = _effect_reach(op, base, expr_range(magnitude, intervals),
                                                   unbounded)
                lo = None if (lo is None or reach_lo is None) else min(lo, reach_lo)
                hi = None if (hi is None or reach_hi is None) else max(hi, reach_hi)
            if lo != base[0] or hi != base[1]:
                new[var] = (lo, hi)
                moved.append(var)
        return new, moved


def _release(users, counts: list[int], ready: list[int]) -> None:
    """A precondition of each of `users` became true: count it down, and
    collect the actions with nothing left unmet."""
    for action_id in users:
        left = counts[action_id] - 1
        counts[action_id] = left
        if not left:
            ready.append(action_id)


def expand(analysed: AnalysedTask, state: State, config: HeuristicConfig,
           mode: str = LPRPG, counters: mp.Counters | None = None,
           landmarks: LandmarkView | None = None,
           flow: FlowModel | None = None) -> RPGraph:
    """Build the layered graph until the goal is reachable or growth stagnates.

    Each action's counter starts at its static precondition count. Facts
    of the state and conditions satisfiable on its point intervals count
    down their users; every later layer does the same for the facts and
    conditions first seen there, and the actions whose counter reached 0
    while a layer was recorded form the next action layer. The next fact
    layer is the current one plus the adds of those new actions.

    Layers only widen: every numeric interval contains its predecessor. So
    a condition once satisfiable stays so, and an unsatisfied condition
    over variables whose intervals did not change stays unsatisfied: only
    the open conditions over changed variables are re-tested, and
    `_stagnated` compares those alone, unless a changed variable is read
    by an effect's magnitude. The interval step recomputes only the
    variables `_LayerEffects.join` names.

    In LP mode the graph asks `flow`, the task's flow model with the scope
    of `state` begun, for bounds, and keeps per tracked variable the number
    of its relevant-up and relevant-down conditions not yet satisfiable;
    without a `flow` it builds a flow model of its own, for this graph.
    """
    task = analysed.task
    landmarks = landmarks if landmarks is not None else LandmarkView()
    conditions = analysed.conditions
    fact_users = analysed.fact_users
    condition_users = analysed.condition_users

    fact_layers = [frozenset(state.facts)]
    numeric_layers = [[(value, value) for value in state.values]]
    action_layers: list[frozenset[int]] = [frozenset()]
    first_fact_layer = {fact: 0 for fact in state.facts}
    first_action_layer: dict[int, int] = {}
    first_by_id: list[int | None] = [None] * len(conditions)

    lp = mode == LPRPG
    if lp:
        if flow is None:
            flow = FlowModel(analysed, counters)
            flow.begin(state)
        up_vars, down_vars = analysed.up_relevant_vars, analysed.down_relevant_vars
        relevant_up, relevant_down = analysed.relevant_up, analysed.relevant_down
        open_up = [len(relevant_up.get(var, ())) for var in range(len(state.values))]
        open_down = [len(relevant_down.get(var, ())) for var in range(len(state.values))]

        def close(cond_id: int) -> None:
            """Condition `cond_id` became satisfiable: it is open no more."""
            for var in up_vars[cond_id]:
                open_up[var] -= 1
            for var in down_vars[cond_id]:
                open_down[var] -= 1

    counts = list(analysed.precondition_counts)
    ready = [action_id for action_id, count in enumerate(counts) if not count]
    for fact in state.facts:
        _release(fact_users.get(fact, ()), counts, ready)
    for cond_id, cond in enumerate(conditions):
        if condition_satisfiable(cond, numeric_layers[0]):
            first_by_id[cond_id] = 0
            _release(condition_users[cond_id], counts, ready)
            if lp:
                close(cond_id)

    graph = RPGraph(mode, state, fact_layers, numeric_layers, action_layers,
                    first_fact_layer, first_action_layer, first_by_id,
                    RELAXED_UNSOLVABLE, 0, flow, analysed)

    goal_ids = analysed.goal_condition_ids

    def goal_reached(layer: int) -> bool:
        if not task.goal_facts <= fact_layers[layer]:
            return False
        for cond_id in goal_ids:
            if first_by_id[cond_id] is None:
                return False
        if lp and config.uses_goal_check():
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

    unbounded = mode == METRICFF_UNBOUNDED
    effects = _LayerEffects(analysed)
    changed: list[int] = []  # variables whose interval changed at `layer`
    layer = 0
    while layer < config.max_layers:
        intervals = numeric_layers[layer]
        new_actions = sorted(ready)
        ready = []
        next_actions = set(action_layers[layer])
        next_actions.update(new_actions)
        next_facts = set(fact_layers[layer])
        for action_id in new_actions:
            next_facts.update(task.actions[action_id].add_effects)

        if lp:
            if new_actions:
                flow.extend(new_actions)
            next_intervals, next_changed = _lp_layer_bounds(
                graph, analysed, effects, new_actions, changed, open_up, open_down)
        else:
            next_intervals, next_changed = effects.step(
                effects.join(new_actions, changed), intervals, unbounded)
        retest = _open_conditions(analysed, first_by_id, next_changed)

        if not new_actions and _stagnated(analysed, retest, next_changed,
                                          intervals, next_intervals):
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
        for action_id in new_actions:
            first_action_layer[action_id] = layer
        for fact in sorted(next_facts - fact_layers[layer - 1]):
            first_fact_layer[fact] = layer
            _release(fact_users.get(fact, ()), counts, ready)
        for cond_id in retest:
            if condition_satisfiable(conditions[cond_id], next_intervals):
                first_by_id[cond_id] = layer
                _release(condition_users[cond_id], counts, ready)
                if lp:
                    close(cond_id)
        changed = next_changed

        if goal_reached(layer):
            graph.final_layer = layer
            graph.status = GOALS_REACHED
            return graph

    log.warning("RPG layer cap (%d) reached; treating state as relaxed-unsolvable",
                config.max_layers)
    graph.final_layer = layer
    graph.status = RELAXED_UNSOLVABLE
    return graph


def _open_conditions(analysed: AnalysedTask, first_by_id: list[int | None],
                     changed) -> list[int]:
    """Ids of the not yet satisfiable conditions over a changed variable,
    ascending."""
    variable_conditions = analysed.variable_conditions
    return sorted({cond_id for var in changed
                   for cond_id in variable_conditions.get(var, ())
                   if first_by_id[cond_id] is None})


def _lp_layer_bounds(graph: RPGraph, analysed: AnalysedTask, effects: _LayerEffects,
                     new_actions, changed, open_up: list[int],
                     open_down: list[int]) -> tuple[list[Interval], list[int]]:
    """Next numeric layer in LP mode, applying the four skip rules; returns
    it with the variables whose interval changed. A side is queried only
    while the variable has an open condition (`open_up`, `open_down`) that
    widening it could help satisfy.

    Each query widens from the previous layer's bound. A side that is
    already infinite stays infinite without a query: a bound query that hit
    the LP limit reports infinity, and re-asking the next layer with nothing
    to widen from could return a finite bound, which would shrink the
    interval and break the monotone widening `expand` relies on.
    """
    flow = graph.flow
    previous = graph.numeric_layers[-1]
    if not new_actions:
        return list(previous), []
    # interval arithmetic still covers variables excluded from the LP; an
    # untracked variable's interval moves only with the actions affecting it
    tracked = analysed.tracked
    dirty = effects.join([a for a in new_actions if a in analysed.untracked_affectors],
                         changed)
    intervals, moved = effects.step([v for v in dirty if v not in tracked], previous, False)
    for var in analysed.tracked_order:
        lo, hi = previous[var]
        if hi is not None and open_up[var]:
            hi = flow.query_bound(var, "max", hi)
        if lo is not None and open_down[var]:
            lo = flow.query_bound(var, "min", lo)
        if lo != previous[var][0] or hi != previous[var][1]:
            intervals[var] = (lo, hi)
            moved.append(var)
    return intervals, moved


def _stagnated(analysed: AnalysedTask, open_ids, changed, intervals: list[Interval],
               next_intervals: list[Interval]) -> bool:
    """No open condition's satisfiability extremum would move, and no
    changed variable is read by an effect's magnitude; `open_ids` holds the
    open conditions over changed variables, since no other condition's
    extremum can. A variable that a magnitude reads can widen an effect's
    reach on the next step though every extremum held on this one."""
    readers = analysed.magnitude_readers
    if any(var in readers for var in changed):
        return False
    conditions = analysed.conditions
    for cond_id in open_ids:
        cond = conditions[cond_id]
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
                 analysed: AnalysedTask) -> int:
    """Extra actions needed to cover the relaxed plan's net consumption.

    For each variable the relaxed plan overdraws, adds ceil(shortfall /
    best single-action constant production). A shortfall that no action
    covers by a constant amount adds nothing: the relaxed plan may
    overdraw a variable a real plan need not, so it proves no dead end.
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
        if best is not None:
            penalty += math.ceil(divide(shortfall, best))
    return penalty
