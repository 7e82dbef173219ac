"""Relaxed-plan extraction from an expanded planning graph.

Two extractors share the deepest-first subgoal queue idea: the classic
regression that walks numeric subgoals back through in-layer effects, and
the LP-guided variant that satisfies numeric subgoal sets by temporarily
constraining the layer's flow model and reading off the action counts,
weighting each enqueued precondition by how much of the supporting action
was used.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction

from . import mpsolver as mp
from .analysis import AnalysedTask
from .lpmodel import (
    HeuristicConfig, LandmarkView, WEIGHT_HADD, WEIGHT_HMAX, layer_weights,
)
from .model import (
    GE, GT, LE, LT, EQ,
    GroundAction, GroundTask, LinearExpr, NumericCondition, State, applicable,
)
from .rpg import (
    GOALS_REACHED, RPGraph,
    condition_satisfiable, expr_range, propagate_costs,
)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class HeuristicResult:
    h: Fraction | None  # None encodes an unreachable goal (dead end)
    helpful: frozenset[int]
    trace: tuple[tuple[int, Fraction, int, Fraction], ...]  # action, count, layer, weight

    @property
    def dead_end(self) -> bool:
        return self.h is None


DEAD_END = HeuristicResult(None, frozenset(), ())


def _optimistic_value(cond: NumericCondition, state: State, counts: dict[int, Fraction],
                      cls) -> Fraction:
    """Best value the condition's expression can reach under some ordering of
    the actions already in the relaxed plan (producers first for >=,
    consumers first for <=)."""
    total = Fraction(0)
    want_high = cond.op in (GE, GT)
    for var, weight in cond.expr.terms:
        raise_var = (weight > 0) == want_high
        value = state.values[var]
        for action_id, count in counts.items():
            delta = cls.delta_of(action_id, var)
            if (raise_var and delta > 0) or (not raise_var and delta < 0):
                value += delta * count
        total += weight * value
    return total


def helpful_closure(task: GroundTask, state: State, chosen: set[int],
                    signatures: tuple[frozenset, ...]) -> frozenset[int]:
    """Applicable actions sharing a beneficial effect with a layer-1 choice.

    `signatures` holds `analysis.positive_signature` per action id."""
    wanted = frozenset().union(*(signatures[a] for a in chosen))
    return frozenset(action.id for action in task.actions
                     if not signatures[action.id].isdisjoint(wanted)
                     and applicable(state, action))


def _achiever(task: GroundTask, graph: RPGraph, fact: int) -> int:
    """Earliest-appearing adder, ties broken by lowest action id."""
    first = graph.first_action_layer
    in_graph = [a for a in graph.adders.get(fact, ()) if a in first]
    assert in_graph, f"no achiever for fact {task.fact_names[fact]}"
    return min(in_graph, key=lambda a: (first[a], a))


def _normalise_single(cond: NumericCondition) -> NumericCondition:
    """Rewrite w*v op c to v op' c/w so queue entries merge cleanly."""
    var = cond.single_variable()
    if var is None:
        return cond
    weight = cond.expr.terms[0][1]
    if weight == 1:
        return cond
    op = cond.op
    if weight < 0:
        op = {GE: LE, GT: LT, LE: GE, LT: GT, EQ: EQ}[op]
    return NumericCondition(LinearExpr.build({var: Fraction(1)}), op, cond.rhs / weight)


def _split_equalities(conds) -> list[NumericCondition]:
    out = []
    for cond in conds:
        if cond.op == EQ:
            out.append(NumericCondition(cond.expr, GE, cond.rhs))
            out.append(NumericCondition(cond.expr, LE, cond.rhs))
        else:
            out.append(cond)
    return out


# ---------------------------------------------------------------------------
# Classic regression extraction


def extract_metricff(graph: RPGraph, task: GroundTask) -> HeuristicResult:
    """Regression extraction over interval layers (also the LP-mode fallback)."""
    assert graph.status == GOALS_REACHED
    h = Fraction(0)
    ha: set[int] = set()
    trace: list[tuple[int, Fraction, int, Fraction]] = []
    buckets: dict[int, dict] = {}

    def bucket(layer: int) -> dict:
        return buckets.setdefault(layer, {"prop": set(), "num": []})

    def queue_condition(cond: NumericCondition, layer: int) -> None:
        cond = _normalise_single(cond)
        entry = bucket(layer)
        if cond not in entry["num"]:
            entry["num"].append(cond)

    def queue_action_preconditions(action: GroundAction) -> None:
        for fact in sorted(action.preconditions):
            layer = graph.first_fact_layer.get(fact, 0)
            if layer > 0:
                bucket(layer)["prop"].add(fact)
        for cond in _split_equalities(action.numeric_preconditions):
            layer = graph.first_hold_layer(cond)
            if layer is not None and layer > 0:
                queue_condition(cond, layer)

    def choose(action_id: int, layer: int) -> None:
        nonlocal h
        h += 1
        trace.append((action_id, Fraction(1), layer, Fraction(1)))
        if layer == 1:
            ha.add(action_id)
        queue_action_preconditions(task.actions[action_id])

    for fact in sorted(task.goal_facts):
        layer = graph.first_fact_layer.get(fact, 0)
        if layer > 0:
            bucket(layer)["prop"].add(fact)
    for cond in _split_equalities(task.goal_conditions):
        layer = graph.first_hold_layer(cond)
        if layer is not None and layer > 0:
            queue_condition(cond, layer)

    max_steps = 100_000
    steps = 0
    while buckets:
        layer = max(buckets)
        entry = buckets.pop(layer)
        prop = entry["prop"]
        while prop:
            fact = min(prop)
            prop.discard(fact)
            action_id = _achiever(task, graph, fact)
            choose(action_id, layer)
            prop -= task.actions[action_id].add_effects

        num = entry["num"]
        remaining: list[NumericCondition] = []
        # assignment achievers first: one assign can discharge several bounds
        for cond in num:
            var = cond.single_variable()
            satisfied = False
            if var is not None and cond.expr.terms[0][1] == 1:
                assigner = _find_assigner(task, graph, layer, var, cond)
                if assigner is not None:
                    choose(assigner[0], layer)
                    k = assigner[1]
                    num_after = []
                    for other in num:
                        if other is cond or _discharged_by_assign(other, var, k, cond.op):
                            continue
                        num_after.append(other)
                    num = num_after
                    remaining = [c for c in remaining
                                 if not _discharged_by_assign(c, var, k, cond.op)]
                    satisfied = True
            if not satisfied and cond in num:
                remaining.append(cond)

        for cond in remaining:
            residual = _regress(graph, task, cond, layer, choose)
            if layer - 1 >= 1 and residual is not None:
                queue_condition(residual, layer - 1)
        steps += 1
        if steps > max_steps:
            raise RuntimeError("extraction did not converge")

    helpful = helpful_closure(task, graph.state, ha, graph.signatures)
    return HeuristicResult(h, helpful, tuple(trace))


def _find_assigner(task: GroundTask, graph: RPGraph, layer: int, var: int,
                   cond: NumericCondition) -> tuple[int, Fraction] | None:
    """An in-layer action assigning var a constant that satisfies the bound."""
    for action_id in sorted(graph.actions_at(layer)):
        for effect in task.actions[action_id].numeric_effects:
            if effect.variable != var or effect.op != "assign":
                continue
            if not effect.magnitude.is_constant():
                continue
            k = effect.magnitude.constant
            if (cond.op == GE and k >= cond.rhs) or (cond.op == GT and k > cond.rhs):
                return action_id, k
            if (cond.op == LE and k <= cond.rhs) or (cond.op == LT and k < cond.rhs):
                return action_id, k
    return None


def _discharged_by_assign(cond: NumericCondition, var: int, k: Fraction, op: str) -> bool:
    if cond.single_variable() != var or cond.expr.terms[0][1] != 1:
        return False
    if op in (GE, GT):
        # assigned k >= needed: discharges v >= c' for c' <= k and v <= c' for c' >= k
        if cond.op in (GE, GT):
            return cond.rhs <= k
        return cond.rhs >= k
    if cond.op in (LE, LT):
        return cond.rhs >= k
    return False


def _regress(graph: RPGraph, task: GroundTask, cond: NumericCondition, layer: int,
             choose) -> NumericCondition | None:
    """Walk a residual bound back through in-layer effects (largest first)."""
    intervals = graph.numeric_layers[layer - 1]
    rhs = cond.rhs
    raising = cond.op in (GE, GT)

    # the interval layer is fixed, so the expression's range is too
    lo, hi = expr_range(cond.expr.terms, intervals)

    def reachable(bound: Fraction) -> bool:
        if raising:
            if hi is None:
                return True
            return hi > bound if cond.op == GT else hi >= bound
        if lo is None:
            return True
        return lo < bound if cond.op == LT else lo <= bound

    movers = []
    for action_id in sorted(graph.actions_at(layer)):
        delta = _expr_delta(task.actions[action_id], cond.expr, intervals)
        if delta is None:
            continue
        if raising and delta > 0:
            movers.append((delta, action_id))
        elif not raising and delta < 0:
            movers.append((-delta, action_id))
    movers.sort(key=lambda pair: (-pair[0], pair[1]))

    index = 0
    guard = 0
    while not reachable(rhs):
        if not movers:
            return NumericCondition(cond.expr, cond.op, rhs)
        delta, action_id = movers[index % len(movers)]
        index += 1
        choose(action_id, layer)
        rhs = rhs - delta if raising else rhs + delta
        guard += 1
        if guard > 100_000:
            raise RuntimeError("numeric regression did not converge")
    return NumericCondition(cond.expr, cond.op, rhs)


def _expr_delta(action: GroundAction, expr: LinearExpr,
                intervals) -> Fraction | None:
    """Optimistic net change of a weighted sum from one application."""
    weights = dict(expr.terms)
    total = Fraction(0)
    touched = False
    for effect in action.numeric_effects:
        weight = weights.get(effect.variable)
        if weight is None:
            continue
        if effect.op == "assign":
            return None  # assignments are handled by the dedicated pass
        mag_lo, mag_hi = expr_range(effect.magnitude.terms, intervals)
        if mag_lo is not None:
            mag_lo += effect.magnitude.constant
        if mag_hi is not None:
            mag_hi += effect.magnitude.constant
        signed = weight if effect.op == "increase" else -weight
        best = mag_hi if signed > 0 else mag_lo
        if best is None:
            return None if not touched else total
        total += signed * best
        touched = True
    return total if touched else Fraction(0)


# ---------------------------------------------------------------------------
# LP-guided extraction


def extract_lprpg(graph: RPGraph, analysed: AnalysedTask, landmarks: LandmarkView,
                  config: HeuristicConfig) -> HeuristicResult:
    """Weighted extraction with LP-chosen achievers for numeric subgoal sets."""
    assert graph.status == GOALS_REACHED
    task = analysed.task
    flow = graph.flow
    assert flow is not None, "LP extraction needs the graph's flow model"
    state = graph.state
    final = graph.final_layer

    action_costs = None
    if config.weight_scheme in (WEIGHT_HADD, WEIGHT_HMAX):
        action_costs = propagate_costs(
            graph, task, "max" if config.weight_scheme == WEIGHT_HMAX else "sum")
    weights = layer_weights(config, graph.first_action_layer, action_costs)

    first_layer_ids = frozenset(graph.actions_at(1))
    goal_achievers: set[int] = set()
    lm_facts = set(landmarks.conjunctive)
    for group in landmarks.disjunctive:
        lm_facts.update(group)
    for action in task.actions:
        if action.id not in graph.first_action_layer:
            continue
        targets = (task.goal_facts | lm_facts) - state.facts
        if action.add_effects & targets:
            goal_achievers.add(action.id)
    numeric_goal_vars = {v for cond in task.goal_conditions for v, _ in cond.expr.terms}
    numeric_affectors = frozenset(
        a.id for a in task.actions
        if a.id in graph.first_action_layer and
        any(analysed.classification.delta_of(a.id, v) != 0 for v in numeric_goal_vars))

    lp_calls = 0

    def solve_layer(layer: int, extra_conditions) -> dict[int, Fraction] | None:
        """Counts from the layer-restricted model, or None if infeasible."""
        nonlocal lp_calls
        lp_calls += 1
        model = flow.model
        model.push_scratch()
        try:
            flow.restrict_to(frozenset(graph.actions_at(layer)))
            if extra_conditions == "goal-check":
                flow.add_goal_constraints(config, landmarks,
                                          frozenset(graph.actions_at(layer)))
            else:
                for cond in extra_conditions:
                    coeffs, op, rhs = flow.condition_row(cond)
                    model.add_constraint(coeffs, op, rhs, name="subgoal")
            flow.apply_integrality(config, first_layer_ids,
                                   frozenset(goal_achievers), numeric_affectors)
            flow.set_action_objective(weights)
            solution = model.solve()
        finally:
            model.pop_scratch()
        if solution.status == mp.LIMIT:
            log.warning("MIP limit during extraction; treating subgoal as satisfied")
            return {}
        if solution.status != mp.OPTIMAL:
            return None
        counts: dict[int, Fraction] = {}
        for action_id, col in flow.action_col.items():
            value = solution.values[col]
            if value > 0:
                counts[action_id] = value
        return counts

    h = Fraction(0)
    ha: set[int] = set()
    trace: list[tuple[int, Fraction, int, Fraction]] = []
    plan_counts: dict[int, Fraction] = {}
    buckets: dict[int, dict] = {}

    def bucket(layer: int) -> dict:
        return buckets.setdefault(layer, {"prop": {}, "num": {}})

    def covered(cond: NumericCondition) -> bool:
        """Already satisfiable in the state, or reachable under some ordering
        of the actions the relaxed plan has committed to (their optimistic
        produce-first / consume-first bound)."""
        if condition_satisfiable(cond, graph.numeric_layers[0]):
            return True
        value = _optimistic_value(cond, state, plan_counts, analysed.classification)
        if cond.op == GE:
            return value >= cond.rhs
        if cond.op == GT:
            return value > cond.rhs
        if cond.op == LE:
            return value <= cond.rhs
        if cond.op == LT:
            return value < cond.rhs
        return False

    def push_prop(fact: int, layer: int, weight: Fraction) -> None:
        if layer <= 0:
            return
        entry = bucket(layer)["prop"]
        entry[fact] = max(entry.get(fact, Fraction(0)), weight)

    def push_num(conds: tuple[NumericCondition, ...], layer: int, weight: Fraction) -> None:
        if layer <= 0 or not conds:
            return
        entry = bucket(layer)["num"]
        entry[conds] = max(entry.get(conds, Fraction(0)), weight)

    def enqueue_preconditions(action: GroundAction, weight: Fraction,
                              include_numeric: bool) -> None:
        for fact in sorted(action.preconditions):
            layer = graph.first_fact_layer.get(fact, 0)
            push_prop(fact, layer, weight)
        if include_numeric:
            for cond in _split_equalities(action.numeric_preconditions):
                layer = graph.first_hold_layer(cond)
                if layer is not None:
                    push_num((_normalise_single(cond),), layer, weight)

    def absorb_counts(counts: dict[int, Fraction], weight: Fraction, layer: int) -> None:
        nonlocal h
        for action_id in sorted(counts):
            count = counts[action_id]
            h += weight * count
            trace.append((action_id, count, layer, weight))
            plan_counts[action_id] = plan_counts.get(action_id, Fraction(0)) + count
            if action_id in first_layer_ids:
                ha.add(action_id)
            enqueue_preconditions(task.actions[action_id],
                                  weight * min(count, Fraction(1)),
                                  include_numeric=False)

    # Goals covered by the goal-checking model are satisfied by its solution;
    # goals outside it go through the queue.
    if config.uses_goal_check():
        counts = solve_layer(final, "goal-check")
        if counts is None:
            return DEAD_END
        absorb_counts(counts, Fraction(1), final)
    if not config.include_prop_goals:
        for fact in sorted(task.goal_facts):
            layer = graph.first_fact_layer.get(fact, 0)
            push_prop(fact, layer, Fraction(1))
    if not config.include_numeric_goal_conjunct:
        goals = tuple(_normalise_single(c) for c in _split_equalities(task.goal_conditions)
                      if not condition_satisfiable(c, graph.numeric_layers[0]))
        if len(goals) > 1:
            push_num(goals, final, Fraction(1))
        elif goals:
            layer = graph.first_hold_layer(goals[0])
            if layer is not None:
                push_num(goals, layer, Fraction(1))

    while buckets:
        if lp_calls > config.lp_call_budget:
            log.warning("per-state LP budget exceeded during extraction; "
                        "falling back to regression extraction")
            return extract_metricff(graph, task)
        layer = max(buckets)
        entry = buckets.pop(layer)
        prop = entry["prop"]
        while prop:
            fact = min(prop)
            weight = prop.pop(fact)
            h += weight
            action_id = _achiever(task, graph, fact)
            trace.append((action_id, Fraction(1), layer, weight))
            plan_counts[action_id] = plan_counts.get(action_id, Fraction(0)) + 1
            if action_id in first_layer_ids:
                ha.add(action_id)
            enqueue_preconditions(task.actions[action_id], weight, include_numeric=True)
            for other in task.actions[action_id].add_effects:
                prop.pop(other, None)
        for conds in sorted(entry["num"], key=str):
            weight = entry["num"][conds]
            live = [c for c in conds if not covered(c)]
            if not live:
                continue
            counts = solve_layer(layer, live)
            if counts is None:
                if layer + 1 <= final:
                    push_num(conds, layer + 1, weight)
                    continue
                return DEAD_END
            absorb_counts(counts, weight, layer)

    helpful = helpful_closure(task, state, ha, graph.signatures)
    return HeuristicResult(h, helpful, tuple(trace))
