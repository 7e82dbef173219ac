"""Relaxed-plan extraction from an expanded planning graph.

Both extractors run FF's deepest-first subgoal queue (Hoffmann, *The
Metric-FF Planning System*, JAIR 2003), kept once in `_Extraction`: per
graph layer it holds the open facts and numeric subgoal sets with their
weights, takes the deepest layer first, achieves each fact with its
earliest adder and enqueues that action's preconditions. The extractors
differ only in the numeric step that satisfies a layer's numeric subgoals:
regression walks each bound back through in-layer effects and re-queues the
residual one layer down; the LP-guided step constrains the layer's flow
model, absorbs the action counts it returns (weighting each enqueued
precondition by how much of the supporting action was used) and moves an
infeasible set one layer up.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from . import mpsolver as mp
from .analysis import AnalysedTask
from .lpmodel import (
    HeuristicConfig, LandmarkView, WEIGHT_HADD, WEIGHT_HMAX, layer_weights,
)
from .model import (
    GE, GT, LE, LT,
    GroundAction, GroundTask, Number, NumericCondition, State, applicable,
    compare,
)
from .rpg import (
    GOALS_REACHED, RPGraph,
    condition_satisfiable, expr_range, propagate_costs, range_satisfies,
)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class HeuristicResult:
    h: Number | None  # None encodes an unreachable goal (dead end)
    helpful: frozenset[int]
    trace: tuple[tuple[int, Number, int, Number], ...]  # action, count, layer, weight

    @property
    def dead_end(self) -> bool:
        return self.h is None


DEAD_END = HeuristicResult(None, frozenset(), ())


def _optimistic_value(cond: NumericCondition, state: State, counts: dict[int, Number],
                      cls) -> Number:
    """Best value the condition's expression can reach under some ordering of
    the actions already in the relaxed plan (producers first for >=,
    consumers first for <=)."""
    total = 0
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
    in_graph = [a for a in graph.analysed.adders.get(fact, ()) if a in first]
    assert in_graph, f"no achiever for fact {task.fact_names[fact]}"
    return min(in_graph, key=lambda a: (first[a], a))


# numeric subgoal tuple -> the largest weight it was enqueued with
Subgoals = dict[tuple[NumericCondition, ...], Number]


class _Extraction:
    """FF's deepest-first subgoal queue over one goal-reaching graph.

    `buckets` maps a layer to the weight of each open fact and of each open
    numeric subgoal tuple there; `run` empties it deepest layer first. An
    extraction seeds the goals, then `run` achieves facts itself and hands
    each layer's numeric subgoals to the extractor's numeric step. Unit
    counts and weights are the int 1, which keeps regression extraction,
    where every count and weight is 1, off Fraction arithmetic.
    """

    def __init__(self, graph: RPGraph, task: GroundTask):
        self.graph = graph
        self.task = task
        self.h = 0
        self.trace: list[tuple[int, Number, int, Number]] = []
        self.plan_counts: dict[int, Number] = {}
        self.helpful_choices: set[int] = set()
        self.buckets: dict[int, tuple[dict[int, Number], Subgoals]] = {}

    def push_fact(self, fact: int, weight: Number) -> None:
        layer = self.graph.first_fact_layer.get(fact, 0)
        if layer > 0:
            facts = self.buckets.setdefault(layer, ({}, {}))[0]
            facts[fact] = max(facts.get(fact, weight), weight)

    def push_conditions(self, conds: tuple[NumericCondition, ...], layer: int | None,
                        weight: Number) -> None:
        if layer is None or layer <= 0 or not conds:
            return
        subgoals = self.buckets.setdefault(layer, ({}, {}))[1]
        subgoals[conds] = max(subgoals.get(conds, weight), weight)

    def choose(self, action_id: int, layer: int, count: Number, weight: Number,
               helpful: bool, numeric: bool) -> None:
        """Add `count` applications chosen at `layer` to the relaxed plan and
        enqueue the action's preconditions at weight * min(count, 1), its
        numeric ones only when `numeric` is set."""
        self.h += weight * count
        self.trace.append((action_id, count, layer, weight))
        self.plan_counts[action_id] = self.plan_counts.get(action_id, 0) + count
        if helpful:
            self.helpful_choices.add(action_id)
        action = self.task.actions[action_id]
        weight = weight * min(count, 1)
        for fact in action.preconditions:
            self.push_fact(fact, weight)
        if numeric:
            first_by_id = self.graph.condition_first_by_id
            for cond_id, normalised in self.graph.analysed.action_subgoals[action_id]:
                hold = first_by_id[cond_id]
                if hold:
                    self.push_conditions((normalised,), hold, weight)

    def run(self, numeric_step, out_of_budget=None) -> HeuristicResult | None:
        """Empty the queue; None when `out_of_budget()` holds at the top of a
        bucket, DEAD_END when `numeric_step(layer, subgoals)` returns False."""
        graph, task, buckets = self.graph, self.task, self.buckets
        while buckets:
            if out_of_budget is not None and out_of_budget():
                return None
            layer = max(buckets)
            facts, subgoals = buckets.pop(layer)
            while facts:
                fact = min(facts)
                weight = facts.pop(fact)
                action_id = _achiever(task, graph, fact)
                # the achiever's first action layer is `layer`, so layer 1
                # means it is applicable in the evaluated state
                self.choose(action_id, layer, 1, weight, helpful=layer == 1, numeric=True)
                for other in task.actions[action_id].add_effects:
                    facts.pop(other, None)
            if subgoals and not numeric_step(layer, subgoals):
                return DEAD_END
        helpful = helpful_closure(task, graph.state, self.helpful_choices,
                                  graph.analysed.signatures)
        return HeuristicResult(self.h, helpful, tuple(self.trace))


# ---------------------------------------------------------------------------
# Classic regression extraction


def extract_metricff(graph: RPGraph, task: GroundTask) -> HeuristicResult:
    """Regression extraction over interval layers (also the LP-mode fallback)."""
    assert graph.status == GOALS_REACHED
    queue = _Extraction(graph, task)

    def choose(action_id: int, layer: int, count: int = 1) -> None:
        queue.choose(action_id, layer, count, 1, helpful=layer == 1, numeric=True)

    def regress(layer: int, subgoals: Subgoals) -> bool:
        num = [cond for (cond,) in subgoals]
        remaining: list[NumericCondition] = []
        # assignment achievers first: one assign can discharge several bounds
        for cond in list(num):
            if cond not in num:
                continue  # discharged by an earlier assigner
            var = cond.single_variable()
            if var is not None and cond.expr.terms[0][1] == 1:
                assigner = _find_assigner(task, graph, layer, var, cond)
                if assigner is not None:
                    choose(assigner[0], layer)
                    k = assigner[1]
                    num = [other for other in num if other is not cond
                           and not _discharged_by_assign(other, var, k, cond.op)]
                    remaining = [c for c in remaining
                                 if not _discharged_by_assign(c, var, k, cond.op)]
                    continue
            remaining.append(cond)
        for cond in remaining:
            residual = _regress(graph, task, cond, layer, choose)
            queue.push_conditions((residual,), layer - 1, 1)
        return True

    for fact in task.goal_facts:
        queue.push_fact(fact, 1)
    first_by_id = graph.condition_first_by_id
    for cond_id, normalised in graph.analysed.goal_subgoals:
        queue.push_conditions((normalised,), first_by_id[cond_id], 1)
    return queue.run(regress)


def _find_assigner(task: GroundTask, graph: RPGraph, layer: int, var: int,
                   cond: NumericCondition) -> tuple[int, Number] | None:
    """An in-layer action assigning var a constant that satisfies the bound."""
    layer_actions = graph.actions_at(layer)
    for action_id in graph.analysed.affectors.get(var, ()):
        if action_id not in layer_actions:
            continue
        for effect in task.actions[action_id].numeric_effects:
            if effect.variable != var or effect.op != "assign":
                continue
            if not effect.magnitude.is_constant():
                continue
            k = effect.magnitude.constant
            if compare(cond.op, k, cond.rhs):
                return action_id, k
    return None


def _discharged_by_assign(cond: NumericCondition, var: int, k: Number, op: str) -> bool:
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


# Applications `_regress` chooses one at a time before it takes whole rounds of
# its movers at once: an unbounded layer can require a residual to move by
# millions of applications of a small effect. No benchmark instance needs
# more than one application per regression; the counts, and so h, are the
# same either way, only the trace holds fewer entries.
_STEPWISE_APPLICATIONS = 1_000


def _regress(graph: RPGraph, task: GroundTask, cond: NumericCondition, layer: int,
             choose) -> NumericCondition:
    """Walk a residual bound back through in-layer effects (largest first),
    round-robin over the movers."""
    intervals = graph.numeric_layers[layer - 1]
    rhs = cond.rhs
    raising = cond.op in (GE, GT)

    # the interval layer is fixed, so the expression's range is too
    lo, hi = expr_range(cond.expr, intervals)

    # only an action with an effect on one of the expression's variables
    # can move it; every other in-layer action has delta 0
    weights = dict(cond.expr.terms)
    layer_actions = graph.actions_at(layer)
    movers = []
    affectors = graph.analysed.affectors
    for action_id in {a for var in weights for a in affectors.get(var, ())
                      if a in layer_actions}:
        delta = _expr_delta(task.actions[action_id], weights, intervals, raising)
        if delta is None:
            continue
        if raising and delta > 0:
            movers.append((delta, action_id))
        elif not raising and delta < 0:
            movers.append((-delta, action_id))
    movers.sort(key=lambda pair: (-pair[0], pair[1]))

    index = 0
    while not range_satisfies(lo, hi, cond.op, rhs):
        if not movers:
            return NumericCondition(cond.expr, cond.op, rhs)
        if index == _STEPWISE_APPLICATIONS:
            # still far from the layer's range: whole rounds of every mover
            # in bulk, leaving at least one round to go one by one
            per_round = sum(delta for delta, _ in movers)
            gap = rhs - hi if raising else lo - rhs
            rounds = max(0, gap // per_round - 1)
            if rounds:
                for _, action_id in movers:
                    choose(action_id, layer, rounds)
                rhs = rhs - rounds * per_round if raising else rhs + rounds * per_round
        delta, action_id = movers[index % len(movers)]
        index += 1
        choose(action_id, layer)
        rhs = rhs - delta if raising else rhs + delta
    return NumericCondition(cond.expr, cond.op, rhs)


def _expr_delta(action: GroundAction, weights: dict[int, Number],
                intervals, raising: bool) -> Number | None:
    """Optimistic net change of a weighted sum (variable -> weight) from one
    application: the largest when `raising`, else the smallest."""
    total = 0
    touched = False
    for effect in action.numeric_effects:
        weight = weights.get(effect.variable)
        if weight is None:
            continue
        if effect.op == "assign":
            return None  # assignments are handled by the dedicated pass
        mag_lo, mag_hi = expr_range(effect.magnitude, intervals)
        signed = weight if effect.op == "increase" else -weight
        best = mag_hi if (signed > 0) == raising else mag_lo
        if best is None:
            return None if not touched else total
        total += signed * best
        touched = True
    return total if touched else 0


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
    lm_facts = set(landmarks.conjunctive)
    for group in landmarks.disjunctive:
        lm_facts.update(group)
    targets = (task.goal_facts | lm_facts) - state.facts
    in_graph = graph.first_action_layer
    goal_achievers = frozenset(a for fact in targets for a in analysed.adders.get(fact, ())
                               if a in in_graph)
    numeric_affectors = frozenset(a for a in analysed.numeric_goal_affectors if a in in_graph)

    queue = _Extraction(graph, task)
    lp_calls = 0

    def solve_layer(layer: int, extra_conditions) -> dict[int, Number] | None:
        """Counts from the layer-restricted model, or None if infeasible."""
        nonlocal lp_calls
        lp_calls += 1
        model = flow.model
        model.push_scratch()
        try:
            flow.restrict_to(frozenset(graph.actions_at(layer)))
            if extra_conditions == "goal-check":
                # the final layer's goal check leaves its rows open, and its
                # feasible basis live, unless `lp_bounds` has closed them
                if not flow.goal_rows_open:
                    flow.add_goal_constraints(config, landmarks,
                                              frozenset(graph.actions_at(layer)))
            else:
                for cond in extra_conditions:
                    coeffs, op, rhs = flow.condition_row(cond)
                    model.add_constraint(coeffs, op, rhs, name="subgoal")
            flow.apply_integrality(config, first_layer_ids,
                                   goal_achievers, numeric_affectors)
            flow.set_action_objective(weights)
            solution = model.solve()
        finally:
            model.pop_scratch()
        if solution.status == mp.LIMIT:
            log.warning("MIP limit during extraction; treating subgoal as satisfied")
            return {}
        if solution.status != mp.OPTIMAL:
            return None
        counts: dict[int, Number] = {}
        for action_id, col in flow.action_col.items():
            value = solution.values[col]
            if value > 0:
                counts[action_id] = value
        return counts

    def absorb(counts: dict[int, Number], layer: int, weight: Number) -> None:
        for action_id in sorted(counts):
            queue.choose(action_id, layer, counts[action_id], weight,
                         helpful=action_id in first_layer_ids, numeric=False)

    def covered(cond: NumericCondition) -> bool:
        """Already satisfiable in the state, or reachable under some ordering
        of the actions the relaxed plan has committed to (their optimistic
        produce-first / consume-first bound)."""
        if condition_satisfiable(cond, graph.numeric_layers[0]):
            return True
        value = _optimistic_value(cond, state, queue.plan_counts, analysed.classification)
        return compare(cond.op, value, cond.rhs)

    def satisfy(layer: int, subgoals: Subgoals) -> bool:
        for conds in sorted(subgoals, key=str):
            weight = subgoals[conds]
            live = [c for c in conds if not covered(c)]
            if not live:
                continue
            counts = solve_layer(layer, live)
            if counts is not None:
                absorb(counts, layer, weight)
            elif layer + 1 <= final:
                queue.push_conditions(conds, layer + 1, weight)
            else:
                return False
        return True

    # Goals covered by the goal-checking model are satisfied by its solution;
    # goals outside it go through the queue.
    if config.uses_goal_check():
        counts = solve_layer(final, "goal-check")
        # no later solve reads the goal rows
        flow.close_goal_rows()
        if counts is None:
            return DEAD_END
        absorb(counts, final, 1)
    if not config.include_prop_goals:
        for fact in task.goal_facts:
            queue.push_fact(fact, 1)
    if not config.include_numeric_goal_conjunct:
        # the goal subgoals not already satisfiable in the state
        first_by_id = graph.condition_first_by_id
        open_goals = [(cond_id, normalised) for cond_id, normalised in analysed.goal_subgoals
                      if first_by_id[cond_id] != 0]
        layer = first_by_id[open_goals[0][0]] if len(open_goals) == 1 else final
        queue.push_conditions(tuple(normalised for _, normalised in open_goals), layer, 1)

    result = queue.run(satisfy, lambda: lp_calls > config.lp_call_budget)
    if result is None:
        log.warning("per-state LP budget exceeded during extraction; "
                    "falling back to regression extraction")
        return extract_metricff(graph, task)
    return result
