"""Flow-model construction: flow rows, one-shot rows, catalytic switches,
goal constraints, objective weighting, integrality, and bound queries."""

import itertools
import logging
from fractions import Fraction

import pytest

from flowplan import fixtures, generators, model, rpg, mpsolver as mp
from flowplan.analysis import analyse
from flowplan.lpmodel import (
    FlowModel, HeuristicConfig, LandmarkView,
    INTS_ALL, INTS_MINIMAL, WEIGHT_HADD, layer_weights,
)
from flowplan.model import GE, LE

from bruteforce import all_plans
from coldsolve import cold_vertex, status_and_objective
from microtasks import random_pc_task
from oracles import CellFlowModel, StateFlowModel, replay_flow_layers, state_flow
from flowcheck import begun_flow, forced_columns
from taskbuild import TaskBuilder


def exchange_task():
    builder = TaskBuilder()
    v0 = builder.var("(v0)", 0)
    v1 = builder.var("(v1)", 2)
    builder.action("c", num_pre=[builder.condition({v1: 1}, GE, 2)],
                   effects=[(v0, "increase", 2), (v1, "decrease", 2)])
    builder.goal(conditions=[builder.condition({v0: 1}, GE, 4)])
    return builder.build(), v0, v1


def build_flow_for(task, action_ids=None):
    analysed = analyse(task)
    flow = begun_flow(analysed, task.initial)
    flow.extend(action_ids if action_ids is not None
                else [a.id for a in task.actions])
    return analysed, flow


def test_flow_fragment_model_exact_bounds():
    task, v0, v1 = exchange_task()
    _, flow = build_flow_for(task)
    assert flow.query_bound(v0, "max", None) == 2
    assert flow.query_bound(v1, "min", None) == 0
    assert flow.query_bound(v0, "min", None) == 0
    assert flow.query_bound(v1, "max", None) == 2


def test_empty_layer_keeps_state_values():
    task, v0, v1 = exchange_task()
    analysed = analyse(task)
    flow = begun_flow(analysed, task.initial)
    solution = flow.model.solve()
    assert solution.status == mp.OPTIMAL
    assert solution.values[flow.post_col[v0]] == 0
    assert solution.values[flow.post_col[v1]] == 2


def test_one_shot_pair_gets_shared_row():
    builder = TaskBuilder()
    v = builder.var("(v)", 0)
    p = builder.fact("(p)", initially_true=True)
    builder.action("a", pre=[p], delete=[p], effects=[(v, "increase", 1)])
    builder.action("b", pre=[p], delete=[p], effects=[(v, "increase", 2)])
    builder.goal(conditions=[builder.condition({v: 1}, GE, 1)])
    task = builder.build()
    _, flow = build_flow_for(task)
    flow.model.set_objective({flow.post_col[v]: 1}, mp.MAXIMIZE)
    solution = flow.model.solve()
    # both actions capped to one shot jointly: best is one application of b
    assert solution.objective == 2


def test_one_shot_row_absent_when_fact_false():
    """A one-shot set whose fact is false keeps its row, which caps the sum
    of its members' counts by the sum of their count bounds: a bound every
    point meets, so the row constrains nothing."""
    builder = TaskBuilder()
    v = builder.var("(v)", 0)
    p = builder.fact("(p)", initially_true=False)
    builder.action("a", pre=[p], delete=[p], effects=[(v, "increase", 1)])
    builder.goal(conditions=[builder.condition({v: 1}, GE, 1)])
    task = builder.build()
    analysed, flow = build_flow_for(task)
    (row,) = flow.one_shot_rows
    bound = analysed.classification.count_bound[0]
    assert flow.model.constraints[row].rhs == bound > 1
    assert flow.query_bound(v, "max", None) == bound


def pump_task():
    builder = TaskBuilder()
    pumping = builder.var("(pumping p1)", 0)
    flow_var = builder.var("(water-flow)", 0)
    builder.action("activate",
                   num_pre=[builder.condition({pumping: 1}, LE, 0)],
                   effects=[(pumping, "increase", 1), (flow_var, "increase", 1)])
    builder.action("deactivate",
                   num_pre=[builder.condition({pumping: 1}, GE, 1),
                            builder.condition({flow_var: 1}, GE, 1)],
                   effects=[(pumping, "decrease", 1), (flow_var, "decrease", 1)])
    builder.goal(conditions=[builder.condition({flow_var: 1}, GE, 2)])
    return builder.build(), pumping, flow_var


def test_pump_flow_rows_enforce_alternation():
    task, pumping, flow_var = pump_task()
    _, flow = build_flow_for(task)
    # pumping' = activate - deactivate within [0, 1] limits activations
    assert flow.query_bound(flow_var, "max", None) == 1
    activate_col = flow.action_col[0]
    deactivate_col = flow.action_col[1]
    flow.model.push_scratch()
    flow.model.add_constraint({activate_col: 1}, ">=", 3)
    flow.model.set_objective({}, mp.MINIMIZE)
    solution = flow.model.solve()
    flow.model.pop_scratch()
    assert solution.status == mp.OPTIMAL
    assert solution.values[deactivate_col] >= 2


def test_catalytic_switch_forces_production():
    """A group requiring v >= 3 from v = 0 with one +1 producer: any integer
    solution using the group applies the producer at least three times."""
    builder = TaskBuilder()
    v = builder.var("(v)", 0)
    out = builder.var("(out)", 0)
    builder.action("make", effects=[(v, "increase", 1)])
    builder.action("use", num_pre=[builder.condition({v: 1}, GE, 3)],
                   effects=[(out, "increase", 1)])
    builder.goal(conditions=[builder.condition({out: 1}, GE, 1)])
    task = builder.build()
    analysed, flow = build_flow_for(task)
    assert analysed.classification.catalytic_groups
    make_col = flow.action_col[0]
    use_col = flow.action_col[1]
    switch_col = flow.switches[0][1]
    flow.model.set_variable_kind(make_col, mp.INTEGER)
    flow.model.set_variable_kind(use_col, mp.INTEGER)
    flow.model.set_variable_kind(switch_col, mp.BINARY)
    flow.model.set_variable_bounds(make_col, 0, 6)
    flow.model.set_variable_bounds(use_col, 0, 2)
    flow.model.push_scratch()
    flow.model.add_constraint({use_col: 1}, ">=", 1)
    flow.model.set_objective({make_col: 1}, mp.MINIMIZE)
    solution = flow.model.solve()
    flow.model.pop_scratch()
    assert solution.status == mp.OPTIMAL
    assert solution.objective == 3
    # cross-check by enumerating the integer lattice of the 3-variable MIP
    feasible = []
    for makes, uses in itertools.product(range(7), range(3)):
        # up = makes; use requires up >= 3 when uses > 0
        if uses >= 1 and makes < 3:
            continue
        if uses >= 1:
            feasible.append(makes)
    assert min(feasible) == 3


@pytest.mark.parametrize("all_props", [False, True])
@pytest.mark.parametrize("source", ["pump", "pump-unsolvable", "pump-catalyst-3",
                                    "pump-catalyst-3-t4"])
def test_compiled_columns_build_the_cell_by_cell_model_on_catalytic_tasks(source, all_props):
    """On the catalytic pump tasks, whose switches get a bigM row each, the
    per-task flow model, its columns compiled and pinned until they join,
    answers every bound query, goal check and extraction-like solve over
    every layer of the root's expansion as the per-state models do, the one
    built from compiled columns and the cell-by-cell one, vertices compared
    by column name."""
    if source.startswith("pump-catalyst"):
        threshold = 4 if source.endswith("-t4") else None
        texts = generators.generate("pump-catalyst", 3, 1, threshold=threshold)
    else:
        texts = fixtures.fixture(source)
    analysed = analyse(model.parse_and_ground(*texts))
    assert analysed.classification.catalytic_groups
    config = HeuristicConfig(include_all_propositions=all_props)
    state = analysed.task.initial
    graph = rpg.expand(analysed, state, config, rpg.LPRPG)
    replay = (config, graph.action_layers,
              layer_weights(config, graph.first_action_layer, None), graph.actions_at(1))
    records = replay_flow_layers(begun_flow(analysed, state), *replay)
    assert len(records) > 1
    for reference in (StateFlowModel, CellFlowModel):
        assert records == replay_flow_layers(state_flow(reference, analysed, state), *replay)


def test_no_catalytic_variables_leaves_model_unchanged():
    """Without catalytic variables the model holds the flow rows and the
    post and count columns only."""
    task, _, _ = exchange_task()
    analysed = analyse(task)
    flow = begun_flow(analysed, task.initial)
    assert (flow.up_col, flow.switches, flow.one_shot_rows) == ({}, [], [])
    assert len(flow.model.constraints) == len(analysed.tracked)
    assert len(flow.model.variables) == len(analysed.tracked) + len(task.actions)


# -- goal constraints ----------------------------------------------------------


def goal_task():
    builder = TaskBuilder()
    g = builder.fact("(g)")
    v0 = builder.var("(v0)", 0)
    v1 = builder.var("(v1)", 0)
    builder.action("a", add=[g], effects=[(v0, "increase", 1)])
    builder.action("b", add=[g], effects=[(v1, "increase", 1)])
    builder.goal(facts=[g],
                 conditions=[builder.condition({v0: 1, v1: 1}, GE, 3)])
    return builder.build(), g, v0, v1


def test_goal_fact_achiever_row():
    task, g, v0, v1 = goal_task()
    _, flow = build_flow_for(task)
    flow.model.push_scratch()
    flow.add_goal_constraints(HeuristicConfig(include_numeric_goal_conjunct=False),
                              LandmarkView(), frozenset(flow.action_col))
    flow.model.set_objective({flow.action_col[0]: 1, flow.action_col[1]: 1},
                             mp.MINIMIZE)
    solution = flow.model.solve()
    flow.model.pop_scratch()
    assert solution.objective == 1  # one achiever suffices


def test_goal_already_true_gets_no_row():
    builder = TaskBuilder()
    g = builder.fact("(g)", initially_true=True)
    v = builder.var("(v)", 0)
    builder.action("a", add=[g], effects=[(v, "increase", 1)])
    builder.goal(facts=[g])
    task = builder.build()
    _, flow = build_flow_for(task)
    rows = len(flow.model.constraints)
    flow.add_goal_constraints(HeuristicConfig(), LandmarkView(),
                              frozenset(flow.action_col))
    assert len(flow.model.constraints) == rows


def test_multi_variable_numeric_goal_row():
    task, g, v0, v1 = goal_task()
    _, flow = build_flow_for(task)
    flow.model.push_scratch()
    flow.add_goal_constraints(
        HeuristicConfig(include_prop_goals=False, include_landmarks=False),
        LandmarkView(), frozenset(flow.action_col))
    flow.model.set_objective({flow.action_col[0]: 1, flow.action_col[1]: 1},
                             mp.MINIMIZE)
    solution = flow.model.solve()
    flow.model.pop_scratch()
    assert solution.objective == 3  # v0' + v1' >= 3 needs three applications


def test_goal_without_in_layer_achiever_is_infeasible():
    task, g, v0, v1 = goal_task()
    _, flow = build_flow_for(task, action_ids=[])
    flow.model.push_scratch()
    flow.add_goal_constraints(HeuristicConfig(include_numeric_goal_conjunct=False),
                              LandmarkView(), frozenset())
    feasible = flow.feasible()
    flow.model.pop_scratch()
    assert not feasible


def test_landmark_rows_conjunctive_and_disjunctive():
    builder = TaskBuilder()
    lm = builder.fact("(lm)")
    d1 = builder.fact("(d1)")
    d2 = builder.fact("(d2)")
    g = builder.fact("(g)")
    builder.action("a", add=[lm])
    builder.action("b", add=[d1])
    builder.action("c", add=[d2])
    builder.action("fin", pre=[lm], add=[g])
    builder.goal(facts=[g])
    task = builder.build()
    _, flow = build_flow_for(task)
    flow.model.push_scratch()
    flow.add_goal_constraints(
        HeuristicConfig(include_numeric_goal_conjunct=False),
        LandmarkView(conjunctive=(lm,), disjunctive=(frozenset({d1, d2}),)),
        frozenset(flow.action_col))
    weights = {flow.action_col[a.id]: Fraction(1) for a in task.actions}
    flow.model.set_objective(weights, mp.MINIMIZE)
    solution = flow.model.solve()
    flow.model.pop_scratch()
    # goal achiever (fin), landmark achiever (a), one of b/c for the disjunction
    assert solution.objective == 3


# -- objective weighting ---------------------------------------------------------


def test_layer_weights_power_scheme():
    config = HeuristicConfig(layer_k=Fraction(3))
    weights = layer_weights(config, {7: 2, 9: 1}, None)
    assert weights == {7: Fraction(9), 9: Fraction(3)}


def test_layer_weights_k1_is_flat():
    config = HeuristicConfig(layer_k=Fraction(1))
    weights = layer_weights(config, {1: 1, 2: 3, 3: 5}, None)
    assert set(weights.values()) == {Fraction(1)}


def test_hadd_weights_are_one_plus_cost():
    config = HeuristicConfig(weight_scheme=WEIGHT_HADD)
    weights = layer_weights(config, {4: 1}, {4: Fraction(5)})
    assert weights == {4: Fraction(6)}


# -- integrality ------------------------------------------------------------------


def test_policy_all_makes_every_action_integer():
    task, *_ = goal_task()
    _, flow = build_flow_for(task)
    flow.apply_integrality(HeuristicConfig(integrality=INTS_ALL),
                           frozenset(), frozenset(), frozenset())
    kinds = {flow.model.variables[col].kind for col in flow.action_col.values()}
    assert kinds == {mp.INTEGER}


def test_policy_minimal_without_assignments_is_pure_lp():
    task, *_ = goal_task()
    _, flow = build_flow_for(task)
    flow.apply_integrality(HeuristicConfig(integrality=INTS_MINIMAL),
                           frozenset(), frozenset(), frozenset())
    kinds = {flow.model.variables[col].kind for col in flow.action_col.values()}
    assert kinds == {mp.CONTINUOUS}


def test_config_invariants_enforced():
    with pytest.raises(ValueError):
        HeuristicConfig(include_prop_goals=False, include_landmarks=True)
    with pytest.raises(ValueError):
        HeuristicConfig(include_all_propositions=True, include_landmarks=False,
                        include_prop_goals=False)


# -- bound queries -----------------------------------------------------------------


def test_query_bound_skips_direction_without_effect():
    task, v0, v1 = exchange_task()
    _, flow = build_flow_for(task)
    # nothing decreases v0: the lower bound stays at the state value
    assert flow.query_bound(v0, "min", task.initial.values[v0]) == 0
    # nothing increases v1
    assert flow.query_bound(v1, "max", task.initial.values[v1]) == 2


def test_query_bound_monotone_clamp():
    task, v0, v1 = exchange_task()
    _, flow = build_flow_for(task)
    # a previous (wider) bound is never tightened
    assert flow.query_bound(v0, "max", Fraction(5)) >= 5


def _clamped_bound(flow, var, direction, previous):
    """The bound query as a clamped LP: `post >= previous` (`<=` for min) as
    a scratch row, so the optimum can never fall short of `previous`."""
    if direction == "max" and var not in flow.increased:
        return previous if previous is not None else flow.state.values[var]
    if direction == "min" and var not in flow.decreased:
        return previous if previous is not None else flow.state.values[var]
    col = flow.post_col[var]
    flow.model.push_scratch()
    try:
        if previous is not None:
            op = ">=" if direction == "max" else "<="
            flow.model.add_constraint({col: 1}, op, previous, name="clamp")
        sense = mp.MAXIMIZE if direction == "max" else mp.MINIMIZE
        flow.model.set_objective({col: 1}, sense)
        solution = flow.model.solve()
    finally:
        flow.model.pop_scratch()
    if solution.status in (mp.UNBOUNDED, mp.LIMIT):
        return None
    if solution.status != mp.OPTIMAL:
        assert previous is not None, "the unclamped bound LP is feasible at zero counts"
        return previous
    return solution.objective


@pytest.mark.parametrize("family,size,all_props", [
    ("market-trader", 2, False), ("mini-settlers", 2, False), ("pump-catalyst", 3, True)])
def test_bound_queries_equal_the_clamped_query(monkeypatch, family, size, all_props):
    """Every bound query of a plan_task run returns what the clamped LP on
    the same model returns. Each query is also re-asked with previous bounds
    one unit either side of its result and with none, so the widening is
    exercised where the clamp binds too."""
    from flowplan import generators, planner
    real_query = FlowModel.query_bound
    kept = []

    def checking_query(self, var, direction, previous):
        result = real_query(self, var, direction, previous)
        counters = self.model.counters
        self.model.counters = mp.Counters()  # probes leave the run's stats alone
        try:
            probes = [previous, None]
            if result is not None:
                probes += [result - 1, result + 1]
            for probe in probes:
                got = result if probe == previous else real_query(self, var, direction, probe)
                assert got == _clamped_bound(self, var, direction, probe), \
                    (self.task.var_names[var], direction, probe)
                kept.append(probe is not None and got == probe != result)
        finally:
            self.model.counters = counters
        return result

    monkeypatch.setattr(FlowModel, "query_bound", checking_query)
    task = model.parse_and_ground(*generators.generate(family, size, 1))
    outcome = planner.plan_task(task, mode=planner.MODE_LPRPG,
                                config=HeuristicConfig(include_all_propositions=all_props))
    assert outcome.status == "solved"
    assert any(kept)  # some probe lay beyond the optimum and was kept


def test_interval_relaxation_is_looser_than_lp_on_fragment():
    from flowplan import rpg
    task, v0, v1 = exchange_task()
    analysed = analyse(task)
    config = HeuristicConfig()
    interval_graph = rpg.expand(analysed, task.initial, config, rpg.METRICFF)
    assert interval_graph.numeric_layers[2][v0] == (0, 4)
    assert interval_graph.numeric_layers[2][v1] == (-2, 2)
    lp_graph = rpg.expand(analysed, task.initial, config, rpg.LPRPG)
    assert lp_graph.lp_bounds(2)[v0] == (0, 2)
    assert lp_graph.lp_bounds(2)[v1] == (0, 2)


# -- relaxation soundness and dominance ---------------------------------------------


def test_valid_plan_counts_satisfy_fully_loaded_flow_model():
    checked_plans = 0
    for seed in range(40):
        task = random_pc_task(seed)
        analysed = analyse(task)
        if not analysed.classification.conforming():
            continue
        plans = all_plans(analysed.task, 6)
        for plan in plans[:40]:
            counts: dict[int, int] = {}
            for action_id in plan:
                counts[action_id] = counts.get(action_id, 0) + 1
            flow = begun_flow(analysed, analysed.task.initial)
            flow.extend(sorted(counts))
            flow.add_goal_constraints(HeuristicConfig(include_all_propositions=False),
                                      LandmarkView(), frozenset(counts))
            values = forced_columns(analysed.task, flow, counts)
            problems = flow.model.check_assignment(values)
            assert problems == [], f"seed {seed} plan {plan}: {problems}"
            checked_plans += 1
    assert checked_plans >= 50


def test_catalytic_bounds_sandwich_post_value():
    builder = TaskBuilder()
    flow_var = builder.var("(water-flow)", 0)
    energy = builder.var("(energy)", 0)
    builder.action("raise", effects=[(flow_var, "increase", 1)])
    builder.action("drain", num_pre=[builder.condition({flow_var: 1}, GE, 1)],
                   effects=[(flow_var, "decrease", 1)])
    builder.action("generate", num_pre=[builder.condition({flow_var: 1}, GE, 2)],
                   effects=[(energy, "increase", 1)])
    builder.goal(conditions=[builder.condition({energy: 1}, GE, 1)])
    task = builder.build()
    analysed, flow = build_flow_for(task)
    assert flow_var in flow.up_col, "water-flow should be catalytic here"
    # push some activity into the model, then check up >= post >= down
    flow.model.push_scratch()
    flow.model.add_constraint({flow.action_col[0]: 1}, ">=", 2)
    flow.model.add_constraint({flow.action_col[1]: 1}, ">=", 1)
    flow.model.set_objective({}, mp.MINIMIZE)
    solution = flow.model.solve()
    flow.model.pop_scratch()
    assert solution.status == mp.OPTIMAL
    assert solution.values[flow.up_col[flow_var]] >= \
        solution.values[flow.post_col[flow_var]] >= \
        solution.values[flow.down_col[flow_var]]


def test_objective_scaling_preserves_argmin_ranking():
    task, g, v0, v1 = goal_task()
    _, flow = build_flow_for(task)
    flow.model.push_scratch()
    flow.add_goal_constraints(HeuristicConfig(include_prop_goals=False,
                                              include_landmarks=False),
                              LandmarkView(), frozenset(flow.action_col))
    base = {flow.action_col[0]: Fraction(2), flow.action_col[1]: Fraction(3)}
    flow.model.set_objective(base, mp.MINIMIZE)
    first = flow.model.solve()
    flow.model.set_objective({c: 7 * w for c, w in base.items()}, mp.MINIMIZE)
    second = flow.model.solve()
    flow.model.pop_scratch()
    assert first.values == second.values
    assert second.objective == 7 * first.objective


def test_all_propositions_config_solves_and_constrains():
    """The experimental full-propositional encoding still finds plans and
    links precondition facts to their achievers through the binaries."""
    from flowplan import planner, search
    from flowplan.fixtures import FIVE_CART, HELPFUL_DISTORTION, fixture as load_fixture

    for name, expected_len in ((HELPFUL_DISTORTION, 5), (FIVE_CART, 3)):
        dom, prob = load_fixture(name)
        task = model.parse_and_ground(dom, prob)
        config = HeuristicConfig(include_all_propositions=True)
        outcome = planner.plan_task(task, mode=planner.MODE_LPRPG, config=config,
                                    budget=search.Budget(5000, 30))
        assert outcome.status == "solved"
        assert outcome.stats.plan_length == expected_len
        assert search.validate(task, outcome.plan).ok


def test_equality_goal_produces_equality_row():
    builder = TaskBuilder()
    v = builder.var("(v)", 0)
    builder.action("up", effects=[(v, "increase", 1)])
    builder.action("down", num_pre=[builder.condition({v: 1}, GE, 1)],
                   effects=[(v, "decrease", 1)])
    builder.goal(conditions=[builder.condition({v: 1}, "=", 3)])
    task = builder.build()
    _, flow = build_flow_for(task)
    flow.model.push_scratch()
    flow.add_goal_constraints(
        HeuristicConfig(include_prop_goals=False, include_landmarks=False),
        LandmarkView(), frozenset(flow.action_col))
    flow.model.set_objective({flow.action_col[0]: Fraction(1),
                              flow.action_col[1]: Fraction(1)}, mp.MINIMIZE)
    solution = flow.model.solve()
    flow.model.pop_scratch()
    assert solution.status == mp.OPTIMAL
    assert solution.values[flow.post_col[v]] == 3


# -- warm bound queries ------------------------------------------------------------


def _layered_bounds(task, layers, queries):
    """Bound queries on a flow model extended layer by layer, each asked
    again of a flow model built cold over the same actions. Returns the
    model's counters."""
    analysed = analyse(task)
    flow = begun_flow(analysed, task.initial)
    reached = []
    for layer, layer_queries in zip(layers, queries):
        flow.extend(layer)
        reached += layer
        for var, direction in layer_queries:
            _, fresh = build_flow_for(task, reached)
            assert flow.query_bound(var, direction, None) == \
                fresh.query_bound(var, direction, None), (reached, var, direction)
    return flow.model.counters


def test_bound_queries_grow_one_live_simplex():
    """Later layers only add columns, so every query after the first is
    re-optimised from the live simplex."""
    builder = TaskBuilder()
    ore = builder.var("(ore)", 1)
    cash = builder.var("(cash)", 0)
    mine = builder.action("mine", effects=[(ore, "increase", 2)])
    sell = builder.action("sell", num_pre=[builder.condition({ore: 1}, GE, 3)],
                          effects=[(ore, "decrease", 3), (cash, "increase", Fraction(5, 2))])
    buy = builder.action("buy", num_pre=[builder.condition({cash: 1}, GE, 1)],
                         effects=[(cash, "decrease", 1), (ore, "increase", 1)])
    builder.goal(conditions=[builder.condition({cash: 1}, GE, 4)])
    task = builder.build()
    analysed = analyse(task)
    assert not analysed.classification.catalytic_groups
    counters = _layered_bounds(task, [[mine], [sell], [buy]],
                               [[(ore, "max")], [(cash, "max"), (ore, "min")],
                                [(cash, "min"), (ore, "max")]])
    assert (counters.root_cold, counters.root_warm) == (1, 4)


def test_catalytic_switch_refresh_sends_the_bound_query_cold():
    """Adding a member of a catalytic group raises its switch's big-M
    coefficient, a change to an existing column: that query is solved cold,
    and counted so; the next one in the same layer is warm again."""
    builder = TaskBuilder()
    v = builder.var("(v)", 0)
    out = builder.var("(out)", 0)
    make = builder.action("make", num_pre=[builder.condition({v: 1}, LE, 5)],
                          effects=[(v, "increase", 1)])
    use = builder.action("use", num_pre=[builder.condition({v: 1}, GE, 3),
                                         builder.condition({out: 1}, LE, 4)],
                         effects=[(out, "increase", 1)])
    builder.goal(conditions=[builder.condition({out: 1}, GE, 1)])
    task = builder.build()
    assert analyse(task).classification.catalytic_groups
    counters = _layered_bounds(task, [[make], [use]],
                               [[(v, "max")], [(out, "max"), (v, "max")]])
    assert (counters.root_cold, counters.root_warm) == (2, 1)


def test_warm_goal_checks_leave_the_bound_queries_as_they_were():
    """A goal check after each layer, as expansion makes it, starts from the
    live simplex and keeps it, with the goal rows, where they are feasible;
    closing the rows drops it, and an infeasible check drops it too. Every
    bound query returns what it returns without the goal checks, and each
    query after a check is solved cold."""
    builder = TaskBuilder()
    ore = builder.var("(ore)", 1)
    cash = builder.var("(cash)", 0)
    mine = builder.action("mine", effects=[(ore, "increase", 2)])
    sell = builder.action("sell", num_pre=[builder.condition({ore: 1}, GE, 3)],
                          effects=[(ore, "decrease", 3), (cash, "increase", Fraction(5, 2))])
    buy = builder.action("buy", num_pre=[builder.condition({cash: 1}, GE, 1)],
                         effects=[(cash, "decrease", 1), (ore, "increase", 1)])
    builder.goal(conditions=[builder.condition({cash: 1}, GE, 4)])
    task = builder.build()
    runs = []
    for goal_checks in (False, True):
        analysed = analyse(task)
        flow = begun_flow(analysed, task.initial)
        queries, roots, checks = [], [], []
        for layer, (var, direction) in zip([[mine], [sell], [buy]],
                                           [(ore, "max"), (cash, "max"), (ore, "min")]):
            flow.extend(layer)
            if goal_checks:
                flow.open_goal_rows(HeuristicConfig(), LandmarkView(),
                                    frozenset(flow.action_col))
                checks.append((flow.feasible(),
                               cold_vertex(flow.model).status == mp.OPTIMAL))
                assert (flow.model._live is not None) == checks[-1][0]
                flow.close_goal_rows()
                assert flow.model._live is None
            counters = flow.counters
            before = (counters.root_warm, counters.root_cold)
            queries.append(flow.query_bound(var, direction, None))
            roots.append((counters.root_warm - before[0], counters.root_cold - before[1]))
        runs.append((queries, roots))
    assert runs[0][0] == runs[1][0]
    assert checks == [(False, False), (True, True), (True, True)]
    assert runs[0][1] == [(0, 1), (1, 0), (1, 0)]
    assert runs[1][1] == [(0, 1)] * 3
    # the first check comes before any query, so it is cold, as the first
    # query is; each later check is warm from the query before it
    assert (flow.counters.root_warm, flow.counters.root_cold) == (2, 4)


def test_warm_goal_check_at_the_pivot_limit_assumes_feasible(caplog):
    """With a pivot limit of 0, a warm goal check whose rows need phase 1
    stops at the limit, and `feasible` reports the goal reachable with a
    warning, though the layer has no achiever of the goal fact. The check
    cut by the limit drops the live simplex, so the check after it, at the
    default limit, is cold."""
    builder = TaskBuilder()
    g = builder.fact("(g)")
    v = builder.var("(v)", 4)
    use = builder.action("use", num_pre=[builder.condition({v: 1}, GE, 1)],
                         effects=[(v, "decrease", 1)])
    builder.action("make", num_pre=[builder.condition({v: 1}, LE, 3)], add=[g],
                   effects=[(v, "increase", 2)])
    builder.goal(facts=[g], conditions=[builder.condition({v: 1}, GE, 5)])
    task = builder.build()
    _, flow = build_flow_for(task, action_ids=[use])
    assert flow.query_bound(v, "min", None) == 0  # brings up the live simplex
    checks = []
    with caplog.at_level(logging.WARNING, logger="flowplan"):
        for limit in (0, mp.DEFAULT_PIVOT_LIMIT):
            flow.model.pivot_limit = limit
            flow.open_goal_rows(HeuristicConfig(), LandmarkView(),
                                frozenset(flow.action_col))
            checks.append(flow.feasible())
            flow.close_goal_rows()
    assert checks == [True, False]
    assert (flow.counters.root_warm, flow.counters.root_cold) == (1, 2)
    assert [r.getMessage() for r in caplog.records] == [
        "LP iteration limit during feasibility check; assuming feasible"]


def test_goal_check_search_at_the_node_and_pivot_limits_assumes_feasible(caplog):
    """Under the all-propositions encoding, "use" needs p, so its big-M row
    puts p's binary column at count / 1,000,000 in the root relaxation of
    the goal check: fractional. The floor branch is infeasible and the
    ceil branch integral, so the search needs 3 nodes and the root, warm
    from the live simplex, 2 pivots. Cut below either, it finds no integral node, and `feasible`
    reports the goal reachable with its warning."""
    builder = TaskBuilder()
    p = builder.fact("(p)")
    g = builder.fact("(g)")
    v = builder.var("(v)", 0)
    make = builder.action("make-p", add=[p], effects=[(v, "increase", 1)])
    use = builder.action("use", pre=[p], num_pre=[builder.condition({v: 1}, GE, 1)],
                         add=[g], effects=[(v, "decrease", 1)])
    builder.goal(facts=[g])
    task = builder.build()
    _, flow = build_flow_for(task)
    assert flow.query_bound(v, "max", None) == 1_000_000  # brings up the live simplex
    config = HeuristicConfig(include_all_propositions=True)
    model = flow.model
    checks = []
    with caplog.at_level(logging.WARNING, logger="flowplan"):
        for node_limit, pivot_limit in ((2, mp.DEFAULT_PIVOT_LIMIT), (3, 2),
                                        (3, mp.DEFAULT_PIVOT_LIMIT)):
            model.node_limit, model.pivot_limit = node_limit, pivot_limit
            model.push_scratch()
            flow.add_goal_constraints(config, LandmarkView(), frozenset([make, use]))
            nodes = flow.counters.bb_nodes
            checks.append((model.solve(reads=mp.STATUS).status, flow.feasible(),
                           (flow.counters.bb_nodes - nodes) // 2))
            model.pop_scratch()
    assert checks == [(mp.LIMIT, True, 2), (mp.LIMIT, True, 1), (mp.OPTIMAL, True, 3)]
    assert (flow.counters.root_warm, flow.counters.bb_truncated) == (6, 0)
    assert [r.getMessage() for r in caplog.records] == [
        "LP iteration limit during feasibility check; assuming feasible"] * 2


@pytest.mark.parametrize("family,size,all_props", [
    ("market-trader", 2, False), ("mini-settlers", 2, False), ("pump-catalyst", 3, True)])
def test_warm_bound_queries_equal_cold_solves_over_plan_runs(monkeypatch, family, size,
                                                              all_props):
    """Every objective-only solve of a plan_task run, bound queries warm from
    the live simplex among them, returns the status and objective, types
    included, of a cold solve of the same model."""
    from flowplan import generators, planner
    real_solve = mp.MPModel.solve
    seen = {"objective": 0, "warm": 0, "mismatched": []}

    def checked_solve(self, reads=mp.VERTEX):
        warm = self.counters.root_warm
        solution = real_solve(self, reads=reads)
        if reads == mp.OBJECTIVE:
            seen["objective"] += 1
            seen["warm"] += self.counters.root_warm - warm
            key = [status_and_objective(s) for s in (solution, cold_vertex(self))]
            if key[0] != key[1]:
                seen["mismatched"].append(key)
        return solution

    monkeypatch.setattr(mp.MPModel, "solve", checked_solve)
    task = model.parse_and_ground(*generators.generate(family, size, 1))
    outcome = planner.plan_task(task, mode=planner.MODE_LPRPG,
                                config=HeuristicConfig(include_all_propositions=all_props))
    assert outcome.status == "solved"
    assert seen["mismatched"] == []
    assert seen["objective"] > seen["warm"] > 0, seen
