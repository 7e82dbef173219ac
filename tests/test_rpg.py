"""Graph expansion in both modes, termination, cost propagation, and the
production-shortfall penalty."""

import dataclasses
import logging

from flowplan import generators, model, planner, rpg, search
from flowplan.analysis import analyse
from flowplan.fixtures import FIXTURE_NAMES, fixture
from flowplan.lpmodel import FlowModel, HeuristicConfig
from flowplan.model import EQ, GE, LE

from bruteforce import all_plans
from microtasks import magnitude_reader_task, random_pc_task
from oracles import interval_update
from taskbuild import TaskBuilder


def exchange_task():
    builder = TaskBuilder()
    v0 = builder.var("(v0)", 0)
    v1 = builder.var("(v1)", 2)
    builder.action("c", num_pre=[builder.condition({v1: 1}, GE, 2)],
                   effects=[(v0, "increase", 2), (v1, "decrease", 2)])
    builder.goal(conditions=[builder.condition({v0: 1}, GE, 4)])
    return builder.build(), v0, v1


def test_interval_mode_bounds_diverge_on_fragment():
    task, v0, v1 = exchange_task()
    graph = rpg.expand(analyse(task), task.initial, HeuristicConfig(), rpg.METRICFF)
    assert graph.status == rpg.GOALS_REACHED
    assert graph.numeric_layers[1][v0] == (0, 2)
    assert graph.numeric_layers[2][v0] == (0, 4)
    assert graph.numeric_layers[2][v1] == (-2, 2)


def test_lp_mode_bounds_stay_exact_on_fragment():
    task, v0, v1 = exchange_task()
    graph = rpg.expand(analyse(task), task.initial, HeuristicConfig(), rpg.LPRPG)
    assert graph.status == rpg.RELAXED_UNSOLVABLE  # v0 can never reach 4
    bounds = graph.lp_bounds(2)
    assert bounds[v0] == (0, 2)
    assert bounds[v1] == (0, 2)


def test_goal_already_satisfied_terminates_at_layer_zero():
    builder = TaskBuilder()
    v = builder.var("(v)", 5)
    builder.action("noop", effects=[(v, "increase", 1)])
    builder.goal(conditions=[builder.condition({v: 1}, GE, 5)])
    task = builder.build()
    graph = rpg.expand(analyse(task), task.initial, HeuristicConfig(), rpg.METRICFF)
    assert graph.status == rpg.GOALS_REACHED
    assert graph.final_layer == 0


def test_unbounded_variant_blows_up_in_one_layer():
    task, v0, v1 = exchange_task()
    graph = rpg.expand(analyse(task), task.initial, HeuristicConfig(),
                       rpg.METRICFF_UNBOUNDED)
    assert graph.status == rpg.GOALS_REACHED
    assert graph.numeric_layers[1][v0][1] is None  # +infinity after one layer


def test_negative_termination_when_nothing_grows():
    builder = TaskBuilder()
    v = builder.var("(v)", 0)
    builder.action("bump", num_pre=[builder.condition({v: 1}, LE, 1)],
                   effects=[(v, "increase", 1)])
    builder.goal(conditions=[builder.condition({v: 1}, GE, 10)])
    task = builder.build()
    graph = rpg.expand(analyse(task), task.initial, HeuristicConfig(), rpg.LPRPG)
    assert graph.status == rpg.RELAXED_UNSOLVABLE


def test_interval_mode_keeps_growing_to_reach_far_goal():
    builder = TaskBuilder()
    v = builder.var("(v)", 0)
    builder.action("bump", effects=[(v, "increase", 1)])
    builder.goal(conditions=[builder.condition({v: 1}, GE, 30)])
    task = builder.build()
    graph = rpg.expand(analyse(task), task.initial, HeuristicConfig(), rpg.METRICFF)
    assert graph.status == rpg.GOALS_REACHED
    assert graph.final_layer == 30


def test_layer_cap_marks_relaxed_unsolvable():
    builder = TaskBuilder()
    v = builder.var("(v)", 0)
    builder.action("bump", effects=[(v, "increase", 1)])
    builder.goal(conditions=[builder.condition({v: 1}, GE, 1000)])
    task = builder.build()
    config = HeuristicConfig(max_layers=10)
    graph = rpg.expand(analyse(task), task.initial, config, rpg.METRICFF)
    assert graph.status == rpg.RELAXED_UNSOLVABLE


def test_growing_magnitude_variable_moves_its_reader():
    """`increase x y` is the only thing that moves x, and x's own interval
    stays [0, 0] over layer 1 while y grows: x must still be recomputed,
    because the magnitude of one of its effects changed."""
    task_builder = TaskBuilder()
    x = task_builder.var("(x)", 0)
    y = task_builder.var("(y)", 0)
    task_builder.action("grow-y", effects=[(y, "increase", 1)])
    task_builder.action("add-x", effects=[(x, "increase", ({y: 1}, 0))])
    task_builder.goal(conditions=[task_builder.condition({x: 1}, GE, 1)])
    task = task_builder.build()
    for mode in (rpg.METRICFF, rpg.METRICFF_UNBOUNDED):
        graph = rpg.expand(analyse(task), task.initial, HeuristicConfig(), mode)
        assert graph.status == rpg.GOALS_REACHED, mode
        assert graph.final_layer == 2, mode
        assert graph.numeric_layers[1][x] == (0, 0), mode
    graph = rpg.expand(analyse(task), task.initial, HeuristicConfig(), rpg.METRICFF)
    assert graph.numeric_layers[2] == [(0, 1), (0, 2)]


def test_reader_of_a_widening_magnitude_is_not_stagnant():
    """v0's upper bound holds at -1 from layer 1 to 2 while v2, which the
    magnitude of v0's effect reads, keeps widening; at layer 3 it reaches
    0. Expansion must not stop at layer 1, and every mode solves the task
    (lprpg through its interval fallback: the magnitude is not constant)."""
    task = magnitude_reader_task()
    graph = rpg.expand(analyse(task), task.initial, HeuristicConfig(), rpg.METRICFF)
    assert graph.status == rpg.GOALS_REACHED
    assert [layer[0][1] for layer in graph.numeric_layers] == [-1, -1, -1, 0]
    for mode in planner.MODES:
        outcome = planner.plan_task(task, mode=mode, budget=search.Budget(200, 60))
        assert outcome.status == search.SOLVED, mode
        assert search.validate(task, outcome.plan).ok, mode


def test_action_layer_membership_is_per_condition():
    """Jointly unsatisfiable but individually satisfiable conditions still
    admit the action."""
    builder = TaskBuilder()
    v = builder.var("(v)", 0)
    w = builder.var("(w)", 0)
    builder.action("grow-v", effects=[(v, "increase", 1)])
    builder.action("shrink-w", num_pre=[builder.condition({w: 1}, GE, 0)],
                   effects=[(w, "decrease", 1)])
    builder.action("odd", num_pre=[builder.condition({v: 1}, GE, 2),
                                   builder.condition({v: 1}, LE, 1)],
                   effects=[(w, "increase", 1)])
    builder.goal(conditions=[builder.condition({w: 1}, GE, 1)])
    task = builder.build()
    graph = rpg.expand(analyse(task), task.initial, HeuristicConfig(), rpg.METRICFF)
    assert graph.status == rpg.GOALS_REACHED
    odd_id = task.action_named("(odd)").id
    assert odd_id in graph.first_action_layer  # enters once v spans [0, 2+]


def test_reachability_over_approximation_both_modes():
    for seed in range(15):
        task = random_pc_task(seed)
        analysed = analyse(task)
        if not analysed.classification.conforming():
            continue
        for mode in (rpg.METRICFF, rpg.LPRPG):
            graph = rpg.expand(analysed, analysed.task.initial, HeuristicConfig(),
                               mode)
            built = len(graph.action_layers) - 1
            for plan in all_plans(analysed.task, 4)[:30]:
                for step, action_id in enumerate(plan):
                    if step + 1 > built:
                        break  # expansion stopped earlier (goal already reached)
                    assert action_id in graph.action_layers[step + 1], \
                        f"seed {seed} mode {mode}: action {action_id} at step {step}"


def test_lp_intervals_subset_of_unbounded_interval_mode():
    """The LP's order relaxation puts no per-layer limit on action counts, so
    the comparable interval relaxation is the unbounded-applications variant."""
    for seed in range(15):
        task = random_pc_task(seed)
        analysed = analyse(task)
        if not analysed.classification.conforming():
            continue
        config = HeuristicConfig()
        interval_graph = rpg.expand(analysed, task.initial, config,
                                    rpg.METRICFF_UNBOUNDED)
        lp_graph = rpg.expand(analysed, task.initial, config, rpg.LPRPG)
        layers = min(len(interval_graph.numeric_layers), len(lp_graph.numeric_layers))
        for layer in range(layers):
            lp_bounds = lp_graph.lp_bounds(layer)
            for var in range(len(task.var_names)):
                iv_lo, iv_hi = interval_graph.numeric_layers[layer][var]
                lp_lo, lp_hi = lp_bounds[var]
                if iv_lo is not None:
                    assert lp_lo is not None and lp_lo >= iv_lo, \
                        f"seed {seed} layer {layer} var {var}"
                if iv_hi is not None:
                    assert lp_hi is not None and lp_hi <= iv_hi, \
                        f"seed {seed} layer {layer} var {var}"


def test_lp_bounds_after_a_goal_reaching_expansion_never_see_the_goal_rows():
    """A feasible goal check leaves its goal rows in the flow model for the
    extraction. `lp_bounds` closes them first: at every layer it returns the
    bounds of a model of the same state and layers that never held goal
    rows, and the rows stay closed."""
    tasks = [model.parse_and_ground(*generators.generate(family, size, 1))
             for family, size in (("market-trader", 2), ("mini-settlers", 2),
                                  ("pump-catalyst", 3))]
    tasks += [random_pc_task(seed) for seed in range(8)]
    checked = 0
    for task in tasks:
        analysed = analyse(task)
        if not analysed.classification.conforming():
            continue
        config = HeuristicConfig()
        graph = rpg.expand(analysed, analysed.task.initial, config, rpg.LPRPG)
        if graph.status != rpg.GOALS_REACHED or graph.final_layer == 0:
            continue
        assert graph.flow.goal_rows_open
        # the same layers joined in the same order on a fresh model
        flow = FlowModel(analysed)
        flow.begin(graph.state)
        for layer in range(1, graph.final_layer + 1):
            flow.extend(graph.action_layers[layer])
        plain = dataclasses.replace(graph, flow=flow)
        for layer in range(graph.final_layer + 1):
            assert graph.lp_bounds(layer) == plain.lp_bounds(layer), layer
            assert not graph.flow.goal_rows_open
        checked += 1
    assert checked >= 5


def _contains(outer, inner) -> bool:
    """Interval `outer` contains interval `inner` (None is infinity)."""
    (lo, hi), (inner_lo, inner_hi) = outer, inner
    return ((lo is None or (inner_lo is not None and lo <= inner_lo))
            and (hi is None or (inner_hi is not None and hi >= inner_hi)))


def _assert_monotone(graph, label):
    for layer in range(1, len(graph.numeric_layers)):
        for var, (before, after) in enumerate(zip(graph.numeric_layers[layer - 1],
                                                  graph.numeric_layers[layer])):
            assert _contains(after, before), \
                f"{label}: var {var} shrank from {before} to {after} at layer {layer}"


def _tiny_pivot_limit(monkeypatch, limit):
    original = FlowModel.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        self.model.pivot_limit = limit

    monkeypatch.setattr(FlowModel, "__init__", init)


def test_lp_bounds_widen_monotonically_when_queries_hit_the_pivot_limit(
        monkeypatch, caplog):
    """A bound query that hits the LP limit reports infinity; the next layer
    must keep that side infinite instead of re-asking with nothing to widen
    from."""
    builder = TaskBuilder()
    v = builder.var("(v)", 10)
    first = builder.fact("(first)")
    second = builder.fact("(second)")
    # three one-shot top-ups: v's layer-1 upper bound takes three bound
    # flips, so pivot limits 1-3 trip it
    for name in ("a", "b", "c"):
        token = builder.fact(f"(token-{name})", initially_true=True)
        builder.action(f"top-up-{name}", pre=[token], delete=[token],
                       num_pre=[builder.condition({v: 1}, LE, 19)],
                       effects=[(v, "increase", 1)])
    builder.action("step1", add=[first])
    # bulk reaches v's cap of 20 in one pivot, so a layer-2 query asked
    # afresh would come back finite under limits 2 and 3
    builder.action("bulk", pre=[first], num_pre=[builder.condition({v: 1}, LE, 15)],
                   effects=[(v, "increase", 5)])
    builder.action("step2", pre=[first], add=[second])
    builder.action("dec", pre=[second], num_pre=[builder.condition({v: 1}, GE, 1)],
                   effects=[(v, "decrease", 1)])
    # v = 3 stays unsatisfiable until dec arrives, so v's upper side keeps
    # being relevant after its query reported infinity
    builder.goal(conditions=[builder.condition({v: 1}, EQ, 3)])
    task = builder.build()
    analysed = analyse(task)
    infinite_then_kept = 0
    for limit in range(1, 6):
        _tiny_pivot_limit(monkeypatch, limit)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="flowplan"):
            graph = rpg.expand(analysed, task.initial, HeuristicConfig(), rpg.LPRPG)
        _assert_monotone(graph, f"pivot limit {limit}")
        if any("bound query" in r.getMessage() for r in caplog.records):
            infinite_then_kept += graph.numeric_layers[2][v][1] is None
    assert infinite_then_kept >= 2  # the degraded path was taken, not skipped


def _equivalence_tasks():
    for name in FIXTURE_NAMES:
        yield name, model.parse_and_ground(*fixture(name))
    for family, size in ((generators.MARKET_TRADER, 2), (generators.MINI_SETTLERS, 2),
                         (generators.PUMP_CATALYST, 2)):
        yield f"{family}-{size}", model.parse_and_ground(
            *generators.generate(family, size, 1))


def _check_condition_first(analysed, graph, label):
    first = graph.condition_first_by_id
    for layer in range(graph.final_layer + 1):
        intervals = graph.numeric_layers[layer]
        for cond_id, cond in enumerate(analysed.conditions):
            recorded = first[cond_id] is not None and first[cond_id] <= layer
            assert recorded == rpg.condition_satisfiable(cond, intervals), \
                f"{label}: layer {layer}, {cond}"


def test_condition_first_matches_interval_satisfiability(monkeypatch):
    """expand and extraction read satisfiability from condition_first_by_id,
    which records each condition id once, when it is first re-tested and
    holds; that is exact only because layers widen monotonically."""
    graphs = 0
    for name, task in _equivalence_tasks():
        analysed = analyse(task)
        states = [analysed.task.initial] + [
            model.apply_effects(analysed.task.initial, action)
            for action in analysed.task.actions
            if model.applicable(analysed.task.initial, action)][:3]
        for mode in (rpg.METRICFF, rpg.METRICFF_UNBOUNDED, rpg.LPRPG):
            for index, state in enumerate(states):
                graph = rpg.expand(analysed, state, HeuristicConfig(), mode)
                label = f"{name} {mode} state {index}"
                _assert_monotone(graph, label)
                _check_condition_first(analysed, graph, label)
                graphs += 1
    # the degraded LP path too: limited queries report infinite bounds
    _tiny_pivot_limit(monkeypatch, 2)
    for name, task in _equivalence_tasks():
        analysed = analyse(task)
        graph = rpg.expand(analysed, analysed.task.initial, HeuristicConfig(), rpg.LPRPG)
        _assert_monotone(graph, f"{name} pivot limit 2")
        _check_condition_first(analysed, graph, f"{name} pivot limit 2")
        graphs += 1
    assert graphs >= 60


# -- cost propagation ------------------------------------------------------------


def chain_task():
    builder = TaskBuilder()
    a = builder.fact("(a)", initially_true=True)
    b = builder.fact("(b)")
    c = builder.fact("(c)")
    d = builder.fact("(d)")
    builder.action("step1", pre=[a], add=[b])
    builder.action("step2", pre=[b], add=[c])
    builder.action("both", pre=[b, c], add=[d])
    builder.goal(facts=[d])
    return builder.build()


def test_costs_zero_for_initially_satisfied_preconditions():
    task = chain_task()
    graph = rpg.expand(analyse(task), task.initial, HeuristicConfig(), rpg.METRICFF)
    costs = rpg.propagate_costs(graph, task, "max")
    assert costs[task.action_named("(step1)").id] == 0


def test_max_variant_takes_max_of_precondition_costs():
    builder = TaskBuilder()
    p = builder.fact("(p)")
    q = builder.fact("(q)")
    r = builder.fact("(r)")
    done = builder.fact("(done)")
    s = builder.fact("(start)", initially_true=True)
    builder.action("mk-p", pre=[s], add=[p])       # p costs 1
    builder.action("mk-q1", pre=[s], add=[q])
    builder.action("mk-q2", pre=[q], add=[r])      # r costs 2
    builder.action("uses", pre=[p, r], add=[done])
    builder.goal(facts=[done])
    task = builder.build()
    graph = rpg.expand(analyse(task), task.initial, HeuristicConfig(), rpg.METRICFF)
    max_costs = rpg.propagate_costs(graph, task, "max")
    sum_costs = rpg.propagate_costs(graph, task, "sum")
    uses = task.action_named("(uses)").id
    assert max_costs[uses] == 2
    assert sum_costs[uses] == 3


def test_fact_cost_is_cheapest_adder_plus_one():
    builder = TaskBuilder()
    start = builder.fact("(start)", initially_true=True)
    maker_pre = builder.fact("(ready)")
    goal_fact = builder.fact("(made)")
    builder.action("prep1", pre=[start], add=[maker_pre])
    builder.action("prep2", pre=[maker_pre], add=[goal_fact])
    builder.goal(facts=[goal_fact])
    task = builder.build()
    graph = rpg.expand(analyse(task), task.initial, HeuristicConfig(), rpg.METRICFF)
    costs = rpg.propagate_costs(graph, task, "max")
    # prep2's only precondition costs 1 => action cost 1; its fact costs 2,
    # so an action needing (made) would cost 2 at the next layer
    assert costs[task.action_named("(prep2)").id] == 1


def test_cost_monotonicity_max_below_sum():
    for seed in range(10):
        task = random_pc_task(seed)
        graph = rpg.expand(analyse(task), task.initial, HeuristicConfig(),
                           rpg.METRICFF)
        if graph.status != rpg.GOALS_REACHED:
            continue
        max_costs = rpg.propagate_costs(graph, task, "max")
        sum_costs = rpg.propagate_costs(graph, task, "sum")
        for action_id, cost in max_costs.items():
            assert cost <= sum_costs[action_id]


# -- production shortfall penalty ---------------------------------------------------


def penalty_task():
    builder = TaskBuilder()
    v = builder.var("(v)", 1)
    builder.action("produce", effects=[(v, "increase", 2)])
    builder.action("consume", num_pre=[builder.condition({v: 1}, GE, 1)],
                   effects=[(v, "decrease", 1)])
    return builder.build(), v


def test_penalty_formula():
    task, v = penalty_task()
    consume = task.action_named("(consume)").id
    produce = task.action_named("(produce)").id
    # c = 5, p = 1 (one produce of... delta 2 would be p=2; use half a produce)
    # direct arithmetic: c=5, p=1 via... build counts for c=5 consumes, and
    # production 1 cannot arise from +2 producer, so check the c=5,p=2 case
    penalty = rpg.sapa_penalty(task.initial, {consume: 5, produce: 1}, analyse(task))
    # consumption 5, production 2, stock 1 -> shortfall 2, best producer 2
    assert penalty == 1
    penalty = rpg.sapa_penalty(task.initial, {consume: 5}, analyse(task))
    # shortfall 4 over best single production 2 -> 2 extra actions
    assert penalty == 2


def test_penalty_zero_without_shortfall():
    task, v = penalty_task()
    consume = task.action_named("(consume)").id
    assert rpg.sapa_penalty(task.initial, {consume: 1}, analyse(task)) == 0


def test_penalty_without_producer_adds_nothing():
    """No action adds a constant to v or w (`raise` adds w + 1 to w), so no
    production is counted for their shortfalls, and a relaxed plan that
    overdraws them proves no dead end: (g) has the adder `earn` too, and
    `raise` can lift w."""
    builder = TaskBuilder()
    v = builder.var("(v)", 0)
    w = builder.var("(w)", 0)
    g = builder.fact("(g)")
    builder.action("spend", add=[g], effects=[(v, "decrease", 1), (w, "decrease", 1)])
    builder.action("earn", add=[g])
    builder.action("raise", effects=[(w, "increase", ({w: 1}, 1))])
    builder.goal(facts=[g], conditions=[builder.condition({v: 1}, GE, 0)])
    task = builder.build()
    analysed = analyse(task)
    assert analysed.best_production == {}
    spend = task.action_named("(spend)").id
    assert rpg.sapa_penalty(task.initial, {spend: 4}, analysed) == 0


def test_lp_mode_untracked_intervals_match_full_interval_update():
    """LP mode feeds interval arithmetic only the actions that affect an
    untracked variable; the untracked intervals must equal those of a step
    over the whole layer."""
    tasks = [model.parse_and_ground(*fixture("pump-unsolvable")),
             model.parse_and_ground(*generators.generate(
                 generators.PUMP_CATALYST, 2, 1, threshold=3))]
    tasks += [task for _, task in _equivalence_tasks()]
    moved = 0
    for task in tasks:
        analysed = analyse(task)
        untracked = [v for v in range(len(analysed.task.var_names))
                     if v not in analysed.tracked]
        assert analysed.untracked_affectors == frozenset(
            a.id for a in analysed.task.actions
            if any(e.variable in untracked for e in a.numeric_effects))
        graph = rpg.expand(analysed, analysed.task.initial, HeuristicConfig(), rpg.LPRPG)
        for layer in range(1, len(graph.numeric_layers)):
            actions = graph.action_layers[layer]
            if actions == graph.action_layers[layer - 1]:
                continue  # no new action: the layer is copied, not recomputed
            previous = graph.numeric_layers[layer - 1]
            full = interval_update(analysed.task, sorted(actions), previous, False)
            for var in untracked:
                assert graph.numeric_layers[layer][var] == full[var]
                moved += full[var] != previous[var]
    assert moved > 0
