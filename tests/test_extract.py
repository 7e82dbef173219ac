"""Relaxed-plan extraction: the regression extractor, the LP-guided extractor,
and their agreement on purely propositional tasks."""

import dataclasses
import hashlib
import logging
import random
from fractions import Fraction

import pytest

from flowplan import extract, model, rpg
from flowplan.analysis import analyse
from flowplan.fixtures import (
    CRT, CRT_WITH_PRODUCER, FIVE_CART, PUMP, RESOURCE_PERSISTENCE, fixture,
)
from flowplan.lpmodel import (
    HeuristicConfig, INTS_FIRST_LAYER, INTS_MINIMAL, LandmarkView,
)
from flowplan.model import GE, LE, applicable

from taskbuild import TaskBuilder


def graph_for(task, mode, config=None, view=LandmarkView()):
    analysed = analyse(task)
    config = config or HeuristicConfig()
    graph = rpg.expand(analysed, task.initial, config, mode, landmarks=view)
    return analysed, graph


def test_crt_regression_extraction_is_load_unload():
    dom, prob = fixture(CRT)
    task = model.parse_and_ground(dom, prob)
    _, graph = graph_for(task, rpg.METRICFF)
    result = extract.extract_metricff(graph, task)
    assert result.h == 2
    chosen = sorted(task.actions[a].name for a, _, _, _ in result.trace)
    assert chosen == ["(load v1 p1)", "(unload v1 p1)"]
    assert [task.actions[a].name for a in result.helpful] == ["(load v1 p1)"]


def test_goal_satisfying_state_gives_zero():
    builder = TaskBuilder()
    v = builder.var("(v)", 3)
    builder.action("a", effects=[(v, "increase", 1)])
    builder.goal(conditions=[builder.condition({v: 1}, GE, 2)])
    task = builder.build()
    _, graph = graph_for(task, rpg.METRICFF)
    result = extract.extract_metricff(graph, task)
    assert result.h == 0 and result.helpful == frozenset()


def test_producer_chosen_twice_across_layers():
    builder = TaskBuilder()
    v = builder.var("(v)", 0)
    builder.action("plus2", effects=[(v, "increase", 2)])
    builder.goal(conditions=[builder.condition({v: 1}, GE, 4)])
    task = builder.build()
    _, graph = graph_for(task, rpg.METRICFF)
    result = extract.extract_metricff(graph, task)
    assert result.h == 2
    assert [(a, int(c)) for a, c, _, _ in result.trace] == [(0, 1), (0, 1)]
    # brute force agrees: two applications are needed and suffice
    from bruteforce import optimal_plan
    assert len(optimal_plan(task, 5)) == 2


def test_assignment_achiever_handles_bound_subgoal():
    builder = TaskBuilder()
    v = builder.var("(v)", 0)
    trigger = builder.fact("(armed)", initially_true=True)
    builder.action("charge", pre=[trigger], delete=[trigger],
                   effects=[(v, "assign", 5)])
    builder.goal(conditions=[builder.condition({v: 1}, GE, 4)])
    task = builder.build()
    _, graph = graph_for(task, rpg.METRICFF)
    result = extract.extract_metricff(graph, task)
    assert result.h == 1
    assert [a for a, _, _, _ in result.trace] == [0]


def test_one_assignment_discharges_every_bound_it_satisfies():
    """v := 5 satisfies both goals, so the assignment pass chooses it once
    and does not re-choose it for the bound it already discharged."""
    builder = TaskBuilder()
    v = builder.var("(v)", 0)
    trigger = builder.fact("(armed)", initially_true=True)
    builder.action("charge", pre=[trigger], delete=[trigger],
                   effects=[(v, "assign", 5)])
    builder.goal(conditions=[builder.condition({v: 1}, GE, 4),
                             builder.condition({v: 1}, GE, 3)])
    task = builder.build()
    _, graph = graph_for(task, rpg.METRICFF)
    result = extract.extract_metricff(graph, task)
    assert result.h == 1
    assert [a for a, _, _, _ in result.trace] == [0]


def test_equality_precondition_half_is_enqueued_at_its_own_layer():
    """`use` needs v = 3 and joins the graph at layer 6, behind a fact
    chain. The <= half of its equality holds in the state, so only the >=
    half is enqueued, at layer 3 where it first holds, and regression
    chooses `up` at layers 3, 2 and 1. One half of an equality always holds
    on the point intervals of layer 0, so the other half first holds where
    the equality does."""
    builder = TaskBuilder()
    v = builder.var("(v)", 0)
    chain = [builder.fact(f"(f{i})", initially_true=i == 0) for i in range(6)]
    done = builder.fact("(done)")
    for i in range(5):
        builder.action(f"step{i}", pre=[chain[i]], add=[chain[i + 1]])
    builder.action("use", pre=[chain[5]], add=[done],
                   num_pre=[builder.condition({v: 1}, model.EQ, 3)])
    builder.action("up", effects=[(v, "increase", 1)])
    builder.goal(facts=[done])
    task = builder.build()
    _, graph = graph_for(task, rpg.METRICFF)
    use, up = task.action_named("(use)").id, task.action_named("(up)").id
    assert graph.first_action_layer[use] == 6
    result = extract.extract_metricff(graph, task)
    assert result.h == 9
    assert [(a, layer) for a, _, layer, _ in result.trace if a in (use, up)] == [
        (use, 6), (up, 3), (up, 2), (up, 1)]


def test_regression_numeric_choice_is_helpful_only_at_layer_one():
    """Regression marks a numeric choice helpful only when it is made at
    layer 1: harvest is applicable, but its magnitude needs grown stock, so
    the goal first holds at layer 2 and harvest is chosen there only."""
    builder = TaskBuilder()
    v = builder.var("(v)", 0)
    w = builder.var("(w)", 1)
    builder.action("grow", effects=[(w, "increase", 3)])
    builder.action("harvest", effects=[(v, "increase", ({w: 1}, 0))])
    builder.goal(conditions=[builder.condition({v: 1}, GE, 4)])
    task = builder.build()
    _, graph = graph_for(task, rpg.METRICFF)
    harvest = task.action_named("(harvest)").id
    assert harvest in graph.actions_at(1)
    result = extract.extract_metricff(graph, task)
    assert result.trace == ((harvest, 1, 2, 1),)
    assert result.helpful == frozenset()


def test_regression_past_the_stepwise_limit_takes_whole_rounds():
    """One unbounded layer lets `spend` bring v from 10**6 to 0: the residual
    needs 10**6 applications. The first 1,000 are chosen one by one, the
    rest in one bulk round and a last single step (before: a RuntimeError
    after 100,000)."""
    from flowplan.model import LE
    builder = TaskBuilder()
    v = builder.var("(v)", 10**6)
    builder.action("spend", effects=[(v, "decrease", 1)])
    builder.goal(conditions=[builder.condition({v: 1}, LE, 0)])
    task = builder.build()
    _, graph = graph_for(task, rpg.METRICFF_UNBOUNDED)
    assert graph.final_layer == 1
    result = extract.extract_metricff(graph, task)
    spend = task.action_named("(spend)").id
    assert result.h == 10**6
    assert result.trace[1_000] == (spend, 998_999, 1, 1)
    assert len(result.trace) == 1_002


def test_regression_lowers_by_the_smallest_change():
    """For an upper bound, the mover is the action whose change can be most
    negative: `reset` adds -v, which over v in [0, 8] can take 8 off, though
    its largest change is 0."""
    from flowplan.model import LE
    builder = TaskBuilder()
    v = builder.var("(v)", 0)
    builder.action("fill", effects=[(v, "increase", 8)])
    builder.action("reset", effects=[(v, "increase", ({v: -1}, 0))])
    builder.goal(conditions=[builder.condition({v: 1}, LE, -4)])
    task = builder.build()
    _, graph = graph_for(task, rpg.METRICFF)
    reset = task.action_named("(reset)").id
    result = extract.extract_metricff(graph, task)
    assert reset in [a for a, _, _, _ in result.trace]


def test_five_cart_lp_extraction_first_layer_integrality():
    dom, prob = fixture(FIVE_CART)
    task = model.parse_and_ground(dom, prob)
    config = HeuristicConfig(layer_k=Fraction(1), integrality=INTS_FIRST_LAYER)
    analysed, graph = graph_for(task, rpg.LPRPG, config)
    result = extract.extract_lprpg(graph, analysed, LandmarkView(), config)
    assert result.h == 3
    final_layer_counts = sum(c for _, c, layer, _ in result.trace
                             if layer == graph.final_layer)
    assert final_layer_counts == 2  # the goal-check LP uses one load + one unload
    helpful_names = sorted(task.actions[a].name for a in result.helpful)
    assert len(helpful_names) == 1 and helpful_names[0].startswith("(load")


def test_five_cart_lp_extraction_minimal_integrality():
    dom, prob = fixture(FIVE_CART)
    task = model.parse_and_ground(dom, prob)
    config = HeuristicConfig(layer_k=Fraction(1), integrality=INTS_MINIMAL)
    analysed, graph = graph_for(task, rpg.LPRPG, config)
    result = extract.extract_lprpg(graph, analysed, LandmarkView(), config)
    final_layer_counts = sum(c for _, c, layer, _ in result.trace
                             if layer == graph.final_layer)
    assert final_layer_counts == 2
    helpful_names = [task.actions[a].name for a in result.helpful]
    assert 1 <= len(helpful_names) <= 5
    assert all(name.startswith("(load") for name in helpful_names)


def test_crt_lp_mode_dead_end_and_producer_recovery():
    dom, prob = fixture(CRT)
    task = model.parse_and_ground(dom, prob)
    analysed, graph = graph_for(task, rpg.LPRPG)
    assert graph.status == rpg.RELAXED_UNSOLVABLE

    dom, prob = fixture(CRT_WITH_PRODUCER)
    task = model.parse_and_ground(dom, prob)
    analysed, graph = graph_for(task, rpg.LPRPG)
    assert graph.status == rpg.GOALS_REACHED
    result = extract.extract_lprpg(graph, analysed, LandmarkView(), HeuristicConfig())
    assert not result.dead_end
    names = [task.actions[a].name for a, _, _, _ in result.trace]
    assert any(name.startswith("(fell") for name in names)


def test_resource_persistence_lp_counts_the_extra_work():
    dom, prob = fixture(RESOURCE_PERSISTENCE)
    task = model.parse_and_ground(dom, prob)
    _, graph_ff = graph_for(task, rpg.METRICFF)
    ff = extract.extract_metricff(graph_ff, task)
    assert ff.h == 2  # the relaxation spends the same coin twice
    analysed, graph_lp = graph_for(task, rpg.LPRPG,
                                   HeuristicConfig(layer_k=Fraction(1)))
    lp = extract.extract_lprpg(graph_lp, analysed, LandmarkView(),
                               HeuristicConfig(layer_k=Fraction(1)))
    assert lp.h == 3  # flow conservation forces the earn action in
    names = [task.actions[a].name for a, _, _, _ in lp.trace]
    assert "(work)" in names


def test_weights_stay_in_unit_interval_and_h_matches_trace():
    dom, prob = fixture(FIVE_CART)
    task = model.parse_and_ground(dom, prob)
    config = HeuristicConfig(layer_k=Fraction(3))
    analysed, graph = graph_for(task, rpg.LPRPG, config)
    result = extract.extract_lprpg(graph, analysed, LandmarkView(), config)
    assert not result.dead_end
    for _, count, _, weight in result.trace:
        assert 0 < weight <= 1
        assert count > 0
    # weighted-count identity: h accumulates weight * count per entry, scaled
    # by the objective weights only inside the LP objective, not in h
    total = sum(weight * count for _, count, _, weight in result.trace)
    assert result.h == total


def test_helpful_actions_are_applicable():
    for name in (CRT, CRT_WITH_PRODUCER, FIVE_CART, RESOURCE_PERSISTENCE):
        dom, prob = fixture(name)
        task = model.parse_and_ground(dom, prob)
        analysed, graph = graph_for(task, rpg.METRICFF)
        if graph.status != rpg.GOALS_REACHED:
            continue
        result = extract.extract_metricff(graph, task)
        for action_id in result.helpful:
            assert applicable(task.initial, task.actions[action_id]), name


def _pump_lp_graph(config):
    """The pump fixture with numeric goals kept out of the goal-check LP, so
    extraction solves the goal check and then one queued numeric subgoal,
    whose root relaxation is fractional."""
    task = model.parse_and_ground(*fixture(PUMP))
    return graph_for(task, rpg.LPRPG, config)


def test_lp_budget_exceeded_falls_back_to_regression(caplog):
    config = HeuristicConfig(include_numeric_goal_conjunct=False)
    analysed, graph = _pump_lp_graph(config)
    counters = graph.flow.model.counters
    before = counters.solves
    lp = extract.extract_lprpg(graph, analysed, LandmarkView(), config)
    assert counters.solves - before == 2  # goal check, then the queued subgoal

    budget = HeuristicConfig(include_numeric_goal_conjunct=False, lp_call_budget=0)
    analysed, graph = _pump_lp_graph(budget)
    counters = graph.flow.model.counters
    before = counters.solves
    with caplog.at_level(logging.WARNING, logger="flowplan.extract"):
        result = extract.extract_lprpg(graph, analysed, LandmarkView(), budget)
    assert counters.solves - before == 1  # the goal check spends the budget
    assert result == extract.extract_metricff(graph, analysed.task)
    assert result != lp
    assert [r.getMessage() for r in caplog.records].count(
        "per-state LP budget exceeded during extraction; "
        "falling back to regression extraction") == 1


def test_mip_limit_during_extraction_adds_no_counts(monkeypatch, caplog):
    config = HeuristicConfig(include_numeric_goal_conjunct=False)
    analysed, graph = _pump_lp_graph(config)
    counters = graph.flow.model.counters
    before = counters.bb_nodes
    full = extract.extract_lprpg(graph, analysed, LandmarkView(), config)
    # one node for the goal check, more than one for the fractional subgoal
    assert counters.bb_nodes - before > 2
    assert full.h == 3 and len(full.trace) == 3

    analysed, graph = _pump_lp_graph(config)
    monkeypatch.setattr(graph.flow.model, "node_limit", 1)
    with caplog.at_level(logging.WARNING, logger="flowplan.extract"):
        result = extract.extract_lprpg(graph, analysed, LandmarkView(), config)
    assert [r.getMessage() for r in caplog.records] == [
        "MIP limit during extraction; treating subgoal as satisfied"]
    # the goal check absorbed nothing, and the limited solve adds no counts
    assert result.h == 0 and result.trace == () and result.helpful == frozenset()


def test_tie_break_stage_at_the_pivot_limit_is_a_mip_limit(monkeypatch, caplog):
    """Two achievers of the goal fact at one layer weight, a0 adding 1 to v
    and a1 adding 2, with v >= 1 a goal too: every split of one achiever
    count between them is optimal, and the extraction's first optimum,
    reached in 2 pivots, is not the canonical one (v, then a0, least). At a
    pivot limit of 3 the tie-break stage stops at the limit, so extraction
    treats the subgoal as satisfied with the MIP-limit warning; at 4 it
    reaches the canonical point, a0 once."""
    from flowplan import mpsolver as mp

    builder = TaskBuilder()
    g = builder.fact("(g)")
    v = builder.var("(v)", 0)
    builder.action("a0", add=[g], effects=[(v, "increase", 1)])
    builder.action("a1", add=[g], effects=[(v, "increase", 2)])
    builder.goal(facts=[g], conditions=[builder.condition({v: 1}, GE, 1)])
    task = builder.build()
    real_canonicalize = mp._Simplex.canonicalize
    stages = []

    def canonicalize(self):
        before = self.pivots
        status = real_canonicalize(self)
        stages.append((before, self.pivots, status))
        return status

    monkeypatch.setattr(mp._Simplex, "canonicalize", canonicalize)
    results = []
    for limit in (3, 4):
        analysed, graph = graph_for(task, rpg.LPRPG)
        graph.flow.model.pivot_limit = limit
        stages.clear()
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="flowplan.extract"):
            result = extract.extract_lprpg(graph, analysed, LandmarkView(), HeuristicConfig())
        results.append((stages[:], [r.getMessage() for r in caplog.records],
                        result.h, result.trace))
    assert results == [
        ([(2, 3, mp.LIMIT)],
         ["MIP limit during extraction; treating subgoal as satisfied"], 0, ()),
        ([(2, 3, mp.OPTIMAL)], [], 1, ((0, 1, 1, 1),))]


def _random_strips_task(seed: int):
    rng = random.Random(seed)
    builder = TaskBuilder()
    facts = [builder.fact(f"(p{i})", initially_true=(i == 0))
             for i in range(rng.randint(3, 5))]
    for index in range(rng.randint(3, 6)):
        pre = [f for f in facts if rng.random() < 0.35]
        add = [f for f in facts if rng.random() < 0.35]
        if not add:
            add = [rng.choice(facts)]
        builder.action(f"a{index}", pre=pre, add=add)
    goal = [f for f in facts if rng.random() < 0.4] or [facts[-1]]
    builder.goal(facts=goal)
    return builder.build()


def test_lp_extraction_degenerates_to_regression_on_strips_tasks():
    """With no numeric structure and goals kept out of the LP, the weighted
    extractor reduces to the classic one."""
    config = HeuristicConfig(include_prop_goals=False, include_landmarks=False,
                             include_numeric_goal_conjunct=False)
    agreements = 0
    for seed in range(30):
        task = _random_strips_task(seed)
        analysed = analyse(task)
        graph_lp = rpg.expand(analysed, task.initial, config, rpg.LPRPG)
        graph_ff = rpg.expand(analysed, task.initial, config, rpg.METRICFF)
        assert graph_lp.status == graph_ff.status
        if graph_lp.status != rpg.GOALS_REACHED:
            continue
        lp = extract.extract_lprpg(graph_lp, analysed, LandmarkView(), config)
        ff = extract.extract_metricff(graph_ff, task)
        assert lp.h == ff.h, f"seed {seed}"
        assert lp.helpful == ff.helpful, f"seed {seed}"
        agreements += 1
    assert agreements >= 10


def test_metricff_extraction_total_on_goals_reached():
    from microtasks import random_pc_task
    for seed in range(20):
        task = random_pc_task(seed)
        analysed = analyse(task)
        graph = rpg.expand(analysed, task.initial, HeuristicConfig(), rpg.METRICFF)
        if graph.status != rpg.GOALS_REACHED:
            continue
        result = extract.extract_metricff(graph, task)
        assert result.h is not None and result.h >= 0


# Evaluations, h-value sum and a digest of every computed evaluation's
# (h, sorted helpful, trace) plus the plan, over whole plan_task runs,
# recorded before the two extractors were merged into one skeleton. Any
# change to achiever choice, queue order, weights or helpful actions moves
# at least one of them.
_NO_LP_GOALS = dict(weight_scheme="hadd", include_prop_goals=False,
                    include_landmarks=False, include_all_propositions=False,
                    include_numeric_goal_conjunct=False)
PINNED_EXTRACTIONS = (
    ("metricff", "mini-settlers", 2, {}, 76, 214,
     "baf6cf922af0a6fedc0f6b9bf0362d9927e1da505c0a515b875ae338ee96d464"),
    ("metricff-sapa", "mini-settlers", 2, {}, 49, 156,
     "23ee6a204352eeca5263acd802497ccb5ef6370891cd9f84d4428d87f3821b99"),
    ("lprpg", "market-trader", 2, {}, 11, 52,
     "7ed36f58afcaa3dbcd9807146c0a4469b17e77b7d6b54c952a063f69b1af1787"),
    ("lprpg", "pump-catalyst", 3, {"include_all_propositions": True}, 5, 10,
     "5b2a047bc3dbdce2ef726f8dbe8f998850d4d0774b4904617d27e34b73a03e9b"),
    ("lprpg", "mini-settlers", 3, _NO_LP_GOALS, 28, 173,
     "db176acb06749a6765d9f4b9cc41cfc34ecf112023a735f1594b9a305452aeaa"),
)


@pytest.mark.parametrize(
    "mode,family,size,options,evaluations,h_sum,digest", PINNED_EXTRACTIONS,
    ids=["metricff-mini-settlers-2", "metricff-sapa-mini-settlers-2",
         "lprpg-market-trader-2", "lprpg-allprops-pump-catalyst-3",
         "lprpg-hadd-no-lp-goals-mini-settlers-3"])
def test_extraction_over_plan_task_is_pinned(monkeypatch, mode, family, size, options,
                                             evaluations, h_sum, digest):
    from flowplan import generators, planner

    records: list[str] = []
    hs: list[Fraction] = []
    real_call = planner.Evaluator.__call__

    def recording_call(self, state, achieved=frozenset()):
        result = real_call(self, state, achieved)
        hs.append(result.h or Fraction(0))
        records.append(repr((str(result.h), sorted(result.helpful),
                             tuple((a, str(c), layer, str(w))
                                   for a, c, layer, w in result.trace))))
        return result

    monkeypatch.setattr(planner.Evaluator, "__call__", recording_call)
    config = HeuristicConfig(**options)
    if mode == planner.MODE_LPRPG:
        assert config.uses_goal_check() == (options is not _NO_LP_GOALS)
    task = model.parse_and_ground(*generators.generate(family, size, 1))
    outcome = planner.plan_task(task, mode=mode, config=config)
    assert outcome.status == "solved"
    records.append(repr(outcome.plan))
    assert (len(hs), sum(hs)) == (evaluations, h_sum)
    assert hashlib.sha256("\n".join(records).encode()).hexdigest() == digest


def _numbers(obj):
    """Every number in a nest of dataclasses, tuples, lists, sets and dicts."""
    if isinstance(obj, (int, float, Fraction)) and not isinstance(obj, bool):
        yield obj
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _numbers(getattr(obj, f.name))
    elif isinstance(obj, dict):
        for key, value in obj.items():
            yield from _numbers(key)
            yield from _numbers(value)
    elif isinstance(obj, (tuple, list, set, frozenset)):
        for item in obj:
            yield from _numbers(item)


@pytest.mark.parametrize(
    "mode,family,size,options", [run[:4] for run in PINNED_EXTRACTIONS],
    ids=["metricff-mini-settlers-2", "metricff-sapa-mini-settlers-2",
         "lprpg-market-trader-2", "lprpg-allprops-pump-catalyst-3",
         "lprpg-hadd-no-lp-goals-mini-settlers-3"])
def test_pinned_runs_never_compute_a_float(monkeypatch, mode, family, size, options):
    """`int / int` is a float: states, every RPG interval layer, h, trace
    counts and weights, and solver values stay int or Fraction."""
    from flowplan import generators, mpsolver, planner

    floats: list[str] = []

    def check(where, obj):
        floats.extend(f"{where}: {x!r}" for x in _numbers(obj) if isinstance(x, float))

    real_call = planner.Evaluator.__call__
    real_expand = rpg.expand
    real_solve = mpsolver.MPModel.solve

    def checking_call(self, state, achieved=frozenset()):
        result = real_call(self, state, achieved)
        check("state", state.values)
        check("h", result.h)
        check("trace", result.trace)
        return result

    def checking_expand(*args, **kwargs):
        graph = real_expand(*args, **kwargs)
        check("interval layers", graph.numeric_layers)
        return graph

    def checking_solve(self, reads=mpsolver.VERTEX):
        solution = real_solve(self, reads=reads)
        check("solution", (solution.objective, solution.values))
        return solution

    monkeypatch.setattr(planner.Evaluator, "__call__", checking_call)
    monkeypatch.setattr(rpg, "expand", checking_expand)
    monkeypatch.setattr(mpsolver.MPModel, "solve", checking_solve)
    task = model.parse_and_ground(*generators.generate(family, size, 1))
    outcome = planner.plan_task(task, mode=mode, config=HeuristicConfig(**options))
    assert outcome.status == "solved"
    check("analysed task", outcome.analysed)
    assert floats == []


def test_ground_task_holds_no_integral_fraction():
    """Grounding and analysis give an int wherever a value is integral, which
    keeps the interval heuristic off Fraction arithmetic on integer data."""
    from flowplan import generators

    task = model.parse_and_ground(*generators.generate("mini-settlers", 3, 1))
    analysed = analyse(task)
    numbers = list(_numbers(task)) + list(_numbers(analysed))
    assert numbers and not [x for x in numbers
                            if isinstance(x, Fraction) and x.denominator == 1]
    assert not [x for x in numbers if isinstance(x, float)]


@pytest.mark.parametrize("family,size", [("market-trader", 2), ("mini-settlers", 2),
                                         ("pump-catalyst", 3)])
def test_final_layer_extraction_starts_from_the_goal_check(monkeypatch, family, size):
    """A feasible goal check ends the expansion and leaves the goal rows in
    the flow model and its final simplex live. The extraction's solve at
    that layer adds no row to the model, and its root is warm from the
    check's basis, with no artificial; the rows are closed afterwards. The
    result is that of an extraction whose rows `lp_bounds` closed first,
    which adds them again."""
    from flowplan import generators
    from flowplan import mpsolver as mp

    task = model.parse_and_ground(*generators.generate(family, size, 1))
    analysed = analyse(task)
    config = HeuristicConfig()
    view = LandmarkView(analysed.landmarks.conjunctive, analysed.landmarks.disjunctive)
    state = analysed.task.initial
    graph = rpg.expand(analysed, state, config, rpg.LPRPG, landmarks=view)
    flow = graph.flow
    assert graph.status == rpg.GOALS_REACHED and flow.goal_rows_open
    rows = len(flow.model.constraints)
    assert len(flow.model._live.tableau) == rows  # the check's own simplex
    roots = []
    real_finish = mp._Simplex.finish

    def finish(self, artificial_cols, reads):
        roots.append((len(self.model.constraints), len(self.tableau), list(artificial_cols)))
        return real_finish(self, artificial_cols, reads)

    counters = flow.counters
    before = (counters.solves, counters.root_warm, counters.root_cold)
    monkeypatch.setattr(mp._Simplex, "finish", finish)
    result = extract.extract_lprpg(graph, analysed, view, config)
    monkeypatch.undo()
    assert (counters.solves, counters.root_warm, counters.root_cold) == (
        before[0] + 1, before[1] + 1, before[2])
    assert roots == [(rows, rows, [])]
    assert not flow.goal_rows_open and len(flow.model.constraints) < rows

    again = rpg.expand(analysed, state, config, rpg.LPRPG, landmarks=view)
    again.lp_bounds(again.final_layer)
    assert not again.flow.goal_rows_open
    assert extract.extract_lprpg(again, analysed, view, config) == result
    assert again.flow.counters.root_cold > 0


def _fact_and_numeric_goal_task():
    """A cart that must reach b with a load of 2 or more: a goal fact, with
    a landmark on the way, and a numeric goal."""
    builder = TaskBuilder()
    at_a = builder.fact("(at a)", initially_true=True)
    at_m = builder.fact("(at m)")
    at_b = builder.fact("(at b)")
    load = builder.var("(load)", 0)
    builder.action("go-a-m", pre=[at_a], delete=[at_a], add=[at_m])
    builder.action("go-m-b", pre=[at_m], delete=[at_m], add=[at_b])
    builder.action("fill", pre=[at_a], num_pre=[builder.condition({load: 1}, LE, 5)],
                   effects=[(load, "increase", 1)])
    builder.goal(facts=[at_b], conditions=[builder.condition({load: 1}, GE, 2)])
    return builder.build()


@pytest.mark.parametrize("family,size", [("market-trader", 2), ("mini-settlers", 2),
                                         ("pump-catalyst", 3), ("cart", 0)])
def test_integrality_sets_are_those_of_a_scan_of_every_action(monkeypatch, family, size):
    """The goal achievers and numeric-goal affectors an extraction hands to
    `apply_integrality`, read from per-task sets, are the in-graph actions
    that add an open goal or landmark fact and those that change a variable
    of a numeric goal, as a scan of every action finds them."""
    from flowplan import generators, planner
    from flowplan.lpmodel import INTS_ALL, FlowModel

    seen = []
    real_apply, real_extract = FlowModel.apply_integrality, extract.extract_lprpg

    def apply_integrality(self, config, first_layer_ids, achievers, affectors):
        seen[-1][-1].append((achievers, affectors))
        return real_apply(self, config, first_layer_ids, achievers, affectors)

    def extract_lprpg(graph, analysed, landmarks, config):
        seen.append((graph, analysed, landmarks, []))
        return real_extract(graph, analysed, landmarks, config)

    monkeypatch.setattr(FlowModel, "apply_integrality", apply_integrality)
    monkeypatch.setattr(extract, "extract_lprpg", extract_lprpg)
    if family == "cart":
        task = _fact_and_numeric_goal_task()
    else:
        task = model.parse_and_ground(*generators.generate(family, size, 1))
    outcome = planner.plan_task(task, mode=planner.MODE_LPRPG,
                                config=HeuristicConfig(integrality=INTS_ALL))
    assert outcome.status == "solved" and seen
    found = [0, 0]
    for graph, analysed, landmarks, calls in seen:
        task = analysed.task
        in_graph = graph.first_action_layer
        targets = (task.goal_facts | set(landmarks.conjunctive)
                   | {fact for group in landmarks.disjunctive for fact in group}) \
            - graph.state.facts
        goal_vars = {var for cond in task.goal_conditions for var, _ in cond.expr.terms}
        achievers = frozenset(a.id for a in task.actions
                              if a.id in in_graph and a.add_effects & targets)
        affectors = frozenset(
            a.id for a in task.actions if a.id in in_graph and any(
                analysed.classification.delta_of(a.id, var) != 0 for var in goal_vars))
        assert calls and all(call == (achievers, affectors) for call in calls)
        found[0] += bool(achievers)
        found[1] += bool(affectors)
    assert found[1] and (found[0] or not task.goal_facts), found
