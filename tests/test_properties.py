"""Property-based tests (hypothesis; skipped where it is not installed).

Interval arithmetic gives equal values, with equal `str`, whether its
inputs are all `Fraction` or normalised by `model.exact` (an int where
the value is integral), and the normalised run never yields a float.
`model.divide` agrees with Fraction division in value and type.
`rpg.expand` builds the same graph as the scanning reference in
`oracles.expand_by_scanning`. The per-task flow model, which holds every
action's column from the start, answers every query as the per-state
models in `oracles` do, the one built from compiled columns and the
cell-by-cell one, layer by layer and over a sequence of states served by
one model. Every bound query of an LP-mode expansion,
warm from the live simplex or cold, returns what a cold solve returns, and
so does every goal check and extraction solve, roots warm from a copy of
the live simplex among them; a goal check under the all-propositions
encoding, a feasibility search, also leaves its model as it found it.
Whole planner runs in every heuristic mode emit only plans that validate,
and never report a dead end at a root that breadth-first search solves.
"""

from fractions import Fraction

import pytest

from flowplan import extract, model, planner, rpg, search
from flowplan import mpsolver as mp
from flowplan.analysis import AnalysedTask, LandmarkSet, analyse, classify
from flowplan.lpmodel import FlowModel, HeuristicConfig, LandmarkView, layer_weights
from flowplan.model import GE, GT, LE, LT, EQ, LinearExpr, exact

from bruteforce import optimal_plan
from coldsolve import cold_vertex, model_state, status_and_objective
from microtasks import magnitude_reader_task
from flowcheck import begun_flow
from oracles import (
    CellFlowModel, StateFlowModel, expand_by_scanning, replay_flow_layers, state_flow,
)
from taskbuild import TaskBuilder

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

N_VARS = 3
number = st.one_of(st.integers(-20, 20).map(Fraction),
                   st.fractions(-20, 20, max_denominator=6))
bound = st.one_of(st.none(), number)


@st.composite
def interval(draw):
    lo, hi = draw(bound), draw(bound)
    if lo is not None and hi is not None and lo > hi:
        lo, hi = hi, lo
    return lo, hi


@st.composite
def linear_expr(draw):
    weights = draw(st.dictionaries(st.integers(0, N_VARS - 1),
                                   number.filter(lambda w: w != 0), max_size=N_VARS))
    return weights, draw(number)


def _normalise(x):
    """x with every number in it replaced by its `exact` form."""
    if isinstance(x, Fraction):
        return exact(x)
    if isinstance(x, tuple):
        return tuple(_normalise(y) for y in x)
    if isinstance(x, list):
        return [_normalise(y) for y in x]
    if isinstance(x, dict):
        return {k: _normalise(v) for k, v in x.items()}
    return x


def _flat(x):
    if isinstance(x, (tuple, list)):
        for y in x:
            yield from _flat(y)
    else:
        yield x


def _same(fraction_result, exact_result):
    assert fraction_result == exact_result
    flat_f, flat_e = list(_flat(fraction_result)), list(_flat(exact_result))
    assert [str(v) for v in flat_f] == [str(v) for v in flat_e]
    assert not any(isinstance(v, float) for v in flat_e)


def _interval_step(task, intervals, unbounded):
    """`rpg`'s interval step over every action and every variable of `task`."""
    effects = rpg._LayerEffects(AnalysedTask(task, classify(task), (), LandmarkSet((), ())))
    effects.join(range(len(task.actions)), ())
    return effects.step(range(N_VARS), intervals, unbounded)[0]


def _task(effects):
    """A task with one action per (variable, op, (weights, constant)) effect."""
    actions = tuple(
        model.GroundAction(i, f"(a{i})", frozenset(), (), frozenset(), frozenset(),
                           (model.NumericEffect(var, op, LinearExpr.build(*magnitude)),))
        for i, (var, op, magnitude) in enumerate(effects))
    return model.GroundTask((), tuple(f"(v{i})" for i in range(N_VARS)), actions,
                            model.State(frozenset(), (0,) * N_VARS), frozenset(), ())


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(st.data())
def test_interval_arithmetic_agrees_on_fraction_and_exact_inputs(data):
    weights, constant = data.draw(linear_expr())
    values = tuple(data.draw(number) for _ in range(N_VARS))
    intervals = [data.draw(interval()) for _ in range(N_VARS)]
    op = data.draw(st.sampled_from((GE, GT, LE, LT, EQ)))
    rhs = data.draw(number)
    effects = data.draw(st.lists(
        st.tuples(st.integers(0, N_VARS - 1),
                  st.sampled_from(("increase", "decrease", "assign")),
                  linear_expr()),
        max_size=4))
    unbounded = data.draw(st.booleans())

    def run(norm):
        expr = LinearExpr.build(norm(weights), norm(constant))
        ivals = norm(intervals)
        lo, hi = rpg.expr_range(expr, ivals)
        return (expr.evaluate(norm(values)), (lo, hi),
                rpg.range_satisfies(lo, hi, op, norm(rhs)),
                _interval_step(_task(norm(effects)), ivals, unbounded))

    fraction_results = run(lambda x: x)
    exact_results = run(_normalise)
    for f_result, e_result in zip(fraction_results, exact_results):
        _same(f_result, e_result)


# -- model.divide ------------------------------------------------------------------

divide_operand = st.one_of(st.integers(-60, 60), st.fractions(-20, 20, max_denominator=6))


@hypothesis.settings(max_examples=400, deadline=None)
@hypothesis.given(divide_operand, divide_operand.filter(lambda b: b != 0))
def test_divide_matches_fraction_division(a, b):
    """The int fast path gives the value and the type of the Fraction path."""
    quotient = model.divide(a, b)
    expected = exact(Fraction(a) / b)
    assert quotient == expected
    assert type(quotient) is type(expected)


# -- rpg.expand against the scanning reference -----------------------------------------

N_FACTS = 4
small = st.one_of(st.integers(-3, 5), st.fractions(-3, 5, max_denominator=3))
far = st.one_of(st.integers(-12, 12), st.fractions(-12, 12, max_denominator=3))


@st.composite
def condition(draw, task_builder, variables, rhs=small):
    over = draw(st.lists(st.sampled_from(variables), min_size=1, max_size=2, unique=True))
    weights = {var: draw(st.sampled_from((1, 2, -1, Fraction(1, 2)))) for var in over}
    op = draw(st.sampled_from((GE, GT, LE, LT, EQ)))
    return task_builder.condition(weights, op, draw(rhs))


@st.composite
def small_task(draw):
    """A small TaskBuilder task: increase, decrease and assign effects,
    magnitudes that read another variable, and equality conditions."""
    task_builder = TaskBuilder()
    facts = [task_builder.fact(f"(p{i})", initially_true=draw(st.booleans()))
             for i in range(N_FACTS)]
    variables = [task_builder.var(f"(v{i})", draw(small)) for i in range(N_VARS)]
    fact_sets = st.lists(st.sampled_from(facts), max_size=2, unique=True)
    for index in range(draw(st.integers(2, 6))):
        effects = []
        for var in draw(st.lists(st.sampled_from(variables), max_size=2, unique=True)):
            op = draw(st.sampled_from(("increase", "decrease", "assign")))
            if draw(st.booleans()):
                magnitude = draw(small)
            else:
                reads = draw(st.sampled_from(variables))
                magnitude = ({reads: draw(st.sampled_from((1, -1, 2)))}, draw(small))
            effects.append((var, op, magnitude))
        task_builder.action(
            f"a{index}", pre=draw(st.lists(st.sampled_from(facts), max_size=1)),
            add=draw(fact_sets), delete=draw(fact_sets),
            num_pre=draw(st.lists(condition(task_builder, variables), max_size=2)),
            effects=effects)
    # goals several layers away keep the graph growing, often to stagnation
    task_builder.goal(facts=draw(fact_sets),
                      conditions=draw(st.lists(condition(task_builder, variables, far),
                                               min_size=1, max_size=3)))
    return task_builder.build()


@st.composite
def chained_task(draw):
    """A small TaskBuilder task whose actions need facts that the initial
    state, which holds p0 only, lacks, and add them for one another. Under
    the all-propositions encoding its goal checks get binary fact columns
    tied to the action counts by big-M rows."""
    task_builder = TaskBuilder()
    facts = [task_builder.fact(f"(p{i})", initially_true=i == 0) for i in range(N_FACTS)]
    variables = [task_builder.var(f"(v{i})", draw(small)) for i in range(N_VARS)]
    some_facts = st.lists(st.sampled_from(facts[1:]), min_size=1, max_size=2, unique=True)
    for index in range(draw(st.integers(2, 6))):
        effects = [(var, draw(st.sampled_from(("increase", "decrease"))), draw(small))
                   for var in draw(st.lists(st.sampled_from(variables), max_size=2,
                                            unique=True))]
        # a precondition that holds throughout makes its variable tracked,
        # so that bound queries bring up the live simplex
        loose = [task_builder.condition({draw(st.sampled_from(variables)): 1}, GE, -30)]
        task_builder.action(f"a{index}", pre=[draw(st.sampled_from(facts))],
                            num_pre=loose if draw(st.booleans()) else [],
                            add=draw(some_facts), effects=effects)
    task_builder.goal(facts=draw(some_facts))
    return task_builder.build()


def _graph_record(graph):
    return (graph.status, graph.final_layer, graph.fact_layers, graph.numeric_layers,
            graph.action_layers, graph.first_fact_layer, graph.first_action_layer,
            graph.condition_first_by_id)


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(small_task(), st.data())
def test_expand_matches_scanning_reference(task, data):
    """Counters and changed-variable re-tests give the same graph as
    rescanning every action, condition and effect per layer, in all three
    modes and from the initial or an arbitrary state."""
    analysed = analyse(task, with_landmarks=False)
    state = analysed.task.initial
    if data.draw(st.booleans()):
        facts = data.draw(st.frozensets(st.integers(0, N_FACTS - 1)))
        state = model.State(facts, tuple(exact(data.draw(small)) for _ in range(N_VARS)))
    config = HeuristicConfig(max_layers=data.draw(st.integers(1, 15)))
    for mode in (rpg.METRICFF, rpg.METRICFF_UNBOUNDED, rpg.LPRPG):
        counters, reference_counters = mp.Counters(), mp.Counters()
        graph = rpg.expand(analysed, state, config, mode, counters)
        reference = expand_by_scanning(analysed, state, config, mode, reference_counters)
        assert _graph_record(graph) == _graph_record(reference), mode
        assert counters.solves == reference_counters.solves, mode


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(small_task(), st.data())
def test_bound_queries_equal_cold_solves(task, data):
    """Each objective-only solve of an LP-mode expansion, from the initial or
    an arbitrary state, has the status and objective, types included, of a
    cold solve of the same model."""
    analysed = analyse(task, with_landmarks=False)
    state = analysed.task.initial
    if data.draw(st.booleans()):
        facts = data.draw(st.frozensets(st.integers(0, N_FACTS - 1)))
        state = model.State(facts, tuple(exact(data.draw(small)) for _ in range(N_VARS)))
    config = HeuristicConfig(max_layers=data.draw(st.integers(1, 15)))
    real_solve = mp.MPModel.solve
    mismatches = []

    def checked_solve(self, reads=mp.VERTEX):
        solution = real_solve(self, reads=reads)
        if reads == mp.OBJECTIVE:
            key = [status_and_objective(s) for s in (solution, cold_vertex(self))]
            if key[0] != key[1]:
                mismatches.append(key)
        return solution

    mp.MPModel.solve = checked_solve
    try:
        graph = rpg.expand(analysed, state, config, rpg.LPRPG)
        if graph.flow is not None:
            graph.lp_bounds(graph.final_layer)
    finally:
        mp.MPModel.solve = real_solve
    assert mismatches == []


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(small_task(), st.data())
def test_goal_checks_and_extraction_roots_equal_cold_solves(task, data):
    """Each status or vertex solve of an LP-mode expansion and of its
    extraction, from the initial or an arbitrary state, with or without the
    all-propositions encoding, has the status, and for a vertex read the
    objective and values, types included, of a cold solve of the same
    model: goal checks and extraction roots warm from the live simplex
    among them. The expansion skips the bound queries it cannot need, so
    its goal checks often find no live simplex; a second flow model over
    the graph's layers asks one query per tracked variable at each layer
    before its goal check and extraction-like solve."""
    analysed = analyse(task, with_landmarks=False)
    state = analysed.task.initial
    if data.draw(st.booleans()):
        facts = data.draw(st.frozensets(st.integers(0, N_FACTS - 1)))
        state = model.State(facts, tuple(exact(data.draw(small)) for _ in range(N_VARS)))
    config = HeuristicConfig(max_layers=data.draw(st.integers(1, 15)),
                             include_all_propositions=data.draw(st.booleans()))
    real_solve = mp.MPModel.solve
    mismatches = []

    def key(solution, reads):
        if reads == mp.STATUS:
            return status_and_objective(solution)
        return (solution.status, solution.objective, type(solution.objective),
                solution.values, tuple(map(type, solution.values)))

    def checked_solve(self, reads=mp.VERTEX):
        solution = real_solve(self, reads=reads)
        if reads != mp.OBJECTIVE:
            got, cold = key(solution, reads), key(cold_vertex(self), reads)
            if got != cold:
                mismatches.append((got, cold))
        return solution

    mp.MPModel.solve = checked_solve
    try:
        graph = rpg.expand(analysed, state, config, rpg.LPRPG)
        if graph.status == rpg.GOALS_REACHED:
            extract.extract_lprpg(graph, analysed, LandmarkView(), config)
        _replay_layers(graph, analysed, state, config, data, extraction=True)
    finally:
        mp.MPModel.solve = real_solve
    assert mismatches == []


def _replay_layers(graph, analysed, state, config, data, extraction):
    """A second flow model over the layers of an LP-mode `graph`: at each
    layer one bound query per tracked variable, which brings up the live
    simplex, then a goal check and, with `extraction`, an extraction-like
    vertex solve."""
    if graph.flow is None:
        return
    flow = begun_flow(analysed, state)
    weights = layer_weights(config, graph.first_action_layer, None)
    first_layer = graph.actions_at(1)
    for actions in graph.action_layers:
        flow.extend(actions)
        for var in sorted(flow.tracked):
            flow.query_bound(var, data.draw(st.sampled_from(("min", "max"))), None)
        flow.model.push_scratch()
        flow.add_goal_constraints(config, LandmarkView(), actions)
        flow.feasible()
        if extraction:
            flow.apply_integrality(config, first_layer, frozenset(), frozenset())
            flow.set_action_objective(weights)
            flow.model.solve()
        flow.model.pop_scratch()


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(small_task(), st.data())
def test_compiled_columns_build_the_cell_by_cell_model(task, data):
    """Over the layers of an LP-mode expansion, from the initial or an
    arbitrary state, with or without the all-propositions encoding, the
    per-task flow model, its columns compiled and pinned until they join,
    returns the bound queries, goal checks and extraction-like vertices, by
    column name, of the per-state models, the one built from compiled
    columns and the cell-by-cell one."""
    analysed = analyse(task, with_landmarks=False)
    state = analysed.task.initial
    if data.draw(st.booleans()):
        facts = data.draw(st.frozensets(st.integers(0, N_FACTS - 1)))
        state = model.State(facts, tuple(exact(data.draw(small)) for _ in range(N_VARS)))
    config = HeuristicConfig(max_layers=data.draw(st.integers(1, 15)),
                             include_all_propositions=data.draw(st.booleans()))
    graph = rpg.expand(analysed, state, config, rpg.LPRPG)
    if graph.flow is None:
        return
    replay = (config, graph.action_layers,
              layer_weights(config, graph.first_action_layer, None), graph.actions_at(1))
    records = replay_flow_layers(begun_flow(analysed, state), *replay)
    for reference in (StateFlowModel, CellFlowModel):
        assert records == replay_flow_layers(state_flow(reference, analysed, state), *replay)


@st.composite
def anchored_task(draw):
    """A small TaskBuilder task with a one-shot set (p0 holds initially, two
    actions need and delete it, none adds it) and a catalytic variable v
    with a simple producer and no consumer, read at thresholds by actions
    that do not change it: it has neither a lower nor an upper bound, so
    each of its switch rows is anchored at the evaluated state's value."""
    task_builder = TaskBuilder()
    p0 = task_builder.fact("(p0)", initially_true=True)
    p1 = task_builder.fact("(p1)", initially_true=draw(st.booleans()))
    v = task_builder.var("(v)", draw(small))
    w = task_builder.var("(w)", draw(small))
    out = task_builder.var("(out)", 0)
    task_builder.action("make", pre=draw(st.lists(st.just(p1), max_size=1)),
                        effects=[(v, "increase", draw(st.sampled_from((1, 2, Fraction(3, 2)))))])
    readers = draw(st.lists(st.sampled_from((GE, LE)), min_size=1, max_size=2))
    for index, op in enumerate(readers):
        task_builder.action(f"use{index}",
                            num_pre=[task_builder.condition({v: 1}, op, draw(small))],
                            effects=[(out, "increase", 1)])
    for index in range(2):
        task_builder.action(f"shot{index}", pre=[p0], delete=[p0], add=[p1],
                            effects=[(w, "increase", draw(st.sampled_from((1, 3)))),
                                     (out, "increase", 1)])
    task_builder.goal(conditions=[task_builder.condition({out: 1}, GE, draw(st.integers(1, 3))),
                                  task_builder.condition({w: 1}, GE, draw(far))])
    return task_builder.build()


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(st.one_of(small_task(), anchored_task()), st.data())
def test_one_flow_model_over_a_sequence_of_states(task, data):
    """One per-task flow model serves a sequence of states, each a scratch
    scope from `begin` to `end`: over the layers of each state's expansion
    it returns the bound queries, goal checks and extraction-like vertices,
    by column name, of a per-state model built afresh for that state, and
    each `end` leaves the model as built."""
    analysed = analyse(task, with_landmarks=False)
    n_facts, n_vars = len(analysed.task.fact_names), len(analysed.task.var_names)
    states = [analysed.task.initial] + [
        model.State(data.draw(st.frozensets(st.integers(0, n_facts - 1))),
                    tuple(exact(data.draw(small)) for _ in range(n_vars)))
        for _ in range(data.draw(st.integers(1, 3)))]
    config = HeuristicConfig(max_layers=data.draw(st.integers(1, 15)),
                             include_all_propositions=data.draw(st.booleans()))
    flow = FlowModel(analysed)
    base = (len(flow.model._undo), list(flow.model.order))
    for state in data.draw(st.permutations(states)):
        graph = rpg.expand(analysed, state, config, rpg.LPRPG)
        replay = (config, graph.action_layers,
                  layer_weights(config, graph.first_action_layer, None), graph.actions_at(1))
        flow.begin(state)
        try:
            records = replay_flow_layers(flow, *replay)
        finally:
            flow.end()
        assert (len(flow.model._undo), flow.model.order, flow.model._marks) == (*base, [])
        assert records == replay_flow_layers(state_flow(StateFlowModel, analysed, state),
                                             *replay)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(chained_task(), st.data())
def test_goal_check_searches_equal_cold_solves(task, data):
    """Under the all-propositions encoding the fact columns are binary, so a
    goal check is a status read of a MIP under the empty objective, which
    `MPModel.solve` runs as a feasibility search under a cost of its own;
    over chained tasks its root is often fractional and the search
    branches. Each one, in an expansion and in a replay of its layers that
    brings up the live simplex first, returns the status and objective of
    a cold vertex solve, and leaves the model's objective, undo log and
    live simplex as they were."""
    analysed = analyse(task, with_landmarks=False)
    state = analysed.task.initial
    if data.draw(st.booleans()):
        facts = data.draw(st.frozensets(st.integers(0, N_FACTS - 1)))
        state = model.State(facts, tuple(exact(data.draw(small)) for _ in range(N_VARS)))
    config = HeuristicConfig(max_layers=data.draw(st.integers(1, 15)),
                             include_all_propositions=True)
    real_solve = mp.MPModel.solve
    mismatches = []

    def checked_solve(self, reads=mp.VERTEX):
        if reads != mp.STATUS:
            return real_solve(self, reads=reads)
        before = model_state(self)
        solution = real_solve(self, reads=reads)
        if model_state(self) != before:
            mismatches.append("model state changed")
        got, cold = status_and_objective(solution), status_and_objective(cold_vertex(self))
        if got != cold:
            mismatches.append((got, cold))
        return solution

    mp.MPModel.solve = checked_solve
    try:
        graph = rpg.expand(analysed, state, config, rpg.LPRPG)
        _replay_layers(graph, analysed, state, config, data, extraction=False)
    finally:
        mp.MPModel.solve = real_solve
    assert mismatches == []


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(small_task())
@hypothesis.example(magnitude_reader_task())
def test_plans_validate_and_solvable_roots_are_no_dead_ends(task):
    """In every heuristic mode, an emitted plan passes `search.validate`, and
    a root that breadth-first search solves is never reported relaxed-
    unsolvable: that verdict prunes the whole task."""
    try:
        solvable = optimal_plan(task, max_depth=6, max_states=5_000) is not None
    except RuntimeError:  # state cap: unknown
        solvable = False
    for mode in planner.MODES:
        outcome = planner.plan_task(task, mode=mode, config=HeuristicConfig(max_layers=40),
                                    budget=search.Budget(200, 60))
        if outcome.plan is not None:
            report = search.validate(task, outcome.plan)
            assert report.ok, (mode, report.message)
        if solvable:
            assert outcome.status != search.UNSOLVABLE_AT_ROOT, mode
