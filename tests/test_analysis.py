"""Producer-consumer classification, one-shot sets, count bounds, assignment
rewriting, and landmark extraction."""

from fractions import Fraction

from flowplan import model
from flowplan.analysis import (
    CATALYTIC, NON_CONFORMING, PRODUCER_CONSUMER,
    analyse, classify, compute_count_bounds, detect_one_shot_sets,
    extract_landmarks, normalise_single, rewrite_assignments, split_equalities,
)
from flowplan.model import EQ, GE, LE, apply_effects, applicable

from bruteforce import all_plans, reachable_states
from microtasks import random_pc_task
from taskbuild import TaskBuilder


def test_simple_producer_classification():
    builder = TaskBuilder()
    timber = builder.var("(timber)", 0)
    cabin = builder.fact("(has-cabin)", initially_true=True)
    builder.action("fell", pre=[cabin], effects=[(timber, "increase", 1)])
    task = builder.build()
    cls = classify(task)
    assert cls.status[timber] == PRODUCER_CONSUMER
    assert cls.prod[timber] == [0]
    assert cls.ub[timber] is None
    assert cls.max_prod[(0, timber)] is None


def test_bounded_producer_max_prod():
    builder = TaskBuilder()
    v = builder.var("(v)", 0)
    builder.action("pump", num_pre=[builder.condition({v: 1}, LE, 8)],
                   effects=[(v, "increase", 2)])
    task = builder.build()
    cls = classify(task)
    assert cls.status[v] == PRODUCER_CONSUMER
    assert cls.ub[v] == 10
    assert cls.max_prod[(0, v)] == 10


def test_state_dependent_magnitude_is_non_conforming():
    builder = TaskBuilder()
    v = builder.var("(v)", 0)
    w = builder.var("(w)", 1)
    builder.action("scale", effects=[(v, "increase", ({w: 2}, 0))])
    task = builder.build()
    cls = classify(task)
    assert cls.status[v] == NON_CONFORMING
    assert "magnitude" in cls.reasons[v]


def test_consumer_without_guard_is_non_conforming():
    builder = TaskBuilder()
    v = builder.var("(v)", 5)
    builder.action("leak", effects=[(v, "decrease", 1)])
    cls = classify(builder.build())
    assert cls.status[v] == NON_CONFORMING


def test_disagreeing_consumer_bounds_are_non_conforming():
    builder = TaskBuilder()
    v = builder.var("(v)", 5)
    builder.action("a", num_pre=[builder.condition({v: 1}, GE, 1)],
                   effects=[(v, "decrease", 1)])
    builder.action("b", num_pre=[builder.condition({v: 1}, GE, 5)],
                   effects=[(v, "decrease", 1)])
    cls = classify(builder.build())
    assert cls.status[v] == NON_CONFORMING
    assert "lower bound" in cls.reasons[v]


def test_catalytic_reader_marks_variable_catalytic():
    builder = TaskBuilder()
    v = builder.var("(v)", 0)
    out = builder.var("(out)", 0)
    builder.action("make", effects=[(v, "increase", 1)])
    builder.action("use", num_pre=[builder.condition({v: 1}, GE, 3)],
                   effects=[(out, "increase", 1)])
    cls = classify(builder.build())
    assert cls.status[v] == CATALYTIC
    assert len(cls.catalytic_groups) == 1
    group = cls.catalytic_groups[0]
    assert group.variable == v and group.op == GE and group.threshold == 3


# -- one-shot sets -------------------------------------------------------------


def test_single_action_one_shot_set():
    builder = TaskBuilder()
    p = builder.fact("(site-free)", initially_true=True)
    builder.action("build", pre=[p], delete=[p])
    sets = detect_one_shot_sets(builder.build())
    assert len(sets) == 1
    assert sets[0].actions == (0,)


def test_two_variants_share_a_one_shot_fact_and_at_most_one_fires():
    builder = TaskBuilder()
    p = builder.fact("(site-free)", initially_true=True)
    cabin = builder.fact("(cabin)")
    lodge = builder.fact("(lodge)")
    builder.action("build-cabin", pre=[p], delete=[p], add=[cabin])
    builder.action("build-lodge", pre=[p], delete=[p], add=[lodge])
    task = builder.build()
    sets = detect_one_shot_sets(task)
    assert len(sets) == 1 and sets[0].actions == (0, 1)
    # exhaustive check: no reachable state sequence fires both members
    for state in reachable_states(task):
        fired_both = cabin in state.facts and lodge in state.facts
        assert not fired_both


def test_readded_fact_is_not_one_shot():
    builder = TaskBuilder()
    p = builder.fact("(p)", initially_true=True)
    builder.action("use", pre=[p], delete=[p])
    builder.action("restore", add=[p])
    assert detect_one_shot_sets(builder.build()) == []


# -- count bounds ---------------------------------------------------------------


def test_count_bound_from_producerless_consumption():
    builder = TaskBuilder()
    w = builder.var("(w)", 6)
    v = builder.var("(v)", 0)
    builder.action("convert", num_pre=[builder.condition({w: 1}, GE, 2)],
                   effects=[(w, "decrease", 2), (v, "increase", 1)])
    task = builder.build()
    cls = compute_count_bounds(task, classify(task))
    assert cls.count_bound[0] == 3


def test_one_shot_membership_caps_count_at_one():
    builder = TaskBuilder()
    p = builder.fact("(p)", initially_true=True)
    builder.action("once", pre=[p], delete=[p])
    task = builder.build()
    cls = compute_count_bounds(task, classify(task))
    assert cls.count_bound[0] == 1


def test_producible_consumption_keeps_cap():
    builder = TaskBuilder()
    v = builder.var("(v)", 1)
    builder.action("refill", effects=[(v, "increase", 1)])
    builder.action("use", num_pre=[builder.condition({v: 1}, GE, 1)],
                   effects=[(v, "decrease", 1)])
    task = builder.build()
    cap = Fraction(1_000_000)
    cls = compute_count_bounds(task, classify(task), cap=cap)
    assert cls.count_bound[1] == cap


# -- assignment rewriting --------------------------------------------------------


def _gated_assignment_task():
    builder = TaskBuilder()
    space = builder.var("(space cart)", 0)
    site = builder.fact("(site-free)", initially_true=True)
    exists = builder.fact("(cart-exists)")
    builder.action("build-cart", pre=[site], delete=[site], add=[exists],
                   effects=[(space, "assign", 1)])
    builder.action("load", pre=[exists],
                   num_pre=[builder.condition({space: 1}, GE, 1)],
                   effects=[(space, "decrease", 1)])
    return builder, space


def test_gated_assignment_rewritten_to_increase():
    builder, space = _gated_assignment_task()
    task = builder.build()
    cls = classify(task)
    rewritten = rewrite_assignments(task, cls)
    effect = rewritten.actions[0].numeric_effects[0]
    assert effect.op == "increase" and effect.magnitude.constant == 1
    assert rewritten.assignment_rewritten == {0}
    final = classify(rewritten)
    assert final.status[space] == PRODUCER_CONSUMER


def test_freely_readable_assignment_is_non_conforming():
    builder = TaskBuilder()
    v = builder.var("(v)", 0)
    out = builder.var("(out)", 0)
    builder.action("set", effects=[(v, "assign", 5)])
    builder.action("peek", num_pre=[builder.condition({v: 1}, GE, 1)],
                   effects=[(out, "increase", 1)])
    task = builder.build()
    cls = classify(task)
    rewritten = rewrite_assignments(task, cls)
    assert cls.status[v] == NON_CONFORMING
    assert any(e.op == "assign" for a in rewritten.actions
               for e in a.numeric_effects)


def test_noop_assignment_becomes_increase_zero():
    builder = TaskBuilder()
    v = builder.var("(v)", 4)
    builder.action("reaffirm", effects=[(v, "assign", 4)])
    task = builder.build()
    rewritten = rewrite_assignments(task, classify(task))
    effect = rewritten.actions[0].numeric_effects[0]
    assert effect.op == "increase" and effect.magnitude.constant == 0
    assert classify(rewritten).status[v] == PRODUCER_CONSUMER


def test_assignment_rewrite_preserves_plans():
    builder, space = _gated_assignment_task()
    builder.goal(conditions=[builder.condition({space: 1}, GE, 1)])
    task = builder.build()
    rewritten = rewrite_assignments(task, classify(task))
    before = {tuple(p) for p in all_plans(task, 4)}
    after = {tuple(p) for p in all_plans(rewritten, 4)}
    assert before == after and before


# -- landmarks -------------------------------------------------------------------


def test_single_achiever_chain_gives_both_landmarks():
    builder = TaskBuilder()
    p = builder.fact("(p)")
    g = builder.fact("(g)")
    start = builder.fact("(start)", initially_true=True)
    builder.action("prep", pre=[start], add=[p])
    builder.action("finish", pre=[p], add=[g])
    builder.goal(facts=[g])
    task = builder.build()
    lm = extract_landmarks(task, task.initial)
    assert set(lm.conjunctive) == {g, p}


def test_goal_true_in_state_not_a_landmark():
    builder = TaskBuilder()
    g = builder.fact("(g)", initially_true=True)
    builder.goal(facts=[g])
    task = builder.build()
    lm = extract_landmarks(task, task.initial)
    assert lm.conjunctive == ()


def test_package_in_some_truck_disjunctive_landmark():
    builder = TaskBuilder()
    in_t1 = builder.fact("(in pkg t1)")
    in_t2 = builder.fact("(in pkg t2)")
    delivered = builder.fact("(delivered pkg)")
    at_depot = builder.fact("(at pkg depot)", initially_true=True)
    builder.action("load-t1", pre=[at_depot], add=[in_t1], delete=[at_depot])
    builder.action("load-t2", pre=[at_depot], add=[in_t2], delete=[at_depot])
    builder.action("deliver-t1", pre=[in_t1], add=[delivered])
    builder.action("deliver-t2", pre=[in_t2], add=[delivered])
    builder.goal(facts=[delivered])
    task = builder.build()
    lm = extract_landmarks(task, task.initial)
    assert delivered in lm.conjunctive
    assert frozenset({in_t1, in_t2}) in lm.disjunctive


def test_landmark_soundness_on_enumerable_tasks():
    for seed in range(25):
        task = random_pc_task(seed)
        lm = extract_landmarks(task, task.initial)
        plans = all_plans(task, 6)
        for plan in plans:
            seen = set(task.initial.facts)
            state = task.initial
            for action_id in plan:
                state = apply_effects(state, task.actions[action_id])
                seen |= state.facts
            for fact in lm.conjunctive:
                assert fact in seen, \
                    f"seed {seed}: landmark {task.fact_names[fact]} missed"
            for group in lm.disjunctive:
                assert group & seen, f"seed {seed}: disjunctive landmark missed"


def test_classification_soundness_on_reachable_states():
    for seed in range(20):
        task = random_pc_task(seed)
        cls = classify(task)
        if not cls.conforming():
            continue
        for state in reachable_states(task, max_states=3000):
            for action in task.actions:
                if not applicable(state, action):
                    continue
                nxt = apply_effects(state, action)
                for var in range(len(task.var_names)):
                    delta = cls.delta_of(action.id, var)
                    assert nxt.values[var] - state.values[var] == delta
            for var in range(len(task.var_names)):
                if cls.ub[var] is not None:
                    assert state.values[var] <= cls.ub[var]
                if cls.lb[var] is not None:
                    assert state.values[var] >= cls.lb[var]


def test_analyse_pipeline_runs_on_fixtures():
    from flowplan import fixtures
    for name in fixtures.FIXTURE_NAMES:
        dom, prob = fixtures.fixture(name)
        task = model.parse_and_ground(dom, prob)
        analysed = analyse(task)
        assert analysed.classification.conforming(), name


def _assert_subgoals_have_condition_ids(analysed):
    task = analysed.task
    pairs = [(analysed.action_subgoals[a.id], a.numeric_preconditions) for a in task.actions]
    pairs.append((analysed.goal_subgoals, task.goal_conditions))
    for subgoals, conds in pairs:
        split = split_equalities(conds)
        assert len(subgoals) == len(split)
        for (cond_id, normalised), cond in zip(subgoals, split):
            assert type(cond_id) is int
            assert analysed.conditions[cond_id] == cond
            assert normalised == normalise_single(cond)


def test_equality_halves_get_condition_ids():
    """Each half of a split equality is a collected condition, once, after
    the conditions the task states; a half nobody states has no users and
    leaves the precondition counts alone."""
    builder = TaskBuilder()
    v = builder.var("(v)", 0)
    w = builder.var("(w)", 0)
    builder.action("up", effects=[(v, "increase", 1), (w, "increase", 1)])
    builder.action("use", num_pre=[builder.condition({v: 2}, EQ, 6),
                                   builder.condition({v: 1}, GE, 3)])
    builder.goal(conditions=[builder.condition({v: 1, w: -1}, EQ, 0),
                             builder.condition({v: 2}, EQ, 6)])
    task = builder.build()
    analysed = analyse(task)
    stated = 3  # 2v = 6, v >= 3 and v - w = 0
    assert len(analysed.conditions) == stated + 4
    assert len(set(analysed.conditions)) == len(analysed.conditions)
    assert [c.op for c in analysed.conditions[stated:]] == [GE, LE, GE, LE]
    assert all(not users for users in analysed.condition_users[stated:])
    assert analysed.precondition_counts == (0, 2)
    assert analysed.goal_condition_ids == (2, 0)
    _assert_subgoals_have_condition_ids(analysed)
