"""Grounding, LNF normalisation, strict-inequality rewriting, and semantics."""

import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from flowplan import model, pddl
from flowplan.errors import GroundingError, PreconditionError, UnsupportedConstructError
from flowplan.model import GE, GT, LE, State

from bruteforce import all_plans
from taskbuild import TaskBuilder

THREE_BINDINGS = """
(define (domain three)
  (:requirements :typing :fluents)
  (:types spot)
  (:predicates (free ?s - spot))
  (:functions (load ?s - spot))
  (:action occupy
    :parameters (?s - spot)
    :precondition (free ?s)
    :effect (and (not (free ?s)) (increase (load ?s) 1))))
"""


def _task(domain_text, problem_text):
    domain = pddl.parse_domain(domain_text)
    problem = pddl.parse_problem(problem_text, domain)
    return model.ground(domain, problem)


def test_three_type_consistent_bindings_give_three_ground_actions():
    task = _task(THREE_BINDINGS, """
    (define (problem p) (:domain three)
      (:objects s1 s2 s3 - spot)
      (:init (free s1) (free s2) (free s3)
             (= (load s1) 0) (= (load s2) 0) (= (load s3) 0))
      (:goal ()))
    """)
    assert len(task.actions) == 3
    assert [a.name for a in task.actions] == [
        "(occupy s1)", "(occupy s2)", "(occupy s3)"]


def test_condition_difference_normalises_to_signed_weights():
    task = _task("""
    (define (domain d) (:functions (x) (y))
      (:action a :parameters ()
        :precondition (>= (- (x) (y)) 2)
        :effect (and (increase (x) 1) (decrease (y) 1))))
    """, """
    (define (problem p) (:domain d)
      (:init (= (x) 0) (= (y) 0)) (:goal ()))
    """)
    cond = task.actions[0].numeric_preconditions[0]
    x, y = task.var_id("(x)"), task.var_id("(y)")
    assert dict(cond.expr.terms) == {x: Fraction(1), y: Fraction(-1)}
    assert cond.op == GE and cond.rhs == 2


def test_grounding_is_deterministic():
    problem = """
    (define (problem p) (:domain three)
      (:objects s2 s1 - spot)
      (:init (free s1) (free s2) (= (load s1) 0) (= (load s2) 0))
      (:goal (free s1)))
    """
    first = _task(THREE_BINDINGS, problem)
    second = _task(THREE_BINDINGS, problem)
    assert first.fact_names == second.fact_names
    assert first.var_names == second.var_names
    assert [a.name for a in first.actions] == [a.name for a in second.actions]


def test_product_of_fluents_rejected():
    with pytest.raises(UnsupportedConstructError):
        _task("""
        (define (domain d) (:functions (x) (y))
          (:action a :parameters ()
            :precondition (>= (* (x) (y)) 2)
            :effect (increase (x) 1)))
        """, "(define (problem p) (:domain d) (:init (= (x) 0) (= (y) 0)) (:goal ()))")


def test_constant_product_folds_into_weight():
    task = _task("""
    (define (domain d) (:functions (x))
      (:action a :parameters ()
        :precondition (>= (* 2 (x)) 3)
        :effect (increase (x) 1)))
    """, "(define (problem p) (:domain d) (:init (= (x) 0)) (:goal ()))")
    cond = task.actions[0].numeric_preconditions[0]
    assert dict(cond.expr.terms) == {0: Fraction(2)}
    assert cond.rhs == 3


def test_multiple_numeric_effects_on_one_variable_rejected():
    with pytest.raises(GroundingError):
        _task("""
        (define (domain d) (:functions (x))
          (:action a :parameters ()
            :precondition ()
            :effect (and (increase (x) 1) (decrease (x) 2))))
        """, "(define (problem p) (:domain d) (:init (= (x) 0)) (:goal ()))")


def test_action_cap_enforced():
    domain = pddl.parse_domain(THREE_BINDINGS)
    problem = pddl.parse_problem("""
    (define (problem p) (:domain three)
      (:objects s1 s2 s3 - spot)
      (:init (free s1) (free s2) (free s3)
             (= (load s1) 0) (= (load s2) 0) (= (load s3) 0))
      (:goal ()))
    """, domain)
    with pytest.raises(GroundingError):
        model.ground(domain, problem, action_cap=2)


def test_lnf_folding_matches_raw_evaluation_on_random_vectors():
    domain = pddl.parse_domain("""
    (define (domain d) (:functions (x) (y) (z))
      (:action a :parameters ()
        :precondition (>= (+ (* 2 (x)) (- (y) (/ (z) 4)) 1) 3)
        :effect (and (increase (x) 1) (increase (y) 1) (increase (z) 1))))
    """)
    problem = pddl.parse_problem(
        "(define (problem p) (:domain d) (:init (= (x) 0) (= (y) 0) (= (z) 0)) (:goal ()))",
        domain)
    task = model.ground(domain, problem)
    cond = task.actions[0].numeric_preconditions[0]
    x, y, z = task.var_id("(x)"), task.var_id("(y)"), task.var_id("(z)")
    rng = random.Random(42)
    for _ in range(100):
        values = [Fraction(rng.randint(-20, 20), rng.choice([1, 2, 4]))
                  for _ in range(3)]
        raw = 2 * values[x] + (values[y] - values[z] / 4) + 1 >= 3
        assert cond.holds(tuple(values)) == raw


# -- strict inequality rewriting ---------------------------------------------


def test_strict_on_integral_effects_becomes_geq_one():
    task = _task("""
    (define (domain d) (:functions (timber))
      (:action use :parameters ()
        :precondition (> (timber) 0)
        :effect (decrease (timber) 1)))
    """, "(define (problem p) (:domain d) (:init (= (timber) 4)) (:goal ()))")
    rewritten = model.rewrite_strict_inequalities(task)
    cond = rewritten.actions[0].numeric_preconditions[0]
    assert cond.op == GE and cond.rhs == 1
    assert rewritten.flagged_strict == ()


def test_strict_with_fractional_effects_uses_lcm_epsilon():
    task = _task("""
    (define (domain d) (:functions (v))
      (:action a :parameters ()
        :precondition (> (v) 0)
        :effect (increase (v) 0.5))
      (:action b :parameters ()
        :precondition ()
        :effect (decrease (v) 0.25)))
    """, "(define (problem p) (:domain d) (:init (= (v) 0)) (:goal ()))")
    rewritten = model.rewrite_strict_inequalities(task)
    conds = [c for a in rewritten.actions for c in a.numeric_preconditions]
    assert conds[0].op == GE and conds[0].rhs == Fraction(1, 4)


def test_non_strict_condition_unchanged():
    task = _task("""
    (define (domain d) (:functions (v))
      (:action a :parameters ()
        :precondition (>= (v) 2)
        :effect (decrease (v) 1)))
    """, "(define (problem p) (:domain d) (:init (= (v) 5)) (:goal ()))")
    rewritten = model.rewrite_strict_inequalities(task)
    assert rewritten.actions[0].numeric_preconditions[0].op == GE
    assert rewritten.actions[0].numeric_preconditions[0].rhs == 2


def test_off_grid_threshold_left_intact_and_flagged():
    task = _task("""
    (define (domain d) (:functions (v))
      (:action a :parameters ()
        :precondition (> (v) 0.5)
        :effect (decrease (v) 1)))
    """, "(define (problem p) (:domain d) (:init (= (v) 3)) (:goal ()))")
    rewritten = model.rewrite_strict_inequalities(task)
    assert rewritten.actions[0].numeric_preconditions[0].op == GT
    assert len(rewritten.flagged_strict) == 1


def _random_strict_task(seed: int):
    rng = random.Random(seed)
    builder = TaskBuilder()
    v = builder.var("(v)", rng.randint(0, 3))
    w = builder.var("(w)", rng.randint(0, 3))
    fact = builder.fact("(p)", initially_true=True)
    for index in range(rng.randint(2, 4)):
        var = rng.choice([v, w])
        if rng.random() < 0.5:
            builder.action(f"a{index}",
                           num_pre=[builder.condition({var: 1}, GT, rng.randint(0, 2))],
                           effects=[(var, "decrease", rng.randint(1, 2))])
        else:
            builder.action(f"a{index}", pre=[fact],
                           effects=[(var, "increase", rng.randint(1, 2))])
    builder.goal(conditions=[builder.condition({v: 1}, GT, rng.randint(0, 3))])
    return builder.build()


def test_rewrite_preserves_plan_set_on_integral_tasks():
    for seed in range(30):
        task = _random_strict_task(seed)
        rewritten = model.rewrite_strict_inequalities(task)
        assert rewritten.flagged_strict == ()
        before = {tuple(p) for p in all_plans(task, 5)}
        after = {tuple(p) for p in all_plans(rewritten, 5)}
        assert before == after, f"plan sets diverge for seed {seed}"


# -- transition semantics ------------------------------------------------------


def _saw_task():
    builder = TaskBuilder()
    timber = builder.var("(timber)", 2)
    wood = builder.var("(wood)", 0)
    builder.action("saw-wood",
                   num_pre=[builder.condition({timber: 1}, GE, 1)],
                   effects=[(timber, "decrease", 1), (wood, "increase", 1)])
    builder.goal(conditions=[builder.condition({wood: 1}, GE, 1)])
    return builder.build()


def test_apply_saw_wood_consumes_and_produces():
    task = _saw_task()
    nxt = model.apply(task.initial, task.actions[0], task)
    assert nxt.values == (Fraction(1), Fraction(1))


def test_apply_without_effects_returns_equal_state():
    builder = TaskBuilder()
    builder.var("(x)", 1)
    builder.action("noop")
    task = builder.build()
    nxt = model.apply(task.initial, task.actions[0], task)
    assert nxt == task.initial


def test_assign_semantics():
    builder = TaskBuilder()
    v = builder.var("(v)", 3)
    builder.action("set5", effects=[(v, "assign", 5)])
    task = builder.build()
    assert model.apply(task.initial, task.actions[0], task).values == (Fraction(5),)


def test_apply_rejects_violated_precondition_and_names_it():
    task = _saw_task()
    drained = State(task.initial.facts, (Fraction(0), Fraction(0)))
    with pytest.raises(PreconditionError) as err:
        model.apply(drained, task.actions[0], task)
    assert "timber" in str(err.value)


def test_add_wins_over_delete_of_same_fact():
    builder = TaskBuilder()
    p = builder.fact("(p)")
    builder.action("weird", add=[p], delete=[p])
    task = builder.build()
    nxt = model.apply(task.initial, task.actions[0], task)
    assert p in nxt.facts


def test_is_goal_cases():
    builder = TaskBuilder()
    v = builder.var("(v)", 2)
    task_empty = builder.build()
    assert model.is_goal(task_empty.initial, task_empty)

    builder2 = TaskBuilder()
    v = builder2.var("(v)", 2)
    builder2.goal(conditions=[builder2.condition({v: 1}, GE, 2)])
    boundary = builder2.build()
    assert model.is_goal(boundary.initial, boundary)

    builder3 = TaskBuilder()
    v = builder3.var("(v)", 2)
    builder3.goal(conditions=[builder3.condition({v: 1}, GT, 2)])
    strict = builder3.build()
    assert not model.is_goal(strict.initial, strict)


def test_sequential_apply_matches_batch_simulation():
    rng = random.Random(9)
    from microtasks import random_pc_task
    for seed in range(10):
        task = random_pc_task(seed)
        plans = all_plans(task, 4)
        for plan in plans[:20]:
            state = task.initial
            for action_id in plan:
                state = model.apply(state, task.actions[action_id], task)
            assert model.is_goal(state, task)


def test_strict_less_than_rewrite():
    task = _task("""
    (define (domain d) (:functions (v))
      (:action a :parameters ()
        :precondition (< (v) 5)
        :effect (increase (v) 1)))
    """, "(define (problem p) (:domain d) (:init (= (v) 0)) (:goal ()))")
    rewritten = model.rewrite_strict_inequalities(task)
    cond = rewritten.actions[0].numeric_preconditions[0]
    assert cond.op == LE and cond.rhs == 4


def test_condition_hash_is_not_carried_through_pickle():
    """A condition caches its hash, but str hashes are salted per process: an
    unpickled condition must hash like one built in the receiving process."""
    cond = model.NumericCondition(
        model.LinearExpr.build({0: Fraction(1, 2), 2: Fraction(-3)}), GE, Fraction(7, 3))
    assert hash(cond) == hash((cond.expr, cond.op, cond.rhs))  # cache now filled
    payload = pickle.dumps(cond)
    script = (
        "import pickle, sys\n"
        "from fractions import Fraction\n"
        "from flowplan.model import GE, LinearExpr, NumericCondition\n"
        "fresh = NumericCondition(LinearExpr.build({0: Fraction(1, 2), 2: Fraction(-3)}),"
        " GE, Fraction(7, 3))\n"
        "loaded = pickle.loads(sys.stdin.buffer.read())\n"
        "print({fresh: 'found'}.get(loaded, 'missing'))\n")
    for seed in ("1", "2"):  # at least one differs from this process's salt
        env = {**os.environ, "PYTHONHASHSEED": seed}
        run = subprocess.run([sys.executable, "-c", script], input=payload,
                             capture_output=True, env=env, timeout=60, check=True)
        assert run.stdout.decode().strip() == "found", run.stderr.decode()
    assert pickle.loads(payload) == cond
