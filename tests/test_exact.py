"""Integers where the value is integral: the `exact`/`divide` helpers and
every division site that could otherwise turn an int quotient into a float."""

from fractions import Fraction

from flowplan import model, rpg
from flowplan.analysis import analyse
from flowplan.model import GE, LE, LinearExpr, NumericCondition, divide, exact


def _ground(domain_text, goal="()", init="(= (v) 0)"):
    problem = f"(define (problem p) (:domain d) (:init {init}) (:goal {goal}))"
    return model.parse_and_ground(domain_text, problem)


def test_exact_turns_only_integral_fractions_into_ints():
    assert type(exact(Fraction(4, 2))) is int and exact(Fraction(4, 2)) == 2
    assert exact(Fraction(1, 2)) == Fraction(1, 2)
    assert type(exact(7)) is int


def test_divide_is_exact_and_int_where_integral():
    assert type(divide(6, 3)) is int and divide(6, 3) == 2
    assert divide(1, 3) == Fraction(1, 3)
    assert type(divide(Fraction(1, 2), Fraction(1, 4))) is int
    assert type(divide(10**17 + 1, 1)) is int and divide(10**17 + 1, 1) == 10**17 + 1


def test_threshold_of_a_weighted_condition():
    assert NumericCondition(LinearExpr.build({0: 2}), GE, 4).threshold() == (0, GE, 2)
    assert type(NumericCondition(LinearExpr.build({0: 2}), GE, 4).threshold()[2]) is int
    assert NumericCondition(LinearExpr.build({0: 2}), GE, 3).threshold() == \
        (0, GE, Fraction(3, 2))
    assert NumericCondition(LinearExpr.build({0: -2}), GE, 4).threshold() == (0, LE, -2)


def test_grounding_divides_exactly():
    task = _ground("""
    (define (domain d) (:functions (v))
      (:action a :parameters ()
        :precondition (>= (v) (/ 6 3))
        :effect (increase (v) (/ 1 3)))
      (:action b :parameters ()
        :precondition (<= (/ (v) 2) 5)
        :effect (decrease (v) 1)))
    """)
    a, b = task.actions
    rhs = a.numeric_preconditions[0].rhs
    assert type(rhs) is int and rhs == 2
    assert a.numeric_effects[0].magnitude.constant == Fraction(1, 3)
    weight = b.numeric_preconditions[0].expr.terms[0][1]
    assert weight == Fraction(1, 2)
    assert type(b.numeric_effects[0].magnitude.constant) is int
    assert type(task.initial.values[0]) is int


def test_strict_rewrite_on_integral_effects_uses_the_int_one():
    task = _ground("""
    (define (domain d) (:functions (v))
      (:action a :parameters ()
        :precondition ()
        :effect (increase (v) 1)))
    """, goal="(> (v) 3)")
    cond = task.goal_conditions[0]
    assert (cond.op, cond.rhs) == (GE, 4)
    assert type(cond.rhs) is int and cond.expr.terms == ((0, 1),)
    assert task.flagged_strict == ()


def test_sapa_penalty_ceiling_is_exact_on_large_ints():
    big = 10**17 + 1
    task = _ground(f"""
    (define (domain d) (:functions (v))
      (:action use :parameters ()
        :precondition (>= (v) {big})
        :effect (decrease (v) {big}))
      (:action make :parameters ()
        :precondition ()
        :effect (increase (v) 1)))
    """)
    analysed = analyse(task)
    assert analysed.best_production == {0: 1}
    use = task.action_named("(use)").id
    # a float quotient rounds 10**17 + 1 down to 10**17
    assert float(big) / 1 == 10**17
    penalty = rpg.sapa_penalty(task.initial, {use: 1}, analysed)
    assert type(penalty) is int and penalty == big
