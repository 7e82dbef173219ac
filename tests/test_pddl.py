"""Parser front-end tests for the supported PDDL fragment."""

from fractions import Fraction

import pytest

from flowplan import pddl
from flowplan.errors import (
    MissingInitialValueError, ParseError, UnsupportedConstructError, ValidationError,
)

FELL_TIMBER = """
(define (domain settlers-frag)
  (:requirements :strips :typing :fluents)
  (:types place)
  (:predicates (has-cabin ?p - place))
  (:functions (available-timber ?p - place))
  (:action fell-timber
    :parameters (?p - place)
    :precondition (has-cabin ?p)
    :effect (increase (available-timber ?p) 1)))
"""


def test_fell_timber_action_parses_to_one_increase_effect():
    domain = pddl.parse_domain(FELL_TIMBER)
    assert [a.name for a in domain.actions] == ["fell-timber"]
    action = domain.actions[0]
    assert action.parameters == (("?p", "place"),)
    assert action.pre_atoms == (pddl.Atom("has-cabin", ("?p",)),)
    assert len(action.numeric_effects) == 1
    effect = action.numeric_effects[0]
    assert effect.op == "increase"
    assert effect.fluent == pddl.FluentRef("available-timber", ("?p",))
    assert effect.magnitude.value == 1


def test_empty_domain_has_no_actions():
    domain = pddl.parse_domain("(define (domain empty))")
    assert domain.actions == ()


def test_scale_up_effect_is_rejected_by_name():
    text = """
    (define (domain bad)
      (:functions (x))
      (:action boom :parameters ()
        :precondition ()
        :effect (scale-up (x) 2)))
    """
    with pytest.raises(UnsupportedConstructError) as err:
        pddl.parse_domain(text)
    assert "scale-up" in str(err.value)


@pytest.mark.parametrize("snippet,construct", [
    ("(:action a :parameters () :precondition (or (p) (q)) :effect (p))", "or"),
    ("(:action a :parameters () :precondition (not (p)) :effect (p))", "negative"),
    ("(:durative-action a)", ":durative-action"),
    ("(:requirements :durative-actions)", ":durative-actions"),
])
def test_unsupported_constructs_name_the_construct(snippet, construct):
    text = f"(define (domain bad) (:predicates (p) (q)) {snippet})"
    with pytest.raises(UnsupportedConstructError) as err:
        pddl.parse_domain(text)
    assert construct in str(err.value)


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as err:
        pddl.parse_domain("(define (domain broken)")
    assert err.value.line == 1 and err.value.column >= 1


TWO_VALUE_DOMAIN = """
(define (domain pathway)
  (:requirements :fluents :typing)
  (:types mol)
  (:functions (available ?m - mol))
  (:action make
    :parameters (?m - mol)
    :precondition ()
    :effect (increase (available ?m) 1)))
"""


def test_multi_variable_goal_parses_as_one_comparison():
    domain = pddl.parse_domain(TWO_VALUE_DOMAIN)
    problem = pddl.parse_problem("""
    (define (problem p) (:domain pathway)
      (:objects a b - mol)
      (:init (= (available a) 0) (= (available b) 0))
      (:goal (>= (+ (available a) (available b)) 3)))
    """, domain)
    assert len(problem.goal_comparisons) == 1
    comparison = problem.goal_comparisons[0]
    assert comparison.op == ">="
    assert comparison.left.op == "+"


def test_empty_goal_gives_empty_sets():
    domain = pddl.parse_domain(TWO_VALUE_DOMAIN)
    problem = pddl.parse_problem("""
    (define (problem p) (:domain pathway)
      (:objects a - mol)
      (:init (= (available a) 0))
      (:goal ()))
    """, domain)
    assert problem.goal_atoms == ()
    assert problem.goal_comparisons == ()


def test_missing_initial_value_for_nullary_function_used_by_action():
    domain = pddl.parse_domain("""
    (define (domain shop)
      (:functions (money))
      (:action spend :parameters ()
        :precondition (>= (money) 1)
        :effect (decrease (money) 1)))
    """)
    with pytest.raises(MissingInitialValueError):
        pddl.parse_problem("(define (problem p) (:domain shop) (:init) (:goal ()))",
                           domain)


def test_undeclared_predicate_rejected():
    domain = pddl.parse_domain(TWO_VALUE_DOMAIN)
    with pytest.raises(ValidationError):
        pddl.parse_problem("""
        (define (problem p) (:domain pathway)
          (:objects a - mol)
          (:init (shiny a) (= (available a) 0))
          (:goal ()))
        """, domain)


def test_metric_section_rejected():
    domain = pddl.parse_domain(TWO_VALUE_DOMAIN)
    with pytest.raises(UnsupportedConstructError):
        pddl.parse_problem("""
        (define (problem p) (:domain pathway)
          (:objects a - mol)
          (:init (= (available a) 0))
          (:goal ())
          (:metric minimize (available a)))
        """, domain)


def test_decimal_constants_parse_exactly():
    domain = pddl.parse_domain("""
    (define (domain d) (:functions (x))
      (:action a :parameters () :precondition (>= (x) 0.25)
        :effect (increase (x) 1.5)))
    """)
    action = domain.actions[0]
    assert action.pre_comparisons[0].right.value == Fraction(1, 4)
    assert action.numeric_effects[0].magnitude.value == Fraction(3, 2)


# -- malformed input is a ParseError with a position ---------------------------------


def _market_trader_2():
    from flowplan import generators
    return generators.generate("market-trader", 2, 1)


@pytest.mark.parametrize("where,old,new,line,column", [
    ("problem", "(= (food) 4)", "(= (food) l1)", 7, 15),       # not a number
    ("problem", "(= (food) 4)", "(= (food) 1/0)", 7, 15),      # zero denominator
    ("problem", "(:domain market-trader)", "(:domain)", 2, 4),
    ("domain", "(:predicates (at ?m - market)", "(:predicates at", 4, 16),
])
def test_malformed_market_trader_text_is_a_parse_error(where, old, new, line, column):
    from flowplan.model import parse_and_ground
    domain, problem = _market_trader_2()
    if where == "problem":
        assert old in problem
        problem = problem.replace(old, new)
    else:
        assert old in domain
        domain = domain.replace(old, new)
    with pytest.raises(ParseError) as err:
        parse_and_ground(domain, problem)
    assert (err.value.line, err.value.column) == (line, column)


def test_empty_form_error_points_at_its_parenthesis():
    with pytest.raises(ParseError) as err:
        pddl.parse_domain("(define (domain d)\n  (:action a :parameters ()\n    :effect))")
    assert (err.value.line, err.value.column) == (3, 5)
    with pytest.raises(ParseError) as err:
        pddl.parse_domain("(define (domain d) (:predicates\n   ()))")
    assert (err.value.line, err.value.column) == (2, 4)


def _tokens(text):
    import re
    return re.findall(r"\(|\)|[^\s()]+", text)


MUTANT_TOKENS = ("(", ")", "-", "=", "0", "-1", "1/0", "0/0", "1/2", "l1", "?x", "and",
                 "not", "+", "*", ":domain", ":init", ":action", ":parameters", "()",
                 "(:domain)")


def _mutant(rng, tokens):
    tokens = list(tokens)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(tokens))
        kind = rng.randrange(5)
        if kind == 0:
            del tokens[i]
        elif kind == 1:
            tokens.insert(i, tokens[rng.randrange(len(tokens))])
        elif kind == 2:
            tokens[i] = rng.choice(MUTANT_TOKENS)
        elif kind == 3:
            j = rng.randrange(len(tokens))
            tokens[i], tokens[j] = tokens[j], tokens[i]
        else:
            tokens.insert(i, rng.choice(MUTANT_TOKENS))
        if not tokens:
            tokens = ["("]
    return " ".join(tokens)


def test_token_mutants_of_generated_texts_raise_only_flowplan_errors():
    """Seeded token mutations (delete, duplicate, swap, replace, insert) of
    the three generators' domain and problem texts: parsing and grounding
    either succeed or raise a FlowplanError, never another exception."""
    import random
    from flowplan import generators
    from flowplan.errors import FlowplanError
    from flowplan.model import parse_and_ground

    rng = random.Random(2014)
    pairs = [generators.generate(name, 2, 1)
             for name in ("market-trader", "mini-settlers", "pump-catalyst")]
    outcomes = {"parsed": 0, "rejected": 0}
    for _ in range(1500):
        domain, problem = rng.choice(pairs)
        if rng.random() < 0.5:
            domain = _mutant(rng, _tokens(domain))
        else:
            problem = _mutant(rng, _tokens(problem))
        try:
            parse_and_ground(domain, problem)
            outcomes["parsed"] += 1
        except FlowplanError:
            outcomes["rejected"] += 1
    assert outcomes["parsed"] > 20 and outcomes["rejected"] > 1000, outcomes
