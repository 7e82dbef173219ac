"""Ground task representation and exact state-transition semantics.

All numeric values are exact: an `int` where the value is integral and a
`fractions.Fraction` otherwise, normalised by `exact` where grounding
creates them. Sums, differences, products, `min` and `max` of ints stay
ints, and an int mixed with a Fraction gives an exact Fraction; `int / int`
is a float, so every division goes through `divide`. `mpsolver` takes and
returns the same exact numbers. Floating point never enters the model layer.

Fact and variable ids are assigned lexicographically so that grounding
the same files twice produces identical tasks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from . import pddl
from .errors import GroundingError, MissingInitialValueError, PreconditionError, UnsupportedConstructError

DEFAULT_GROUND_ACTION_CAP = 1_000_000

GE, GT, LE, LT, EQ = ">=", ">", "<=", "<", "="

# the operator after multiplying both sides of a comparison by a negative
FLIP = {GE: LE, GT: LT, LE: GE, LT: GT, EQ: EQ}

# an exact value: int where integral, Fraction otherwise (see `exact`)
Number = int | Fraction


def exact(x: Number) -> Number:
    """The int numerator of a Fraction with denominator 1, else x unchanged."""
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    return x


def divide(a: Number, b: Number) -> Number:
    """The exact quotient a / b; an int when both are ints and b divides a."""
    if type(a) is int and type(b) is int and a % b == 0:
        return a // b
    return exact(Fraction(a) / b)


def compare(op: str, lhs: Number, rhs: Number) -> bool:
    """Whether `lhs op rhs` holds."""
    if op == GE:
        return lhs >= rhs
    if op == GT:
        return lhs > rhs
    if op == LE:
        return lhs <= rhs
    if op == LT:
        return lhs < rhs
    return lhs == rhs


@dataclass(frozen=True)
class LinearExpr:
    """Weighted sum of numeric variables plus a constant: sum(w_i * v_i) + k.

    Zero-weight entries are never stored; terms are kept sorted by
    variable id so equal expressions serialize identically.
    """

    terms: tuple[tuple[int, Number], ...] = ()
    constant: Number = 0

    @staticmethod
    def build(coeffs: dict[int, Number], constant: Number = 0) -> "LinearExpr":
        terms = tuple(sorted((v, w) for v, w in coeffs.items() if w != 0))
        return LinearExpr(terms, constant)

    def coefficients(self) -> dict[int, Number]:
        return dict(self.terms)

    def evaluate(self, values: tuple[Number, ...]) -> Number:
        total = self.constant
        for var, weight in self.terms:
            total += weight * values[var]
        return total

    def is_constant(self) -> bool:
        return not self.terms

    def shift(self, delta: Number) -> "LinearExpr":
        return LinearExpr(self.terms, self.constant + delta)

    def render(self, var_names: list[str]) -> str:
        parts = []
        for var, weight in self.terms:
            parts.append(f"{weight}*{var_names[var]}")
        if self.constant != 0 or not parts:
            parts.append(str(self.constant))
        return " + ".join(parts)


@dataclass(frozen=True)
class NumericCondition:
    """Comparison `expr op rhs` with expr carrying no constant part."""

    expr: LinearExpr
    op: str
    rhs: Number

    def __hash__(self) -> int:
        # Conditions key the analysis id map and extraction's subgoal
        # buckets; hashing the number fields on every lookup is the cost,
        # so hash them once.
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.expr, self.op, self.rhs))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __reduce__(self):
        # Rebuild from the fields so the hash is recomputed on unpickling:
        # `op` is a str, and str hashes are salted per process.
        return NumericCondition, (self.expr, self.op, self.rhs)

    def holds(self, values: tuple[Number, ...]) -> bool:
        return compare(self.op, self.expr.evaluate(values), self.rhs)

    def single_variable(self) -> int | None:
        """The variable id if the condition is w*v op c with one term, else None."""
        if len(self.expr.terms) == 1:
            return self.expr.terms[0][0]
        return None

    def threshold(self) -> tuple[int, str, Number] | None:
        """(v, op', c/w) for a single-variable condition w*v op c, else None;
        op' is op with its direction flipped when w is negative."""
        if len(self.expr.terms) != 1:
            return None
        var, weight = self.expr.terms[0]
        return var, self.op if weight > 0 else FLIP[self.op], divide(self.rhs, weight)

    def render(self, var_names: list[str]) -> str:
        return f"{self.expr.render(var_names)} {self.op} {self.rhs}"


@dataclass(frozen=True)
class NumericEffect:
    """Effect `variable op magnitude` with op in {increase, decrease, assign}."""

    variable: int
    op: str
    magnitude: LinearExpr

    def delta(self) -> Number | None:
        """Signed constant change, or None if non-constant or an assignment."""
        if self.op == "assign" or not self.magnitude.is_constant():
            return None
        value = self.magnitude.constant
        return -value if self.op == "decrease" else value

    def render(self, var_names: list[str]) -> str:
        return f"({self.op} {var_names[self.variable]} {self.magnitude.render(var_names)})"


@dataclass(frozen=True)
class GroundAction:
    id: int
    name: str
    preconditions: frozenset[int]
    numeric_preconditions: tuple[NumericCondition, ...]
    add_effects: frozenset[int]
    del_effects: frozenset[int]
    numeric_effects: tuple[NumericEffect, ...]


@dataclass(frozen=True)
class State:
    facts: frozenset[int]
    values: tuple[Number, ...]


@dataclass(frozen=True)
class GroundTask:
    fact_names: tuple[str, ...]
    var_names: tuple[str, ...]
    actions: tuple[GroundAction, ...]
    initial: State
    goal_facts: frozenset[int]
    goal_conditions: tuple[NumericCondition, ...]
    # strict conditions that could not be soundly rewritten, as rendered strings
    flagged_strict: tuple[str, ...] = ()
    # ids of actions whose assignment effects were rewritten to increases
    assignment_rewritten: frozenset[int] = frozenset()

    def var_id(self, name: str) -> int:
        return self.var_names.index(name)

    def action_named(self, name: str) -> GroundAction:
        for action in self.actions:
            if action.name == name:
                return action
        raise KeyError(name)


# ---------------------------------------------------------------------------
# Grounding


def _ground_atom(atom: pddl.Atom, binding: dict[str, str]) -> str:
    args = tuple(binding.get(a, a) for a in atom.args)
    return "(" + " ".join((atom.predicate,) + args) + ")"


def _ground_fluent(fluent: pddl.FluentRef, binding: dict[str, str]) -> str:
    args = tuple(binding.get(a, a) for a in fluent.args)
    return "(" + " ".join((fluent.function,) + args) + ")"


class _LinearBuilder:
    """Folds a ground expression tree into coefficients + constant, or rejects it."""

    def __init__(self, binding: dict[str, str]):
        self.binding = binding

    def fold(self, expr: pddl.NumExpr) -> tuple[dict[str, Number], Number]:
        if expr.op == "const":
            return {}, exact(expr.value)
        if expr.op == "fluent":
            return {_ground_fluent(expr.fluent, self.binding): 1}, 0
        if expr.op == "+":
            coeffs: dict[str, Number] = {}
            const = 0
            for child in expr.children:
                child_coeffs, child_const = self.fold(child)
                const += child_const
                for key, weight in child_coeffs.items():
                    coeffs[key] = coeffs.get(key, 0) + weight
            return coeffs, const
        if expr.op == "-":
            if len(expr.children) == 1:
                coeffs, const = self.fold(expr.children[0])
                return {k: -w for k, w in coeffs.items()}, -const
            coeffs, const = self.fold(expr.children[0])
            for child in expr.children[1:]:
                child_coeffs, child_const = self.fold(child)
                const -= child_const
                for key, weight in child_coeffs.items():
                    coeffs[key] = coeffs.get(key, 0) - weight
            return coeffs, const
        if expr.op == "*":
            left_c, left_k = self.fold(expr.children[0])
            right_c, right_k = self.fold(expr.children[1])
            if left_c and right_c:
                raise UnsupportedConstructError(
                    "non-linear expression", "product of two fluent expressions")
            if right_c:
                left_c, left_k, right_c, right_k = right_c, right_k, left_c, left_k
            return {k: w * right_k for k, w in left_c.items()}, left_k * right_k
        if expr.op == "/":
            left_c, left_k = self.fold(expr.children[0])
            right_c, right_k = self.fold(expr.children[1])
            if right_c:
                raise UnsupportedConstructError(
                    "non-linear expression", "division by a fluent expression")
            if right_k == 0:
                raise GroundingError("division by zero in a numeric expression")
            return ({k: divide(w, right_k) for k, w in left_c.items()},
                    divide(left_k, right_k))
        raise GroundingError(f"unknown expression operator {expr.op}")


def _type_closure(types: dict[str, str]) -> dict[str, set[str]]:
    """type -> set of types it is compatible with (itself and ancestors)."""
    out: dict[str, set[str]] = {}
    for typ in types:
        seen = {typ}
        current = typ
        while types.get(current, "object") != current:
            current = types.get(current, "object")
            if current in seen:
                break
            seen.add(current)
        seen.add("object")
        out[typ] = seen
    return out


def ground(domain: pddl.DomainAST, problem: pddl.ProblemAST,
           action_cap: int = DEFAULT_GROUND_ACTION_CAP) -> GroundTask:
    """Enumerate type-consistent instantiations and build the ground task.

    Conditions are normalised to linear normal form; actions with a
    statically false condition are pruned; the ground action count is
    capped to guard against grounding explosions.
    """
    ancestors = _type_closure(domain.types)
    objects_by_type: dict[str, list[str]] = {typ: [] for typ in domain.types}
    for obj, typ in problem.objects:
        for compatible in ancestors.get(typ, {typ, "object"}):
            objects_by_type.setdefault(compatible, []).append(obj)
    for bucket in objects_by_type.values():
        bucket.sort()

    raw_actions: list[dict] = []
    count = 0
    for schema in domain.actions:
        domains = [objects_by_type.get(typ, []) for _, typ in schema.parameters]
        variables = [var for var, _ in schema.parameters]
        for combo in itertools.product(*domains):
            count += 1
            if count > action_cap:
                raise GroundingError(
                    f"ground action count exceeds cap ({action_cap}); "
                    "raise the cap explicitly if this is intended")
            binding = dict(zip(variables, combo))
            ground_action = _instantiate(schema, binding)
            if ground_action is not None:
                raw_actions.append(ground_action)

    init_fact_names = {_ground_atom(atom, {}) for atom in problem.init_atoms}
    init_value_names = {_ground_fluent(fluent, {}): exact(value)
                        for fluent, value in problem.init_values.items()}
    goal_fact_names = {_ground_atom(atom, {}) for atom in problem.goal_atoms}

    goal_builder = _LinearBuilder({})
    goal_conditions_raw = []
    for comparison in problem.goal_comparisons:
        goal_conditions_raw.append(_normalise_comparison(comparison, goal_builder))

    # Prune actions whose propositional preconditions can never hold: a fact
    # absent from the initial state with no remaining adder is statically false.
    while True:
        addable = set(init_fact_names)
        for action in raw_actions:
            addable.update(action["add"])
        kept = [a for a in raw_actions if all(p in addable for p in a["pre"])]
        if len(kept) == len(raw_actions):
            break
        raw_actions = kept

    # Fold static fluents (never the target of any effect) into constants, so
    # e.g. a price table read by conditions and magnitudes grounds to fixed
    # quantities rather than extra variables.
    dynamic: set[str] = {var for action in raw_actions for var, _, _, _ in action["num_eff"]}

    def fold_static(coeffs: dict[str, Number], const: Number):
        folded = {}
        for var, weight in coeffs.items():
            if var in dynamic:
                folded[var] = weight
            else:
                if var not in init_value_names:
                    raise MissingInitialValueError(var)
                const += weight * init_value_names[var]
        return folded, const

    for action in raw_actions:
        new_pre = []
        for coeffs, op, rhs in action["num_pre"]:
            folded, shift = fold_static(coeffs, 0)
            new_pre.append((folded, op, rhs - shift))
        action["num_pre"] = new_pre
        new_eff = []
        for var, op, coeffs, const in action["num_eff"]:
            folded, new_const = fold_static(coeffs, const)
            new_eff.append((var, op, folded, new_const))
        action["num_eff"] = new_eff
    folded_goals = []
    for coeffs, op, rhs in goal_conditions_raw:
        folded, shift = fold_static(coeffs, 0)
        folded_goals.append((folded, op, rhs - shift))
    goal_conditions_raw = folded_goals

    fact_names_set = set(init_fact_names) | goal_fact_names
    var_names_set = set(init_value_names)
    for action in raw_actions:
        fact_names_set.update(action["pre"], action["add"], action["del"])
        for coeffs, _, _ in action["num_pre"]:
            var_names_set.update(coeffs)
        for var, _, coeffs, _ in action["num_eff"]:
            var_names_set.add(var)
            var_names_set.update(coeffs)
    for coeffs, _, _ in goal_conditions_raw:
        var_names_set.update(coeffs)

    fact_names = tuple(sorted(fact_names_set))
    var_names = tuple(sorted(var_names_set))
    fact_ids = {name: i for i, name in enumerate(fact_names)}
    var_ids = {name: i for i, name in enumerate(var_names)}

    values = []
    for name in var_names:
        if name not in init_value_names:
            raise MissingInitialValueError(name)
        values.append(init_value_names[name])
    initial = State(frozenset(fact_ids[n] for n in init_fact_names if n in fact_ids),
                    tuple(values))

    def to_condition(raw) -> NumericCondition:
        coeffs, op, rhs = raw
        return NumericCondition(
            LinearExpr.build({var_ids[n]: w for n, w in coeffs.items()}), op, rhs)

    actions: list[GroundAction] = []
    raw_actions.sort(key=lambda a: a["name"])
    for action_id, raw in enumerate(raw_actions):
        numeric_pre = []
        statically_false = False
        for raw_condition in raw["num_pre"]:
            coeffs, op, rhs = raw_condition
            if not coeffs:
                if not compare(op, 0, rhs):
                    statically_false = True
                    break
                continue  # statically true: drop
            numeric_pre.append(to_condition(raw_condition))
        if statically_false:
            continue
        effects = []
        seen_vars: set[int] = set()
        for var, op, coeffs, const in raw["num_eff"]:
            var_id = var_ids[var]
            if var_id in seen_vars:
                raise GroundingError(
                    f"action {raw['name']} has multiple numeric effects on {var}")
            seen_vars.add(var_id)
            magnitude = LinearExpr.build({var_ids[n]: w for n, w in coeffs.items()}, const)
            effects.append(NumericEffect(var_id, op, magnitude))
        actions.append(GroundAction(
            id=action_id,
            name=raw["name"],
            preconditions=frozenset(fact_ids[n] for n in raw["pre"]),
            numeric_preconditions=tuple(numeric_pre),
            add_effects=frozenset(fact_ids[n] for n in raw["add"]),
            del_effects=frozenset(fact_ids[n] for n in raw["del"]),
            numeric_effects=tuple(effects),
        ))
    # pruning inside the loop can leave id gaps; renumber densely
    actions = [GroundAction(i, a.name, a.preconditions, a.numeric_preconditions,
                            a.add_effects, a.del_effects, a.numeric_effects)
               for i, a in enumerate(actions)]

    goal_conditions = []
    for raw_condition in goal_conditions_raw:
        coeffs, op, rhs = raw_condition
        if not coeffs:
            if not compare(op, 0, rhs):
                # keep an unsatisfiable marker condition so the goal test fails
                goal_conditions.append(NumericCondition(LinearExpr(), op, rhs))
            continue
        goal_conditions.append(to_condition(raw_condition))

    return GroundTask(
        fact_names=fact_names,
        var_names=var_names,
        actions=tuple(actions),
        initial=initial,
        goal_facts=frozenset(fact_ids[n] for n in goal_fact_names),
        goal_conditions=tuple(goal_conditions),
    )


def _normalise_comparison(comparison: pddl.ComparisonAST, builder: _LinearBuilder):
    """Fold `left op right` into (coeffs, op, rhs) with all terms on the left."""
    left_c, left_k = builder.fold(comparison.left)
    right_c, right_k = builder.fold(comparison.right)
    coeffs = dict(left_c)
    for key, weight in right_c.items():
        coeffs[key] = coeffs.get(key, 0) - weight
    coeffs = {k: w for k, w in coeffs.items() if w != 0}
    rhs = right_k - left_k
    return coeffs, comparison.op, rhs


def _instantiate(schema: pddl.ActionAST, binding: dict[str, str]) -> dict | None:
    builder = _LinearBuilder(binding)
    name_parts = [schema.name] + [binding[var] for var, _ in schema.parameters]
    num_pre = [_normalise_comparison(c, builder) for c in schema.pre_comparisons]
    num_eff = []
    for effect in schema.numeric_effects:
        coeffs, const = builder.fold(effect.magnitude)
        num_eff.append((_ground_fluent(effect.fluent, binding), effect.op, coeffs, const))
    return {
        "name": "(" + " ".join(name_parts) + ")",
        "pre": {_ground_atom(a, binding) for a in schema.pre_atoms},
        "add": {_ground_atom(a, binding) for a in schema.add_effects},
        "del": {_ground_atom(a, binding) for a in schema.del_effects},
        "num_pre": num_pre,
        "num_eff": num_eff,
    }


# ---------------------------------------------------------------------------
# Strict-inequality rewriting


def rewrite_strict_inequalities(task: GroundTask) -> GroundTask:
    """Rewrite v > k into v >= k+eps (and v < k into v <= k-eps) where sound.

    eps is 1/LCM of the denominators of the constant effects on v (1 for
    integral effects). A strict condition is rewritten only when every
    effect on its single variable is a rational constant and both the
    threshold and the variable's initial value sit on the eps grid;
    otherwise it is left intact and flagged on the task.
    """
    effect_denominators: dict[int, list[int]] = {}
    rewritable: dict[int, bool] = {}
    for action in task.actions:
        for effect in action.numeric_effects:
            delta = effect.delta()
            if delta is None:
                rewritable[effect.variable] = False
            else:
                effect_denominators.setdefault(effect.variable, []).append(delta.denominator)

    def eps_for(var: int) -> Number | None:
        if rewritable.get(var) is False:
            return None
        dens = effect_denominators.get(var)
        if not dens:
            return 1
        return divide(1, lcm(*dens))

    flagged: list[str] = []

    def rewrite(cond: NumericCondition) -> NumericCondition:
        if cond.op not in (GT, LT):
            return cond
        form = cond.threshold()
        if form is not None:
            var, op, bound = form
            eps = eps_for(var)
            # check the grid alignment of the normalised threshold
            if eps is not None and divide(bound, eps).denominator == 1 \
                    and divide(task.initial.values[var], eps).denominator == 1:
                if op == GT:
                    return NumericCondition(LinearExpr.build({var: 1}), GE, bound + eps)
                return NumericCondition(LinearExpr.build({var: 1}), LE, bound - eps)
        flagged.append(cond.render(list(task.var_names)))
        return cond

    new_actions = []
    for action in task.actions:
        new_pre = tuple(rewrite(c) for c in action.numeric_preconditions)
        new_actions.append(GroundAction(action.id, action.name, action.preconditions,
                                        new_pre, action.add_effects, action.del_effects,
                                        action.numeric_effects))
    new_goals = tuple(rewrite(c) for c in task.goal_conditions)
    return GroundTask(task.fact_names, task.var_names, tuple(new_actions), task.initial,
                      task.goal_facts, new_goals, tuple(flagged), task.assignment_rewritten)


# ---------------------------------------------------------------------------
# Transition semantics


def applicable(state: State, action: GroundAction) -> bool:
    if not action.preconditions <= state.facts:
        return False
    return all(c.holds(state.values) for c in action.numeric_preconditions)


def failing_condition(state: State, action: GroundAction, task: GroundTask) -> str | None:
    """Human-readable description of the first violated precondition, if any."""
    for fact in sorted(action.preconditions):
        if fact not in state.facts:
            return task.fact_names[fact]
    for condition in action.numeric_preconditions:
        if not condition.holds(state.values):
            return condition.render(list(task.var_names))
    return None


def apply_effects(state: State, action: GroundAction) -> State:
    """Successor state; preconditions are assumed to hold (see apply)."""
    facts = (state.facts - action.del_effects) | action.add_effects
    if not action.numeric_effects:
        return State(facts, state.values)
    values = list(state.values)
    for effect in action.numeric_effects:
        magnitude = effect.magnitude.evaluate(state.values)
        if effect.op == "increase":
            values[effect.variable] += magnitude
        elif effect.op == "decrease":
            values[effect.variable] -= magnitude
        else:
            values[effect.variable] = magnitude
    return State(facts, tuple(values))


def apply(state: State, action: GroundAction, task: GroundTask) -> State:
    """Checked application: raises PreconditionError naming the failed condition."""
    failure = failing_condition(state, action, task)
    if failure is not None:
        raise PreconditionError(action.name, failure)
    return apply_effects(state, action)


def is_goal(state: State, task: GroundTask) -> bool:
    if not task.goal_facts <= state.facts:
        return False
    return all(c.holds(state.values) for c in task.goal_conditions)


def parse_and_ground(domain_text: str, problem_text: str,
                     action_cap: int = DEFAULT_GROUND_ACTION_CAP) -> GroundTask:
    """Convenience pipeline: parse both files, ground, rewrite strict inequalities."""
    domain = pddl.parse_domain(domain_text)
    problem = pddl.parse_problem(problem_text, domain)
    return rewrite_strict_inequalities(ground(domain, problem, action_cap))
