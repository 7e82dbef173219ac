"""Producer-consumer classification and static task analysis.

Classifies every numeric variable as producer-consumer, catalytic-extended
(read at a threshold but unaffected by the reading action) or
non-conforming; detects one-shot action sets; derives per-action count
bounds; rewrites eligible assignment effects into increases; and extracts
delete-relaxation landmarks.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from functools import cached_property

from .model import (
    GE, GT, LE, LT, EQ,
    GroundAction, GroundTask, LinearExpr, Number, NumericCondition, NumericEffect, State,
    divide,
)

log = logging.getLogger(__name__)

PRODUCER_CONSUMER = "producer-consumer"
CATALYTIC = "catalytic-extended"
NON_CONFORMING = "non-conforming"

DEFAULT_COUNT_CAP = 1_000_000


@dataclass(frozen=True)
class CatalyticGroup:
    """Actions requiring `variable op threshold` without affecting the variable."""

    variable: int
    op: str  # ">=" or "<="
    threshold: Number
    actions: tuple[int, ...]


@dataclass
class PCClassification:
    status: dict[int, str]
    reasons: dict[int, str]                      # why a variable is non-conforming
    ub: dict[int, Number | None]                 # None encodes +infinity
    lb: dict[int, Number | None]                 # None encodes -infinity
    prod: dict[int, list[int]]
    cons: dict[int, list[int]]
    delta: dict[int, dict[int, Number]]          # action id -> {var id: signed change}
    max_prod: dict[tuple[int, int], Number | None]
    min_cons: dict[tuple[int, int], Number | None]
    count_bound: dict[int, Number] = field(default_factory=dict)
    catalytic_groups: tuple[CatalyticGroup, ...] = ()

    def conforming(self) -> bool:
        return all(s != NON_CONFORMING for s in self.status.values())

    def non_conforming_report(self, task: GroundTask) -> list[str]:
        return [f"{task.var_names[v]}: {self.reasons[v]}"
                for v in sorted(self.status)
                if self.status[v] == NON_CONFORMING]

    def delta_of(self, action_id: int, var: int) -> Number:
        return self.delta.get(action_id, {}).get(var, 0)


@dataclass(frozen=True)
class OneShotSet:
    fact: int
    actions: tuple[int, ...]


@dataclass(frozen=True)
class LandmarkSet:
    conjunctive: tuple[int, ...]                 # fact ids
    disjunctive: tuple[frozenset[int], ...]      # fact-id sets

    def __len__(self) -> int:
        return len(self.conjunctive) + len(self.disjunctive)


# ---------------------------------------------------------------------------
# Classification


def classify(task: GroundTask) -> PCClassification:
    """Classify every variable against the producer/consumer definitions.

    Expects strict inequalities to have been rewritten already; surviving
    strict thresholds on affected variables mark them non-conforming.
    """
    n_vars = len(task.var_names)
    status = {v: PRODUCER_CONSUMER for v in range(n_vars)}
    reasons: dict[int, str] = {}
    prod: dict[int, list[int]] = {v: [] for v in range(n_vars)}
    cons: dict[int, list[int]] = {v: [] for v in range(n_vars)}
    delta: dict[int, dict[int, Number]] = {}
    max_prod: dict[tuple[int, int], Number | None] = {}
    min_cons: dict[tuple[int, int], Number | None] = {}
    producer_ubs: dict[int, list[Number | None]] = {v: [] for v in range(n_vars)}
    consumer_lbs: dict[int, list[Number]] = {v: [] for v in range(n_vars)}
    catalytic: dict[tuple[int, str, Number], list[int]] = {}

    def mark(var: int, reason: str) -> None:
        if status[var] != NON_CONFORMING:
            status[var] = NON_CONFORMING
            reasons[var] = reason

    for action in task.actions:
        affected: dict[int, NumericEffect] = {e.variable: e for e in action.numeric_effects}
        # conditions on each variable, normalised to weight-1 thresholds
        conditions_on: dict[int, list[tuple[str, Number] | None]] = {}
        for cond in action.numeric_preconditions:
            form = cond.threshold()
            if form is None:
                # multi-variable condition: allowed for unaffected variables,
                # outside the definitions for affected ones
                for var, _ in cond.expr.terms:
                    if var in affected:
                        mark(var, f"multi-variable precondition on an affector: "
                                  f"{cond.render(list(task.var_names))} ({action.name})")
                continue
            var, op, bound = form
            conditions_on.setdefault(var, []).append((op, bound))

        deltas: dict[int, Number] = {}
        for var, effect in affected.items():
            change = effect.delta()
            if change is None:
                if effect.op == "assign":
                    mark(var, f"assignment effect ({action.name})")
                else:
                    mark(var, f"non-constant effect magnitude ({action.name})")
                continue
            if change == 0:
                continue
            deltas[var] = change
            conds = conditions_on.get(var, [])
            if len(conds) > 1:
                mark(var, f"multiple preconditions on an affected variable ({action.name})")
                continue
            if change > 0:
                prod[var].append(action.id)
                if not conds:
                    producer_ubs[var].append(None)  # simple producer
                    max_prod[(action.id, var)] = None
                else:
                    op, bound = conds[0]
                    if op != LE:
                        mark(var, f"producer precondition is not an upper bound "
                                  f"({action.name})")
                        continue
                    producer_ubs[var].append(bound + change)
                    max_prod[(action.id, var)] = bound + change
            else:
                cons[var].append(action.id)
                if not conds:
                    mark(var, f"consumer without an availability precondition ({action.name})")
                    continue
                op, bound = conds[0]
                if op != GE:
                    mark(var, f"consumer precondition is not a lower bound ({action.name})")
                    continue
                consumer_lbs[var].append(bound + change)  # change < 0: lb = bound - |change|
                min_cons[(action.id, var)] = bound + change
        delta[action.id] = deltas

        # threshold conditions on variables this action does not affect
        for var, conds in conditions_on.items():
            if var in affected:
                continue
            for op, bound in conds:
                if op in (GE, GT):
                    catalytic.setdefault((var, GE, bound), []).append(action.id)
                elif op in (LE, LT):
                    catalytic.setdefault((var, LE, bound), []).append(action.id)
                else:  # equality reader constrains both sides
                    catalytic.setdefault((var, GE, bound), []).append(action.id)
                    catalytic.setdefault((var, LE, bound), []).append(action.id)

    ub: dict[int, Number | None] = {}
    lb: dict[int, Number | None] = {}
    for var in range(n_vars):
        ubs = producer_ubs[var]
        if any(u is None for u in ubs):
            if any(u is not None for u in ubs):
                mark(var, "mix of simple and bounded producers")
            ub[var] = None
        elif ubs:
            if len(set(ubs)) > 1:
                mark(var, "bounded producers disagree on the upper bound")
            ub[var] = ubs[0]
        else:
            ub[var] = None
        lbs = consumer_lbs[var]
        if lbs:
            if len(set(lbs)) > 1:
                mark(var, "consumers disagree on the lower bound")
            lb[var] = lbs[0]
        else:
            lb[var] = None

    groups = []
    for (var, op, bound), actions in sorted(catalytic.items()):
        if status[var] != NON_CONFORMING:
            status[var] = CATALYTIC
            groups.append(CatalyticGroup(var, op, bound, tuple(sorted(set(actions)))))

    result = PCClassification(status, reasons, ub, lb, prod, cons, delta,
                              max_prod, min_cons, catalytic_groups=tuple(groups))
    for var in sorted(reasons):
        log.debug("variable %s non-conforming: %s", task.var_names[var], reasons[var])
    return result


# ---------------------------------------------------------------------------
# One-shot sets and count bounds


def detect_one_shot_sets(task: GroundTask) -> list[OneShotSet]:
    """Maximal sets of actions sharing a never-re-added precondition fact they delete."""
    adders = fact_adders(task)
    sets: list[OneShotSet] = []
    for fact in range(len(task.fact_names)):
        if fact in adders:
            continue
        members = tuple(sorted(
            a.id for a in task.actions
            if fact in a.preconditions and fact in a.del_effects))
        if members:
            sets.append(OneShotSet(fact, members))
    return sets


def compute_count_bounds(task: GroundTask, cls: PCClassification,
                         one_shot_sets: list[OneShotSet] | None = None,
                         cap: Number = DEFAULT_COUNT_CAP) -> PCClassification:
    """Fill per-action count upper bounds U_a into the classification.

    An action consuming a producer-less variable w is bounded by how far w
    can fall from its initial value before hitting the consumers' shared
    lower bound; one-shot membership caps the count at 1; everything else
    gets the configured large cap.
    """
    if one_shot_sets is None:
        one_shot_sets = detect_one_shot_sets(task)
    one_shot_members: set[int] = set()
    for oss in one_shot_sets:
        if oss.fact in task.initial.facts:
            one_shot_members.update(oss.actions)

    bounds: dict[int, Number] = {}
    for action in task.actions:
        best = cap
        for var, change in cls.delta.get(action.id, {}).items():
            if change >= 0 or cls.prod[var]:
                continue
            floor = cls.lb[var] if cls.lb[var] is not None else 0
            budget = task.initial.values[var] - floor
            bound = divide(max(0, budget), -change)
            best = min(best, bound)
        if action.id in one_shot_members:
            best = min(best, 1)
        bounds[action.id] = best
    cls.count_bound = bounds
    return cls


# ---------------------------------------------------------------------------
# Assignment rewriting


def rewrite_assignments(task: GroundTask, cls: PCClassification) -> GroundTask:
    """Rewrite eligible assignment effects v := k into increases by k - v(I).

    Eligible when either (a) assignments are the only effects on v and all
    assign exactly the initial value (provable no-ops), or (b) the
    assigning actions are gated: a fact achieved by exactly those actions
    guards every other read/write of v, and the assigners form (part of) a
    one-shot set, so at most one assignment ever fires, with v still at
    its initial value. Ineligible assignments leave v non-conforming.
    """
    assigners: dict[int, list[GroundAction]] = {}
    other_effects: dict[int, bool] = {}
    for action in task.actions:
        for effect in action.numeric_effects:
            if effect.op == "assign":
                assigners.setdefault(effect.variable, []).append(action)
            else:
                other_effects[effect.variable] = True
    if not assigners:
        return task

    adders = fact_adders(task)

    def references(action: GroundAction, var: int) -> bool:
        return references_precondition(action, var) or \
            any(e.variable == var for e in action.numeric_effects)

    rewritable: dict[int, Number] = {}  # var -> pre-assignment value
    for var, actions in sorted(assigners.items()):
        init = task.initial.values[var]
        if any(not e.magnitude.is_constant()
               for a in actions for e in a.numeric_effects
               if e.op == "assign" and e.variable == var):
            cls.status[var] = NON_CONFORMING
            cls.reasons.setdefault(var, "non-constant assignment magnitude")
            continue
        if not other_effects.get(var):
            values = {e.magnitude.constant
                      for a in actions for e in a.numeric_effects
                      if e.op == "assign" and e.variable == var}
            if values == {init}:
                rewritable[var] = init  # provable no-op assignments
                continue
        member_ids = {a.id for a in actions}
        if any(references_precondition(a, var) for a in actions):
            cls.status[var] = NON_CONFORMING
            cls.reasons.setdefault(var, "assigning action reads the assigned variable")
            continue
        gate_candidates = frozenset.intersection(*(frozenset(a.add_effects)
                                                   for a in actions))
        gate = None
        for fact in sorted(gate_candidates):
            if fact in task.initial.facts or set(adders.get(fact, ())) != member_ids:
                continue
            if all(fact in b.preconditions
                   for b in task.actions
                   if b.id not in member_ids and references(b, var)):
                gate = fact
                break
        shared_consumed = frozenset.intersection(
            *(frozenset(m.preconditions & m.del_effects) for m in actions))
        one_shot = any(fact not in adders for fact in shared_consumed)
        if gate is not None and one_shot:
            rewritable[var] = init
        else:
            cls.status[var] = NON_CONFORMING
            cls.reasons.setdefault(
                var, "assignment not guarded by a one-shot gate fact")

    if not rewritable:
        return task

    new_actions = []
    rewritten_ids = set(task.assignment_rewritten)
    for action in task.actions:
        changed = False
        new_effects = []
        for effect in action.numeric_effects:
            if effect.op == "assign" and effect.variable in rewritable:
                base = rewritable[effect.variable]
                new_effects.append(NumericEffect(
                    effect.variable, "increase", effect.magnitude.shift(-base)))
                changed = True
            else:
                new_effects.append(effect)
        if changed:
            rewritten_ids.add(action.id)
            new_actions.append(replace(action, numeric_effects=tuple(new_effects)))
        else:
            new_actions.append(action)
    return replace(task, actions=tuple(new_actions),
                   assignment_rewritten=frozenset(rewritten_ids))


def references_precondition(action: GroundAction, var: int) -> bool:
    return any(any(v == var for v, _ in cond.expr.terms)
               for cond in action.numeric_preconditions)


# ---------------------------------------------------------------------------
# Landmarks


def relaxed_reachable_facts(task: GroundTask, state: State,
                            banned: frozenset[int] = frozenset()) -> frozenset[int]:
    """Delete-free propositional fixpoint ignoring numeric preconditions.

    Ignoring numerics over-approximates reachability, which keeps the
    landmark verification below conservative.
    """
    facts = set(state.facts)
    pending = [a for a in task.actions if a.id not in banned]
    changed = True
    while changed:
        changed = False
        remaining = []
        for action in pending:
            if action.preconditions <= facts:
                new = action.add_effects - facts
                if new:
                    facts.update(new)
                    changed = True
            else:
                remaining.append(action)
        pending = remaining
    return frozenset(facts)


def extract_landmarks(task: GroundTask, state: State,
                      max_disjunction: int = 4,
                      max_landmarks_per_goal: int = 10) -> LandmarkSet:
    """Backward-chain verified delete-relaxation landmarks from the goal facts."""
    goal_facts = [g for g in sorted(task.goal_facts) if g not in state.facts]
    cap = max_landmarks_per_goal * max(1, len(task.goal_facts))
    adders = fact_adders(task)

    def verified(candidate_facts: frozenset[int]) -> bool:
        banned = frozenset(a for f in candidate_facts for a in adders.get(f, ()))
        reachable = relaxed_reachable_facts(task, state, banned)
        return not (task.goal_facts <= reachable and
                    all(g in reachable for g in goal_facts))

    conjunctive: list[int] = []
    disjunctive: list[frozenset[int]] = []
    seen: set[int] = set()
    queue = list(goal_facts)
    while queue and len(conjunctive) + len(disjunctive) < cap:
        fact = queue.pop(0)
        if fact in seen or fact in state.facts:
            continue
        seen.add(fact)
        if fact not in task.goal_facts and not verified(frozenset([fact])):
            continue
        conjunctive.append(fact)
        # first achievers: adders still reachable once the fact's adders are banned
        banned = frozenset(adders.get(fact, ()))
        reachable = relaxed_reachable_facts(task, state, banned)
        first = [task.actions[a] for a in adders.get(fact, ())
                 if task.actions[a].preconditions <= reachable]
        if not first:
            continue
        common = frozenset.intersection(*(a.preconditions for a in first))
        for pre in sorted(common):
            if pre not in state.facts and pre not in seen:
                queue.append(pre)
        if len(first) > 1:
            disjunction = _disjunctive_candidate(task, state, first, max_disjunction, common)
            if disjunction and disjunction not in disjunctive and verified(disjunction):
                disjunctive.append(disjunction)
    return LandmarkSet(tuple(conjunctive), tuple(disjunctive))


def _disjunctive_candidate(task: GroundTask, state: State, achievers: list[GroundAction],
                           max_width: int, already_common: frozenset[int]) -> frozenset[int] | None:
    """A small fact set hitting every achiever's preconditions, grouped by predicate."""
    def predicate(fact: int) -> str:
        return task.fact_names[fact].strip("()").split()[0]

    by_predicate: dict[str, list[set[int]]] = {}
    for action in achievers:
        candidates = {f for f in action.preconditions
                      if f not in state.facts and f not in already_common}
        groups: dict[str, set[int]] = {}
        for fact in candidates:
            groups.setdefault(predicate(fact), set()).add(fact)
        for name, facts in groups.items():
            by_predicate.setdefault(name, []).append(facts)
    for name in sorted(by_predicate):
        per_achiever = by_predicate[name]
        if len(per_achiever) != len(achievers):
            continue  # some achiever has no precondition with this predicate
        union = frozenset().union(*per_achiever)
        if 1 < len(union) <= max_width:
            return frozenset(union)
    return None


# ---------------------------------------------------------------------------
# Pipeline


def collect_conditions(task: GroundTask) -> tuple[NumericCondition, ...]:
    """Action preconditions plus goal conditions, each once, in first-seen
    order, then the >= and <= halves of every collected equality not
    collected already; goals count as conditions for the planning graph's
    stagnation test (a goal whose satisfiability extremum stops moving can
    never become satisfiable), and the halves give every regression subgoal
    an id."""
    seen: dict[NumericCondition, None] = {}
    for action in task.actions:
        for cond in action.numeric_preconditions:
            seen.setdefault(cond)
    for cond in task.goal_conditions:
        seen.setdefault(cond)
    for cond in split_equalities(tuple(seen)):
        seen.setdefault(cond)
    return tuple(seen)


def relevant_conditions(conditions: tuple[NumericCondition, ...]) -> tuple[
        dict[int, tuple[int, ...]], dict[int, tuple[int, ...]]]:
    """Per variable, the ids (positions in `conditions`) of the conditions a
    higher upper bound could help satisfy and of those a lower lower bound
    could help satisfy."""
    up: dict[int, list[int]] = {}
    down: dict[int, list[int]] = {}
    for cond_id, cond in enumerate(conditions):
        for var, weight in cond.expr.terms:
            raises_hi = (weight > 0 and cond.op in (GE, GT, EQ)) or \
                        (weight < 0 and cond.op in (LE, LT, EQ))
            lowers_lo = (weight > 0 and cond.op in (LE, LT, EQ)) or \
                        (weight < 0 and cond.op in (GE, GT, EQ))
            if raises_hi:
                up.setdefault(var, []).append(cond_id)
            if lowers_lo:
                down.setdefault(var, []).append(cond_id)
    return ({var: tuple(ids) for var, ids in up.items()},
            {var: tuple(ids) for var, ids in down.items()})


def tracked_variables(conditions: tuple[NumericCondition, ...]) -> frozenset[int]:
    """Variables appearing in any numeric precondition or goal; flow models
    exclude the others entirely."""
    return frozenset(var for cond in conditions for var, _ in cond.expr.terms)


def positive_signature(action: GroundAction) -> frozenset:
    """Beneficial effects: added facts plus variables the action can raise.

    Used for the helpful-action closure; consumption side effects do not
    make two actions interchangeable.
    """
    sig: set = set(action.add_effects)
    for effect in action.numeric_effects:
        delta = effect.delta()
        if effect.op == "assign" or delta is None or delta > 0:
            sig.add(("num", effect.variable))
    return frozenset(sig)


def fact_adders(task: GroundTask) -> dict[int, tuple[int, ...]]:
    """Fact id -> ids of the actions adding it, ascending."""
    adders: dict[int, list[int]] = {}
    for action in task.actions:
        for fact in action.add_effects:
            adders.setdefault(fact, []).append(action.id)
    return {fact: tuple(ids) for fact, ids in adders.items()}


def variable_affectors(task: GroundTask) -> dict[int, tuple[int, ...]]:
    """Variable id -> ids of the actions with a numeric effect on it, ascending."""
    affectors: dict[int, list[int]] = {}
    for action in task.actions:
        for effect in action.numeric_effects:
            affectors.setdefault(effect.variable, []).append(action.id)
    return {var: tuple(ids) for var, ids in affectors.items()}


def best_production(task: GroundTask) -> dict[int, Number]:
    """Variable -> the largest constant increase one action application makes."""
    best: dict[int, Number] = {}
    for action in task.actions:
        for effect in action.numeric_effects:
            delta = effect.delta()
            if delta is not None and delta > best.get(effect.variable, 0):
                best[effect.variable] = delta
    return best


def split_equalities(conds) -> list[NumericCondition]:
    """The conditions in order, each equality replaced by its >= and <= halves."""
    out = []
    for cond in conds:
        if cond.op == EQ:
            out.append(NumericCondition(cond.expr, GE, cond.rhs))
            out.append(NumericCondition(cond.expr, LE, cond.rhs))
        else:
            out.append(cond)
    return out


def normalise_single(cond: NumericCondition) -> NumericCondition:
    """Rewrite w*v op c to v op' c/w so queue entries merge cleanly; a
    weight-1 or multi-variable condition comes back as it is."""
    terms = cond.expr.terms
    if len(terms) != 1 or terms[0][1] == 1:
        return cond
    var, op, bound = cond.threshold()
    return NumericCondition(LinearExpr.build({var: 1}), op, bound)


# A numeric subgoal of regression extraction: (condition id, the
# condition's `normalise_single` form); an equality is two subgoals, one
# per half.
Subgoal = tuple[int, NumericCondition]

# An interval step's view of one numeric effect: (variable, op, the
# magnitude when it is a constant else None, the magnitude expression).
CompiledEffect = tuple[int, str, Number | None, LinearExpr]

# A tracked variable's post-value column in every flow model of the task:
# (variable, column name, flow-row name, static lower bound, static upper
# bound), a bound None where it is infinite.
FlowPost = tuple[int, str, str, Number | None, Number | None]

# An action's count column in every flow model of the task: (count bound,
# column name, {flow row: -delta} over the tracked variables it changes,
# where a variable's flow row is its index in `flow_posts`, the tracked
# variables with delta > 0, those with delta <= 0, the indices of its
# one-shot sets, the indices of its catalytic groups).
FlowColumn = tuple[Number, str, dict[int, Number], tuple[int, ...], tuple[int, ...],
                   tuple[int, ...], tuple[int, ...]]


def _derived():
    return field(init=False, repr=False, compare=False)


@dataclass(frozen=True)
class AnalysedTask:
    """Ground task after strict-inequality and assignment rewriting, with analysis.

    The static structure that every heuristic evaluation reads is derived
    from `task` once, here, rather than per state. A condition id is a
    position in `conditions`, which also holds the >= and <= halves of
    each equality; a half that is not itself a precondition or goal has no
    users and counts towards no precondition count, so its id only records
    the layer where it first holds.
    - For the planning graph's event-driven expansion: each action's
      precondition count (facts plus distinct condition ids), fact ->
      requiring actions, condition id -> requiring actions, variable ->
      ids of the conditions over it, the goal condition ids, the
      relevant-up/down condition ids per variable and, per condition id,
      the variables whose relevant-up/down ids hold it, each action's numeric
      effects with constant magnitudes read out, and per variable the
      variables whose effects read it in their magnitude.
    - For flow models: the tracked variables, ascending too, and the
      actions that affect an untracked one, and, compiled on first use, the
      post-value columns
      in tracked-variable order (`flow_posts`) and every action's count
      column (`flow_columns`).
    - For extraction: fact adders, the actions affecting each variable,
      the actions that change a numeric goal's variable, positive
      signatures, the best single-action production per variable, and the
      split and normalised numeric subgoals of each action and of the goal.
    """

    task: GroundTask
    classification: PCClassification
    one_shot_sets: tuple[OneShotSet, ...]
    landmarks: LandmarkSet
    conditions: tuple[NumericCondition, ...] = _derived()
    precondition_counts: tuple[int, ...] = _derived()
    fact_users: dict[int, tuple[int, ...]] = _derived()
    condition_users: tuple[tuple[int, ...], ...] = _derived()
    variable_conditions: dict[int, tuple[int, ...]] = _derived()
    goal_condition_ids: tuple[int, ...] = _derived()
    relevant_up: dict[int, tuple[int, ...]] = _derived()
    relevant_down: dict[int, tuple[int, ...]] = _derived()
    # condition id -> the variables whose relevant-up (-down) ids hold it
    up_relevant_vars: tuple[tuple[int, ...], ...] = _derived()
    down_relevant_vars: tuple[tuple[int, ...], ...] = _derived()
    action_effects: tuple[tuple[CompiledEffect, ...], ...] = _derived()
    magnitude_readers: dict[int, tuple[int, ...]] = _derived()
    tracked: frozenset[int] = _derived()
    tracked_order: tuple[int, ...] = _derived()  # `tracked`, ascending
    # ids of the actions with a numeric effect on an untracked variable
    untracked_affectors: frozenset[int] = _derived()
    adders: dict[int, tuple[int, ...]] = _derived()
    affectors: dict[int, tuple[int, ...]] = _derived()
    signatures: tuple[frozenset, ...] = _derived()
    best_production: dict[int, Number] = _derived()
    # ids of the actions that change a variable of a numeric goal
    numeric_goal_affectors: frozenset[int] = _derived()
    action_subgoals: tuple[tuple[Subgoal, ...], ...] = _derived()
    goal_subgoals: tuple[Subgoal, ...] = _derived()

    def __post_init__(self):
        def derive(name, value):
            object.__setattr__(self, name, value)

        task = self.task
        actions = task.actions
        conditions = collect_conditions(task)
        ids = {cond: cond_id for cond_id, cond in enumerate(conditions)}
        derive("conditions", conditions)
        action_conditions = [tuple(dict.fromkeys(ids[c] for c in a.numeric_preconditions))
                             for a in actions]
        derive("precondition_counts", tuple(len(a.preconditions) + len(cond_ids)
                                            for a, cond_ids in zip(actions, action_conditions)))
        fact_users: dict[int, list[int]] = {}
        condition_users: list[list[int]] = [[] for _ in conditions]
        for action, cond_ids in zip(actions, action_conditions):
            for fact in action.preconditions:
                fact_users.setdefault(fact, []).append(action.id)
            for cond_id in cond_ids:
                condition_users[cond_id].append(action.id)
        derive("fact_users", {fact: tuple(users) for fact, users in fact_users.items()})
        derive("condition_users", tuple(tuple(users) for users in condition_users))
        variable_conditions: dict[int, list[int]] = {}
        for cond_id, cond in enumerate(conditions):
            for var, _ in cond.expr.terms:
                variable_conditions.setdefault(var, []).append(cond_id)
        derive("variable_conditions",
               {var: tuple(cond_ids) for var, cond_ids in variable_conditions.items()})
        derive("goal_condition_ids",
               tuple(dict.fromkeys(ids[c] for c in task.goal_conditions)))
        up, down = relevant_conditions(conditions)
        derive("relevant_up", up)
        derive("relevant_down", down)
        for name, relevant in (("up_relevant_vars", up), ("down_relevant_vars", down)):
            holders: list[list[int]] = [[] for _ in conditions]
            for var, cond_ids in relevant.items():
                for cond_id in cond_ids:
                    holders[cond_id].append(var)
            derive(name, tuple(tuple(vars_) for vars_ in holders))

        readers: dict[int, set[int]] = {}
        for action in actions:
            for effect in action.numeric_effects:
                for var, _ in effect.magnitude.terms:
                    readers.setdefault(var, set()).add(effect.variable)
        derive("action_effects", tuple(
            tuple((e.variable, e.op,
                   e.magnitude.constant if e.magnitude.is_constant() else None, e.magnitude)
                  for e in a.numeric_effects)
            for a in actions))
        derive("magnitude_readers",
               {var: tuple(sorted(targets)) for var, targets in readers.items()})

        tracked = tracked_variables(conditions)
        derive("tracked", tracked)
        derive("tracked_order", tuple(sorted(tracked)))
        affectors = variable_affectors(task)
        derive("affectors", affectors)
        derive("untracked_affectors", frozenset(
            a for var, ids_ in affectors.items() if var not in tracked for a in ids_))
        derive("adders", fact_adders(task))
        derive("signatures", tuple(positive_signature(a) for a in actions))
        derive("best_production", best_production(task))
        delta_of = self.classification.delta_of
        derive("numeric_goal_affectors", frozenset(
            action_id for cond in task.goal_conditions for var, _ in cond.expr.terms
            for action_id in affectors.get(var, ()) if delta_of(action_id, var) != 0))

        def subgoals(conds) -> tuple[Subgoal, ...]:
            return tuple((ids[cond], normalise_single(cond))
                         for cond in split_equalities(conds))

        derive("action_subgoals", tuple(subgoals(a.numeric_preconditions) for a in actions))
        derive("goal_subgoals", subgoals(task.goal_conditions))

    @cached_property
    def flow_posts(self) -> tuple[FlowPost, ...]:
        cls, names = self.classification, self.task.var_names
        return tuple((var, f"post {names[var]}", f"flow {names[var]}", cls.lb[var], cls.ub[var])
                     for var in self.tracked_order)

    @cached_property
    def flow_columns(self) -> tuple[FlowColumn, ...]:
        cls = self.classification
        position = {post[0]: index for index, post in enumerate(self.flow_posts)}
        one_shots: dict[int, list[int]] = {}
        for index, oss in enumerate(self.one_shot_sets):
            for action_id in set(oss.actions):
                one_shots.setdefault(action_id, []).append(index)
        groups: dict[int, list[int]] = {}
        for index, group in enumerate(cls.catalytic_groups):
            for action_id in group.actions:
                groups.setdefault(action_id, []).append(index)
        columns = []
        for action in self.task.actions:
            deltas = {var: delta for var, delta in cls.delta.get(action.id, {}).items()
                      if var in position}
            columns.append((
                cls.count_bound[action.id], f"count {action.name}",
                {position[var]: -delta for var, delta in deltas.items()},
                tuple(var for var, delta in deltas.items() if delta > 0),
                tuple(var for var, delta in deltas.items() if delta <= 0),
                tuple(one_shots.get(action.id, ())), tuple(groups.get(action.id, ()))))
        return tuple(columns)


def analyse(task: GroundTask, cap: Number = DEFAULT_COUNT_CAP,
            with_landmarks: bool = True) -> AnalysedTask:
    """Run the full static pipeline on a strict-rewritten ground task."""
    preliminary = classify(task)
    task = rewrite_assignments(task, preliminary)
    cls = classify(task)  # surviving assignments re-mark their variables here
    one_shot = tuple(detect_one_shot_sets(task))
    cls = compute_count_bounds(task, cls, list(one_shot), cap)
    landmarks = extract_landmarks(task, task.initial) if with_landmarks else LandmarkSet((), ())
    return AnalysedTask(task, cls, one_shot, landmarks)
