"""Random producer-consumer micro-tasks for property suites.

Every generated task conforms to the producer/consumer fragment by
construction (bounded or simple producers, consumers with matching
availability preconditions, shared bounds per variable) and is small
enough for exhaustive plan enumeration.
"""

from __future__ import annotations

import random

from flowplan.model import GE, LE, GroundTask

from taskbuild import TaskBuilder


def random_pc_task(seed: int, bounded: bool = False) -> GroundTask:
    """bounded=True forces every producer to be a bounded producer, which keeps
    the reachable value lattice (and so the state space) finite."""
    rng = random.Random(seed)
    builder = TaskBuilder()
    n_vars = rng.randint(2, 3)
    n_facts = rng.randint(1, 3)
    # per-variable shared bounds: consumers all use lb 0; bounded producers
    # (if any) share one ub; initial values respect the bounds
    var_ub = {}
    variables = []
    for i in range(n_vars):
        ub = rng.randint(2, 6) if bounded else rng.choice([None, rng.randint(2, 6)])
        init = rng.randint(0, 3 if ub is None else min(3, ub))
        var = builder.var(f"(v{i})", init)
        var_ub[var] = ub
        variables.append(var)
    facts = [builder.fact(f"(p{i})", initially_true=rng.random() < 0.6)
             for i in range(n_facts)]

    n_actions = rng.randint(3, 5)
    for index in range(n_actions):
        pre = [f for f in facts if rng.random() < 0.3]
        add = [f for f in facts if rng.random() < 0.25]
        delete = [f for f in facts if f not in add and rng.random() < 0.2]
        num_pre = []
        effects = []
        for var in variables:
            roll = rng.random()
            if roll < 0.3:  # producer
                amount = rng.randint(1, 2)
                if var_ub[var] is None:
                    effects.append((var, "increase", amount))
                else:
                    num_pre.append(builder.condition({var: 1}, LE, var_ub[var] - amount))
                    effects.append((var, "increase", amount))
            elif roll < 0.55:  # consumer with lb 0
                amount = rng.randint(1, 2)
                num_pre.append(builder.condition({var: 1}, GE, amount))
                effects.append((var, "decrease", amount))
        builder.action(f"a{index}", pre=pre, num_pre=num_pre, add=add,
                       delete=delete, effects=effects)

    goal_facts = [f for f in facts if rng.random() < 0.3]
    goal_conditions = []
    for var in variables:
        if rng.random() < 0.5:
            goal_conditions.append(
                builder.condition({var: 1}, GE, rng.randint(1, 4)))
    if not goal_facts and not goal_conditions:
        goal_conditions.append(builder.condition({variables[0]: 1}, GE, 1))
    builder.goal(facts=goal_facts, conditions=goal_conditions)
    return builder.build()


def magnitude_reader_task() -> GroundTask:
    """`a0: v0 += v2 - 1, v2 += 1` from v0 = -1, v2 = 0, goal v0 >= 0: the
    upper bound of v0 holds for one layer while v2 keeps widening, and then
    moves again. A 4-step plan solves it."""
    builder = TaskBuilder()
    v0 = builder.var("(v0)", -1)
    builder.var("(v1)", 0)
    v2 = builder.var("(v2)", 0)
    builder.action("a0", effects=[(v0, "increase", ({v2: 1}, -1)),
                                  (v2, "increase", 1)])
    builder.goal(conditions=[builder.condition({v0: 1}, GE, 0)])
    return builder.build()
