"""Shared helpers: a flow model begun on a state, and a plan's count
vector evaluated against a flow model."""

from __future__ import annotations

from fractions import Fraction

from flowplan.lpmodel import FlowModel


def begun_flow(analysed, state, counters=None) -> FlowModel:
    """The task's flow model with the scope of `state` begun, as an
    evaluation begins it; no action has joined the layer yet."""
    flow = FlowModel(analysed, counters)
    flow.begin(state)
    return flow


def forced_columns(task, flow: FlowModel, counts: dict[int, int]) -> list[Fraction]:
    """Full column assignment implied by action counts: post-values from the
    flow equations, optimistic up/down bounds, switches on iff their group
    is used."""
    values = [Fraction(0)] * len(flow.model.variables)
    for action_id, col in flow.action_col.items():
        values[col] = Fraction(counts.get(action_id, 0))
    cls = flow.cls
    for var, col in flow.post_col.items():
        total = task.initial.values[var]
        for action_id, count in counts.items():
            total += cls.delta_of(action_id, var) * count
        values[col] = total
    for var, col in flow.up_col.items():
        total = task.initial.values[var]
        for action_id, count in counts.items():
            delta = cls.delta_of(action_id, var)
            if delta > 0:
                total += delta * count
        values[col] = total
    for var, col in flow.down_col.items():
        total = task.initial.values[var]
        for action_id, count in counts.items():
            delta = cls.delta_of(action_id, var)
            if delta < 0:
                total += delta * count
        values[col] = total
    for members, switch, _, _ in flow.switches:
        if any(counts.get(a, 0) for a in members):
            values[switch] = Fraction(1)
    return values
