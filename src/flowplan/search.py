"""Enforced hill-climbing with helpful-action pruning, weighted A*, and the
independent plan validator.

EHC runs breadth-first plateau searches restricted to helpful actions,
committing to the first strictly better state it finds; when the pruned
plateau is exhausted it retries once from the last global best with all
applicable actions, and a new best re-enables pruning. Duplicate
detection is a closed list per plateau keyed on (facts, values, achieved
landmarks). WA* is complete: best-first on g + W*h over all applicable
actions with duplicate detection on the same key, ties broken by lower h
then FIFO.

A heuristic evaluation is a pure function of that same key, so each search
run evaluates every key once: a per-run memo maps the key to (h, helpful
actions), dead ends included, and is shared by every EHC plateau, the
unpruned retry and the WA* fallback of one run when the caller passes the
same dict to both searches. Memo hits never reach the evaluator, and
`SearchStats.evaluations` counts computed evaluations only.
"""

from __future__ import annotations

import heapq
import itertools
import logging
import time
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction

from .model import (
    GroundTask, Number, State, applicable, apply_effects, failing_condition, is_goal,
)

log = logging.getLogger(__name__)

SOLVED = "solved"
EXHAUSTED = "exhausted"
UNSOLVABLE_AT_ROOT = "relaxed-unsolvable-at-root"

DEFAULT_EXPANSION_BUDGET = 1_000_000
DEFAULT_TIME_BUDGET = 1800.0
DEFAULT_PLATEAU_DEPTH = 20


class SearchKey(tuple):
    """A node's duplicate-detection key, (facts, values, achieved
    landmarks), that hashes once. It compares as that tuple and hashes as
    it, but computes the hash when it is built (`_key`), so the memo and
    the closed list or best-g table never hash the values again; a
    Fraction's hash is a Python method, and a key is looked up two to four
    times."""

    def __hash__(self):
        return self.hash


def _key(state: State, achieved: frozenset[int]) -> SearchKey:
    key = SearchKey((state.facts, state.values, achieved))
    key.hash = tuple.__hash__(key)
    return key


@dataclass
class SearchNode:
    state: State
    parent: "SearchNode | None"
    action: int | None
    g: int
    h: Number | None
    helpful: frozenset[int]
    achieved: frozenset[int]  # landmark facts seen true on the path
    key: SearchKey            # the key the node was evaluated under

    def plan(self) -> list[int]:
        actions: list[int] = []
        node = self
        while node.parent is not None:
            actions.append(node.action)
            node = node.parent
        actions.reverse()
        return actions


# SearchNode.key -> (h, helpful) of one search run
Memo = dict[tuple, tuple[Number | None, frozenset[int]]]


@dataclass
class SearchStats:
    expansions: int = 0
    evaluations: int = 0  # computed evaluations; memo hits are not counted
    start_time: float = field(default_factory=time.perf_counter)

    def elapsed(self) -> float:
        return time.perf_counter() - self.start_time


@dataclass
class SearchResult:
    status: str
    plan: list[int] | None
    stats: SearchStats


class Budget:
    def __init__(self, max_expansions: int = DEFAULT_EXPANSION_BUDGET,
                 max_seconds: float = DEFAULT_TIME_BUDGET):
        self.max_expansions = max_expansions
        self.max_seconds = max_seconds

    def exceeded(self, stats: SearchStats) -> bool:
        return (stats.expansions >= self.max_expansions
                or stats.elapsed() >= self.max_seconds)


def _evaluate(evaluate, state: State, achieved: frozenset[int], memo: Memo,
              stats: SearchStats) -> tuple[SearchKey, Number | None, frozenset[int]]:
    """The key of (state, achieved) and its (h, helpful), calling the
    evaluator only on a memo miss."""
    key = _key(state, achieved)
    entry = memo.get(key)
    if entry is None:
        result = evaluate(state, achieved)
        stats.evaluations += 1
        entry = memo[key] = (result.h, result.helpful)
    return key, *entry


def _make_root(task: GroundTask, evaluate, landmark_facts: frozenset[int],
               memo: Memo, stats: SearchStats) -> SearchNode:
    achieved = task.initial.facts & landmark_facts
    key, h, helpful = _evaluate(evaluate, task.initial, achieved, memo, stats)
    return SearchNode(task.initial, None, None, 0, h, helpful, achieved, key)


def _child(task: GroundTask, node: SearchNode, action_id: int, evaluate,
           landmark_facts: frozenset[int], memo: Memo, stats: SearchStats) -> SearchNode:
    state = apply_effects(node.state, task.actions[action_id])
    achieved = node.achieved | (state.facts & landmark_facts)
    key, h, helpful = _evaluate(evaluate, state, achieved, memo, stats)
    return SearchNode(state, node, action_id, node.g + 1, h, helpful, achieved, key)


def ehc(task: GroundTask, evaluate, landmark_facts: frozenset[int] = frozenset(),
        budget: Budget | None = None, plateau_depth: int = DEFAULT_PLATEAU_DEPTH,
        stats: SearchStats | None = None, memo: Memo | None = None) -> SearchResult:
    budget = budget or Budget()
    stats = stats or SearchStats()
    memo = {} if memo is None else memo
    if is_goal(task.initial, task):
        return SearchResult(SOLVED, [], stats)
    root = _make_root(task, evaluate, landmark_facts, memo, stats)
    if root.h is None:
        return SearchResult(UNSOLVABLE_AT_ROOT, None, stats)

    best = root
    helpful_only = True
    while True:
        outcome, node = _plateau(task, best, evaluate, landmark_facts, memo, stats,
                                 budget, plateau_depth, helpful_only)
        if outcome == "goal":
            return SearchResult(SOLVED, node.plan(), stats)
        if outcome == "better":
            best = node
            helpful_only = True
            continue
        if outcome == "budget":
            return SearchResult(EXHAUSTED, None, stats)
        # plateau exhausted: retry once without pruning, then give up
        if helpful_only:
            helpful_only = False
            continue
        return SearchResult(EXHAUSTED, None, stats)


def _plateau(task: GroundTask, origin: SearchNode, evaluate, landmark_facts,
             memo: Memo, stats: SearchStats, budget: Budget, depth_cap: int,
             helpful_only: bool):
    """Breadth-first search for a state strictly better than the origin."""
    queue: deque[tuple[SearchNode, int]] = deque([(origin, 0)])
    closed = {origin.key}
    while queue:
        node, depth = queue.popleft()
        if depth >= depth_cap:
            continue
        if budget.exceeded(stats):
            return "budget", None
        stats.expansions += 1
        # both lists hold only actions applicable in node.state: the helpful
        # set comes from extract.helpful_closure on this very state
        if helpful_only:
            candidate_ids = sorted(node.helpful)
        else:
            candidate_ids = [a.id for a in task.actions if applicable(node.state, a)]
        for action_id in candidate_ids:
            child = _child(task, node, action_id, evaluate, landmark_facts, memo, stats)
            if is_goal(child.state, task):
                return "goal", child
            if child.h is None:
                continue  # dead ends are never expanded
            if child.h < origin.h:
                return "better", child
            if child.key not in closed:
                closed.add(child.key)
                queue.append((child, depth + 1))
    return "exhausted", None


def wastar(task: GroundTask, evaluate, weight: Fraction = Fraction(5),
           landmark_facts: frozenset[int] = frozenset(),
           budget: Budget | None = None,
           stats: SearchStats | None = None, memo: Memo | None = None) -> SearchResult:
    budget = budget or Budget()
    stats = stats or SearchStats()
    memo = {} if memo is None else memo
    if is_goal(task.initial, task):
        return SearchResult(SOLVED, [], stats)
    root = _make_root(task, evaluate, landmark_facts, memo, stats)
    if root.h is None:
        return SearchResult(UNSOLVABLE_AT_ROOT, None, stats)

    counter = itertools.count()
    open_heap: list[tuple] = []
    heapq.heappush(open_heap, (root.g + weight * root.h, root.h, next(counter), root))
    best_g: dict = {root.key: 0}
    while open_heap:
        if budget.exceeded(stats):
            return SearchResult(EXHAUSTED, None, stats)
        _, _, _, node = heapq.heappop(open_heap)
        if node.g > best_g.get(node.key, node.g):
            continue
        if is_goal(node.state, task):
            return SearchResult(SOLVED, node.plan(), stats)
        stats.expansions += 1
        for action in task.actions:
            if not applicable(node.state, action):
                continue
            child = _child(task, node, action.id, evaluate, landmark_facts, memo, stats)
            if child.h is None and not is_goal(child.state, task):
                continue
            if child.g >= best_g.get(child.key, child.g + 1):
                continue
            best_g[child.key] = child.g
            f = child.g + weight * (child.h or 0)
            heapq.heappush(open_heap, (f, child.h or 0, next(counter), child))
    return SearchResult(EXHAUSTED, None, stats)


# ---------------------------------------------------------------------------
# Independent validation


@dataclass
class ValidationReport:
    ok: bool
    step: int | None = None
    message: str = ""


def validate(task: GroundTask, plan: list[int]) -> ValidationReport:
    """Re-simulate the plan from the initial state, checking every precondition
    and the goal; reports the first failure instead of raising."""
    state = task.initial
    for step, action_id in enumerate(plan):
        action = task.actions[action_id]
        failure = failing_condition(state, action, task)
        if failure is not None:
            return ValidationReport(False, step,
                                    f"step {step} ({action.name}): {failure}")
        state = apply_effects(state, action)
    if not is_goal(state, task):
        return ValidationReport(False, len(plan), "goal not satisfied at plan end")
    return ValidationReport(True)


def format_plan(task: GroundTask, plan: list[int]) -> str:
    """IPC-style plan text: step index prefix, one action per line."""
    return "\n".join(f"{index}: {task.actions[action_id].name}"
                     for index, action_id in enumerate(plan))
