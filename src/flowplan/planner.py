"""End-to-end planning pipeline: analysis, heuristic evaluation, search.

Wires the static analysis into per-state heuristic evaluators for the
four heuristic modes and drives EHC followed by WA*. Falls back from the
LP heuristic to the interval heuristic (with a logged warning) when the
task does not conform to the producer-consumer fragment.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from fractions import Fraction

from . import extract, model, rpg, search
from .analysis import AnalysedTask, analyse
from .errors import FlowplanError
from .lpmodel import HeuristicConfig, LandmarkView
from .mpsolver import Counters

log = logging.getLogger(__name__)

MODE_LPRPG = "lprpg"
MODE_METRICFF = "metricff"
MODE_METRICFF_SAPA = "metricff-sapa"
MODE_LPRPG_FF = "lprpg-ff"

MODES = (MODE_LPRPG, MODE_METRICFF, MODE_METRICFF_SAPA, MODE_LPRPG_FF)

# the planning graph each heuristic mode expands
RPG_MODES = {
    MODE_LPRPG: rpg.LPRPG,
    MODE_METRICFF: rpg.METRICFF,
    MODE_METRICFF_SAPA: rpg.METRICFF,
    MODE_LPRPG_FF: rpg.METRICFF_UNBOUNDED,
}


def config_fingerprint(mode: str, config: HeuristicConfig) -> str:
    parts = [mode]
    if config.weight_scheme == "layer":
        parts.append(f"k:{config.layer_k}")
    else:
        parts.append(config.weight_scheme)
    parts.append(config.integrality)
    flags = []
    if config.include_prop_goals:
        flags.append("pg")
    if config.include_landmarks:
        flags.append("lm")
    if config.include_all_propositions:
        flags.append("allp")
    if config.include_numeric_goal_conjunct:
        flags.append("ngc")
    parts.append("+".join(flags) if flags else "nolp")
    return "|".join(parts)


class Evaluator:
    """Per-state heuristic evaluation for one search run.

    Evaluation is a pure function of (state, achieved landmarks) given the
    immutable analysed task, so concurrent evaluations only need separate
    Evaluator instances (each builds its own flow models).
    """

    def __init__(self, analysed: AnalysedTask, config: HeuristicConfig, mode: str,
                 counters: Counters | None = None):
        if mode not in MODES:
            raise FlowplanError(f"unknown heuristic mode {mode}")
        self.analysed = analysed
        self.config = config
        self.mode = mode
        self.counters = counters if counters is not None else Counters()
        lm = analysed.landmarks
        self.landmark_facts = frozenset(lm.conjunctive) | frozenset(
            fact for group in lm.disjunctive for fact in group)

    def landmark_view(self, state: model.State,
                      achieved: frozenset[int]) -> LandmarkView:
        lm = self.analysed.landmarks
        conjunctive = tuple(f for f in lm.conjunctive if f not in achieved)
        disjunctive = tuple(g for g in lm.disjunctive if not (g & achieved))
        return LandmarkView(conjunctive, disjunctive)

    def __call__(self, state: model.State,
                 achieved: frozenset[int] = frozenset()) -> extract.HeuristicResult:
        if self.mode == MODE_LPRPG:
            view = self.landmark_view(state, achieved)
            graph = rpg.expand(self.analysed, state, self.config, rpg.LPRPG,
                               self.counters, view)
            if graph.status != rpg.GOALS_REACHED:
                return extract.DEAD_END
            return extract.extract_lprpg(graph, self.analysed, view, self.config)
        graph = rpg.expand(self.analysed, state, self.config, RPG_MODES[self.mode],
                           self.counters)
        if graph.status != rpg.GOALS_REACHED:
            return extract.DEAD_END
        result = extract.extract_metricff(graph, self.analysed.task)
        if self.mode == MODE_METRICFF_SAPA and result.h is not None:
            counts: dict[int, int] = {}
            for action_id, count, _, _ in result.trace:
                counts[action_id] = counts.get(action_id, 0) + int(count)
            penalty = rpg.sapa_penalty(state, counts, self.analysed)
            if penalty:
                result = extract.HeuristicResult(result.h + penalty, result.helpful,
                                                 result.trace)
        return result


@dataclass
class RunStats:
    """One row of the versioned stats CSV (see cli.STATS_HEADER)."""

    problem_id: str
    fingerprint: str
    solved: bool = False
    status: str = ""
    plan_length: int = 0
    expansions: int = 0
    evaluations: int = 0         # computed evaluations; memo hits excluded
    lp_solves: int = 0
    lp_build_time: float = 0.0
    lp_solve_time: float = 0.0
    wall_time: float = 0.0


@dataclass
class PlanOutcome:
    status: str                  # solved | exhausted | relaxed-unsolvable-at-root
    plan: list[int] | None
    effective_mode: str
    stats: RunStats
    analysed: AnalysedTask


def plan_task(task: model.GroundTask, mode: str = MODE_LPRPG,
              config: HeuristicConfig | None = None,
              use_ehc: bool = True,
              wastar_weight: Fraction = Fraction(5),
              budget: search.Budget | None = None,
              problem_id: str = "task") -> PlanOutcome:
    """Analyse and solve one ground task under one configuration."""
    config = config or HeuristicConfig()
    started = time.perf_counter()
    counters = Counters()
    analysed = analyse(task, with_landmarks=True)

    effective_mode = mode
    if mode == MODE_LPRPG and not analysed.classification.conforming():
        for line in analysed.classification.non_conforming_report(analysed.task):
            log.warning("non-conforming variable: %s", line)
        log.warning("task outside the producer-consumer fragment; "
                    "falling back to the interval heuristic")
        effective_mode = MODE_METRICFF

    evaluator = Evaluator(analysed, config, effective_mode, counters)
    stats = search.SearchStats()
    budget = budget or search.Budget()
    # one evaluation per distinct key across EHC and the WA* fallback
    memo: search.Memo = {}

    result = None
    if use_ehc:
        result = search.ehc(analysed.task, evaluator, evaluator.landmark_facts,
                            budget, stats=stats, memo=memo)
    if result is None or result.status == search.EXHAUSTED:
        if not budget.exceeded(stats):
            result = search.wastar(analysed.task, evaluator, wastar_weight,
                                   evaluator.landmark_facts, budget, stats=stats,
                                   memo=memo)

    run = RunStats(
        problem_id=problem_id,
        fingerprint=config_fingerprint(effective_mode, config),
        solved=result.status == search.SOLVED,
        status=result.status,
        plan_length=len(result.plan) if result.plan is not None else 0,
        expansions=stats.expansions,
        evaluations=stats.evaluations,
        lp_solves=counters.solves,
        lp_build_time=counters.build_time,
        lp_solve_time=counters.solve_time,
        wall_time=time.perf_counter() - started,
    )
    return PlanOutcome(result.status, result.plan, effective_mode, run, analysed)
