"""Spans and counts recorded from outside flowplan.

Nothing here edits the planner: each probe replaces a public entry point
(a module function or a class method) by a wrapper for the length of one
pass and puts the original back afterwards. `TimedProbe` wraps only the
two boundaries the end-to-end metrics need; `Tracer` wraps every layer
boundary, keeps spans (name, parent, start, end, request) in memory and
derives self times, LP solves by purpose and per-layer counts from them.
"""

from __future__ import annotations

import logging
from fractions import Fraction
from time import perf_counter

# Warning templates of the flowplan logger, keyed to degradation counters.
# A template not listed here counts as `other`, so a new silent fallback
# still shows up.
DEGRADATION_TEMPLATES = {
    "LP iteration limit during bound query; treating as unbounded": "lp_limit",
    "LP iteration limit during feasibility check; assuming feasible": "feasible_limit",
    "MIP limit during extraction; treating subgoal as satisfied": "mip_limit",
    "per-state LP budget exceeded during extraction; "
    "falling back to regression extraction": "lp_budget",
    "RPG layer cap (%d) reached; treating state as relaxed-unsolvable": "layer_cap",
    "task outside the producer-consumer fragment; "
    "falling back to the interval heuristic": "fallback",
    # one line per offending variable, always followed by the fallback above
    "non-conforming variable: %s": None,
}
DEGRADATION_KINDS = ("lp_limit", "feasible_limit", "mip_limit", "lp_budget",
                     "layer_cap", "fallback", "other")

# The parent span of an MPModel.solve names the purpose of the solve.
SOLVE_PURPOSES = {
    "lpmodel.query_bound": "bound",
    "lpmodel.feasible": "goal_check",
    "extract.lprpg": "extract",
}
PURPOSES = ("bound", "goal_check", "extract", "other")
SOLVE_STATUSES = ("optimal", "infeasible", "unbounded", "limit")


class DegradationCounter(logging.Handler):
    """Counts the planner's degraded-path warnings by message template."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.counts = dict.fromkeys(DEGRADATION_KINDS, 0)

    def emit(self, record: logging.LogRecord) -> None:
        kind = DEGRADATION_TEMPLATES.get(record.msg, "other")
        if kind is not None:
            self.counts[kind] += 1


class _Patches:
    """Replaced attributes, restored in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make_wrapper) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class TimedProbe:
    """Wraps `planner.analyse` and `planner.Evaluator.__call__` only.

    Records the (start, end) of every call; before an evaluation it lets the
    speed clock calibrate, so that no calibration falls inside a timing.
    """

    def __init__(self, fp, clock):
        self.fp = fp
        self.clock = clock
        self.analyse_spans: list[tuple[float, float]] = []
        self.eval_spans: list[tuple[float, float]] = []
        self.h_sum = Fraction(0)
        self._patches = _Patches()

    def __enter__(self) -> "TimedProbe":
        probe = self

        def analyse_wrapper(original):
            def analyse(*args, **kwargs):
                start = perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    probe.analyse_spans.append((start, perf_counter()))
            return analyse

        def evaluate_wrapper(original):
            def evaluate(*args, **kwargs):
                if probe.clock is not None:
                    probe.clock.tick()
                start = perf_counter()
                result = original(*args, **kwargs)
                probe.eval_spans.append((start, perf_counter()))
                if result.h is not None:
                    probe.h_sum += result.h
                return result
            return evaluate

        self._patches.replace(self.fp.planner, "analyse", analyse_wrapper)
        self._patches.replace(self.fp.planner.Evaluator, "__call__", evaluate_wrapper)
        return self

    def __exit__(self, *exc) -> None:
        self._patches.restore()


class Tracer:
    """Spans at every layer boundary plus the counts measured at them.

    Span times are normalised by the speed clock, which calibrates only
    between instances during a traced pass, so no span contains a unit.
    """

    def __init__(self, fp, clock):
        self.fp = fp
        self.clock = clock
        self.spans: list[list] = []  # [name, parent index, start, end, request]
        self._durations: list[float] = []
        self.request = -1
        self._stack = [-1]
        self._patches = _Patches()
        self.solves = dict.fromkeys(PURPOSES, 0)
        self.solve_status = dict.fromkeys(SOLVE_STATUSES, 0)
        self.rows_total = 0
        self.cols_total = 0
        self.bound_calls = 0
        self._bound_spans_solved: set[int] = set()
        self.expand_layers = 0
        self.expand_unsolvable = 0
        self.extract_calls = 0
        self.h_sum = Fraction(0)
        self.evaluate_calls = 0
        self.dead_ends = 0
        self.distinct_keys = 0
        self._keys: set = set()
        self.wastar_runs = 0

    def begin_request(self, request: int) -> None:
        """Start a new instance: evaluation keys are only comparable within one."""
        self.request = request
        self.distinct_keys += len(self._keys)
        self._keys = set()

    def finish(self) -> None:
        self.begin_request(-1)

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, owner, attr: str, name: str, after=None) -> None:
        spans, stack, tracer = self.spans, self._stack, self

        def make(original):
            def traced(*args, **kwargs):
                index = len(spans)
                span = [name, stack[-1], 0.0, 0.0, tracer.request]
                spans.append(span)
                stack.append(index)
                span[2] = perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    span[3] = perf_counter()
                    stack.pop()
                if after is not None:
                    after(index, args, kwargs, result)
                return result
            return traced

        self._patches.replace(owner, attr, make)

    def __enter__(self) -> "Tracer":
        fp = self.fp
        self._wrap(fp.pddl, "parse_domain", "pddl.parse_domain")
        self._wrap(fp.pddl, "parse_problem", "pddl.parse_problem")
        self._wrap(fp.model, "ground", "model.ground")
        self._wrap(fp.model, "rewrite_strict_inequalities", "model.rewrite_strict")
        self._wrap(fp.model, "parse_and_ground", "model.parse_and_ground")
        self._wrap(fp.planner, "plan_task", "planner.plan_task")
        self._wrap(fp.planner, "analyse", "analysis.analyse")
        self._wrap(fp.search, "ehc", "search.ehc")
        self._wrap(fp.search, "wastar", "search.wastar", self._after_wastar)
        self._wrap(fp.planner.Evaluator, "__call__", "planner.evaluate",
                   self._after_evaluate)
        self._wrap(fp.rpg, "expand", "rpg.expand", self._after_expand)
        self._wrap(fp.extract, "extract_lprpg", "extract.lprpg", self._after_extract)
        self._wrap(fp.extract, "extract_metricff", "extract.metricff",
                   self._after_extract)
        self._wrap(fp.lpmodel.FlowModel, "query_bound", "lpmodel.query_bound",
                   self._after_query_bound)
        self._wrap(fp.lpmodel.FlowModel, "feasible", "lpmodel.feasible")
        self._wrap(fp.mpsolver.MPModel, "solve", "mpsolver.solve", self._after_solve)
        return self

    def __exit__(self, *exc) -> None:
        self._patches.restore()

    # -- counts at the boundaries ----------------------------------------------

    def _parent_name(self, index: int) -> str | None:
        parent = self.spans[index][1]
        return self.spans[parent][0] if parent >= 0 else None

    def _after_solve(self, index, args, kwargs, solution) -> None:
        model = args[0]
        purpose = SOLVE_PURPOSES.get(self._parent_name(index), "other")
        self.solves[purpose] += 1
        self.solve_status[solution.status] += 1
        self.rows_total += len(model.constraints)
        self.cols_total += len(model.variables)
        if purpose == "bound":
            self._bound_spans_solved.add(self.spans[index][1])

    def _after_query_bound(self, index, args, kwargs, result) -> None:
        self.bound_calls += 1

    def _after_expand(self, index, args, kwargs, graph) -> None:
        self.expand_layers += graph.final_layer
        if graph.status != self.fp.rpg.GOALS_REACHED:
            self.expand_unsolvable += 1

    def _after_extract(self, index, args, kwargs, result) -> None:
        # the LP extractor may fall back to the regression one; count the
        # outermost extraction only
        if not (self._parent_name(index) or "").startswith("extract."):
            self.extract_calls += 1
            if result.h is not None:
                self.h_sum += result.h

    def _after_evaluate(self, index, args, kwargs, result) -> None:
        self.evaluate_calls += 1
        if result.h is None:
            self.dead_ends += 1
        state = args[1]
        achieved = args[2] if len(args) > 2 else kwargs.get("achieved", frozenset())
        self._keys.add((state.facts, state.values, achieved))

    def _after_wastar(self, index, args, kwargs, result) -> None:
        self.wastar_runs += 1

    # -- derived figures --------------------------------------------------------

    def durations(self) -> list[float]:
        """Reference-speed seconds of every span."""
        if len(self._durations) != len(self.spans):
            self._durations = [self.clock.normalise(start, end)
                               for _, _, start, end, _ in self.spans]
        return self._durations

    def by_name(self) -> dict[str, dict[str, float]]:
        """Calls, total seconds and self seconds per span name; a span's self
        time is its duration minus the durations of its children."""
        durations = self.durations()
        child_time = [0.0] * len(self.spans)
        for (_, parent, _, _, _), duration in zip(self.spans, durations):
            if parent >= 0:
                child_time[parent] += duration
        table: dict[str, dict[str, float]] = {}
        for index, (name, _, _, _, _) in enumerate(self.spans):
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += durations[index]
            row["self_s"] += durations[index] - child_time[index]
        return table

    def solve_seconds(self) -> dict[str, float]:
        seconds = dict.fromkeys(PURPOSES, 0.0)
        for index, (name, _, _, _, _) in enumerate(self.spans):
            if name == "mpsolver.solve":
                purpose = SOLVE_PURPOSES.get(self._parent_name(index), "other")
                seconds[purpose] += self.durations()[index]
        return seconds

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics, named as in BENCHMARK.json."""
        table = self.by_name()

        def total(*names: str) -> float:
            return sum(table.get(n, {}).get("total_s", 0.0) for n in names)

        def self_time(*names: str) -> float:
            return sum(table.get(n, {}).get("self_s", 0.0) for n in names)

        solves = sum(self.solves.values())
        seconds = self.solve_seconds()
        out: dict[str, float] = {}
        for purpose in PURPOSES:
            out[f"mpsolver.solves.{purpose}"] = self.solves[purpose]
            out[f"mpsolver.solve_s.{purpose}"] = seconds[purpose]
        for status in SOLVE_STATUSES:
            out[f"mpsolver.status.{status}"] = self.solve_status[status]
        out["mpsolver.rows_mean"] = self.rows_total / solves if solves else 0.0
        out["mpsolver.cols_mean"] = self.cols_total / solves if solves else 0.0
        out["lpmodel.query_bound_calls"] = self.bound_calls
        out["lpmodel.query_bound_s"] = total("lpmodel.query_bound")
        out["lpmodel.query_bound_solver_frac"] = (
            len(self._bound_spans_solved) / self.bound_calls if self.bound_calls else 0.0)
        out["lpmodel.feasible_calls"] = table.get("lpmodel.feasible", {}).get("calls", 0)
        out["lpmodel.feasible_s"] = total("lpmodel.feasible")
        out["rpg.expand_calls"] = table.get("rpg.expand", {}).get("calls", 0)
        out["rpg.expand_self_s"] = self_time("rpg.expand")
        out["rpg.layers_sum"] = self.expand_layers
        out["rpg.unsolvable"] = self.expand_unsolvable
        out["extract.calls"] = self.extract_calls
        out["extract.self_s"] = self_time("extract.lprpg", "extract.metricff")
        out["extract.h_sum"] = float(self.h_sum)
        out["planner.evaluate_calls"] = self.evaluate_calls
        out["planner.evaluate_s"] = total("planner.evaluate")
        out["planner.dead_ends"] = self.dead_ends
        out["search.self_s"] = self_time("search.ehc", "search.wastar")
        out["search.ehc_s"] = total("search.ehc")
        out["search.wastar_s"] = total("search.wastar")
        out["search.wastar_runs"] = self.wastar_runs
        out["search.distinct_ratio"] = (
            self.distinct_keys / self.evaluate_calls if self.evaluate_calls else 0.0)
        out["pddl.parse_s"] = total("pddl.parse_domain", "pddl.parse_problem")
        out["model.ground_s"] = total("model.ground", "model.rewrite_strict")
        out["analysis.analyse_s"] = total("analysis.analyse")
        return out

    def summary(self, wall_s: float, untraced_wall_s: float) -> list[str]:
        """Self-time table, LP solves by purpose and the tracing overhead."""
        table = self.by_name()
        lines = [f"{'span':<26}{'calls':>8}{'total_s':>11}{'self_s':>11}{'self%':>8}"]
        for name, row in sorted(table.items(), key=lambda item: -item[1]["self_s"]):
            share = 100 * row["self_s"] / wall_s if wall_s else 0.0
            lines.append(f"{name:<26}{row['calls']:>8}{row['total_s']:>11.4f}"
                         f"{row['self_s']:>11.4f}{share:>7.1f}%")
        seconds = self.solve_seconds()
        lines.append("LP solves by purpose (parent span of mpsolver.solve):")
        for purpose in PURPOSES:
            lines.append(f"  {purpose:<12}{self.solves[purpose]:>8} solves"
                         f"{seconds[purpose]:>11.4f} s")
        overhead = wall_s - untraced_wall_s
        share = 100 * overhead / untraced_wall_s if untraced_wall_s else 0.0
        lines.append(f"tracing overhead: {overhead:.4f} s ({share:.1f}% of the untraced "
                     f"{untraced_wall_s:.4f} s; {len(self.spans)} spans)")
        return lines

    def span_records(self):
        """Spans with raw clock times and their reference-speed duration."""
        for index, (name, parent, start, end, request) in enumerate(self.spans):
            yield {"id": index, "name": name, "parent": parent, "request": request,
                   "start": start, "end": end, "seconds": self.durations()[index]}
