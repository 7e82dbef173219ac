"""flowplan benchmark: one workload, one process, one instance after another.

    python3 perfbench/run.py --workload lp-search --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the planner is imported from
`src/` next to this directory and nowhere else. Each pass parses, grounds
and plans every instance of the workload in turn (a closed loop with one
client) under an expansion budget only, then checks every outcome. With
`--trace 0` passes repeat while the next one still fits in `--seconds`
(at least three) and the end-to-end metrics are medians over passes, in
reference-speed seconds (see speed.py); with `--trace 1` one
untraced pass is followed by one traced pass, which wraps every layer
boundary and reports the per-layer metrics. The last line of standard
output is a JSON object with `correct`, `attempted`, `failed` and
`metrics`; the lines before it, and `perfbench/out/`, hold the run
environment, per-instance outcomes and, for a traced run, the spans and
their self-time summary.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import logging
import math
import os
import platform
import resource
import statistics
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from speed import SpeedClock  # noqa: E402
from tracing import DegradationCounter, TimedProbe, Tracer  # noqa: E402
from workloads import MAX_EXPANSIONS, WORKLOADS, Instance, pddl_sha256  # noqa: E402

# parse + ground + analyse of the whole workload, repeated before the
# passes so that setup_s is a median over many set-ups
SETUP_REPEATS = 7
# Untraced passes per run, at least: each timing is a median over passes
# made at different times, which discards what calibration misses.
MIN_PASSES = 3


class CheckoutError(Exception):
    """The planner sources are missing from the checkout."""


def load_planner() -> SimpleNamespace:
    """The flowplan modules the benchmark drives and wraps, from `src/`."""
    src = ROOT / "src"
    if not (src / "flowplan" / "__init__.py").is_file():
        raise CheckoutError(f"no flowplan sources under {src}")
    sys.path.insert(0, str(src))
    modules = {name: importlib.import_module(f"flowplan.{name}")
               for name in ("model", "pddl", "planner", "search", "rpg", "extract",
                            "lpmodel", "mpsolver", "generators")}
    loaded = Path(modules["model"].__file__).resolve().parent
    if loaded != (src / "flowplan").resolve():
        raise CheckoutError(f"flowplan imported from {loaded}, not from {src}")
    return SimpleNamespace(src=src, **modules)


@dataclass
class Outcome:
    problem: str
    status: str
    plan: tuple[int, ...] | None
    expansions: int
    evaluations: int
    lp_solves: int
    ground_actions: int
    valid: bool | None = None

    def exact(self) -> tuple:
        return (self.status, self.plan, self.expansions, self.evaluations, self.lp_solves)


@dataclass
class PassResult:
    """One pass over the workload; times are in reference-speed seconds,
    except `raw_instance_s`, which is plain wall time."""

    outcomes: list[Outcome]
    raw_instance_s: list[float]
    instance_s: list[float]
    setup_s: float
    eval_s: list[float] = field(default_factory=list)
    h_sum: Fraction = Fraction(0)
    degraded: dict[str, int] = field(default_factory=dict)

    @property
    def raw_wall_s(self) -> float:
        return sum(self.raw_instance_s)

    @property
    def wall_s(self) -> float:
        return sum(self.instance_s)

    @property
    def expansions(self) -> int:
        return sum(o.expansions for o in self.outcomes)

    @property
    def evaluations(self) -> int:
        return sum(o.evaluations for o in self.outcomes)

    @property
    def lp_solves(self) -> int:
        return sum(o.lp_solves for o in self.outcomes)

    @property
    def plan_len_sum(self) -> int:
        return sum(len(o.plan) for o in self.outcomes if o.plan is not None)

    def exact_counts(self) -> dict:
        """Counts that must not depend on timing or tracing."""
        return {"search.expansions": self.expansions,
                "search.evaluations": self.evaluations,
                "plan_len_sum": self.plan_len_sum,
                "extract.h_sum": self.h_sum,
                "mpsolver.solves": self.lp_solves,
                "outcomes": [o.exact() for o in self.outcomes]}


class Bench:
    def __init__(self, fp: SimpleNamespace, instances: list[Instance],
                 degraded: DegradationCounter):
        self.fp = fp
        self.degraded = degraded
        self.instances = instances
        self.texts = [fp.generators.generate(i.generator, i.size, i.seed,
                                             threshold=i.threshold)
                      for i in instances]
        self.configs = [fp.lpmodel.HeuristicConfig(include_all_propositions=i.all_props)
                        for i in instances]

    def setup_once(self, clock: SpeedClock) -> float:
        """Parse, ground and analyse every instance, as a pass does."""
        fp = self.fp
        clock.calibrate()
        start = perf_counter()
        for domain, problem in self.texts:
            task = fp.model.parse_and_ground(domain, problem)
            fp.planner.analyse(task, with_landmarks=True)
        end = perf_counter()
        clock.calibrate()
        return clock.normalise(start, end)

    def run_pass(self, clock: SpeedClock, trace: bool = False,
                 calibrate_evaluations: bool = True) -> tuple[PassResult, Tracer | None]:
        """Plan every instance once. Timings exclude validation and are
        normalised to reference speed; the clock calibrates between instances
        and, unless told not to, between evaluations."""
        fp = self.fp
        tracer = Tracer(fp, clock) if trace else None
        probe = None if trace else TimedProbe(
            fp, clock if calibrate_evaluations else None)
        budget_args = (MAX_EXPANSIONS, math.inf)
        tasks, outcomes, spans, parse_spans = [], [], [], []
        degraded_before = dict(self.degraded.counts)
        with tracer or probe:
            for index, instance in enumerate(self.instances):
                if tracer is not None:
                    tracer.begin_request(index)
                clock.calibrate()
                domain, problem = self.texts[index]
                t0 = perf_counter()
                task = fp.model.parse_and_ground(domain, problem)
                parse_spans.append((t0, perf_counter()))
                result = fp.planner.plan_task(
                    task, mode=instance.mode, config=self.configs[index],
                    budget=fp.search.Budget(*budget_args), problem_id=instance.id)
                spans.append((t0, perf_counter()))
                tasks.append(task)
                outcomes.append(Outcome(
                    instance.id, result.status, tuple(result.plan) if result.plan is not None else None,
                    result.stats.expansions, result.stats.evaluations,
                    result.stats.lp_solves, len(task.actions)))
            clock.calibrate()
        degraded = {kind: count - degraded_before[kind]
                    for kind, count in self.degraded.counts.items()}
        for task, outcome in zip(tasks, outcomes):
            if outcome.plan is not None:
                outcome.valid = fp.search.validate(task, list(outcome.plan)).ok

        def durations(intervals):
            return [clock.normalise(start, end) for start, end in intervals]

        raw = [end - start for start, end in spans]
        if tracer is not None:
            tracer.finish()
            return PassResult(outcomes, raw, durations(spans), 0.0, [], tracer.h_sum,
                              degraded), tracer
        setup_s = sum(durations(parse_spans + probe.analyse_spans))
        return PassResult(outcomes, raw, durations(spans), setup_s,
                          durations(probe.eval_spans), probe.h_sum, degraded), None

    def failures(self, result: PassResult) -> list[str]:
        """Instances whose outcome is not the expected one."""
        problems = []
        for instance, outcome in zip(self.instances, result.outcomes):
            if outcome.status != instance.expect:
                problems.append(f"{instance.id}: status {outcome.status}, "
                                f"expected {instance.expect}")
            elif outcome.plan is not None and not outcome.valid:
                problems.append(f"{instance.id}: plan fails search.validate")
        return problems


def count_mismatches(reference: dict, other: dict, label: str) -> list[str]:
    return [f"{label}: {key} {reference[key]!r} != {other[key]!r}"
            for key in reference if reference[key] != other[key]]


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read without starting git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def source_sha256(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((src / "flowplan").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(fp: SimpleNamespace, bench: Bench, args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(ROOT),
        "source_sha256": source_sha256(fp.src),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "max_expansions": MAX_EXPANSIONS,
        "instances": [{"id": i.id, "generator": i.generator, "size": i.size,
                       "generator_seed": i.seed, "threshold": i.threshold,
                       "config": i.config_name, "expect": i.expect,
                       "pddl_sha256": pddl_sha256(*text)}
                      for i, text in zip(bench.instances, bench.texts)],
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(passes: list[PassResult], setup_samples: list[float],
               failed: int, attempted: int) -> dict[str, float]:
    """Each instance's time, and each evaluation's, is the median over passes
    (the passes repeat the same evaluations in the same order); wall_s sums
    the instance medians."""
    wall_s = sum(statistics.median(times) for times in zip(*(p.instance_s for p in passes)))
    eval_ms = [1000 * statistics.median(times)
               for times in zip(*(p.eval_s for p in passes))]
    return {
        "wall_s": wall_s,
        "setup_s": statistics.median(setup_samples),
        "expansions_per_s": passes[0].expansions / wall_s,
        "eval_ms_p50": statistics.median(eval_ms),
        "eval_ms_p90": statistics.quantiles(eval_ms, n=10)[8],
        "correct_frac": (attempted - failed) / attempted,
        "plan_len_sum": passes[0].plan_len_sum,
        "peak_rss_mb": peak_rss_mb(),
    }


def metric_units(kind: str) -> dict[str, str]:
    """Names and units of the `end_to_end` or `per_layer` metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in spec[kind]}


def traced_metrics(untraced: PassResult, traced: PassResult,
                   tracer: Tracer) -> dict[str, float]:
    metrics = tracer.metrics()
    metrics["search.expansions"] = traced.expansions
    metrics["search.evaluations"] = traced.evaluations
    metrics["model.ground_actions"] = sum(o.ground_actions for o in traced.outcomes)
    for kind, count in traced.degraded.items():
        metrics[f"degraded.{kind}"] = count
    metrics["trace.wall_s"] = traced.wall_s
    metrics["trace.untraced_wall_s"] = untraced.wall_s
    metrics["trace.overhead_s"] = traced.wall_s - untraced.wall_s
    metrics["trace.spans"] = len(tracer.spans)
    return metrics


def run(args) -> int:
    try:
        fp = load_planner()
    except (CheckoutError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    degraded = DegradationCounter()
    logging.getLogger("flowplan").addHandler(degraded)
    bench = Bench(fp, WORKLOADS[args.workload](args.seed), degraded)

    env = environment(fp, bench, args)
    print("environment: " + json.dumps(env, sort_keys=True))
    started = perf_counter()
    clock = SpeedClock()
    setup_samples = [bench.setup_once(clock) for _ in range(SETUP_REPEATS)]

    passes: list[PassResult] = []
    tracer = None
    if args.trace:
        # both passes calibrate only between instances, so that their
        # difference is the tracing overhead alone
        passes.append(bench.run_pass(clock, calibrate_evaluations=False)[0])
        traced, tracer = bench.run_pass(clock, trace=True)
        runs = passes + [traced]
    else:
        while True:
            passes.append(bench.run_pass(clock)[0])
            elapsed = perf_counter() - started
            if len(passes) >= MIN_PASSES and elapsed + passes[-1].raw_wall_s > args.seconds:
                break
        runs = passes
        setup_samples += [p.setup_s for p in passes]

    # every pass must reproduce the first one's exact counts: a difference
    # would mean that timing or tracing changed what the planner did
    problems: list[str] = []
    failed = 0
    reference = runs[0].exact_counts()
    for number, result in enumerate(runs):
        pass_problems = bench.failures(result)
        failed += len(pass_problems)
        problems += pass_problems
        if number:
            label = "traced pass" if tracer is not None else f"pass {number}"
            problems += count_mismatches(reference, result.exact_counts(), label)
    attempted = len(bench.instances) * len(runs)

    if tracer is not None:
        untraced, traced = runs
        by_purpose = sum(tracer.solves.values())
        if by_purpose != untraced.lp_solves:
            problems.append(f"traced pass: {by_purpose} solves by purpose, "
                            f"{untraced.lp_solves} counted untraced")
        values = traced_metrics(untraced, traced, tracer)
        summary = tracer.summary(traced.wall_s, untraced.wall_s)
        units = metric_units("per_layer")
    else:
        values = end_to_end(passes, setup_samples, failed, attempted)
        summary = []
        units = metric_units("end_to_end")
    report = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    outcomes = [{"id": o.problem, "status": o.status, "valid": o.valid,
                 "plan_length": len(o.plan) if o.plan is not None else None,
                 "expansions": o.expansions, "evaluations": o.evaluations,
                 "lp_solves": o.lp_solves, "seconds": statistics.median(times)}
                for o, times in zip(runs[0].outcomes,
                                    zip(*(p.instance_s for p in passes)))]
    for line in outcome_lines(outcomes, passes, setup_samples, runs[-1].degraded):
        print(line)
    print(f"machine speed: {clock.speed():.3f} of the reference, "
          f"{len(clock.marks)} calibration units")
    for line in summary:
        print(line)
    for name, entry in report.items():
        print(f"metric {name} = {entry['value']:.6g} {entry['unit']}")
    for problem in problems:
        print(f"check failed: {problem}")
    write_outputs(args, env, outcomes, report, summary, tracer)

    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": report}))
    return 0


def outcome_lines(outcomes, passes, setup_samples, degraded) -> list[str]:
    lines = [f"instance {o['id']}: {o['status']} plan={o['plan_length']} "
             f"valid={o['valid']} expansions={o['expansions']} "
             f"evaluations={o['evaluations']} lp_solves={o['lp_solves']} "
             f"seconds={o['seconds']:.4f}"
             for o in outcomes]
    lines.append(f"untraced passes: {len(passes)}; raw wall_s "
                 + " ".join(f"{p.raw_wall_s:.4f}" for p in passes)
                 + "; normalised wall_s " + " ".join(f"{p.wall_s:.4f}" for p in passes))
    lines.append("setup_s samples: " + " ".join(f"{s:.4f}" for s in setup_samples))
    lines.append(f"evaluation samples: {sum(len(p.eval_s) for p in passes)} "
                 f"({passes[0].evaluations} per pass)")
    lines.append("degraded paths: " + json.dumps(degraded, sort_keys=True))
    return lines


def write_outputs(args, env, outcomes, report, summary, tracer) -> None:
    """Run record (and spans, when traced) under perfbench/out/."""
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"environment": env, "outcomes": outcomes, "metrics": report,
              "summary": summary}
    (out / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    if tracer is not None:
        with (out / f"{stem}-spans.jsonl").open("w") as handle:
            for span in tracer.span_records():
                handle.write(json.dumps(span) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time; passes repeat while the next fits")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
