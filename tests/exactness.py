"""Exactness recorder: what a change to the planner must leave as it is.

For every instance of a benchmark workload (`perfbench/workloads.py`) at a
workload seed, `record_workload` plans the instance as the benchmark does,
under an expansion budget only, and records:
- its status, plan, whether the plan validates, expansions, evaluations
  and LP solves;
- a digest of every evaluation's (h, helpful actions), in order;
- every `MPModel.solve` call's (reads, status, objective, nonzero values),
  in order, as a short digest each and one digest over all; the values
  are keyed by column name and sorted, so models whose columns differ in
  number or order record the same solve alike, and every number carries
  its type;
- the run's `Counters` totals, times left out.

Two trees are compared by running the recorder on each and comparing the
two files, for example

    PYTHONPATH=src python tests/exactness.py lp-search 1 > new.json
    PYTHONPATH=src python tests/exactness.py --compare old.json new.json

The comparison prints, per instance, every field that differs and the
first solve whose record differs; pivot counts and the warm and cold
root counts, which a change to the simplex or to where a solve starts
may move, are listed apart, after all of those.

It is a helper module, not a test module: pytest collects nothing here.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import sys
from dataclasses import fields
from pathlib import Path

from flowplan import generators, model, mpsolver, planner, search
from flowplan.lpmodel import HeuristicConfig

_WORKLOADS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
_TIMES = ("build_time", "solve_time")
# counters that a change may move without moving any result, listed apart
_APART = ("pivots", "root_warm", "root_cold")


def _load_workloads():
    """perfbench/workloads.py, loaded by path so that perfbench's other
    modules never shadow an import."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", _WORKLOADS_PATH)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


def record_instance(instance) -> dict:
    """Plan one `workloads.Instance` and record what must not move."""
    domain, problem = generators.generate(instance.generator, instance.size, instance.seed,
                                          threshold=instance.threshold)
    task = model.parse_and_ground(domain, problem)
    solves: list[str] = []
    evaluations = hashlib.sha256()
    counters: list[mpsolver.Counters] = []
    real_solve = mpsolver.MPModel.solve
    real_evaluator = planner.Evaluator

    def recording_solve(self, reads=mpsolver.VERTEX):
        solution = real_solve(self, reads=reads)
        values = sorted((self.variables[col].name, value)
                        for col, value in enumerate(solution.values) if value)
        record = repr((reads, solution.status, solution.objective, values))
        solves.append(hashlib.sha256(record.encode()).hexdigest()[:16])
        return solution

    class RecordingEvaluator(real_evaluator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            counters.append(self.counters)

        def __call__(self, state, achieved=frozenset()):
            result = super().__call__(state, achieved)
            evaluations.update(repr((result.h, sorted(result.helpful))).encode() + b"\n")
            return result

    mpsolver.MPModel.solve = recording_solve
    planner.Evaluator = RecordingEvaluator
    try:
        outcome = planner.plan_task(
            task, mode=instance.mode,
            config=HeuristicConfig(include_all_propositions=instance.all_props),
            budget=search.Budget(workloads.MAX_EXPANSIONS, math.inf), problem_id=instance.id)
    finally:
        mpsolver.MPModel.solve = real_solve
        planner.Evaluator = real_evaluator
    (run_counters,) = counters
    plan = outcome.plan
    return {
        "id": instance.id,
        "status": outcome.status,
        "plan": plan,
        "valid": None if plan is None else search.validate(task, plan).ok,
        "expansions": outcome.stats.expansions,
        "evaluations": outcome.stats.evaluations,
        "lp_solves": outcome.stats.lp_solves,
        "evaluation_digest": evaluations.hexdigest(),
        "solve_digest": hashlib.sha256("\n".join(solves).encode()).hexdigest(),
        "solves": solves,
        "counters": {f.name: getattr(run_counters, f.name) for f in fields(run_counters)
                     if f.name not in _TIMES},
    }


def record_workload(name: str, seed: int) -> list[dict]:
    """One record per instance of workload `name` at workload seed `seed`."""
    return [record_instance(instance) for instance in workloads.WORKLOADS[name](seed)]


def compare(old: list[dict], new: list[dict]) -> list[str]:
    """Lines naming what differs between two recordings of one workload:
    per instance, each field, the first differing solve and each counter,
    and after all of those the pivot, warm-root and cold-root counts that
    moved. No line means the recordings agree."""
    lines = []
    if [r["id"] for r in old] != [r["id"] for r in new]:
        return ["the recordings hold different instances"]
    for a, b in zip(old, new):
        for key in a:
            if key in ("solves", "counters") or a[key] == b.get(key):
                continue
            lines.append(f"{a['id']}: {key} {a[key]!r} -> {b.get(key)!r}")
        first = next((i for i, (x, y) in enumerate(zip(a["solves"], b["solves"])) if x != y),
                     None)
        if first is not None:
            lines.append(f"{a['id']}: solve {first} is the first to differ")
        for key, value in a["counters"].items():
            if key not in _APART and value != b["counters"].get(key):
                lines.append(f"{a['id']}: counters.{key} {value} -> {b['counters'].get(key)}")
    for a, b in zip(old, new):
        for key in _APART:
            before, after = a["counters"].get(key), b["counters"].get(key)
            if before != after:
                lines.append(f"{a['id']}: {key} {before} -> {after} ({after - before:+d})")
    return lines


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", nargs="?", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("seed", nargs="?", type=int)
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="print how recording B differs from recording A")
    args = parser.parse_args()
    if args.compare:
        old, new = (json.loads(Path(path).read_text()) for path in args.compare)
        for line in compare(old, new) or ["identical"]:
            print(line)
        return
    if args.workload is None or args.seed is None:
        parser.error("a recording needs a workload and a seed")
    print(json.dumps(record_workload(args.workload, args.seed), indent=1))


if __name__ == "__main__":
    main()
