"""Exactness recorder: what a change to the planner must leave as it is.

For every instance of a benchmark workload (`perfbench/workloads.py`) at a
workload seed, `record_workload` plans the instance as the benchmark does,
under an expansion budget only, and records:
- its status, plan, whether the plan validates, expansions, evaluations
  and LP solves;
- a digest of every evaluation's (h, helpful actions), in order;
- a digest of every `MPModel.solve` call's (reads, status, objective,
  values), in order, with the type of every number;
- the run's `Counters` totals, times left out.

Two trees are compared by running the recorder on each and comparing the
output, for example

    PYTHONPATH=src python tests/exactness.py lp-search 1 > lp-search-1.json

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
    solves = hashlib.sha256()
    evaluations = hashlib.sha256()
    counters: list[mpsolver.Counters] = []
    real_solve = mpsolver.MPModel.solve
    real_evaluator = planner.Evaluator

    def recording_solve(self, reads=mpsolver.VERTEX):
        solution = real_solve(self, reads=reads)
        solves.update(repr((reads, solution.status, solution.objective,
                            solution.values)).encode() + b"\n")
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
        "solve_digest": solves.hexdigest(),
        "counters": {f.name: getattr(run_counters, f.name) for f in fields(run_counters)
                     if f.name not in _TIMES},
    }


def record_workload(name: str, seed: int) -> list[dict]:
    """One record per instance of workload `name` at workload seed `seed`."""
    return [record_instance(instance) for instance in workloads.WORKLOADS[name](seed)]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("seed", type=int)
    args = parser.parse_args()
    print(json.dumps(record_workload(args.workload, args.seed), indent=1))


if __name__ == "__main__":
    main()
