"""Command-line front end: run a planner configuration on a problem, generate
benchmark instances, materialise bundled fixtures, and sweep config matrices.

Exit codes: 0 solved, 1 search exhausted, 2 usage error, 3 input error,
4 relaxed-unsolvable at the root state.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from pathlib import Path

from . import fixtures, generators, model, planner, rpg, search
from .errors import FlowplanError
from .lpmodel import HeuristicConfig
from .mpsolver import Counters

log = logging.getLogger(__name__)

EXIT_SOLVED = 0
EXIT_EXHAUSTED = 1
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_UNSOLVABLE = 4

STATS_SCHEMA_VERSION = "1"
STATS_HEADER = ["schema_version", "problem_id", "config", "solved", "status",
                "plan_length", "expansions", "evaluations", "lp_solves",
                "lp_build_time", "lp_solve_time", "wall_time"]

_INTS_CHOICES = {
    "minimal": "minimal",
    "first-layer": "first-layer",
    "prop-goal": "prop-goal-achievers",
    "num-goal": "num-goal-achievers",
    "all": "all",
}


def parse_weight(text: str) -> tuple[str, Fraction]:
    """--weight accepts 'k:<number>' for layer weighting, or 'hadd'/'hmax'."""
    if text in ("hadd", "hmax"):
        return text, Fraction(3)
    if text.startswith("k:"):
        try:
            return "layer", Fraction(text[2:])
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(
        f"weight must be k:<number>, hadd or hmax, got {text!r}")


def build_config(args) -> HeuristicConfig:
    scheme, k = args.weight
    return HeuristicConfig(
        weight_scheme=scheme,
        layer_k=k,
        integrality=_INTS_CHOICES[args.ints],
        include_prop_goals=args.lp_prop_goals,
        include_landmarks=args.lp_landmarks,
        include_all_propositions=args.lp_all_props,
        include_numeric_goal_conjunct=args.lp_num_goal_conjunct,
        max_layers=args.max_layers,
    )


def add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--heuristic", choices=planner.MODES, default=planner.MODE_LPRPG)
    parser.add_argument("--weight", type=parse_weight, default=("layer", Fraction(3)),
                        help="objective weighting: k:<number>, hadd or hmax (default k:3)")
    parser.add_argument("--ints", choices=sorted(_INTS_CHOICES), default="first-layer",
                        help="integrality policy for extraction-time solves")
    parser.add_argument("--lp-prop-goals", action=argparse.BooleanOptionalAction,
                        default=True, help="propositional goal rows in the LP")
    parser.add_argument("--lp-landmarks", action=argparse.BooleanOptionalAction,
                        default=True, help="landmark rows in the LP")
    parser.add_argument("--lp-all-props", action=argparse.BooleanOptionalAction,
                        default=False, help="full propositional encoding (experimental)")
    parser.add_argument("--lp-num-goal-conjunct", action=argparse.BooleanOptionalAction,
                        default=True, help="numeric goal conjunct rows in the LP")
    parser.add_argument("--wastar-weight", type=Fraction, default=Fraction(5))
    parser.add_argument("--no-ehc", action="store_true",
                        help="skip enforced hill-climbing, go straight to WA*")
    parser.add_argument("--max-expansions", type=int, default=search.DEFAULT_EXPANSION_BUDGET)
    parser.add_argument("--time-limit", type=float, default=search.DEFAULT_TIME_BUDGET)
    parser.add_argument("--max-layers", type=int, default=200)
    parser.add_argument("--action-cap", type=int, default=model.DEFAULT_GROUND_ACTION_CAP)
    parser.add_argument("--plan-file", type=Path, default=None)
    parser.add_argument("--stats-csv", type=Path, default=None,
                        help="append one stats row (header written when new)")
    parser.add_argument("--dump-classification", action="store_true",
                        help="print variable classification and count bounds")
    parser.add_argument("--dump-landmarks", action="store_true")
    parser.add_argument("--dump-rpg", action="store_true",
                        help="print the root state's layered graph")
    parser.add_argument("--dump-trace", action="store_true",
                        help="print the root state's relaxed-plan trace")
    parser.add_argument("--dump-lp", type=Path, default=None,
                        help="write the root state's flow model in LP format")


def stats_row(row: planner.RunStats, config: str) -> list:
    """One stats CSV row in the STATS_HEADER columns of schema version 1."""
    return [STATS_SCHEMA_VERSION, row.problem_id, config, int(row.solved), row.status,
            row.plan_length, row.expansions, row.evaluations, row.lp_solves,
            f"{row.lp_build_time:.6f}", f"{row.lp_solve_time:.6f}", f"{row.wall_time:.6f}"]


def append_stats(path: Path, row: planner.RunStats) -> None:
    new_file = not path.exists()
    with path.open("a", newline="") as handle:
        writer = csv.writer(handle)
        if new_file:
            writer.writerow(STATS_HEADER)
        writer.writerow(stats_row(row, row.fingerprint))


def _dump_debug(args, outcome: planner.PlanOutcome, config: HeuristicConfig) -> None:
    analysed = outcome.analysed
    task = analysed.task
    if args.dump_classification:
        cls = analysed.classification
        for var in range(len(task.var_names)):
            status = cls.status[var]
            ub = cls.ub[var] if cls.ub[var] is not None else "inf"
            lb = cls.lb[var] if cls.lb[var] is not None else "-inf"
            print(f"var {task.var_names[var]}: {status} lb={lb} ub={ub} "
                  f"producers={len(cls.prod[var])} consumers={len(cls.cons[var])}")
            if status == "non-conforming":
                print(f"  reason: {cls.reasons[var]}")
        for action in task.actions:
            print(f"count-bound {action.name}: {cls.count_bound[action.id]}")
        for oss in analysed.one_shot_sets:
            names = ", ".join(task.actions[a].name for a in oss.actions)
            print(f"one-shot over {task.fact_names[oss.fact]}: {names}")
    if args.dump_landmarks:
        for fact in analysed.landmarks.conjunctive:
            print(f"landmark {task.fact_names[fact]}")
        for group in analysed.landmarks.disjunctive:
            names = " | ".join(task.fact_names[f] for f in sorted(group))
            print(f"disjunctive landmark {names}")
    needs_root_graph = args.dump_rpg or args.dump_trace or args.dump_lp
    if not needs_root_graph:
        return
    evaluator = planner.Evaluator(analysed, config, outcome.effective_mode, Counters())
    mode = planner.RPG_MODES[outcome.effective_mode]
    view = evaluator.landmark_view(task.initial, task.initial.facts
                                   & evaluator.landmark_facts)
    graph = rpg.expand(analysed, task.initial, config, mode, Counters(), view)
    if args.dump_rpg:
        print(graph.dump(task))
    if args.dump_lp and graph.flow is not None:
        # the root flow model, without the goal rows its final check left
        graph.flow.close_goal_rows()
        with args.dump_lp.open("w") as handle:
            graph.flow.model.write_lp(handle)
        print(f"wrote {args.dump_lp}")
    if args.dump_trace:
        result = evaluator(task.initial, task.initial.facts & evaluator.landmark_facts)
        if result.dead_end:
            print("root state: dead end")
        else:
            print(f"root h = {result.h}")
            for action_id, count, layer, weight in result.trace:
                print(f"  layer {layer}: {task.actions[action_id].name} "
                      f"x{count} (weight {weight})")
            for action_id in sorted(result.helpful):
                print(f"  helpful: {task.actions[action_id].name}")


def check_budgets(args) -> None:
    """Reject a negative `--max-expansions` and a `--time-limit` that is
    negative or not a number; raises ValueError."""
    if args.max_expansions < 0:
        raise ValueError(f"--max-expansions must be at least 0, got {args.max_expansions}")
    if not args.time_limit >= 0:
        raise ValueError(f"--time-limit must be at least 0, got {args.time_limit}")


def cmd_run(args) -> int:
    try:
        config = build_config(args)
        check_budgets(args)
        if args.wastar_weight < 0:
            raise ValueError(f"--wastar-weight must be at least 0, got {args.wastar_weight}")
        if args.action_cap < 0:
            raise ValueError(f"--action-cap must be at least 0, got {args.action_cap}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        domain_text = args.domain.read_text()
        problem_text = args.problem.read_text()
        task = model.parse_and_ground(domain_text, problem_text, args.action_cap)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except FlowplanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    outcome = planner.plan_task(
        task, mode=args.heuristic, config=config, use_ehc=not args.no_ehc,
        wastar_weight=args.wastar_weight,
        budget=search.Budget(args.max_expansions, args.time_limit),
        problem_id=args.problem.stem)
    _dump_debug(args, outcome, config)

    if outcome.plan is not None:
        text = search.format_plan(task, outcome.plan)
        if text:
            print(text)
        if args.plan_file:
            args.plan_file.write_text(text + ("\n" if text else ""))
    print(f"; status: {outcome.status}  plan-length: {outcome.stats.plan_length}  "
          f"expansions: {outcome.stats.expansions}  "
          f"lp-solves: {outcome.stats.lp_solves}  "
          f"wall: {outcome.stats.wall_time:.2f}s", file=sys.stderr)
    if args.stats_csv:
        append_stats(args.stats_csv, outcome.stats)
    if outcome.status == search.SOLVED:
        return EXIT_SOLVED
    if outcome.status == search.UNSOLVABLE_AT_ROOT:
        return EXIT_UNSOLVABLE
    return EXIT_EXHAUSTED


def cmd_generate(args) -> int:
    try:
        domain_text, problem_text = generators.generate(
            args.name, args.size, args.seed, threshold=args.threshold)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    args.out.mkdir(parents=True, exist_ok=True)
    domain_path = args.out / f"{args.name}-domain.pddl"
    problem_path = args.out / f"{args.name}-{args.size}-{args.seed}.pddl"
    domain_path.write_text(domain_text)
    problem_path.write_text(problem_text)
    print(domain_path)
    print(problem_path)
    return EXIT_SOLVED


def cmd_fixture(args) -> int:
    try:
        domain_text, problem_text = fixtures.fixture(args.name)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    args.out.mkdir(parents=True, exist_ok=True)
    domain_path = args.out / f"{args.name}-domain.pddl"
    problem_path = args.out / f"{args.name}-problem.pddl"
    domain_path.write_text(domain_text)
    problem_path.write_text(problem_text)
    print(domain_path)
    print(problem_path)
    return EXIT_SOLVED


# -- bench -------------------------------------------------------------------

BUILTIN_CONFIGS: dict[str, dict] = {
    "lprpg-default": {},
    "metricff": {"heuristic": "metricff"},
    "metricff-sapa": {"heuristic": "metricff-sapa"},
    "lprpg-k1": {"weight": "k:1"},
    "lprpg-hadd": {"weight": "hadd"},
    "lprpg-prop-goals-only": {"lp_landmarks": False},
    "lprpg-no-props": {"lp_landmarks": False, "lp_prop_goals": False},
}


_CONFIG_KEYS = ("heuristic", "weight", "ints", "lp_prop_goals", "lp_landmarks",
                "lp_all_props", "lp_num_goal_conjunct")


def config_from_dict(spec: dict) -> tuple[str, HeuristicConfig]:
    """A bench config's heuristic mode and HeuristicConfig; ValueError names
    what is rejected."""
    if not isinstance(spec, dict):
        raise ValueError(f"a config must be a JSON object, got {spec!r}")
    unknown = sorted(set(spec) - set(_CONFIG_KEYS))
    if unknown:
        raise ValueError(f"unknown config key {', '.join(map(repr, unknown))}")
    mode = spec.get("heuristic", planner.MODE_LPRPG)
    if mode not in planner.MODES:
        raise ValueError(f"unknown heuristic {mode!r}")
    ints = spec.get("ints", "first-layer")
    if ints not in _INTS_CHOICES:
        raise ValueError(f"unknown ints policy {ints!r}; choose from "
                         f"{', '.join(sorted(_INTS_CHOICES))}")
    try:
        scheme, k = parse_weight(str(spec.get("weight", "k:3")))
    except argparse.ArgumentTypeError as exc:
        raise ValueError(str(exc)) from None
    for key in ("lp_prop_goals", "lp_landmarks", "lp_all_props", "lp_num_goal_conjunct"):
        if key in spec and not isinstance(spec[key], bool):
            raise ValueError(f"{key} must be true or false, got {spec[key]!r}")
    config = HeuristicConfig(
        weight_scheme=scheme,
        layer_k=k,
        integrality=_INTS_CHOICES[ints],
        include_prop_goals=spec.get("lp_prop_goals", True),
        include_landmarks=spec.get("lp_landmarks", True),
        include_all_propositions=spec.get("lp_all_props", False),
        include_numeric_goal_conjunct=spec.get("lp_num_goal_conjunct", True),
    )
    return mode, config


def bench_one(job: tuple) -> list:
    """One (problem, config) cell; failures never abort the sweep."""
    problem_id, domain_path, problem_path, config_name, mode, config, expansions, \
        seconds = job
    try:
        task = model.parse_and_ground(Path(domain_path).read_text(),
                                      Path(problem_path).read_text())
        outcome = planner.plan_task(task, mode=mode, config=config,
                                    budget=search.Budget(expansions, seconds),
                                    problem_id=problem_id)
        return stats_row(outcome.stats, f"{config_name}:{outcome.stats.fingerprint}")
    except Exception as exc:  # noqa: BLE001 - sweep must survive bad cells
        log.warning("bench cell %s/%s failed: %s", problem_id, config_name, exc)
        return [STATS_SCHEMA_VERSION, problem_id, config_name, 0,
                f"error: {exc}", 0, 0, 0, 0, "0", "0", "0"]


def cmd_bench(args) -> int:
    try:
        check_budgets(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        pairs = []
        with args.manifest.open() as handle:
            reader = csv.DictReader(handle)
            for entry in reader:
                pairs.append((entry["problem_id"], entry["domain"], entry["problem"]))
        if args.configs is not None:
            configs = json.loads(args.configs.read_text())
        else:
            configs = {name: BUILTIN_CONFIGS[name] for name in args.config_names}
    except (OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    # every config is checked before any problem is read
    if not isinstance(configs, dict):
        print("error: the configs file must hold a JSON object of named configs",
              file=sys.stderr)
        return EXIT_USAGE
    built = {}
    for config_name, spec in configs.items():
        try:
            built[config_name] = config_from_dict(spec)
        except ValueError as exc:
            print(f"error: config {config_name!r}: {exc}", file=sys.stderr)
            return EXIT_USAGE

    jobs = [(problem_id, domain, problem, config_name, mode, config,
             args.max_expansions, args.time_limit)
            for problem_id, domain, problem in pairs
            for config_name, (mode, config) in built.items()]
    if args.jobs > 1 and jobs:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(bench_one, jobs))
    else:
        rows = [bench_one(job) for job in jobs]

    with args.out.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(STATS_HEADER)
        writer.writerows(rows)
    coverage: dict[str, int] = {name: 0 for name in configs}
    for row in rows:
        config_name = row[2].split(":", 1)[0]
        coverage[config_name] = coverage.get(config_name, 0) + int(row[3])
    print("coverage per config:")
    for name in sorted(coverage):
        print(f"  {name}: {coverage[name]}/{len(pairs)}")
    return EXIT_SOLVED


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowplan",
        description="Forward numeric planner with an LP-tightened relaxed "
                    "planning graph heuristic")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="solve one domain/problem pair")
    run.add_argument("domain", type=Path)
    run.add_argument("problem", type=Path)
    add_run_flags(run)
    run.set_defaults(func=cmd_run)

    gen = sub.add_parser("generate", help="write a generated benchmark instance")
    gen.add_argument("name", choices=generators.GENERATOR_NAMES)
    gen.add_argument("--size", type=int, required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--threshold", type=int, default=None,
                     help="pump-catalyst flow threshold (above the pump count "
                          "gives an unsolvable instance)")
    gen.add_argument("--out", type=Path, default=Path("."))
    gen.set_defaults(func=cmd_generate)

    fix = sub.add_parser("fixture", help="write a bundled regression fixture")
    fix.add_argument("name", choices=fixtures.FIXTURE_NAMES)
    fix.add_argument("--out", type=Path, default=Path("."))
    fix.set_defaults(func=cmd_fixture)

    bench = sub.add_parser("bench", help="run a problem x config matrix")
    bench.add_argument("--manifest", type=Path, required=True,
                       help="CSV with columns problem_id,domain,problem")
    bench.add_argument("--configs", type=Path, default=None,
                       help="JSON file of named config dicts")
    bench.add_argument("--config-names", nargs="*",
                       default=["lprpg-default", "metricff"],
                       choices=sorted(BUILTIN_CONFIGS),
                       help="built-in configurations when --configs is absent")
    bench.add_argument("--out", type=Path, required=True)
    bench.add_argument("--jobs", type=int, default=1)
    bench.add_argument("--max-expansions", type=int, default=100_000)
    bench.add_argument("--time-limit", type=float, default=60.0)
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
