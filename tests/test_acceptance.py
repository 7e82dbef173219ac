"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines as they complete. Criterion 8 runs real 60-second search budgets on
instances the interval heuristic cannot crack, so the whole suite takes
several minutes; `FLOWPLAN_ACCEPT_JOBS` sets the worker count for it.
"""

import os
import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

from flowplan import extract, generators, model, planner, rpg, search
from flowplan.analysis import analyse
from flowplan.fixtures import (
    CRT, CRT_WITH_PRODUCER, EXCHANGE_FRAGMENT, FIVE_CART, PUMP, PUMP_UNSOLVABLE,
    fixture,
)
from flowplan.lpmodel import (
    HeuristicConfig, INTS_FIRST_LAYER, INTS_MINIMAL, LandmarkView,
)

from bruteforce import all_plans, optimal_plan, reachable_states
from flowcheck import forced_columns
from microtasks import random_pc_task

PASS_LINE = "ACCEPTANCE {num} ({name}): PASS"


def report(num: int, name: str, started: float) -> None:
    print(f"\n{PASS_LINE.format(num=num, name=name)}  [{time.perf_counter() - started:.1f}s]")


def load(name: str) -> model.GroundTask:
    domain_text, problem_text = fixture(name)
    return model.parse_and_ground(domain_text, problem_text)


# -- 1: exact bounds on the two-layer fragment ---------------------------------


def test_criterion_1_exchange_fragment_bounds_exact():
    started = time.perf_counter()
    task = load(EXCHANGE_FRAGMENT)
    analysed = analyse(task)
    v0, v1 = task.var_id("(v0)"), task.var_id("(v1)")
    config = HeuristicConfig()

    interval_graph = rpg.expand(analysed, task.initial, config, rpg.METRICFF)
    assert interval_graph.numeric_layers[2][v0] == (Fraction(0), Fraction(4))
    assert interval_graph.numeric_layers[2][v1] == (Fraction(-2), Fraction(2))

    lp_graph = rpg.expand(analysed, task.initial, config, rpg.LPRPG)
    bounds = lp_graph.lp_bounds(2)
    assert bounds[v0] == (Fraction(0), Fraction(2))
    assert bounds[v1] == (Fraction(0), Fraction(2))

    assert time.perf_counter() - started < 1.0
    report(1, "exact exchange-fragment bounds", started)


# -- 2: cyclical resource transfer ----------------------------------------------


def test_criterion_2_crt_pathology():
    started = time.perf_counter()
    task = load(CRT)
    analysed = analyse(task)
    config = HeuristicConfig()

    graph = rpg.expand(analysed, task.initial, config, rpg.METRICFF)
    result = extract.extract_metricff(graph, task)
    assert result.h == 2
    names = sorted(task.actions[a].name for a, _, _, _ in result.trace)
    assert names == ["(load v1 p1)", "(unload v1 p1)"]

    evaluator = planner.Evaluator(analysed, config, planner.MODE_LPRPG)
    assert evaluator(task.initial).dead_end  # no producer: dead end

    producer_task = load(CRT_WITH_PRODUCER)
    producer_analysed = analyse(producer_task)
    producer_eval = planner.Evaluator(producer_analysed, config, planner.MODE_LPRPG)
    outcome = producer_eval(producer_task.initial)
    assert not outcome.dead_end
    chosen = [producer_task.actions[a].name for a, _, _, _ in outcome.trace]
    assert any(name.startswith("(fell") for name in chosen)

    assert time.perf_counter() - started < 1.0
    report(2, "CRT pathology", started)


# -- 3: five-cart integrality -----------------------------------------------------


def test_criterion_3_five_cart_integrality():
    started = time.perf_counter()
    task = load(FIVE_CART)
    analysed = analyse(task)

    config = HeuristicConfig(layer_k=Fraction(1), integrality=INTS_FIRST_LAYER)
    graph = rpg.expand(analysed, task.initial, config, rpg.LPRPG)
    result = extract.extract_lprpg(graph, analysed, LandmarkView(), config)
    lp_objective = sum(c for _, c, layer, _ in result.trace
                       if layer == graph.final_layer)
    assert lp_objective == 2
    assert result.h == 3
    helpful = [task.actions[a].name for a in result.helpful]
    assert len(helpful) == 1 and helpful[0].startswith("(load")

    relaxed_config = HeuristicConfig(layer_k=Fraction(1), integrality=INTS_MINIMAL)
    graph = rpg.expand(analysed, task.initial, relaxed_config, rpg.LPRPG)
    relaxed = extract.extract_lprpg(graph, analysed, LandmarkView(), relaxed_config)
    lp_objective = sum(c for _, c, layer, _ in relaxed.trace
                       if layer == graph.final_layer)
    assert lp_objective == 2
    helpful = [task.actions[a].name for a in relaxed.helpful]
    assert 1 <= len(helpful) <= 5
    assert all(name.startswith("(load") for name in helpful)

    assert time.perf_counter() - started < 1.0
    report(3, "five-cart integrality", started)


# -- 4: bound dominance over evaluated states --------------------------------------


def _dominance_instances():
    for name in (CRT, CRT_WITH_PRODUCER, FIVE_CART, PUMP):
        yield load(name)
    for size, seed in ((2, 11), (2, 12), (3, 11), (3, 12)):
        dom, prob = generators.generate(generators.MARKET_TRADER, size, seed)
        yield model.parse_and_ground(dom, prob)
    for size, seed in ((2, 1), (3, 1)):
        dom, prob = generators.generate(generators.MINI_SETTLERS, size, seed)
        yield model.parse_and_ground(dom, prob)


def test_criterion_4_bound_dominance_suite():
    started = time.perf_counter()
    config = HeuristicConfig()
    checked_states = 0
    violations = 0
    for task in _dominance_instances():
        analysed = analyse(task)
        if not analysed.classification.conforming():
            continue
        states: list[model.State] = []
        seen: set = set()

        def recorder(inner):
            def recording(state, achieved=frozenset()):
                key = (state.facts, state.values)
                if key not in seen:
                    seen.add(key)
                    states.append(state)
                return inner(state, achieved)
            return recording

        # evaluated states from both heuristics' searches count
        lp_eval = planner.Evaluator(analysed, config, planner.MODE_LPRPG)
        search.ehc(task, recorder(lp_eval), lp_eval.landmark_facts,
                   search.Budget(200, 15))
        ff_eval = planner.Evaluator(analysed, config, planner.MODE_METRICFF)
        search.ehc(task, recorder(ff_eval), ff_eval.landmark_facts,
                   search.Budget(400, 20))
        search.wastar(task, recorder(ff_eval), Fraction(5), ff_eval.landmark_facts,
                      search.Budget(250, 20))

        for state in states[:250]:
            lp_graph = rpg.expand(analysed, state, config, rpg.LPRPG)
            interval_graph = rpg.expand(analysed, state, config,
                                        rpg.METRICFF_UNBOUNDED)
            layers = min(len(lp_graph.numeric_layers),
                         len(interval_graph.numeric_layers))
            for layer in range(layers):
                lp_bounds = lp_graph.lp_bounds(layer)
                for var in range(len(task.var_names)):
                    interval_lo, interval_hi = interval_graph.numeric_layers[layer][var]
                    lp_lo, lp_hi = lp_bounds[var]
                    if interval_lo is not None and (lp_lo is None or lp_lo < interval_lo):
                        violations += 1
                    if interval_hi is not None and (lp_hi is None or lp_hi > interval_hi):
                        violations += 1
            checked_states += 1
    assert checked_states >= 1000, f"only {checked_states} states evaluated"
    assert violations == 0
    report(4, f"bound dominance over {checked_states} states", started)


# -- 5: relaxation soundness ----------------------------------------------------------


def test_criterion_5_relaxation_soundness_suite():
    started = time.perf_counter()
    config = HeuristicConfig()
    tasks_used = 0
    plans_checked = 0
    infeasible_roots = 0
    seed = 0
    while tasks_used < 50 and seed < 200:
        task = random_pc_task(seed, bounded=True)
        seed += 1
        analysed = analyse(task)
        if not analysed.classification.conforming():
            continue
        tasks_used += 1

        plans = all_plans(analysed.task, 6)
        for plan in plans[:30]:
            counts: dict[int, int] = {}
            for action_id in plan:
                counts[action_id] = counts.get(action_id, 0) + 1
            from flowplan.lpmodel import FlowModel
            flow = FlowModel(analysed, analysed.task.initial)
            flow.add_catalytic()
            flow.extend(sorted(counts))
            flow.add_goal_constraints(config, LandmarkView(), frozenset(counts))
            values = forced_columns(analysed.task, flow, counts)
            problems = flow.model.check_assignment(values)
            assert problems == [], f"seed {seed - 1} plan {plan}: {problems}"
            plans_checked += 1

        evaluator = planner.Evaluator(analysed, config, planner.MODE_LPRPG)
        if evaluator(analysed.task.initial).dead_end:
            infeasible_roots += 1
            # bounded producers keep the space finite: full enumeration
            space = reachable_states(analysed.task, max_states=100_000)
            assert not any(model.is_goal(s, analysed.task) for s in space), \
                f"seed {seed - 1}: flow model called solvable root infeasible"
    assert tasks_used >= 50
    report(5, f"relaxation soundness ({tasks_used} tasks, {plans_checked} plans, "
              f"{infeasible_roots} dead roots confirmed)", started)


# -- 6: solver oracles -------------------------------------------------------------------


def test_criterion_6_solver_oracles():
    started = time.perf_counter()
    from test_mpsolver import (
        DATA,
        test_branch_and_bound_matches_lattice_enumeration_on_200_random_mips,
        test_simplex_matches_vertex_enumeration_on_500_random_lps,
    )
    for data in DATA:
        test_simplex_matches_vertex_enumeration_on_500_random_lps(data)
        test_branch_and_bound_matches_lattice_enumeration_on_200_random_mips(data)
    report(6, f"solver oracles (500 LPs, 200 MIPs, each on {' and '.join(DATA)} data)",
           started)


# -- 7: search correctness ------------------------------------------------------------------


def test_criterion_7_search_correctness():
    started = time.perf_counter()
    validated = 0
    for name in (CRT_WITH_PRODUCER, FIVE_CART, PUMP):
        task = load(name)
        outcome = planner.plan_task(task, mode=planner.MODE_LPRPG,
                                    budget=search.Budget(5000, 30))
        assert outcome.status == search.SOLVED, name
        assert search.validate(task, outcome.plan).ok, name
        validated += 1
    for size, seed in ((2, 11), (3, 11)):
        dom, prob = generators.generate(generators.MARKET_TRADER, size, seed)
        task = model.parse_and_ground(dom, prob)
        outcome = planner.plan_task(task, mode=planner.MODE_LPRPG,
                                    budget=search.Budget(100_000, 60))
        assert outcome.status == search.SOLVED
        assert search.validate(task, outcome.plan).ok
        validated += 1

    def zero(state, achieved=frozenset()):
        return extract.HeuristicResult(Fraction(0), frozenset(), ())

    optimal_checked = 0
    for seed in range(20):
        task = random_pc_task(seed, bounded=True)
        best = optimal_plan(task, 6)
        result = search.wastar(task, zero, Fraction(1),
                               budget=search.Budget(50_000, 20))
        if best is None:
            continue
        assert result.status == search.SOLVED
        assert len(result.plan) == len(best), f"seed {seed}"
        assert search.validate(task, result.plan).ok
        optimal_checked += 1
    assert optimal_checked >= 8
    report(7, f"search correctness ({validated} plans validated, "
              f"{optimal_checked} optimal-length checks)", started)


# -- 8: coverage separation at desk scale -------------------------------------------------


SEPARATION_SUITE = [(2, 11), (2, 12), (3, 11), (3, 12), (4, 11),
                    (4, 12), (5, 11), (5, 12), (6, 11), (6, 12)]


def _separation_cell(job):
    markets, seed, mode = job
    domain_text, problem_text = generators.generate(
        generators.MARKET_TRADER, markets, seed)
    task = model.parse_and_ground(domain_text, problem_text)
    outcome = planner.plan_task(task, mode=mode,
                                budget=search.Budget(100_000, 60),
                                problem_id=f"mt-{markets}-{seed}")
    valid = outcome.plan is not None and search.validate(task, outcome.plan).ok
    return (markets, seed, mode, outcome.status, outcome.stats.expansions, valid)


def test_criterion_8_coverage_separation():
    started = time.perf_counter()
    jobs = [(markets, seed, mode)
            for markets, seed in SEPARATION_SUITE
            for mode in (planner.MODE_LPRPG, planner.MODE_METRICFF)]
    workers = int(os.environ.get("FLOWPLAN_ACCEPT_JOBS", "2"))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_separation_cell, jobs))
    else:
        rows = [_separation_cell(job) for job in jobs]

    by_cell = {(markets, seed, mode): (status, expansions, valid)
               for markets, seed, mode, status, expansions, valid in rows}
    lp_solved = ff_solved = 0
    for markets, seed in SEPARATION_SUITE:
        lp_status, lp_expansions, lp_valid = by_cell[(markets, seed, planner.MODE_LPRPG)]
        ff_status, ff_expansions, _ = by_cell[(markets, seed, planner.MODE_METRICFF)]
        if lp_status == search.SOLVED:
            assert lp_valid, f"mt-{markets}-{seed}: plan failed validation"
            lp_solved += 1
        if ff_status == search.SOLVED:
            ff_solved += 1
        if lp_status == search.SOLVED and ff_status == search.SOLVED:
            assert lp_expansions <= ff_expansions, \
                f"mt-{markets}-{seed}: {lp_expansions} > {ff_expansions}"
    assert lp_solved >= 8, f"lprpg solved only {lp_solved}/10"
    assert ff_solved <= 4, f"metricff solved {ff_solved}/10"
    report(8, f"coverage separation (lprpg {lp_solved}/10, metricff {ff_solved}/10)",
           started)


# -- 9: ablation direction checks -----------------------------------------------------------


ABLATION_SUITE = [("fixture", CRT_WITH_PRODUCER), ("fixture", FIVE_CART),
                  ("fixture", PUMP), ("mt", (2, 11)), ("mt", (2, 12)),
                  ("settlers", (2, 1))]


def _ablation_task(kind, spec):
    if kind == "fixture":
        return load(spec)
    if kind == "mt":
        domain_text, problem_text = generators.generate(
            generators.MARKET_TRADER, spec[0], spec[1])
    else:
        domain_text, problem_text = generators.generate(
            generators.MINI_SETTLERS, spec[0], spec[1])
    return model.parse_and_ground(domain_text, problem_text)


def _coverage(config: HeuristicConfig) -> int:
    solved = 0
    for kind, spec in ABLATION_SUITE:
        task = _ablation_task(kind, spec)
        outcome = planner.plan_task(task, mode=planner.MODE_LPRPG, config=config,
                                    budget=search.Budget(20_000, 45))
        solved += outcome.status == search.SOLVED
    return solved


def test_criterion_9_ablation_directions():
    started = time.perf_counter()
    weightings = {
        "k:1": HeuristicConfig(layer_k=Fraction(1)),
        "k:1.1": HeuristicConfig(layer_k=Fraction(11, 10)),
        "k:3": HeuristicConfig(layer_k=Fraction(3)),
        "hadd": HeuristicConfig(weight_scheme="hadd"),
    }
    coverage = {name: _coverage(config) for name, config in weightings.items()}
    best_other = max(count for name, count in coverage.items() if name != "k:1")
    assert coverage["k:1"] <= best_other, f"k:1 strictly best: {coverage}"

    prop_goals_only = _coverage(HeuristicConfig(include_landmarks=False))
    with_landmarks = _coverage(HeuristicConfig())
    assert with_landmarks >= prop_goals_only, \
        f"landmarks reduced coverage: {with_landmarks} < {prop_goals_only}"
    report(9, f"ablation directions (weights {coverage}, landmarks "
              f"{with_landmarks} >= prop-goals {prop_goals_only})", started)


# -- 10: degenerate inputs ---------------------------------------------------------------------


def test_criterion_10_degenerate_inputs():
    started = time.perf_counter()

    block = time.perf_counter()
    domain_text, problem_text = fixture(CRT)
    empty_goal_problem = problem_text.replace(
        "(:goal (>= (available p1) 2))", "(:goal ())")
    task = model.parse_and_ground(domain_text, empty_goal_problem)
    outcome = planner.plan_task(task, mode=planner.MODE_LPRPG)
    assert outcome.status == search.SOLVED and outcome.plan == []
    assert time.perf_counter() - block < 1.0

    block = time.perf_counter()
    satisfied_problem = problem_text.replace(
        "(:goal (>= (available p1) 2))", "(:goal (>= (available p1) 1))")
    task = model.parse_and_ground(domain_text, satisfied_problem)
    analysed = analyse(task)
    evaluator = planner.Evaluator(analysed, HeuristicConfig(), planner.MODE_LPRPG)
    result = evaluator(task.initial)
    assert result.h == 0
    assert time.perf_counter() - block < 1.0

    block = time.perf_counter()
    task = load(PUMP_UNSOLVABLE)
    outcome = planner.plan_task(task, mode=planner.MODE_LPRPG)
    assert outcome.status == search.UNSOLVABLE_AT_ROOT
    assert time.perf_counter() - block < 1.0

    report(10, "degenerate inputs", started)
