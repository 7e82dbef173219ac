"""Command-line surface: exit codes, flag defaults, stats rows, bench sweeps."""

import csv
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from flowplan import cli, planner
from flowplan.cli import STATS_HEADER, make_parser
from flowplan.fixtures import CRT, EXCHANGE_FRAGMENT, PUMP, PUMP_UNSOLVABLE, fixture
from flowplan.lpmodel import HeuristicConfig


def write_fixture(tmp_path: Path, name: str) -> tuple[Path, Path]:
    domain_text, problem_text = fixture(name)
    domain = tmp_path / f"{name}-d.pddl"
    problem = tmp_path / f"{name}-p.pddl"
    domain.write_text(domain_text)
    problem.write_text(problem_text)
    return domain, problem


def test_default_flags_match_reference_configuration():
    parser = make_parser()
    args = parser.parse_args(["run", "d.pddl", "p.pddl"])
    config = cli.build_config(args)
    assert args.heuristic == planner.MODE_LPRPG
    assert config.weight_scheme == "layer" and config.layer_k == Fraction(3)
    assert config.integrality == "first-layer"
    assert config.include_prop_goals and config.include_landmarks
    assert config.include_numeric_goal_conjunct
    assert not config.include_all_propositions
    assert planner.config_fingerprint(args.heuristic, config) == \
        "lprpg|k:3|first-layer|pg+lm+ngc"


def test_unknown_flag_exits_with_usage_error():
    result = subprocess.run(
        [sys.executable, "-m", "flowplan.cli", "run", "d", "p", "--frobnicate"],
        capture_output=True, text=True)
    assert result.returncode == 2


def test_run_exit_codes(tmp_path):
    domain, problem = write_fixture(tmp_path, CRT)
    # the interval heuristic cannot see the dead end; search exhausts the
    # tiny state space instead
    exhausted = cli.main(["run", str(domain), str(problem),
                          "--heuristic", "metricff", "--time-limit", "10"])
    assert exhausted == cli.EXIT_EXHAUSTED
    unsolvable = cli.main(["run", str(domain), str(problem)])
    assert unsolvable == cli.EXIT_UNSOLVABLE  # flow rows expose the dead end

    missing = cli.main(["run", str(domain), str(tmp_path / "nope.pddl")])
    assert missing == cli.EXIT_INPUT


def test_run_writes_plan_and_stats(tmp_path, capsys):
    from flowplan.fixtures import CRT_WITH_PRODUCER
    domain, problem = write_fixture(tmp_path, CRT_WITH_PRODUCER)
    plan_file = tmp_path / "plan.txt"
    stats_csv = tmp_path / "stats.csv"
    code = cli.main(["run", str(domain), str(problem),
                     "--plan-file", str(plan_file), "--stats-csv", str(stats_csv)])
    capsys.readouterr()
    assert code == cli.EXIT_SOLVED
    assert "(fell p1)" in plan_file.read_text()
    rows = list(csv.DictReader(stats_csv.open()))
    assert len(rows) == 1
    row = rows[0]
    assert row["schema_version"] == "1"
    assert row["solved"] == "1"
    assert int(row["plan_length"]) >= 1
    assert float(row["lp_build_time"]) + float(row["lp_solve_time"]) \
        <= float(row["wall_time"]) + 1e-9


@pytest.mark.parametrize("flags", [["--no-lp-prop-goals"], ["--weight", "k:0"],
                                   ["--max-layers", "0"], ["--max-layers", "-3"],
                                   ["--wastar-weight", "-1"], ["--max-expansions", "-1"],
                                   ["--time-limit", "-1"], ["--time-limit", "nan"],
                                   ["--action-cap", "-1"]])
def test_invalid_heuristic_config_is_a_usage_error(tmp_path, flags):
    """A flag combination the heuristic rejects, or a budget or action cap
    no run can use, exits 2 with one error line and no traceback, before
    the input is read."""
    domain, problem = write_fixture(tmp_path, PUMP)
    result = subprocess.run(
        [sys.executable, "-m", "flowplan.cli", "run", str(domain), str(problem), *flags],
        capture_output=True, text=True)
    assert result.returncode == cli.EXIT_USAGE
    assert result.stdout == ""
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
    missing = tmp_path / "nope.pddl"
    assert cli.main(["run", str(missing), str(missing), *flags]) == cli.EXIT_USAGE


@pytest.mark.parametrize("spec,flags,error", [
    *[pytest.param(spec, [], "config 'bad': ", id=f"spec{index}")
      for index, spec in enumerate(({"lp_prop_goals": False}, {"ints": "most"},
                                    {"heuristic": "lama"}, {"weight": "k:0"},
                                    {"lp_landmark": False}, {"lp_landmarks": "no"},
                                    ["lp_landmarks"]))],
    *[pytest.param({}, [flag, value], f"{flag} must be at least 0", id=f"{flag[2:]}={value}")
      for flag, value in (("--max-expansions", "-1"), ("--time-limit", "-1"),
                          ("--time-limit", "nan"))]])
def test_bench_rejected_config_is_a_usage_error(tmp_path, spec, flags, error):
    """A config the heuristic rejects, one naming an unknown policy, mode
    or key, or a budget no run can use, exits 2 with one error line before
    any problem is read: the manifest's files do not even exist, and no
    matrix is written."""
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("problem_id,domain,problem\n"
                        f"ghost,{tmp_path}/missing-d.pddl,{tmp_path}/missing-p.pddl\n")
    configs = tmp_path / "configs.json"
    configs.write_text(json.dumps({"good": {}, "bad": spec}))
    out_csv = tmp_path / "matrix.csv"
    result = subprocess.run(
        [sys.executable, "-m", "flowplan.cli", "bench", "--manifest", str(manifest),
         "--configs", str(configs), "--out", str(out_csv), *flags],
        capture_output=True, text=True)
    assert result.returncode == cli.EXIT_USAGE
    assert result.stderr.startswith("error: " + error)
    assert result.stderr.count("\n") == 1
    assert not out_csv.exists()


def test_malformed_pddl_is_an_input_error(tmp_path):
    """Malformed text exits 3 with one error line that gives its position."""
    domain, problem = write_fixture(tmp_path, PUMP)
    problem.write_text(problem.read_text().replace("(:init", "(:init (= (broken) 1/0)", 1))
    result = subprocess.run(
        [sys.executable, "-m", "flowplan.cli", "run", str(domain), str(problem)],
        capture_output=True, text=True)
    assert result.returncode == cli.EXIT_INPUT
    assert result.stderr.startswith("error: expected a number, found '1/0' at line ")
    assert result.stderr.count("\n") == 1


def test_pump_unsolvable_exit_code(tmp_path):
    domain, problem = write_fixture(tmp_path, PUMP_UNSOLVABLE)
    assert cli.main(["run", str(domain), str(problem)]) == cli.EXIT_UNSOLVABLE


def test_generate_writes_deterministic_files(tmp_path):
    code = cli.main(["generate", "market-trader", "--size", "2", "--seed", "7",
                     "--out", str(tmp_path)])
    assert code == 0
    problem = tmp_path / "market-trader-2-7.pddl"
    first = problem.read_bytes()
    cli.main(["generate", "market-trader", "--size", "2", "--seed", "7",
              "--out", str(tmp_path)])
    assert problem.read_bytes() == first


def test_dump_flags_run(tmp_path, capsys):
    domain, problem = write_fixture(tmp_path, CRT)
    code = cli.main(["run", str(domain), str(problem), "--heuristic", "metricff",
                     "--dump-classification", "--dump-landmarks", "--dump-rpg",
                     "--dump-trace", "--dump-lp", str(tmp_path / "root.lp")])
    out = capsys.readouterr().out
    assert "producer-consumer" in out
    assert "fact layer 0" in out
    assert "root h = 2" in out


def test_dump_lp_writes_the_root_flow_model_without_goal_rows(tmp_path, capsys):
    """The root expansion ends with a feasible goal check, which leaves its
    goal rows in the flow model for the extraction; the dump leaves them
    out, so it holds the flow model that the bound queries read."""
    domain, problem = write_fixture(tmp_path, PUMP)
    dump = tmp_path / "root.lp"
    assert cli.main(["run", str(domain), str(problem), "--dump-lp", str(dump)]) == 0
    rows = dump.read_text().split("Subject To\n")[1].split("Bounds\n")[0].splitlines()
    assert rows and all(row.startswith((" flow_", " oneshot_", " uprow_", " downrow_",
                                        " bigM", " catal")) for row in rows), rows


def test_bench_matrix_and_summary(tmp_path, capsys):
    domain, problem = write_fixture(tmp_path, EXCHANGE_FRAGMENT)
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("problem_id,domain,problem\n"
                        f"frag,{domain},{problem}\n")
    out_csv = tmp_path / "matrix.csv"
    code = cli.main(["bench", "--manifest", str(manifest), "--out", str(out_csv),
                     "--config-names", "metricff", "lprpg-default",
                     "--time-limit", "20"])
    assert code == 0
    rows = list(csv.reader(out_csv.open()))
    assert rows[0] == STATS_HEADER
    assert len(rows) == 3  # 1 problem x 2 configs
    summary = capsys.readouterr().out
    assert "coverage per config" in summary


def test_bench_empty_manifest_gives_header_only(tmp_path):
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("problem_id,domain,problem\n")
    out_csv = tmp_path / "matrix.csv"
    assert cli.main(["bench", "--manifest", str(manifest),
                     "--out", str(out_csv)]) == 0
    rows = list(csv.reader(out_csv.open()))
    assert rows == [STATS_HEADER]


def test_bench_records_failures_without_aborting(tmp_path):
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("problem_id,domain,problem\n"
                        f"ghost,{tmp_path}/missing-d.pddl,{tmp_path}/missing-p.pddl\n")
    out_csv = tmp_path / "matrix.csv"
    assert cli.main(["bench", "--manifest", str(manifest), "--out", str(out_csv),
                     "--config-names", "metricff"]) == 0
    rows = list(csv.DictReader(out_csv.open()))
    assert len(rows) == 1 and rows[0]["solved"] == "0"
    assert rows[0]["status"].startswith("error")


def test_bench_custom_config_file(tmp_path):
    domain, problem = write_fixture(tmp_path, EXCHANGE_FRAGMENT)
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(f"problem_id,domain,problem\nfrag,{domain},{problem}\n")
    configs = tmp_path / "configs.json"
    configs.write_text(json.dumps({
        "k1-no-lm": {"weight": "k:1", "lp_landmarks": False},
    }))
    out_csv = tmp_path / "m.csv"
    assert cli.main(["bench", "--manifest", str(manifest), "--configs",
                     str(configs), "--out", str(out_csv),
                     "--time-limit", "20"]) == 0
    rows = list(csv.DictReader(out_csv.open()))
    assert len(rows) == 1
    assert "k:1" in rows[0]["config"]


def test_fixture_command_writes_pair(tmp_path):
    assert cli.main(["fixture", "crt", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "crt-domain.pddl").exists()
    assert (tmp_path / "crt-problem.pddl").exists()


def test_reproducibility_same_inputs_same_stats(tmp_path):
    domain, problem = write_fixture(tmp_path, CRT)

    def one_run():
        from flowplan import model as m
        task = m.parse_and_ground(domain.read_text(), problem.read_text())
        outcome = planner.plan_task(task, mode=planner.MODE_METRICFF,
                                    config=HeuristicConfig(),
                                    problem_id="crt")
        return (outcome.status, outcome.plan, outcome.stats.expansions,
                outcome.stats.evaluations)

    assert one_run() == one_run()


def test_bench_parallel_jobs(tmp_path):
    domain, problem = write_fixture(tmp_path, EXCHANGE_FRAGMENT)
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(f"problem_id,domain,problem\n"
                        f"frag,{domain},{problem}\n")
    out_csv = tmp_path / "matrix.csv"
    code = cli.main(["bench", "--manifest", str(manifest), "--out", str(out_csv),
                     "--config-names", "metricff", "lprpg-default",
                     "--jobs", "2", "--time-limit", "20"])
    assert code == 0
    rows = list(csv.reader(out_csv.open()))
    assert len(rows) == 3
