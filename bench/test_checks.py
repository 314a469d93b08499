"""Tests of the benchmark itself: its checks can fail, its trace counts repeat.

    python3 -m pytest bench/test_checks.py -q

Outputs come from the real command line on small inputs, then are damaged
the way a defect would damage them; each damaged output must be flagged.
"""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import reference
import run
from workloads import WORKLOADS, conformance_grid_records

ROOT = Path(__file__).resolve().parent.parent
PHI = (0.2, 0.3, 0.5)
XI0 = (1.37, 0.62, 2.15)
QUANTITIES = ("ntic", "one_step_ntic", "info_gain", "surprise")
TRAJ = (2, 0, 1, 2, 2, 1, 0, 2, 1, 2, 2, 0, 1, 1, 2, 0, 2, 2, 1, 2)


def cli(*args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-m", "infoclosure", *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.fixture(scope="module")
def curve_text() -> str:
    return cli("curve", "--phi", "0.2,0.3,0.5", "--xi0", "1.37,0.62,2.15", "--tmax", "8",
               "--quantities", ",".join(QUANTITIES))


@pytest.fixture(scope="module")
def trajectory_text() -> str:
    return cli("trajectory", "--phi", "0.2,0.3,0.5", "--xi0", "1.37,0.62,2.15",
               "--traj", ",".join(map(str, TRAJ)), "--format", "json", "--units", "bits")


@pytest.fixture(scope="module")
def conformance_text() -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-m", "infoclosure", "conformance", "--max-k", "2",
                           "--max-t", "3"], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def check_curve(text: str) -> list[str]:
    return reference.check_curve(text, PHI, XI0, 8, QUANTITIES)


def check_trajectory(text: str) -> list[str]:
    return reference.check_trajectory(text, PHI, XI0, TRAJ, "bits")


def check_conformance(text: str) -> list[str]:
    return reference.check_conformance(text, conformance_grid_records(2, 3))


def _rewrite_report(text: str, edit) -> str:
    start = text.find("\n{") + 1
    document = json.loads(text[start:])
    edit(document)
    return text[:start] + json.dumps(document, indent=2) + "\n"


def test_correct_outputs_pass(curve_text, trajectory_text, conformance_text):
    assert check_curve(curve_text) == []
    assert check_trajectory(trajectory_text) == []
    assert check_conformance(conformance_text) == []


@pytest.mark.parametrize("column", [1, 2, 3, 4])
def test_curve_cell_perturbed_by_1e_6_is_flagged(curve_text, column):
    rows = list(csv.reader(io.StringIO(curve_text)))
    rows[5][column] = repr(float(rows[5][column]) + 1e-6)
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    assert check_curve(buffer.getvalue())


def test_curve_dropped_row_is_flagged(curve_text):
    lines = curve_text.splitlines(keepends=True)
    assert check_curve("".join(lines[:4] + lines[5:]))
    assert check_curve("".join(lines[:-1]))


def test_trajectory_cell_perturbed_by_1e_6_is_flagged(trajectory_text):
    document = json.loads(trajectory_text)
    document["rows"][7]["full_past_info_gain"] += 1e-6
    assert check_trajectory(json.dumps(document))


def test_trajectory_dropped_row_is_flagged(trajectory_text):
    document = json.loads(trajectory_text)
    del document["rows"][-1]
    assert check_trajectory(json.dumps(document))


def test_failing_conformance_record_is_flagged(conformance_text):
    def fail_one(document):
        document["records"][3]["pass"] = False
        document["summary"]["passed"] -= 1
        document["summary"]["failed"] += 1

    assert check_conformance(_rewrite_report(conformance_text, fail_one))


def test_skipped_grid_point_is_flagged(conformance_text):
    def skip_one(document):
        # What the runner reports when a joint table exceeds its cap: the
        # point's two records are missing and one skip is counted.
        records = document["records"]
        document["records"] = records[:1] + records[3:]
        document["summary"].update(total=len(document["records"]),
                                   passed=len(document["records"]), skipped=1)

    assert check_conformance(_rewrite_report(conformance_text, skip_one))


def test_shrunk_grid_is_flagged():
    text = cli("conformance", "--max-k", "2", "--max-t", "2")
    assert check_conformance(text)


def test_trace_counts_repeat_and_reach_every_binding():
    """log_gamma is imported into process and bayes; totals above 64 reach it
    through process.log_count_cardinality, so its count proves the rebinding."""
    workload = WORKLOADS["curve_k2_closure"]
    case = workload.case(7, 0)
    argv = list(case.argv)
    argv[argv.index("--tmax") + 1] = "70"
    run.WORK_DIR.mkdir(exist_ok=True)
    trace_path = run.WORK_DIR / "test-trace.json"
    counts = []
    for _ in range(2):
        sample, _ = run.invoke(ROOT / "src", tuple(argv), trace_path)
        assert sample.exit_code == 0, sample.problems
        trace = json.loads(trace_path.read_text(encoding="utf-8"))
        counts.append((
            sorted((a["name"], a["parent"], a["calls"]) for a in trace["aggregates"]),
            trace["counters"],
        ))
    trace_path.unlink()
    assert counts[0] == counts[1]
    metrics = run.layer_metrics([trace])
    assert set(metrics) | {"trace.overhead_s"} == set(run.PER_LAYER)
    assert metrics["special.log_gamma.calls"] > 0
    assert metrics["process.lattice_passes_per_row"] == 2.0  # ntic and one_step_ntic
    assert metrics["cli.main.calls"] == 1


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    sample = run.Sample(traced=False, wall_s=2.0, setup_s=0.5, peak_rss_mb=80.0,
                        exit_code=0, timed_out=False,
                        calibration_s=2 * run.REFERENCE_CALIBRATION_S)  # half speed
    metrics = run.end_to_end_metrics([sample], 300)
    assert set(metrics) - {"raw"} == set(run.END_TO_END)
    assert metrics["wall_ref_s"] == 1.0
    assert metrics["setup_s"] == 0.5
    assert metrics["work_per_ref_s"] == 400.0
