"""End-to-end and per-layer benchmark of the `infoclosure` command line.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Runs the workload's commands the way users run them: one command at a time,
each in a fresh interpreter, as a closed loop with one client and one child
process at a time.  Every output is checked against `reference`, which
shares no code with the package, after its timing ends.

With ``--trace 0`` it reports medians over the run's invocations:

  wall_ref_s      launch of the interpreter to its exit, output written,
                  scaled to a reference host speed measured by running
                  `calibrate.py` right before each invocation
  setup_s         launch until ``infoclosure.cli`` is imported and ``main``
                  runs, as measured
  work_per_ref_s  work units / (wall - setup); units come from the inputs;
                  scaled like ``wall_ref_s``
  peak_rss_mb     the child's maximum resident set

The unscaled medians, and the calibration's, are kept in the full result
under ``raw``.

With ``--trace 1`` it alternates untraced and traced invocations of one
input and reports per-layer call counts and self times (see `spans`).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result,
with every sample and its provenance, is appended to ``--out`` as one JSON
line; ``compare.py`` reads those files.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from importlib import metadata
from pathlib import Path

import reference
from spans import TARGETS
from workloads import WORKLOADS, Case, Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CHILD = BENCH_DIR / "child.py"
CALIBRATE = BENCH_DIR / "calibrate.py"
WORK_DIR = ROOT / ".bench_build"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
#: Metric name -> unit, in report order.
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

#: Fewest timed invocations in a run, unless they would take more than
#: MAX_RUN_FACTOR times the run length; the run as a whole must end within
#: 180 s.
MIN_INVOCATIONS = 3
MAX_RUN_FACTOR = 3
#: An invocation running longer than this is killed and counts as failed.
INVOCATION_TIMEOUT_S = 80.0

#: Wall seconds `calibrate.py` takes at the reference speed.  The ``_ref``
#: metrics are scaled to that speed: on a host where the calibration takes
#: this long they equal the raw wall-clock figures.
REFERENCE_CALIBRATION_S = 1.0


@dataclass
class Sample:
    """One invocation: its timings and whether its output was correct."""

    traced: bool
    wall_s: float
    setup_s: float | None
    peak_rss_mb: float
    exit_code: int
    timed_out: bool
    problems: list[str] = field(default_factory=list)
    #: Wall time of the calibration run right before this invocation.
    calibration_s: float | None = None

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and not self.timed_out and not self.problems


def invoke(src: Path, argv: tuple[str, ...], trace_path: Path | None) -> tuple[Sample, str]:
    """Run one command in a fresh interpreter; return its sample and stdout."""
    out_path = WORK_DIR / f"out-{os.getpid()}.txt"
    err_path = WORK_DIR / f"err-{os.getpid()}.txt"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    read_fd, write_fd = os.pipe()
    try:
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.monotonic_ns()
            proc = subprocess.Popen(
                [sys.executable, str(CHILD), str(write_fd), str(trace_path or "-"), *argv],
                stdout=out, stderr=err, pass_fds=(write_fd,), env=env, cwd=ROOT,
            )
        os.close(write_fd)
        write_fd = -1
        pidfd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], INVOCATION_TIMEOUT_S)
            if not ready:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        end = time.monotonic_ns()
        proc.returncode = os.waitstatus_to_exitcode(status)
        stamp = os.read(read_fd, 64)
    finally:
        os.close(read_fd)
        if write_fd >= 0:
            os.close(write_fd)
    stdout = out_path.read_text(encoding="utf-8", errors="replace")
    stderr = err_path.read_text(encoding="utf-8", errors="replace")
    out_path.unlink()
    err_path.unlink()
    sample = Sample(
        traced=trace_path is not None,
        wall_s=(end - start) / 1e9,
        setup_s=(int(stamp) - start) / 1e9 if stamp else None,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        exit_code=proc.returncode,
        timed_out=not ready,
    )
    if sample.exit_code != 0:
        sample.problems.append(f"exit code {sample.exit_code}: {stderr.strip()[-300:]}")
    elif sample.setup_s is None:
        sample.problems.append("the child never reported its start-up time")
    return sample, stdout


def check_output(workload: Workload, case: Case, stdout: str) -> list[str]:
    if workload.command == "curve":
        return reference.check_curve(stdout, case.phi, case.xi0, workload.size, workload.quantities)
    if workload.command == "trajectory":
        return reference.check_trajectory(stdout, case.phi, case.xi0, case.traj, "bits")
    return reference.check_conformance(stdout, workload.work_units)


def run_case(src: Path, workload: Workload, case: Case, trace_path: Path | None) -> Sample:
    sample, stdout = invoke(src, case.argv, trace_path)
    if sample.exit_code == 0:  # the check runs after the timing has ended
        sample.problems.extend(check_output(workload, case, stdout))
    return sample


def warm_up(src: Path) -> None:
    """Fill the bytecode and page caches, which users do not pay on every run."""
    sample, _ = invoke(src, ("--help",), None)
    if sample.exit_code != 0:
        raise SystemExit(f"error: the warm-up `infoclosure --help` failed: {sample.problems}")


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def calibrate() -> float:
    """Wall seconds of `calibrate.py` in a fresh interpreter, launch to exit."""
    start = time.monotonic_ns()
    subprocess.run([sys.executable, "-I", str(CALIBRATE)], stdin=subprocess.DEVNULL,
                   capture_output=True, timeout=INVOCATION_TIMEOUT_S, check=True)
    return (time.monotonic_ns() - start) / 1e9


def timed_run(src: Path, workload: Workload, seed: int, seconds: float) -> tuple[list[Sample], dict]:
    """Invoke fresh inputs back to back until the next one would overrun.

    A calibration precedes every invocation; see `end_to_end_metrics`.
    """
    samples: list[Sample] = []
    busy = 0.0
    while True:
        calibration_s = calibrate()
        sample = run_case(src, workload, workload.case(seed, len(samples)), None)
        sample.calibration_s = calibration_s
        samples.append(sample)
        busy += calibration_s + sample.wall_s
        typical = busy / len(samples)
        if busy + typical > seconds * (1 if len(samples) >= MIN_INVOCATIONS else MAX_RUN_FACTOR):
            break
    return samples, end_to_end_metrics(samples, workload.work_units)


def end_to_end_metrics(samples: list[Sample], work_units: int) -> dict:
    """Medians over the correct invocations, and the raw medians under ``raw``.

    ``wall_ref_s`` and ``work_per_ref_s`` scale each invocation by
    REFERENCE_CALIBRATION_S / (its own calibration) before the median is
    taken.  The host's speed changes within seconds, so the calibration
    closest in time measures the speed the invocation ran at.  ``setup_s``
    is not scaled.
    """
    good = [s for s in samples if s.ok]
    if not good:
        return {}
    speed = [REFERENCE_CALIBRATION_S / s.calibration_s for s in good]
    raw = {
        "wall_s": statistics.median(s.wall_s for s in good),
        "setup_s": statistics.median(s.setup_s for s in good),
        "work_per_s": statistics.median(work_units / (s.wall_s - s.setup_s) for s in good),
        "peak_rss_mb": statistics.median(s.peak_rss_mb for s in good),
        "calibration_s": statistics.median(s.calibration_s for s in good),
    }
    return {
        "wall_ref_s": statistics.median(s.wall_s * v for s, v in zip(good, speed)),
        "setup_s": raw["setup_s"],
        "work_per_ref_s": statistics.median(
            work_units / ((s.wall_s - s.setup_s) * v) for s, v in zip(good, speed)),
        "peak_rss_mb": raw["peak_rss_mb"],
        "raw": raw,
    }


def traced_run(src: Path, workload: Workload, seed: int, seconds: float) -> tuple[list[Sample], dict]:
    """Alternate untraced and traced invocations of one input; per-layer metrics."""
    case = workload.case(seed, 0)
    trace_path = WORK_DIR / f"trace-{workload.name}-seed{seed}.json"
    samples: list[Sample] = []
    traces: list[dict] = []
    busy = 0.0
    while not samples or busy < seconds:
        for traced in (False, True):
            sample = run_case(src, workload, case, trace_path if traced else None)
            samples.append(sample)
            busy += sample.wall_s
            if traced and sample.exit_code == 0:
                traces.append(json.loads(trace_path.read_text(encoding="utf-8")))
    untraced = [s.wall_s for s in samples if s.ok and not s.traced]
    traced_walls = [s.wall_s for s in samples if s.ok and s.traced]
    if not traces or not untraced or not traced_walls:
        return samples, {}
    metrics = layer_metrics(traces)
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced)
    return samples, metrics


def _layer_totals(trace: dict) -> dict[str, list]:
    totals: dict[str, list] = {}
    for entry in trace["aggregates"]:
        total = totals.setdefault(entry["name"], [0, 0.0])
        total[0] += entry["calls"]
        total[1] += entry["self_s"]
    return totals


#: Counters reported as they are, by metric name.
COUNTERS = (
    "process.enumerate_counts.states",
    "process.count.symbols",
    "closure.count_last_distribution.yields",
    "oracle.build_joint.rows",
    "cli.render.bytes",
    "conformance.records",
)


def layer_metrics(traces: list[dict]) -> dict[str, float]:
    """Counts from the first trace (they repeat exactly); median self times."""
    first = traces[0]
    totals = [_layer_totals(trace) for trace in traces]
    counters = first["counters"]
    metrics: dict[str, float] = {
        "startup.import_s": statistics.median(t["import_s"] for t in traces),
        "startup.scipy_loaded": int(first["scipy_loaded"]),
    }
    for name, *_ in TARGETS:
        metrics[f"{name}.calls"] = totals[0].get(name, [0, 0.0])[0]
        metrics[f"{name}.self_s"] = statistics.median(t.get(name, [0, 0.0])[1] for t in totals)
    for key in COUNTERS:
        metrics[key] = counters.get(key, 0)
    rows = counters.get("cli.curve_rows", 0)
    builds = counters.get("oracle.build_joint.builds", 0)
    metrics["process.lattice_passes_per_row"] = (
        metrics["process.enumerate_counts.calls"] / rows if rows else 0.0
    )
    metrics["oracle.build_joint.distinct_ratio"] = (
        counters["oracle.build_joint.distinct"] / builds if builds else 0.0
    )
    return metrics


# ---------------------------------------------------------------------------
# Provenance and reporting
# ---------------------------------------------------------------------------


def _git(*args: str) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def provenance(src: Path, workload: Workload, seed: int) -> dict:
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no") if commit else None
    return {
        "commit": commit,
        "dirty": None if status is None else bool(status),
        "src": str(src),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "loadavg_start": os.getloadavg(),
        "seed": seed,
        "work_units": workload.work_units,
    }


def run_workload(src: Path, workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    info = provenance(src, workload, seed)
    warm_up(src)
    run = traced_run if trace else timed_run
    samples, metrics = run(src, workload, seed, seconds)
    info["loadavg_end"] = os.getloadavg()
    units = PER_LAYER if trace else END_TO_END
    failed = sum(1 for s in samples if not s.ok)
    return {
        "raw": metrics.get("raw"),
        "workload": workload.name,
        "trace": int(trace),
        "seconds": seconds,
        "provenance": info,
        "invocations": len(samples),
        "correct": failed == 0 and bool(metrics),
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()} if metrics else {},
        "samples": [asdict(s) for s in samples],
    }


def summary_line(result: dict) -> str:
    keys = ("correct", "attempted", "failed", "metrics")
    return json.dumps({key: result[key] for key in keys})


def print_table(result: dict) -> None:
    print(f"{result['workload']}: {result['attempted']} invocations, "
          f"{result['failed']} failed (failed_frac {result['failed'] / result['attempted']:.3f})")
    for name, metric in result["metrics"].items():
        print(f"  {name:45s} {metric['value']:>14.6g} {metric['unit']}")
    for name, value in (result["raw"] or {}).items():
        print(f"  raw {name:41s} {value:>14.6g}")
    for sample in result["samples"]:
        for problem in sample["problems"][:3]:
            print(f"  problem: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the infoclosure package to measure")
    parser.add_argument("--out", type=Path, default=WORK_DIR / "results.jsonl",
                        help="JSON-lines file the full result is appended to")
    args = parser.parse_args(argv)

    src = args.src.resolve()
    if not (src / "infoclosure" / "cli.py").is_file():
        print(f"error: no infoclosure package under {src}", file=sys.stderr)
        return 2
    WORK_DIR.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result = run_workload(src, WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(result) + "\n")
        print_table(result)
        results[name] = result
    if not all(r["metrics"] for r in results.values()):
        print("error: no invocation of a workload succeeded", file=sys.stderr)
        return 1
    if args.workload == "all":
        print(json.dumps({name: json.loads(summary_line(r)) for name, r in results.items()}))
    else:
        print(summary_line(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
