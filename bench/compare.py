"""Before/after comparison of benchmark results.

    python3 bench/compare.py report BEFORE.jsonl AFTER.jsonl
    python3 bench/compare.py pairs --parent-src P/src --change-src C/src \
        --workload NAME [--workload NAME ...] --out-dir DIR

``report`` reads the JSON-lines files that ``run.py --out`` appends to and
prints, per workload and end-to-end metric, and for the unscaled wall
time and work rate, each side's median and quartiles, the change's wins out of the pairs, and a verdict.  Runs are
paired in the order they appear for each workload.  ``pairs`` first
collects such files: it runs this benchmark on the two source trees in
turn for ten pairs with seeds 1 to 10, alternating which side goes first,
with the same seed and ``run_seconds`` for both sides of a pair, so both
commits are measured by identical benchmark code and settings.

Verdicts (choosing-metrics guide, section 8):

  improved    at least ten pairs were run, the change wins at least nine
              tenths of them (ties count for neither) and the medians differ
              by more than the parent's spread between its quartiles
  unresolved  either side's quartile spread, as a share of its median, is
              wider than the metric's bound, and not every run of the change
              beats every run of the parent
  worse       the change's median is worse than the parent's by more than
              the bound
  no worse    otherwise
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SPEC = BENCH_DIR.parent / "BENCHMARK.json"
#: Fewest pairs a gain may rest on (choosing-metrics guide, section 8).
PAIRS = 10
#: Unscaled medians (``raw`` in a result) reported beside the host-speed
#: scaled metric whose unit, direction and bound they share.  Alternating
#: pairs expose host drift in them, and they follow a change to the mix of
#: an invocation's work, which the scaling assumes fixed.
RAW = {"wall_s": "wall_ref_s", "work_per_s": "work_per_ref_s"}


def load_runs(path: Path) -> dict[str, list[dict]]:
    """Untraced results by workload, in file order."""
    runs: dict[str, list[dict]] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                result = json.loads(line)
                if not result["trace"]:
                    runs.setdefault(result["workload"], []).append(result)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(before: list[float], after: list[float], better: str, bound: float) -> tuple[str, int, int]:
    """Verdict, wins of the change and number of pairs."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(before, after))
    wins = sum(1 for b, a in pairs if sign * (a - b) > 0)
    b_q1, b_med, b_q3 = quartiles(before)
    a_q1, a_med, a_q3 = quartiles(after)
    gain = sign * (a_med - b_med)
    if len(pairs) >= PAIRS and wins >= 0.9 * len(pairs) and gain > b_q3 - b_q1:
        return "improved", wins, len(pairs)
    spread = max((b_q3 - b_q1) / abs(b_med), (a_q3 - a_q1) / abs(a_med))
    all_better = min(sign * a for a in after) > max(sign * b for b in before)
    if spread > bound and not all_better:
        return "unresolved", wins, len(pairs)
    if -gain > bound * abs(b_med):
        return "worse", wins, len(pairs)
    return "no worse", wins, len(pairs)


def report(before_path: Path, after_path: Path) -> int:
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    before, after = load_runs(before_path), load_runs(after_path)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    worse = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in before or workload not in after:
            continue
        b_runs, a_runs = before[workload], after[workload]
        b_fail = sum(r["failed"] for r in b_runs) / sum(r["attempted"] for r in b_runs)
        a_fail = sum(r["failed"] for r in a_runs) / sum(r["attempted"] for r in a_runs)
        print(f"{workload}: {len(b_runs)} parent runs, {len(a_runs)} change runs; "
              f"failed_frac {b_fail:.3f} -> {a_fail:.3f}"
              + ("  WORSE: more invocations fail" if a_fail > b_fail else ""))
        worse += a_fail > b_fail
        print(f"  {'metric':14s} {'unit':5s} {'parent median [q1, q3]':34s} "
              f"{'change median [q1, q3]':34s} {'wins':7s} verdict")
        rows = [(m["name"], m, lambda r, n=m["name"]: r["metrics"][n]["value"])
                for m in spec["end_to_end"]]
        rows += [(f"raw {raw}", metrics[scaled], lambda r, n=raw: r["raw"][n])
                 for raw, scaled in RAW.items()]
        for name, metric, value in rows:
            b = [value(r) for r in b_runs if r["metrics"]]
            a = [value(r) for r in a_runs if r["metrics"]]
            if not b or not a:
                print(f"  {name:14s} missing on one side")
                continue
            word, wins, pairs = verdict(b, a, metric["better"], metric["bound"])
            worse += word == "worse"
            b_q1, b_med, b_q3 = quartiles(b)
            a_q1, a_med, a_q3 = quartiles(a)
            print(f"  {name:14s} {metric['unit']:5s} "
                  f"{b_med:11.5g} [{b_q1:9.5g}, {b_q3:9.5g}]  "
                  f"{a_med:11.5g} [{a_q1:9.5g}, {a_q3:9.5g}]  "
                  f"{wins:2d}/{pairs:<3d}  {word} (bound {metric['bound']:.0%})")
    return 1 if worse else 0


def collect_pairs(args: argparse.Namespace) -> int:
    args.out_dir.mkdir(parents=True, exist_ok=True)
    sides = {"parent": args.parent_src, "change": args.change_src}
    for i in range(PAIRS):
        seed = 1 + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for workload in args.workload:
            for side in order:
                command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--trace", "0",
                           "--src", str(sides[side]), "--out", str(args.out_dir / f"{side}.jsonl")]
                print(f"pair {i + 1}/{PAIRS} {workload} {side} seed {seed}", flush=True)
                subprocess.run(command, check=False, stdout=subprocess.DEVNULL)
    return report(args.out_dir / "parent.jsonl", args.out_dir / "change.jsonl")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rep = sub.add_parser("report", help="compare two result files")
    rep.add_argument("before", type=Path)
    rep.add_argument("after", type=Path)
    pairs = sub.add_parser("pairs", help="collect alternating runs, then compare")
    pairs.add_argument("--parent-src", type=Path, required=True)
    pairs.add_argument("--change-src", type=Path, required=True)
    pairs.add_argument("--workload", action="append", required=True)
    pairs.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.command == "report":
        return report(args.before, args.after)
    return collect_pairs(args)


if __name__ == "__main__":
    sys.exit(main())
