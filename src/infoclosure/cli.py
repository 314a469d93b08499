"""Command-line front end: curves, trajectory tables, witnesses, conformance.

Commands
--------
curve        one row per time step with the requested expected quantities,
             exact while count space stays small, Monte Carlo (plug-in
             pointwise estimates over sampled trajectories) beyond that
trajectory   per-prefix table of the pointwise quantities of one trajectory
witness      human-readable demonstration that identical one-step pointwise
             closure coexists with different information gains
conformance  closed-form-vs-oracle grid with a JSON report

Exit codes: 0 success, 1 usage/config error, 2 witness failure,
3 conformance failure, 4 resource cap.

Outputs are deterministic: a fixed configuration and seed reproduce files
byte for byte, and CSV and JSON carry identical digit strings (floats are
rendered by shortest round-trip representation, 17 significant digits at
most).  The bits/nats switch rescales every reported value by 1/ln(2)
exactly once, at output time.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bayes import (
    belief_tables,
    full_past_info_gain_from_count,
    marginal_surprise_from_count,
    ntic_ig_divergence_witness,
    one_step_info_gain_from_count,
)
from .closure import (
    count_surprisal,
    expectations,
    log_relative_frequency,
    pointwise_ntic_from_count,
    symbol_entropy,
)
from .conformance import run_conformance
from .errors import (
    DomainError,
    InfoClosureError,
    InternalConsistencyError,
    QuadratureError,
    ResourceCapError,
    WitnessFailedError,
)
from .process import (
    CategoricalParam,
    CountVector,
    Hyperparameter,
    count_space_size,
    sample_trajectories,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_WITNESS = 2
EXIT_CONFORMANCE = 3
EXIT_RESOURCE = 4

#: Count-space size above which `curve` switches from exact to Monte Carlo.
EXACT_MODE_CAP = 10**6

CURVE_QUANTITIES = ("ntic", "one_step_ntic", "info_gain", "surprise")
ALL_QUANTITIES = ("ntic", "one_step_ntic", "pointwise", "info_gain", "surprise")

TRAJECTORY_COLUMNS = (
    "pointwise_ntic",
    "one_step_pointwise_ntic",
    "hindsight_empirical_surprise",
    "marginal_surprise_next",
    "hindsight_marginal_surprise",
    "one_step_info_gain",
    "full_past_info_gain",
)

_INV_LN2 = 1.0 / math.log(2.0)


class UsageError(ValueError):
    """Bad flag or config value; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit 2; the contract wants 1
        raise UsageError(message)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass
class RunConfig:
    phi: CategoricalParam | None
    xi0: Hyperparameter | None
    t_max: int | None
    traj: tuple[int, ...] | None
    quantities: tuple[str, ...]
    seed: int
    samples: int
    units: str
    output_format: str
    output_path: str | None

    def echo(self) -> dict:
        return {
            "phi": list(self.phi.probs) if self.phi is not None else None,
            "xi0": [float(a) for a in self.xi0.alpha] if self.xi0 is not None else None,
            "tmax": self.t_max,
            "traj": list(self.traj) if self.traj is not None else None,
            "quantities": list(self.quantities),
            "seed": self.seed,
            "samples": self.samples,
            "units": self.units,
            "format": self.output_format,
        }


def _parse_floats(text: str, field: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part != "")
    except ValueError as exc:
        raise UsageError(f"invalid {field}: {text!r} ({exc})") from exc


def _parse_symbols(text: str, field: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part != "")
    except ValueError as exc:
        raise UsageError(f"invalid {field}: {text!r} ({exc})") from exc


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config file {path!r}: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError(f"config file {path!r} must hold a JSON object")
    return data


def _build_config(args: argparse.Namespace) -> RunConfig:
    """Merge a JSON config file (if any) with flags; flags win."""
    file_values = _load_config_file(args.config) if getattr(args, "config", None) else {}

    def pick(flag_name: str, file_key: str, default=None):
        flag_value = getattr(args, flag_name, None)
        if flag_value is not None:
            return flag_value
        if file_key in file_values:
            return file_values[file_key]
        return default

    phi_raw = pick("phi", "phi")
    xi0_raw = pick("xi0", "xi0")
    traj_raw = pick("traj", "traj")
    quantities_raw = pick("quantities", "quantities", ("ntic",))

    try:
        phi = None if phi_raw is None else CategoricalParam(
            _parse_floats(phi_raw, "phi") if isinstance(phi_raw, str) else tuple(phi_raw)
        )
        xi0 = None if xi0_raw is None else Hyperparameter(
            _parse_floats(xi0_raw, "xi0") if isinstance(xi0_raw, str) else tuple(xi0_raw)
        )
    except DomainError as exc:
        raise UsageError(str(exc)) from exc
    traj = None
    if traj_raw is not None:
        traj = (
            _parse_symbols(traj_raw, "traj")
            if isinstance(traj_raw, str)
            else tuple(int(x) for x in traj_raw)
        )
    if isinstance(quantities_raw, str):
        quantities = tuple(q for q in quantities_raw.split(",") if q)
    else:
        quantities = tuple(quantities_raw)
    quantities = tuple(dict.fromkeys(quantities))
    for q in quantities:
        if q not in ALL_QUANTITIES:
            raise UsageError(f"unknown quantity {q!r}; choose from {', '.join(ALL_QUANTITIES)}")

    units = pick("units", "units", "nats")
    if units not in ("nats", "bits"):
        raise UsageError(f"invalid units: {units!r} (expected 'nats' or 'bits')")
    output_format = pick("format", "format", "csv")
    if output_format not in ("csv", "json"):
        raise UsageError(f"invalid format: {output_format!r} (expected 'csv' or 'json')")

    t_max = pick("tmax", "tmax")
    seed = pick("seed", "seed", 0)
    samples = pick("samples", "samples", 0)
    try:
        t_max = None if t_max is None else int(t_max)
        seed = int(seed)
        samples = int(samples)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"invalid integer option: {exc}") from exc
    if samples < 0:
        raise UsageError(f"invalid samples: must be >= 0, got {samples}")

    if phi is not None and xi0 is not None and phi.size != xi0.size:
        raise UsageError(
            f"phi and xi0 dimensions disagree: {phi.size} vs {xi0.size}"
        )
    return RunConfig(
        phi=phi,
        xi0=xi0,
        t_max=t_max,
        traj=traj,
        quantities=quantities,
        seed=seed,
        samples=samples,
        units=units,
        output_format=output_format,
        output_path=pick("out", "out"),
    )


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _normalize(x: float) -> float:
    return 0.0 if x == 0.0 else x  # folds -0.0 onto 0.0


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(_normalize(value))
    return str(value)


def _to_units(value: float, units: str) -> float:
    """The one place a value in nats is rescaled for output."""
    return _normalize(value * _INV_LN2 if units == "bits" else value)


def _scale_row(row: dict, units: str) -> dict:
    return {key: (_to_units(v, units) if isinstance(v, float) else v) for key, v in row.items()}


def _render(command: str, config: RunConfig, columns: Sequence[str], rows: list[dict]) -> str:
    rows = [_scale_row(row, config.units) for row in rows]
    if config.output_format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row.get(col)) for col in columns])
        return buffer.getvalue()
    document = {
        "command": command,
        "config": config.echo(),
        "columns": list(columns),
        "rows": rows,
    }
    return json.dumps(document, indent=2) + "\n"


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


# ---------------------------------------------------------------------------
# curve
# ---------------------------------------------------------------------------


def _curve_exact_row(config: RunConfig, t: int) -> dict:
    """One pass over count space gives every requested quantity."""
    quantities = [q for q in CURVE_QUANTITIES if q in config.quantities]
    values = {"ntic": count_surprisal, "one_step_ntic": log_relative_frequency}
    if "info_gain" in quantities or "surprise" in quantities:
        gain, surprise = belief_tables(config.xi0, t)
        values["info_gain"] = lambda block: gain[block.x, block.n]
        values["surprise"] = lambda block: surprise[block.x, block.n]
    sums = expectations(config.phi, t, [values[q] for q in quantities])
    row: dict = {"t": t, **dict(zip(quantities, sums))}
    if "ntic" in row:
        row["ntic"] -= symbol_entropy(config.phi)  # count entropy minus symbol entropy
    row["method"] = "exact"
    return row


def _curve_mc_row(config: RunConfig, t: int) -> dict:
    phi = config.phi
    if config.samples < 1:
        raise ResourceCapError(
            f"count space at t={t} exceeds the exact-mode cap of {EXACT_MODE_CAP}; "
            f"Monte Carlo mode needs --samples N (got {config.samples})"
        )
    batch = sample_trajectories(phi, t, config.samples, [config.seed, t])
    # The (samples, K) count matrix in one pass; the sampler only emits symbols < K.
    counts = np.stack([(batch == x).sum(axis=1) for x in range(phi.size)], axis=1)
    row: dict = {"t": t}
    values: dict[str, list[float]] = {q: [] for q in config.quantities}
    for sample_counts, x in zip(counts.tolist(), batch[:, -1].tolist()):
        c = CountVector(tuple(sample_counts))
        if "ntic" in values:
            values["ntic"].append(pointwise_ntic_from_count(phi, c, x))
        if "one_step_ntic" in values:
            values["one_step_ntic"].append(math.log(c.counts[x] / t))
        if "info_gain" in values:
            values["info_gain"].append(one_step_info_gain_from_count(config.xi0, c, x).value)
        if "surprise" in values:
            values["surprise"].append(marginal_surprise_from_count(config.xi0, c, x))
    for quantity in config.quantities:
        row[quantity] = math.fsum(values[quantity]) / config.samples
    row["method"] = "mc"
    return row


def cmd_curve(config: RunConfig) -> int:
    if config.phi is None:
        raise UsageError("curve needs phi (flag --phi or config key 'phi')")
    if config.t_max is None or config.t_max < 1:
        raise UsageError(f"curve needs tmax >= 1, got {config.t_max!r}")
    for q in config.quantities:
        if q not in CURVE_QUANTITIES:
            raise UsageError(
                f"quantity {q!r} is per-trajectory; use the 'trajectory' command"
            )
    if ("info_gain" in config.quantities or "surprise" in config.quantities) and config.xi0 is None:
        raise UsageError("quantities info_gain and surprise need xi0")

    rows = []
    for t in range(1, config.t_max + 1):
        if count_space_size(config.phi.size, t) <= EXACT_MODE_CAP:
            rows.append(_curve_exact_row(config, t))
        else:
            rows.append(_curve_mc_row(config, t))
    columns = ["t", *config.quantities, "method"]
    _emit(_render("curve", config, columns, rows), config.output_path)
    return EXIT_OK


# ---------------------------------------------------------------------------
# trajectory
# ---------------------------------------------------------------------------


def cmd_trajectory(config: RunConfig) -> int:
    if config.traj is None:
        raise UsageError("trajectory needs a symbol sequence (flag --traj or config key 'traj')")
    if config.xi0 is None:
        raise UsageError("trajectory needs xi0 for the belief-side quantities")
    k = config.xi0.size
    traj = config.traj
    for x in traj:
        if x < 0 or x >= k:
            raise UsageError(f"traj symbol {x} outside alphabet of size {k}")

    rows = []
    counts = [0] * k
    for upto, last in enumerate(traj, start=1):
        counts[last] += 1
        c = CountVector(tuple(counts))
        one_step = math.log(counts[last] / upto)
        rows.append({
            "t": upto,
            "pointwise_ntic": (
                pointwise_ntic_from_count(config.phi, c, last) if config.phi is not None else None
            ),
            "one_step_pointwise_ntic": one_step,
            "hindsight_empirical_surprise": -one_step,
            "marginal_surprise_next": (
                marginal_surprise_from_count(config.xi0, c, traj[upto]) if upto < len(traj) else None
            ),
            "hindsight_marginal_surprise": marginal_surprise_from_count(config.xi0, c, last),
            "one_step_info_gain": one_step_info_gain_from_count(config.xi0, c, last).value,
            "full_past_info_gain": full_past_info_gain_from_count(config.xi0, c),
        })
    columns = ["t", *TRAJECTORY_COLUMNS]
    _emit(_render("trajectory", config, columns, rows), config.output_path)
    return EXIT_OK


# ---------------------------------------------------------------------------
# witness
# ---------------------------------------------------------------------------


def cmd_witness(traj: tuple[int, ...], xi0_a: Hyperparameter, xi0_b: Hyperparameter, units: str) -> int:
    report = ntic_ig_divergence_witness(traj, xi0_a, xi0_b)

    def shown(value: float) -> str:
        return f"{_fmt(_to_units(value, units))} {units}"

    print(f"trajectory: {','.join(map(str, traj))}")
    print(f"one-step pointwise closure (shared): {shown(report.one_step_pointwise)}")
    print(f"one-step information gain, prior A {xi0_a.as_floats()}: {shown(report.info_gain_a.value)}")
    print(f"one-step information gain, prior B {xi0_b.as_floats()}: {shown(report.info_gain_b.value)}")
    print(f"gain gap: {shown(report.gain_gap)}")
    print(
        "witness established: the pointwise closure is identical while the "
        "information gains differ, so prior experience stays invisible to it."
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# conformance
# ---------------------------------------------------------------------------


def cmd_conformance(
    max_k: int, max_t: int, tolerance: float, jobs: int, out: str | None
) -> int:
    result = run_conformance(max_k=max_k, max_t=max_t, tolerance=tolerance, jobs=jobs)
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    by_quantity: dict[str, list] = {}
    for record in result.records:
        by_quantity.setdefault(record.quantity, []).append(record)
    for quantity, records in by_quantity.items():
        failed = sum(1 for r in records if not r.passed)
        worst = max(r.abs_diff for r in records)
        status = "ok" if failed == 0 else f"{failed} FAILED"
        print(f"{quantity}: {len(records)} checks, worst |diff| {worst:.3e}, {status}")
    print(
        f"conformance: {result.passed}/{result.total} checks passed"
        + (f", {len(result.warnings)} grid points skipped (reduced grid)" if result.warnings else "")
    )
    document = {
        "summary": {
            "total": result.total,
            "passed": result.passed,
            "failed": result.failed,
            "skipped": len(result.warnings),
        },
        "records": [r.to_json_dict() for r in result.records],
    }
    text = json.dumps(document, indent=2) + "\n"
    if out is not None:
        _emit(text, out)
    else:
        sys.stdout.write(text)
    return EXIT_OK if result.all_passed else EXIT_CONFORMANCE


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--phi", help="comma-separated probabilities, e.g. 0.5,0.5")
    parser.add_argument("--xi0", help="comma-separated concentration components, e.g. 1,1")
    parser.add_argument("--tmax", help="largest time step")
    parser.add_argument("--traj", help="comma-separated symbol indices, e.g. 0,1,0")
    parser.add_argument("--quantities", help=f"comma-separated subset of {','.join(ALL_QUANTITIES)}")
    parser.add_argument("--seed", help="RNG seed for Monte Carlo mode")
    parser.add_argument("--samples", help="Monte Carlo sample count")
    parser.add_argument("--units", choices=("nats", "bits"), help="output units")
    parser.add_argument("--format", choices=("csv", "json"), help="output format")
    parser.add_argument("--out", help="output file path (stdout when omitted)")
    parser.add_argument("--config", help="JSON config file; flags override its values")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="infoclosure", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    curve = sub.add_parser("curve", help="expected quantities over t = 1..tmax")
    _add_common_flags(curve)

    trajectory = sub.add_parser("trajectory", help="pointwise quantities per prefix")
    _add_common_flags(trajectory)

    witness = sub.add_parser("witness", help="closure-vs-gain divergence witness")
    witness.add_argument("--traj", required=True)
    witness.add_argument("--xi0-a", required=True, dest="xi0_a")
    witness.add_argument("--xi0-b", required=True, dest="xi0_b")
    witness.add_argument("--units", choices=("nats", "bits"), default="nats")

    conformance = sub.add_parser("conformance", help="oracle-vs-closed-form grid")
    conformance.add_argument("--max-k", type=int, default=3)
    conformance.add_argument("--max-t", type=int, default=6)
    conformance.add_argument("--tolerance", type=float, default=1e-10)
    conformance.add_argument("--jobs", type=int, default=1)
    conformance.add_argument("--out")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "curve":
            return cmd_curve(_build_config(args))
        if args.command == "trajectory":
            return cmd_trajectory(_build_config(args))
        if args.command == "witness":
            traj = _parse_symbols(args.traj, "traj")
            try:
                xi0_a = Hyperparameter(_parse_floats(args.xi0_a, "xi0-a"))
                xi0_b = Hyperparameter(_parse_floats(args.xi0_b, "xi0-b"))
            except DomainError as exc:
                raise UsageError(str(exc)) from exc
            return cmd_witness(traj, xi0_a, xi0_b, args.units)
        if args.command == "conformance":
            return cmd_conformance(args.max_k, args.max_t, args.tolerance, args.jobs, args.out)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except WitnessFailedError as exc:
        print(f"witness failed: {exc}", file=sys.stderr)
        return EXIT_WITNESS
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (InternalConsistencyError, QuadratureError) as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return EXIT_CONFORMANCE
    except InfoClosureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
