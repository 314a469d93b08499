"""Command-line front end: curves, trajectory tables, witnesses, conformance.

Commands
--------
curve        one row per time step with the requested expected quantities,
             exact while the row's last-count table fits under
             ``closure.TABLE_TERM_CAP``, Monte Carlo (plug-in pointwise
             estimates over sampled trajectories) beyond that
trajectory   per-prefix table of the pointwise quantities of one trajectory
witness      human-readable demonstration that identical one-step pointwise
             closure coexists with different information gains
conformance  closed-form-vs-oracle grid with a JSON report

Every value has one parser: an argparse converter per kind of value
(probabilities, concentrations, symbols, quantities, integers), shared by
the four commands.  ``--config FILE`` of ``curve`` and ``trajectory`` names a
JSON object whose keys are the command's own long flags without the dashes;
each entry stands for ``--key=value``, a list for its comma-joined items and
a number or string for its ``str``.  These flags go before the command
line's, and the last occurrence of a flag wins, so the command line
overrides the file.

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
from typing import Sequence

import numpy as np

from . import closure
from .bayes import (
    belief_tables,
    full_past_info_gain_from_count,
    marginal_surprise_from_count,
    ntic_ig_divergence_witness,
    one_step_info_gain_from_count,
)
from .closure import (
    count_entropy_from_weights,
    expectation,
    last_count_weights,
    one_step_ntic_from_weights,
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
    sample_trajectories,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_WITNESS = 2
EXIT_CONFORMANCE = 3
EXIT_RESOURCE = 4

#: Most bytes the sampled trajectories of a Monte Carlo row may take.  A row
#: at time t holds 24 bytes per sampled symbol (a float64 uniform, its int64
#: symbol and the clipped copy), so `curve` needs samples * tmax * 24 of them.
MC_BUDGET_BYTES = 2**30

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
# Values: one argparse converter per kind, and the config file as flags
# ---------------------------------------------------------------------------


def _items(text: str, item, kind: str) -> tuple:
    """The comma-separated items of ``text`` read by ``item``; empty items are skipped."""
    try:
        return tuple(item(part) for part in text.split(",") if part != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid {kind}: {text!r} ({exc})") from exc


def _checked(build, values: tuple):
    try:
        return build(values)
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _probabilities(text: str) -> CategoricalParam:
    return _checked(CategoricalParam, _items(text, float, "probabilities"))


def _concentrations(text: str) -> Hyperparameter:
    return _checked(Hyperparameter, _items(text, float, "concentrations"))


def _symbols(text: str) -> tuple[int, ...]:
    return _items(text, int, "symbols")


def _quantities(text: str) -> tuple[str, ...]:
    chosen = tuple(dict.fromkeys(q for q in text.split(",") if q))
    for q in chosen:
        if q not in ALL_QUANTITIES:
            raise argparse.ArgumentTypeError(
                f"unknown quantity {q!r}; choose from {', '.join(ALL_QUANTITIES)}"
            )
    return chosen


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid integer option: {exc}") from exc


def _is_scalar(value) -> bool:
    return isinstance(value, (int, float, str)) and not isinstance(value, bool)


def _config_flags(path: str, flags: set[str]) -> list[str]:
    """The ``--key=value`` tokens a JSON config file stands for.

    Each key must be one of ``flags``.  A list becomes its comma-joined text
    and a number or string its ``str``; any other value is refused.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read config file {path!r}: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError(f"config file {path!r} must hold a JSON object")
    tokens = []
    for key, value in data.items():
        if key not in flags:
            raise UsageError(
                f"config file {path!r}: unknown key {key!r}; "
                f"the keys are the flags {', '.join(sorted(flags))}"
            )
        parts = value if isinstance(value, list) else [value]
        if not all(_is_scalar(part) for part in parts):
            raise UsageError(
                f"config file {path!r}: key {key!r} needs a number, a string or a list "
                f"of them, got {json.dumps(value)}"
            )
        tokens.append(f"--{key}=" + ",".join(map(str, parts)))
    return tokens


class _CommandParser(_Parser):
    """A command's parser; a ``--config`` file's flags go before the command line's.

    Argparse keeps the last occurrence of a flag, so a flag on the command
    line overrides the file.
    """

    def parse_known_args(self, args=None, namespace=None):
        parsed, extras = super().parse_known_args(args, namespace)
        if getattr(parsed, "config", None) is None:
            return parsed, extras
        # Every flag of a command with --config is stored under its own name.
        flags = set(vars(parsed)) - {"config"}
        return super().parse_known_args([*_config_flags(parsed.config, flags), *args], namespace)


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


def _echo(args: argparse.Namespace) -> dict:
    """The JSON ``config`` object: the flags the command parsed, ``--out`` and ``--config`` aside."""
    echo = {
        "phi": list(args.phi.probs) if args.phi is not None else None,
        "xi0": list(args.xi0.as_floats()) if args.xi0 is not None else None,
    }
    if args.command == "curve":
        echo.update(
            tmax=args.tmax, quantities=list(args.quantities), seed=args.seed, samples=args.samples
        )
    else:
        echo["traj"] = list(args.traj)
    echo.update(units=args.units, format=args.format)
    return echo


def _render(
    command: str, args: argparse.Namespace, columns: Sequence[str], rows: list[dict]
) -> str:
    rows = [_scale_row(row, args.units) for row in rows]
    if args.format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row.get(col)) for col in columns])
        return buffer.getvalue()
    document = {
        "command": command,
        "config": _echo(args),
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


def _check_sizes(phi: CategoricalParam | None, xi0: Hyperparameter | None) -> None:
    if phi is not None and xi0 is not None and phi.size != xi0.size:
        raise UsageError(f"phi and xi0 dimensions disagree: {phi.size} vs {xi0.size}")


# ---------------------------------------------------------------------------
# curve
# ---------------------------------------------------------------------------


def _curve_exact_row(
    phi: CategoricalParam, xi0: Hyperparameter | None, quantities: Sequence[str], t: int
) -> dict:
    """One last-count table gives every requested quantity."""
    weights = last_count_weights(phi, t)
    row: dict = {"t": t}
    if "ntic" in quantities:
        entropy = count_entropy_from_weights(phi, weights)
        row["ntic"] = entropy - symbol_entropy(phi)
    if "one_step_ntic" in quantities:
        row["one_step_ntic"] = one_step_ntic_from_weights(weights)
    if "info_gain" in quantities or "surprise" in quantities:
        gain, surprise = belief_tables(xi0, t)
        for quantity, table in (("info_gain", gain), ("surprise", surprise)):
            if quantity in quantities:
                row[quantity] = expectation(weights, table)
    row["method"] = "exact"
    return row


def _curve_mc_row(args: argparse.Namespace, t: int) -> dict:
    phi = args.phi
    batch = sample_trajectories(phi, t, args.samples, [args.seed, t])
    # The (samples, K) counts in one pass: sample i's symbol x < K is bin i * K + x.
    bins = (batch + phi.size * np.arange(args.samples)[:, None]).ravel()
    counts = np.bincount(bins, minlength=args.samples * phi.size).reshape(-1, phi.size)
    row: dict = {"t": t}
    values: dict[str, list[float]] = {q: [] for q in args.quantities}
    for sample_counts, x in zip(counts.tolist(), batch[:, -1].tolist()):
        c = CountVector(tuple(sample_counts))
        if "ntic" in values:
            values["ntic"].append(pointwise_ntic_from_count(phi, c, x))
        if "one_step_ntic" in values:
            values["one_step_ntic"].append(math.log(c.counts[x] / t))
        if "info_gain" in values:
            values["info_gain"].append(one_step_info_gain_from_count(args.xi0, c, x))
        if "surprise" in values:
            values["surprise"].append(marginal_surprise_from_count(args.xi0, c, x))
    for quantity in args.quantities:
        row[quantity] = math.fsum(values[quantity]) / args.samples
    row["method"] = "mc"
    return row


def cmd_curve(args: argparse.Namespace) -> int:
    phi, t_max, quantities = args.phi, args.tmax, args.quantities
    if phi is None:
        raise UsageError("curve needs phi (flag --phi or config key 'phi')")
    if t_max is None or t_max < 1:
        raise UsageError(f"curve needs tmax >= 1, got {t_max!r}")
    if args.samples < 0:
        raise UsageError(f"invalid samples: must be >= 0, got {args.samples}")
    _check_sizes(phi, args.xi0)
    for q in quantities:
        if q not in CURVE_QUANTITIES:
            raise UsageError(
                f"quantity {q!r} is per-trajectory; use the 'trajectory' command"
            )
    if ("info_gain" in quantities or "surprise" in quantities) and args.xi0 is None:
        raise UsageError("quantities info_gain and surprise need xi0")

    # Row t is exact while last_count_weights can build its K * (t + 1) table;
    # the cap is read at call time, so one patch moves both.
    first_mc = max(1, closure.TABLE_TERM_CAP // phi.size)
    if first_mc <= t_max:
        if args.seed < 0:
            raise UsageError(f"invalid seed: Monte Carlo rows need seed >= 0, got {args.seed}")
        if args.samples < 1:
            raise ResourceCapError(
                f"the last-count table at t={first_mc} would hold "
                f"{phi.size * (first_mc + 1)} entries, exceeding the cap of "
                f"{closure.TABLE_TERM_CAP}; Monte Carlo mode needs --samples N "
                f"(got {args.samples})"
            )
        estimate = args.samples * t_max * 24
        if estimate > MC_BUDGET_BYTES:
            raise ResourceCapError(
                f"Monte Carlo rows up to t={t_max} with {args.samples} samples "
                f"would take about {estimate} bytes, exceeding the budget of "
                f"{MC_BUDGET_BYTES}; lower --samples or --tmax"
            )
    rows = [
        _curve_exact_row(phi, args.xi0, quantities, t) if t < first_mc else _curve_mc_row(args, t)
        for t in range(1, t_max + 1)
    ]
    columns = ["t", *quantities, "method"]
    _emit(_render("curve", args, columns, rows), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# trajectory
# ---------------------------------------------------------------------------


def cmd_trajectory(args: argparse.Namespace) -> int:
    phi, xi0, traj = args.phi, args.xi0, args.traj
    if traj is None:
        raise UsageError("trajectory needs a symbol sequence (flag --traj or config key 'traj')")
    if xi0 is None:
        raise UsageError("trajectory needs xi0 for the belief-side quantities")
    _check_sizes(phi, xi0)
    k = xi0.size
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
                pointwise_ntic_from_count(phi, c, last) if phi is not None else None
            ),
            "one_step_pointwise_ntic": one_step,
            "hindsight_empirical_surprise": -one_step,
            "marginal_surprise_next": (
                marginal_surprise_from_count(xi0, c, traj[upto]) if upto < len(traj) else None
            ),
            "hindsight_marginal_surprise": marginal_surprise_from_count(xi0, c, last),
            "one_step_info_gain": one_step_info_gain_from_count(xi0, c, last),
            "full_past_info_gain": full_past_info_gain_from_count(xi0, c),
        })
    columns = ["t", *TRAJECTORY_COLUMNS]
    _emit(_render("trajectory", args, columns, rows), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# witness
# ---------------------------------------------------------------------------


def cmd_witness(args: argparse.Namespace) -> int:
    traj, xi0_a, xi0_b, units = args.traj, args.xi0_a, args.xi0_b, args.units
    report = ntic_ig_divergence_witness(traj, xi0_a, xi0_b)

    def shown(value: float) -> str:
        return f"{_fmt(_to_units(value, units))} {units}"

    print(f"trajectory: {','.join(map(str, traj))}")
    print(f"one-step pointwise closure (shared): {shown(report.one_step_pointwise)}")
    print(f"one-step information gain, prior A {xi0_a.as_floats()}: {shown(report.info_gain_a)}")
    print(f"one-step information gain, prior B {xi0_b.as_floats()}: {shown(report.info_gain_b)}")
    print(f"gain gap: {shown(report.gain_gap)}")
    print(
        "witness established: the pointwise closure is identical while the "
        "information gains differ, so prior experience stays invisible to it."
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# conformance
# ---------------------------------------------------------------------------


def cmd_conformance(args: argparse.Namespace) -> int:
    result = run_conformance(max_k=args.max_k, max_t=args.max_t)
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
    _emit(json.dumps(document, indent=2) + "\n", args.out)
    return EXIT_OK if result.all_passed else EXIT_CONFORMANCE


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--phi", type=_probabilities, help="comma-separated probabilities, e.g. 0.5,0.5"
    )
    parser.add_argument(
        "--xi0", type=_concentrations, help="comma-separated concentration components, e.g. 1,1"
    )
    parser.add_argument("--units", choices=("nats", "bits"), default="nats", help="output units")
    parser.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
    parser.add_argument("--out", help="output file path (stdout when omitted)")
    parser.add_argument(
        "--config", help="JSON object of this command's flags and values; flags given here win"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="infoclosure", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)

    curve = sub.add_parser("curve", help="expected quantities over t = 1..tmax")
    _add_common_flags(curve)
    curve.add_argument("--tmax", type=_integer, help="largest time step")
    curve.add_argument(
        "--quantities",
        type=_quantities,
        default=("ntic",),
        help=f"comma-separated subset of {','.join(CURVE_QUANTITIES)}",
    )
    curve.add_argument("--seed", type=_integer, default=0, help="RNG seed for Monte Carlo mode")
    curve.add_argument("--samples", type=_integer, default=0, help="Monte Carlo sample count")

    trajectory = sub.add_parser("trajectory", help="pointwise quantities per prefix")
    _add_common_flags(trajectory)
    trajectory.add_argument(
        "--traj", type=_symbols, help="comma-separated symbol indices, e.g. 0,1,0"
    )

    witness = sub.add_parser("witness", help="closure-vs-gain divergence witness")
    witness.add_argument("--traj", type=_symbols, required=True)
    witness.add_argument("--xi0-a", type=_concentrations, required=True, dest="xi0_a")
    witness.add_argument("--xi0-b", type=_concentrations, required=True, dest="xi0_b")
    witness.add_argument("--units", choices=("nats", "bits"), default="nats")

    conformance = sub.add_parser("conformance", help="oracle-vs-closed-form grid")
    conformance.add_argument("--max-k", type=_integer, default=3)
    conformance.add_argument("--max-t", type=_integer, default=6)
    conformance.add_argument("--out")

    return parser


_COMMANDS = {
    "curve": cmd_curve,
    "trajectory": cmd_trajectory,
    "witness": cmd_witness,
    "conformance": cmd_conformance,
}


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
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
