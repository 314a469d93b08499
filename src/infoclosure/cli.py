"""Command-line front end: curves, trajectory tables, witnesses, conformance.

Commands
--------
curve        one row per time step with the requested expected quantities,
             exact while the row's last-count table fits under
             ``closure.TABLE_TERM_CAP``, Monte Carlo (plug-in pointwise
             estimates over sampled trajectories) beyond that
trajectory   per-prefix table of the pointwise quantities of one trajectory,
             from one pass over its prefixes (``bayes.trajectory_table``)
witness      human-readable demonstration that identical one-step pointwise
             closure coexists with different information gains
conformance  closed-form-vs-oracle grid with a JSON report

Every value has one parser: an argparse converter per kind of value
(probabilities, concentrations, symbols, quantities; ``int`` for integers),
shared by the four commands.  Symbols and the sizes of phi and xi0 are
checked by the library's ``process.check_symbol`` and ``process.check_size``.
``--config FILE`` of ``curve`` and ``trajectory`` names a JSON object whose
keys are the command's own long flags without the dashes; each entry stands
for ``--key=value``, a list for its comma-joined items and a number or
string for its ``str``.  These flags go before the command line's, and the
last occurrence of a flag wins, so the command line overrides the file.

Exit codes: 0 success, 1 usage/config error, 2 witness failure,
3 conformance or consistency failure, 4 resource cap.  Exit 3 is any
``InternalConsistencyError`` or ``QuadratureError``, from any command: for
instance ``trajectory --traj 0,1 --xi0 1e6,1e6`` exits 3 because rounding
leaves its full-past gain below the KL clamp's slack (ROADMAP item 6).
A ``conformance`` grid whose largest joint exceeds
``oracle.DEFAULT_JOINT_CAP`` exits 4 before any work.

Outputs are deterministic: a fixed configuration and seed reproduce files
byte for byte, and CSV and JSON carry identical digit strings (floats are
rendered by shortest round-trip representation, 17 significant digits at
most).  The bits/nats switch rescales every reported value by 1/ln(2)
exactly once, at output time.

Process exit: importing this module registers ``gc.freeze`` with
``atexit``, once per process.  ``atexit`` handlers run before the
interpreter flushes stdio and runs its finalising collections, so every
object alive at exit is frozen and those collections do not scan the heap
that numpy's import leaves, a scan that can outlast the command.  A
process that runs ``main`` in-process keeps normal collection while it
lives: nothing is frozen before exit.  What this gives up: cyclic
garbage still uncollected at exit is never finalised, as CPython already
leaves objects alive at exit unfinalised.  No output depends on it: stdio
is flushed after the handlers, and ``_emit`` closes an ``--out`` file in a
``with``.
"""

from __future__ import annotations

import argparse
import atexit
import csv
import gc
import io
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii
from typing import Sequence

import numpy as np

from . import closure
from .bayes import (
    TRAJECTORY_COLUMNS,
    belief_tables,
    marginal_surprise_from_count,
    ntic_ig_divergence_witness,
    one_step_info_gain_from_count,
    trajectory_table,
)
from .closure import expected_values, pointwise_ntic_from_count
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
    check_at_least,
    check_size,
    sample_trajectories,
)

# One registration however often ``main`` runs (see "Process exit" above).
atexit.register(gc.freeze)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_WITNESS = 2
EXIT_CONFORMANCE = 3
EXIT_RESOURCE = 4

#: Most bytes the sampled trajectories of a Monte Carlo row may take.  A row
#: at time t holds 24 bytes per sampled symbol (a float64 uniform, its int64
#: symbol and the clipped copy), so `curve` needs samples * tmax * 24 of them.
MC_BUDGET_BYTES = 2**30

#: Each curve quantity and its value at one sampled trajectory with counts c and last
#: symbol x; a Monte Carlo cell is their mean, an exact one ``closure.expected_values``.
CURVE_QUANTITIES = {
    "ntic": lambda phi, xi0, c, x: pointwise_ntic_from_count(phi, c, x),
    "one_step_ntic": lambda phi, xi0, c, x: math.log(c.counts[x] / c.total),
    "info_gain": lambda phi, xi0, c, x: one_step_info_gain_from_count(xi0, c, x),
    "surprise": lambda phi, xi0, c, x: marginal_surprise_from_count(xi0, c, x),
}

#: The curve quantities read from the belief tables, so the ones that need xi0.
_BELIEF_QUANTITIES = frozenset({"info_gain", "surprise"})

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
    """One or more of ``CURVE_QUANTITIES``; pointwise values are the ``trajectory`` command's."""
    chosen = tuple(dict.fromkeys(q for q in text.split(",") if q))
    if not chosen or not set(chosen) <= set(CURVE_QUANTITIES):
        raise argparse.ArgumentTypeError(
            f"need one or more of {', '.join(CURVE_QUANTITIES)}, got {text!r} "
            "(per-trajectory values come from the 'trajectory' command)"
        )
    return chosen


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


def _to_units(value: float, units: str) -> float:
    """The one place a value in nats is rescaled for output; folds -0.0 onto 0.0."""
    value = value * _INV_LN2 if units == "bits" else value
    return 0.0 if value == 0.0 else value


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


#: ``json``'s spellings of the floats whose ``repr`` is not JSON.
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json(value: object, newline: str = "\n") -> str:
    """``json.dumps(value, indent=2)``, byte for byte, without its pure-Python encoder.

    ``indent`` makes ``json`` fall back from its C encoder to a pure-Python
    one; this writer dispatches on exact type, encodes strings with the C
    ``encode_basestring_ascii`` and formats numbers as ``json`` does.  Keys
    must be strings.  Any other scalar goes to ``json.dumps``, which encodes
    subclasses of str, int and float (numpy's float64, say) and raises
    ``TypeError`` for the rest.
    """
    kind = type(value)
    if kind is float:
        text = float.__repr__(value)
        return _JSON_NONFINITE.get(text, text)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        items = [f"{encode_basestring_ascii(k)}: {_json(v, inner)}" for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        return "[" + inner + ("," + inner).join([_json(v, inner) for v in value]) + newline + "]"
    return json.dumps(value)


def _render(
    command: str, args: argparse.Namespace, columns: Sequence[str], rows: list[Sequence]
) -> str:
    """Rows are value sequences in ``columns`` order; each float is scaled once.

    ``csv`` writes a float as its ``repr`` and ``None`` as an empty field;
    JSON writes ``None`` as ``null``.
    """
    units = args.units
    rows = [[_to_units(v, units) if isinstance(v, float) else v for v in row] for row in rows]
    if args.format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
        return buffer.getvalue()
    document = {
        "command": command,
        "config": _echo(args),
        "columns": list(columns),
        "rows": [dict(zip(columns, row)) for row in rows],
    }
    return _json(document) + "\n"


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {path!r}: {exc}") from exc


def _check_out(path: str | None) -> None:
    """Refuse an unwritable ``--out`` before any work; a file made here is removed again."""
    made = path is not None and not os.path.lexists(path)
    try:
        if path is not None:
            open(path, "a").close()
    except OSError as exc:
        raise UsageError(f"cannot write {path!r}: {exc}") from exc
    if made:
        os.remove(path)


# ---------------------------------------------------------------------------
# curve
# ---------------------------------------------------------------------------


def _curve_exact_row(phi: CategoricalParam, xi0, quantities: Sequence[str], t: int) -> list:
    """One ``expected_values`` call; the belief tables are built only for a belief quantity."""
    beliefs = belief_tables(xi0, t) if _BELIEF_QUANTITIES.intersection(quantities) else None
    return [t, *expected_values(phi, t, quantities, beliefs).values(), "exact"]


def _curve_mc_row(args: argparse.Namespace, t: int) -> list:
    phi, xi0 = args.phi, args.xi0
    batch = sample_trajectories(phi, t, args.samples, [args.seed, t])
    # The (samples, K) counts in one pass: sample i's symbol x < K is bin i * K + x.
    bins = (batch + phi.size * np.arange(args.samples)[:, None]).ravel()
    counts = np.bincount(bins, minlength=args.samples * phi.size).reshape(-1, phi.size)
    samples = [(CountVector(tuple(c)), x) for c, x in zip(counts.tolist(), batch[:, -1].tolist())]
    means = [
        math.fsum(CURVE_QUANTITIES[q](phi, xi0, c, x) for c, x in samples) / args.samples
        for q in args.quantities
    ]
    return [t, *means, "mc"]


def cmd_curve(args: argparse.Namespace) -> int:
    phi, t_max, quantities = args.phi, args.tmax, args.quantities
    if phi is None:
        raise UsageError("curve needs phi (flag --phi or config key 'phi')")
    if t_max is None:
        raise UsageError("curve needs tmax (flag --tmax or config key 'tmax')")
    check_at_least("tmax", t_max, 1)
    check_at_least("samples", args.samples, 0)
    if args.xi0 is not None:
        check_size("hyperparameter", args.xi0.size, "parameter", phi.size)
    if _BELIEF_QUANTITIES.intersection(quantities) and args.xi0 is None:
        raise UsageError("quantities info_gain and surprise need xi0")

    # Row t is exact while last_count_weights can build its K * (t + 1) table.
    first_mc = closure.first_capped_row(phi.size)
    if first_mc <= t_max:
        check_at_least("seed", args.seed, 0)
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
    rows = [(t, *row) for t, row in enumerate(trajectory_table(phi, xi0, traj), start=1)]
    _emit(_render("trajectory", args, ["t", *TRAJECTORY_COLUMNS], rows), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# witness
# ---------------------------------------------------------------------------


def cmd_witness(args: argparse.Namespace) -> int:
    traj, xi0_a, xi0_b, units = args.traj, args.xi0_a, args.xi0_b, args.units
    report = ntic_ig_divergence_witness(traj, xi0_a, xi0_b)

    def shown(value: float) -> str:
        return f"{_to_units(value, units)!r} {units}"

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
    by_quantity: dict[str, list] = {}
    for record in result.records:
        by_quantity.setdefault(record.quantity, []).append(record)
    for quantity, records in by_quantity.items():
        failed = sum(1 for r in records if not r.passed)
        worst = max(r.abs_diff for r in records)
        status = "ok" if failed == 0 else f"{failed} FAILED"
        print(f"{quantity}: {len(records)} checks, worst |diff| {worst:.3e}, {status}")
    print(f"conformance: {result.passed}/{result.total} checks passed")
    document = {
        "summary": {
            "total": result.total,
            "passed": result.passed,
            "failed": result.failed,
            "skipped": 0,
        },
        "records": [r.to_json_dict() for r in result.records],
    }
    _emit(_json(document) + "\n", args.out)
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
    curve.add_argument("--tmax", type=int, help="largest time step")
    curve.add_argument(
        "--quantities",
        type=_quantities,
        default=("ntic",),
        help=f"comma-separated subset of {','.join(CURVE_QUANTITIES)}",
    )
    curve.add_argument("--seed", type=int, default=0, help="RNG seed for Monte Carlo mode")
    curve.add_argument("--samples", type=int, default=0, help="Monte Carlo sample count")

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
    conformance.add_argument("--max-k", type=int, default=3)
    conformance.add_argument("--max-t", type=int, default=6)
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
        _check_out(getattr(args, "out", None))  # before any row or grid point
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
