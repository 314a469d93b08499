"""Closed-form-vs-oracle conformance grid.

Runs every closure measure through both routes -- the count-combinatorics
closed forms and the definitional joint-table oracle -- over grids of data
parameters, counter starts, and times, plus the Beta-Beta quadrature check of
the full-past information gain.  Emits one record per comparison; the CLI and
the acceptance suite both drive this runner.

Grid points are independent pure computations, so the runner can fan them out
over a process pool; records are collected in canonical grid order regardless
of completion order, keeping reports byte-stable.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .bayes import full_past_info_gain
from .closure import (
    count_entropy_from_weights,
    last_count_weights,
    one_step_ntic_from_weights,
    symbol_entropy,
)
from .errors import DomainError, ResourceCapError
from .oracle import (
    build_joint,
    oracle_kl_quadrature,
    oracle_mutual_information,
    oracle_transfer_entropy,
)
from .process import CategoricalParam, CountVector, Hyperparameter, add_counts

#: Five-point data-parameter grids per alphabet size.
PHI_GRIDS: dict[int, tuple[tuple[float, ...], ...]] = {
    2: (
        (0.5, 0.5),
        (0.2, 0.8),
        (0.1, 0.9),
        (0.35, 0.65),
        (0.75, 0.25),
    ),
    3: (
        (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0),
        (0.2, 0.3, 0.5),
        (0.1, 0.1, 0.8),
        (0.25, 0.5, 0.25),
        (0.6, 0.3, 0.1),
    ),
}

#: Counter-start grids mixing symmetric, asymmetric, sub-unit, and strong priors.
XI0_GRIDS: dict[int, tuple[tuple[float, ...], ...]] = {
    2: ((1, 1), (0.5, 2), (3, 3), (10, 1)),
    3: ((1, 1, 1), (0.5, 2, 2), (3, 3, 3), (10, 1, 1)),
}

#: Count vectors for the two-symbol information-gain quadrature grid
#: (crossed with XI0_GRIDS[2] this yields 20 cases).
KL_COUNT_GRID: tuple[tuple[int, int], ...] = ((0, 0), (1, 0), (2, 3), (5, 5), (12, 4))

#: Maximum spread tolerated across counter starts for a start-independent quantity.
XI0_SPREAD_TOL = 1e-12


@dataclass(frozen=True)
class ConformanceRecord:
    """One closed-form-vs-oracle comparison."""

    quantity: str
    context: dict
    closed_form: float
    oracle: float
    abs_diff: float
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "quantity": self.quantity,
            "context": self.context,
            "closed_form": self.closed_form,
            "oracle": self.oracle,
            "abs_diff": self.abs_diff,
            "pass": self.passed,
        }


@dataclass
class ConformanceResult:
    records: list[ConformanceRecord]
    warnings: list[str]

    @property
    def total(self) -> int:
        return len(self.records)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if not r.passed)

    @property
    def passed(self) -> int:
        return self.total - self.failed

    @property
    def all_passed(self) -> bool:
        return self.failed == 0


def _record(quantity: str, context: dict, closed: float, orac: float, tol: float) -> ConformanceRecord:
    diff = abs(closed - orac)
    return ConformanceRecord(
        quantity=quantity,
        context=context,
        closed_form=closed,
        oracle=orac,
        abs_diff=diff,
        passed=diff <= tol,
    )


def _ntic_point(args) -> tuple[list[ConformanceRecord], list[str]]:
    """All comparisons for one (k, phi, t) grid point across the xi0 grid."""
    k, phi_probs, t, tolerance = args
    phi = CategoricalParam(phi_probs)
    records: list[ConformanceRecord] = []
    warns: list[str] = []

    # Both closed forms from one last-count table: ntic's count entropy and one_step_ntic.
    weights = last_count_weights(phi, t)
    closed_full = count_entropy_from_weights(phi, weights) - symbol_entropy(phi)
    closed_one = one_step_ntic_from_weights(weights)

    # One enumeration of the joint per (phi, t), relabelled for each start.
    joint = None
    oracle_full: list[float] = []
    oracle_one: list[float] = []
    for xi0_values in XI0_GRIDS[k]:
        xi0 = Hyperparameter(xi0_values)
        context = {"k": k, "phi": list(phi_probs), "t": t, "xi0": list(xi0_values)}
        try:
            joint = build_joint(phi, xi0, t) if joint is None else joint.relabel(xi0)
        except ResourceCapError as exc:
            warns.append(f"skipped k={k} phi={phi_probs} t={t} xi0={xi0_values}: {exc}")
            continue
        te = oracle_transfer_entropy(joint)
        o_full = oracle_mutual_information(joint, "full_past") - te
        o_one = oracle_mutual_information(joint, "one_step") - te
        oracle_full.append(o_full)
        oracle_one.append(o_one)
        records.append(_record("ntic_full_past", context, closed_full, o_full, tolerance))
        records.append(_record("ntic_one_step", context, closed_one, o_one, tolerance))

    spread_context = {"k": k, "phi": list(phi_probs), "t": t, "xi0_grid": [list(v) for v in XI0_GRIDS[k]]}
    if oracle_full:
        records.append(
            _record(
                "ntic_full_past_xi0_spread",
                spread_context,
                0.0,
                max(oracle_full) - min(oracle_full),
                XI0_SPREAD_TOL,
            )
        )
    if oracle_one:
        records.append(
            _record(
                "ntic_one_step_xi0_spread",
                spread_context,
                0.0,
                max(oracle_one) - min(oracle_one),
                XI0_SPREAD_TOL,
            )
        )
    return records, warns


def _info_gain_records() -> list[ConformanceRecord]:
    kl_tolerance = 1e-7
    records = []
    for xi0_values in XI0_GRIDS[2]:
        xi0 = Hyperparameter(xi0_values)
        for counts in KL_COUNT_GRID:
            c = CountVector(counts)
            traj = (0,) * counts[0] + (1,) * counts[1]
            closed = full_past_info_gain(xi0, traj)
            orac = oracle_kl_quadrature(add_counts(xi0, c), xi0, abs_tol=kl_tolerance * 0.1)
            context = {"k": 2, "xi0": list(xi0_values), "counts": list(counts)}
            records.append(
                _record("full_past_info_gain_vs_quadrature", context, closed, orac, kl_tolerance)
            )
    return records


def run_conformance(
    max_k: int = 3,
    max_t: int = 8,
    tolerance: float = 1e-10,
    jobs: int = 1,
) -> ConformanceResult:
    """Run the full grid and return all comparison records in canonical order.

    ``tolerance`` bounds the closure comparisons; the quadrature records use
    1e-7.  A joint over ``oracle.DEFAULT_JOINT_CAP`` trajectories is skipped
    with a warning.  ``jobs`` is clamped to the CPU count and to the number
    of grid points.
    """
    if max_k < 2 or max_k > 3:
        raise DomainError("conformance grids are defined for alphabet sizes 2 and 3")
    if max_t < 1:
        raise DomainError(f"need max_t >= 1, got {max_t}")

    points = [
        (k, phi_probs, t, tolerance)
        for k in range(2, max_k + 1)
        for phi_probs in PHI_GRIDS[k]
        for t in range(1, max_t + 1)
    ]

    records: list[ConformanceRecord] = []
    warns: list[str] = []
    jobs = min(jobs, os.cpu_count() or 1, len(points))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_ntic_point, points))
    else:
        outcomes = [_ntic_point(p) for p in points]
    for point_records, point_warns in outcomes:
        records.extend(point_records)
        warns.extend(point_warns)

    records.extend(_info_gain_records())
    return ConformanceResult(records=records, warnings=warns)
