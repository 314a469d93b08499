"""Closed-form-vs-oracle conformance grid.

Runs every closure measure through both routes -- the count-combinatorics
closed forms and the definitional joint-table oracle -- over grids of data
parameters, counter starts, and times, plus the Beta-Beta quadrature check of
the full-past information gain.  Emits one record per comparison; the CLI and
the acceptance suite both drive this runner.

The grid runs in one process.  Within an alphabet size it visits time
outermost, so the five data parameters of one (K, t) share the oracle's row
layout, and it reports in canonical order (alphabet size, then data
parameter, then time), so a report is byte-stable.  It runs whole or is
refused before any work (``run_conformance``).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import oracle
from .bayes import full_past_info_gain_from_count
from .closure import expected_values
from .errors import DomainError, ResourceCapError
from .oracle import (
    build_joint,
    oracle_kl_quadrature,
    oracle_mutual_information,
    oracle_transfer_entropy,
)
from .process import CategoricalParam, CountVector, Hyperparameter, add_counts, check_at_least

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

#: Largest |closed form - oracle| a closure comparison may show.
CLOSURE_TOLERANCE = 1e-10


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


def _ntic_point(k: int, phi_probs: tuple[float, ...], t: int) -> list[ConformanceRecord]:
    """All comparisons for one (k, phi, t) grid point across the xi0 grid."""
    phi = CategoricalParam(phi_probs)
    records: list[ConformanceRecord] = []

    # Both closed forms from one last-count table, in the order asked.
    closed_full, closed_one = expected_values(phi, t, ("ntic", "one_step_ntic")).values()

    # One joint and one oracle evaluation per (phi, t): the definitional sums
    # group the trajectories alike for every start and never read it.
    starts = XI0_GRIDS[k]
    joint = build_joint(phi, Hyperparameter(starts[0]), t)
    te = oracle_transfer_entropy(joint)
    oracle_full = oracle_mutual_information(joint, "full_past") - te
    oracle_one = oracle_mutual_information(joint, "one_step") - te
    for xi0_values in starts:
        context = {"k": k, "phi": list(phi_probs), "t": t, "xi0": list(xi0_values)}
        records.append(_record("ntic_full_past", context, closed_full, oracle_full, CLOSURE_TOLERANCE))
        records.append(_record("ntic_one_step", context, closed_one, oracle_one, CLOSURE_TOLERANCE))

    # One oracle value serves every start, so the spread over the start grid is
    # 0 by construction; the records keep the report's shape.
    spread_context = {"k": k, "phi": list(phi_probs), "t": t, "xi0_grid": [list(v) for v in starts]}
    for quantity in ("ntic_full_past_xi0_spread", "ntic_one_step_xi0_spread"):
        records.append(_record(quantity, spread_context, 0.0, 0.0, XI0_SPREAD_TOL))
    return records


def _info_gain_records() -> list[ConformanceRecord]:
    kl_tolerance = 1e-7
    records = []
    for xi0_values in XI0_GRIDS[2]:
        xi0 = Hyperparameter(xi0_values)
        for counts in KL_COUNT_GRID:
            c = CountVector(counts)
            closed = full_past_info_gain_from_count(xi0, c)
            orac = oracle_kl_quadrature(add_counts(xi0, c), xi0, abs_tol=kl_tolerance * 0.1)
            context = {"k": 2, "xi0": list(xi0_values), "counts": list(counts)}
            records.append(
                _record("full_past_info_gain_vs_quadrature", context, closed, orac, kl_tolerance)
            )
    return records


def run_conformance(max_k: int = 3, max_t: int = 6) -> ConformanceResult:
    """Run the full grid and return all comparison records in canonical order.

    The defaults are those of the ``conformance`` command.
    ``CLOSURE_TOLERANCE`` bounds the closure comparisons; the quadrature
    records use 1e-7.  Raises ``ResourceCapError``, before any work, when the
    largest joint, max_k ** max_t trajectories, exceeds
    ``oracle.DEFAULT_JOINT_CAP`` (read at call time).
    """
    if check_at_least("max_k", max_k, 2) > 3:
        raise DomainError("conformance grids are defined for alphabet sizes 2 and 3")
    max_t = check_at_least("max_t", max_t, 1)
    if oracle.exceeds_joint_cap(max_k, max_t):
        raise ResourceCapError(
            f"the grid's largest joint, k={max_k} and t={max_t}, would enumerate "
            f"{max_k}**{max_t} trajectories, exceeding the cap of "
            f"{oracle.DEFAULT_JOINT_CAP}; reduce max_t"
        )

    records: list[ConformanceRecord] = []
    for k in range(2, max_k + 1):
        # Time outermost, so the data parameters of one (k, t) share the
        # oracle's row layout; the report keeps the canonical order.
        points = {
            (phi_probs, t): _ntic_point(k, phi_probs, t)
            for t in range(1, max_t + 1)
            for phi_probs in PHI_GRIDS[k]
        }
        for phi_probs in PHI_GRIDS[k]:
            for t in range(1, max_t + 1):
                records.extend(points[phi_probs, t])

    records.extend(_info_gain_records())
    return ConformanceResult(records=records)
