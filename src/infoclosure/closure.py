"""Informational-closure measures of the counter chain, in closed form.

Closure at time t compares what the trajectory's past reveals about the
counter state against the transfer entropy flowing from the last observation
into the counter.  For the IID categorical process all four variants reduce
to count combinatorics:

* full-past expectation:   entropy of the count vector minus the entropy of a
  single observation;
* full-past pointwise:     log p(last symbol) - log p(count of trajectory);
* one-step pointwise:      log of the relative frequency of the last symbol
  within the trajectory (no dependence on the data parameter or the counter
  start);
* one-step expectation:    mean of the one-step pointwise value under the
  trajectory distribution.

Every expected quantity is an expectation over the joint distribution of
(count vector, last symbol), so ``count_last_distribution`` is the one walk
over count space (polynomial in t for fixed alphabet size) instead of
trajectory space (exponential); ``count_entropy``, ``one_step_ntic`` and the
CLI's curve rows each sum their terms over a single pass of it.  The grouping
that makes this possible -- a fraction c_x / t of the trajectories with count
c end in symbol x, so p(c, x) = p(c) * c_x / t -- is validated against full
trajectory enumeration by the tests.  All sums use exactly rounded
``math.fsum``, so results do not depend on any partitioning of the
enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import DomainError, ResourceCapError
from .process import (
    NEG_INFINITY,
    CategoricalParam,
    CountVector,
    count,
    count_log_prob,
    count_space_size,
    enumerate_counts,
    symbol_prob,
    validate_trajectory,
)

#: Default cap on the number of count vectors an exact enumeration may visit.
DEFAULT_COUNT_CAP = 10**7


@dataclass(frozen=True)
class NticReport:
    """A closure value at time t together with its two constituent terms.

    ``value`` is ``mi_term - te_term``; carrying both terms lets tests check
    the decomposition rather than just the difference.
    """

    t: int
    value: float
    mi_term: float
    te_term: float


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Relative-frequency vector of a nonempty trajectory, exact in rationals."""

    probs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if sum(self.probs, Fraction(0)) != 1:
            raise DomainError("empirical probabilities must sum to exactly 1")

    def as_floats(self) -> tuple[float, ...]:
        return tuple(float(p) for p in self.probs)


def _check_count_cap(k: int, t: int, cap: int) -> None:
    size = count_space_size(k, t)
    if size > cap:
        raise ResourceCapError(
            f"count-space enumeration for k={k}, t={t} has {size} elements, "
            f"exceeding the cap of {cap}; use Monte Carlo mode (sampled "
            f"trajectories with plug-in pointwise estimates) or raise the cap"
        )


# ---------------------------------------------------------------------------
# The count-space walk
# ---------------------------------------------------------------------------


def count_last_distribution(
    phi: CategoricalParam, t: int, cap: int = DEFAULT_COUNT_CAP
) -> Iterator[tuple[CountVector, int, float, float]]:
    """Joint distribution of (count vector, last symbol) for length-t trajectories.

    Yields ``(c, x, p, log_pc)`` for every count vector c of positive
    probability and every symbol x with c_x >= 1, where ``log_pc`` is the log
    multinomial probability of c and ``p`` the probability of (c, x).
    Trajectories are grouped rather than enumerated: by exchangeability a
    fraction c_x / t of the trajectories with count c end in x, so
    p = p(c) * c_x / t, and each count vector costs one ``count_log_prob``.
    This is the single walk over count space behind every expected quantity.
    """
    if t < 1:
        raise DomainError(f"need t >= 1, got {t}")
    _check_count_cap(phi.size, t, cap)
    for c in enumerate_counts(phi.size, t):
        log_pc = count_log_prob(phi, c)
        if log_pc == NEG_INFINITY:
            continue
        p_c = math.exp(log_pc)
        for x, n in enumerate(c.counts):
            if n > 0:
                yield c, x, p_c * n / t, log_pc


# ---------------------------------------------------------------------------
# Entropies
# ---------------------------------------------------------------------------


def symbol_entropy(phi: CategoricalParam) -> float:
    """Entropy (nats) of a single observation, with 0*log(0) = 0."""
    return -math.fsum(p * math.log(p) for p in phi.probs if p > 0.0)


def count_entropy(phi: CategoricalParam, t: int, cap: int = DEFAULT_COUNT_CAP) -> float:
    """Entropy (nats) of the count vector of a length-t trajectory.

    Exact summation over ``count_last_distribution``; raises
    ``ResourceCapError`` when the count space exceeds ``cap``.
    """
    if t < 0:
        raise DomainError(f"time index must be >= 0, got {t}")
    if t == 0:
        return 0.0  # the empty trajectory's count is certain
    return math.fsum(-p * log_pc for _, _, p, log_pc in count_last_distribution(phi, t, cap=cap))


# ---------------------------------------------------------------------------
# Full-past closure
# ---------------------------------------------------------------------------


def ntic(phi: CategoricalParam, t: int, cap: int = DEFAULT_COUNT_CAP) -> NticReport:
    """Expected full-past closure at time t >= 1.

    The mutual-information term is the count entropy, the transfer-entropy
    term the single-observation entropy; the counter start never enters, so
    the result is independent of it by construction.
    """
    if t < 1:
        raise DomainError(f"closure is defined for t >= 1, got {t}")
    mi = count_entropy(phi, t, cap=cap)
    te = symbol_entropy(phi)
    return NticReport(t=t, value=mi - te, mi_term=mi, te_term=te)


def pointwise_ntic_from_count(phi: CategoricalParam, c: CountVector, x: int) -> float:
    """Pointwise full-past closure from the counts of the full trajectory and its last symbol.

    Count-level core of ``pointwise_ntic``; requires c_x >= 1 and refuses a
    trajectory of zero probability under ``phi``.
    """
    lp_count = count_log_prob(phi, c)
    lp_last = symbol_prob(phi, x)
    if c.counts[x] < 1:
        raise DomainError(f"the last symbol {x} must occur in the counts, got {c.counts}")
    if lp_last == NEG_INFINITY or lp_count == NEG_INFINITY:
        raise DomainError("trajectory has zero probability under the given parameter")
    return lp_last - lp_count


def pointwise_ntic(phi: CategoricalParam, traj: Sequence[int]) -> float:
    """Pointwise full-past closure of one trajectory (nats).

    Equals log p(last symbol) - log p(count of the trajectory).  The
    trajectory must have nonzero probability under ``phi``.
    """
    traj = validate_trajectory(traj, phi.size)
    if len(traj) < 1:
        raise DomainError("pointwise closure needs a nonempty trajectory")
    return pointwise_ntic_from_count(phi, count(traj, phi.size), traj[-1])


# ---------------------------------------------------------------------------
# One-step closure
# ---------------------------------------------------------------------------


def one_step_pointwise_ntic(traj: Sequence[int]) -> float:
    """Log relative frequency of the last symbol within the trajectory.

    Depends only on the trajectory itself: neither the data parameter nor the
    counter start appear.  Always <= 0, with equality iff the trajectory is
    constant.
    """
    traj = tuple(int(x) for x in traj)
    if len(traj) < 1:
        raise DomainError("one-step pointwise closure needs a nonempty trajectory")
    return math.log(traj.count(traj[-1]) / len(traj))


def one_step_ntic(phi: CategoricalParam, t: int, cap: int = DEFAULT_COUNT_CAP) -> float:
    """Expected one-step closure at time t >= 1 (nats).

    Expectation of ``one_step_pointwise_ntic`` under the trajectory
    distribution, summed over ``count_last_distribution``.
    """
    if t < 1:
        raise DomainError(f"closure is defined for t >= 1, got {t}")
    return math.fsum(
        p * math.log(c.counts[x] / t) for c, x, p, _ in count_last_distribution(phi, t, cap=cap)
    )


def empirical_distribution(traj: Sequence[int], k: int | None = None) -> EmpiricalDistribution:
    """Relative-frequency vector of a nonempty trajectory over k symbols.

    When ``k`` is omitted it defaults to ``max(traj) + 1``.
    """
    traj = tuple(int(x) for x in traj)
    if len(traj) < 1:
        raise DomainError("empirical distribution needs a nonempty trajectory")
    if k is None:
        k = max(traj) + 1
    c = count(traj, k)
    return EmpiricalDistribution(tuple(Fraction(n, c.total) for n in c.counts))
