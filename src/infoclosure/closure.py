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
(count vector, last symbol).  By exchangeability a fraction c_x / t of the
trajectories with count c end in symbol x, so p(c, x) = p(c) * c_x / t; the
tests validate this grouping against full trajectory enumeration, and
``count_last_distribution`` walks it one pair at a time, up to
``DEFAULT_COUNT_CAP`` count vectors.

The exact rows need less than that joint.  The one-step closure and the
belief-layer quantities depend on a pair only through (x, c_x), and the
count entropy is linear in the per-symbol log c_x!.  So every expected
quantity at time t is a sum over one table, ``last_count_weights``:
w[x, n] = p(last symbol = x, c_x = n), K binomial rows of length t + 1,
where count space has O(t^(K-1)) points.  ``expectation`` reduces the table
against a per-(x, n) value, ``count_entropy_from_weights`` turns it into the
count entropy, centred so that no weight multiplies a term of size t log t,
and each result is one exactly rounded ``math.fsum``, independent of the
summation order.  Only the terms of nonzero weight reach the ``fsum``: it
ignores exact zeros, so dropping them changes no bit, and most of a long
row's binomial tail underflows to 0 (all but one entry when K = 1).  The
table's rows are built at full length for every 0 < phi_x < 1, and the
count entropy and the one-step closure build their terms at the nonzero
weights only.
``count_entropy``, ``ntic``, ``one_step_ntic``, the conformance closed forms
and the CLI's exact curve rows are all built on it.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

from .errors import DomainError, ResourceCapError
from .process import (
    NEG_INFINITY,
    CategoricalParam,
    CountVector,
    count,
    count_log_prob,
    count_space_size,
    enumerate_counts,
    log_factorials,
    symbol_prob,
    validate_trajectory,
)

#: Most count vectors ``count_last_distribution`` may enumerate.
DEFAULT_COUNT_CAP = 10**7

#: Most entries, K * (t + 1), one ``last_count_weights`` table may hold: 32 MB
#: of float64.  It is also ``curve``'s switch: row t is exact while its table
#: fits, so the first Monte Carlo row is ``TABLE_TERM_CAP // K``.
TABLE_TERM_CAP = 4 * 10**6


# ---------------------------------------------------------------------------
# The per-row table
# ---------------------------------------------------------------------------


def _nonzero_terms(terms: np.ndarray, weights: np.ndarray) -> list[float]:
    """The entries of ``terms`` whose weight (same shape) is nonzero, for ``math.fsum``.

    A zero weight makes a zero term, and ``fsum`` ignores exact zeros, so the
    sum is the same bit for bit; it only skips the per-term cost of ``fsum``.
    """
    return terms[weights != 0.0].tolist()


def last_count_weights(phi: CategoricalParam, t: int) -> np.ndarray:
    """p(last symbol = x, c_x = n) for length-t trajectories, as a (K, t + 1) array.

    Given that the last symbol is x, the other t - 1 symbols hold c_x - 1
    copies of it, a Binomial(t - 1, phi_x) count, so entry [x, n] is
    phi_x * Binom(n - 1; t - 1, phi_x) and column 0 is 0.  Each weight is the
    exp of a log-binomial pmf whose factorials come from ``log_factorials``.
    Raises ``ResourceCapError``, before anything is allocated, when the
    table would hold more than ``TABLE_TERM_CAP`` entries.
    """
    if t < 1:
        raise DomainError(f"need t >= 1, got {t}")
    size = phi.size * (t + 1)
    if size > TABLE_TERM_CAP:
        raise ResourceCapError(
            f"the last-count table for k={phi.size}, t={t} has {size} entries, "
            f"exceeding the cap of {TABLE_TERM_CAP}; ask for a smaller t"
        )
    weights = np.zeros((phi.size, t + 1))
    if 1.0 in phi.probs:
        weights[phi.probs.index(1.0), t] = 1.0  # the only symbol; log1p(-p) would be -inf
    mixed = [(x, p) for x, p in enumerate(phi.probs) if 0.0 < p < 1.0]
    if mixed:  # log_binom is needed by these rows only
        log_fact = log_factorials(t)
        n = np.arange(1, t + 1)
        log_binom = log_fact[t - 1] - log_fact[n - 1] - log_fact[t - n]
        for x, p in mixed:
            row = np.exp(log_binom + n * math.log(p) + (t - n) * math.log1p(-p))
            # The row sums to phi_x; rescaling it to that sum cancels the
            # rounding of log (t - 1)!, which every entry shares.
            weights[x, 1:] = row * (p / math.fsum(_nonzero_terms(row, row)))
    return weights


def expectation(weights: np.ndarray, values: np.ndarray) -> float:
    """Expectation of a per-(last symbol, count) value under a ``last_count_weights`` table.

    The sum of weights[x, n] * values[x, n] over every x and n >= 1, exactly
    rounded.  ``values`` is a (K, t + 1) array such as a ``bayes.belief_tables``
    table, or one (t + 1,) row shared by every symbol; its column 0 (a count
    the last symbol cannot have) is never read, nor is any entry whose weight
    is 0.
    """
    weights = weights[:, 1:]
    return math.fsum(_nonzero_terms(weights * values[..., 1:], weights))


def count_entropy_from_weights(phi: CategoricalParam, weights: np.ndarray) -> float:
    """Count entropy (nats) at the t of a ``last_count_weights(phi, t)`` table.

    -log p(c) = -log t! + sum_x (log c_x! - c_x log phi_x), and c_x is
    Binomial(t, phi_x), whose pmf is (t / n) * weights[x, n] for n >= 1 and
    (1 - phi_x)^t at 0.  Weighing log n! by that pmf directly would scale
    each rounding of the pmf by a term of size t log t, while the entropy is
    of size log t.  So log n! is centred on the secant L through
    m = floor(t phi_x) and m + 1: the mean of L is known exactly,
    log m! + log(m + 1) * (t phi_x - m), and the pmf only weighs
    log n! - L(n), which is small where the pmf is not.
    """
    t = weights.shape[1] - 1
    log_fact = log_factorials(t)
    terms = [-log_fact[t]]
    centre = np.zeros(phi.size, dtype=np.int64)  # m per symbol
    slope = np.zeros(phi.size)  # log(m + 1) per symbol
    for x, p in enumerate(phi.probs):
        if p == 0.0:
            continue  # c_x is 0 on every trajectory
        num, den = p.as_integer_ratio()  # t * phi_x = t * num / den exactly
        m = centre[x] = t * num // den
        slope[x] = math.log(m + 1)
        terms += [log_fact[m], slope[x] * ((t * num - m * den) / den), -t * p * math.log(p)]
        at_zero = math.exp(t * math.log1p(-p)) if p < 1.0 else 0.0
        if at_zero != 0.0:
            terms.append(at_zero * (log_fact[0] - log_fact[m] - slope[x] * (0 - m)))
    # Every symbol's n >= 1 at once, where the weight, and so the pmf, is nonzero.
    nonzero = weights != 0.0
    x, n = nonzero.nonzero()
    m = centre[x]
    binom = t / n * weights[nonzero]
    terms += (binom * (log_fact[n] - log_fact[m] - slope[x] * (n - m))).tolist()
    return math.fsum(terms)


def one_step_ntic_from_weights(weights: np.ndarray) -> float:
    """Expected one-step closure from a ``last_count_weights`` table: E[log(c_x / t)]."""
    t = weights.shape[1] - 1
    nonzero = weights != 0.0
    n = nonzero.nonzero()[1]  # the counts of the nonzero weights, in ``expectation``'s order
    return math.fsum((weights[nonzero] * np.log(n / t)).tolist())


def count_last_distribution(
    phi: CategoricalParam, t: int
) -> Iterator[tuple[CountVector, int, float, float]]:
    """The joint distribution of (count vector, last symbol), one pair at a time.

    Yields ``(c, x, p, log_pc)`` for every count vector c of positive
    probability, in ``enumerate_counts`` order, and every symbol x with
    c_x >= 1, by ascending x.  ``log_pc`` is ``count_log_prob(phi, c)`` and
    ``p`` = p(c) * c_x / t the probability of (c, x): by exchangeability a
    fraction c_x / t of the trajectories with count c end in x.  Raises
    ``ResourceCapError``, on the first ``next()``, when the count space holds
    more than ``DEFAULT_COUNT_CAP`` vectors.
    """
    if t < 1:
        raise DomainError(f"need t >= 1, got {t}")
    size = count_space_size(phi.size, t)
    if size > DEFAULT_COUNT_CAP:
        raise ResourceCapError(
            f"count-space enumeration for k={phi.size}, t={t} has {size} elements, "
            f"exceeding the cap of {DEFAULT_COUNT_CAP}; the expected values need no "
            f"enumeration (count_entropy, ntic, one_step_ntic)"
        )
    for c in enumerate_counts(phi.size, t):
        log_pc = count_log_prob(phi, c)
        if log_pc == NEG_INFINITY:
            continue
        for x, n in enumerate(c.counts):
            if n > 0:
                yield c, x, math.exp(log_pc) * n / t, log_pc


# ---------------------------------------------------------------------------
# Entropies
# ---------------------------------------------------------------------------


def symbol_entropy(phi: CategoricalParam) -> float:
    """Entropy (nats) of a single observation, with 0*log(0) = 0."""
    return -math.fsum(p * math.log(p) for p in phi.probs if p > 0.0)


def count_entropy(phi: CategoricalParam, t: int) -> float:
    """Entropy (nats) of the count vector of a length-t trajectory.

    ``count_entropy_from_weights`` over ``last_count_weights(phi, t)``.
    """
    if t < 0:
        raise DomainError(f"time index must be >= 0, got {t}")
    if t == 0:
        return 0.0  # the empty trajectory's count is certain
    return count_entropy_from_weights(phi, last_count_weights(phi, t))


# ---------------------------------------------------------------------------
# Full-past closure
# ---------------------------------------------------------------------------


def ntic(phi: CategoricalParam, t: int) -> float:
    """Expected full-past closure at time t >= 1 (nats).

    ``count_entropy(phi, t) - symbol_entropy(phi)``: the mutual-information
    term minus the transfer-entropy term.  The counter start never enters, so
    the result is independent of it by construction.
    """
    if t < 1:
        raise DomainError(f"closure is defined for t >= 1, got {t}")
    return count_entropy(phi, t) - symbol_entropy(phi)


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


def one_step_ntic(phi: CategoricalParam, t: int) -> float:
    """Expected one-step closure at time t >= 1 (nats).

    Expectation of ``one_step_pointwise_ntic`` under the trajectory
    distribution, which depends on a trajectory only through its last
    symbol x and c_x: ``one_step_ntic_from_weights`` over
    ``last_count_weights(phi, t)``.
    """
    if t < 1:
        raise DomainError(f"closure is defined for t >= 1, got {t}")
    return one_step_ntic_from_weights(last_count_weights(phi, t))
