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
(count vector, last symbol), which lives on count space (polynomial in t for
fixed alphabet size) instead of trajectory space (exponential).  The grouping
that makes this possible -- a fraction c_x / t of the trajectories with count
c end in symbol x, so p(c, x) = p(c) * c_x / t -- is validated against full
trajectory enumeration by the tests.

``count_last_blocks`` is the one kernel over count space.  It walks the
lattice of ``process.count_lattice_blocks`` block by block, takes every log
multinomial from one ``process.log_factorials`` table, and yields numpy
arrays of the (state, last symbol) pairs.  ``expectations`` reduces any
number of per-pair values over one pass of it, each with exactly rounded
``math.fsum`` arithmetic carried across the blocks, so a result does not
depend on the block size or the enumeration order.  ``count_entropy``,
``one_step_ntic``, the conformance grid and the CLI's curve rows are all
built on it; ``count_last_distribution`` is a per-pair view of the same
kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import DomainError, ResourceCapError
from .process import (
    NEG_INFINITY,
    CategoricalParam,
    CountVector,
    count,
    count_log_prob,
    count_lattice_blocks,
    count_space_size,
    log_factorials,
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
# The count-space kernel
# ---------------------------------------------------------------------------


class PairBlock(NamedTuple):
    """One block of the joint distribution of (count vector, last symbol).

    ``counts`` holds the block's count vectors of positive probability, one
    per row.  The other arrays have one entry per (state, last symbol) pair
    with c_x >= 1, in row order and by ascending symbol within a row.
    """

    t: int
    counts: np.ndarray  # (states, K) int64
    state: np.ndarray  # row of ``counts`` the pair belongs to
    x: np.ndarray  # last symbol
    n: np.ndarray  # c_x, at least 1
    p: np.ndarray  # p(c, x) = p(c) * c_x / t
    log_pc: np.ndarray  # log p(c)


def count_last_blocks(
    phi: CategoricalParam, t: int, cap: int = DEFAULT_COUNT_CAP
) -> Iterator[PairBlock]:
    """The joint distribution of (count vector, last symbol) for length-t trajectories.

    Count vectors with a count on a zero-probability symbol are dropped
    before any logarithm is taken.  log p(c) is the log multinomial pmf,
    log t! - sum_x log c_x! + sum_x c_x log phi_x, with the factorials taken
    from ``log_factorials(t)``; the sums run over the symbols in order.
    Trajectories are grouped rather than enumerated: by exchangeability a
    fraction c_x / t of the trajectories with count c end in x.  Raises
    ``ResourceCapError`` when the count space exceeds ``cap``.
    """
    if t < 1:
        raise DomainError(f"need t >= 1, got {t}")
    _check_count_cap(phi.size, t, cap)
    log_fact = log_factorials(t)
    impossible = np.array([p == 0.0 for p in phi.probs])
    log_phi = [math.log(p) if p > 0.0 else 0.0 for p in phi.probs]
    for counts in count_lattice_blocks(phi.size, t):
        counts = counts[~counts[:, impossible].any(axis=1)]
        columns = counts.T
        log_card = log_fact[t] - sum(log_fact[column] for column in columns)
        log_pc = log_card + sum(column * lp for column, lp in zip(columns, log_phi))
        state, x = np.nonzero(counts)
        n = counts[state, x]
        yield PairBlock(t, counts, state, x, n, np.exp(log_pc)[state] * n / t, log_pc[state])


def _exact_parts(terms: list[float]) -> list[float]:
    """A few floats whose exact sum is the exact sum of ``terms``.

    Each part is the exactly rounded remainder the parts before it leave,
    so the list ends once a remainder is exactly zero (or not finite).
    """
    parts: list[float] = []
    while (rest := math.fsum(terms + [-part for part in parts])) != 0.0:
        parts.append(rest)
        if not math.isfinite(rest):
            break
    return parts


def expectations(
    phi: CategoricalParam,
    t: int,
    values: Sequence[Callable[[PairBlock], np.ndarray]],
    cap: int = DEFAULT_COUNT_CAP,
) -> list[float]:
    """Expectations under p(c, x) of per-pair values, all from one kernel pass.

    Each callable maps a ``PairBlock`` to one value per pair; its result is
    sum p(c, x) * value over every pair, exactly rounded.  The terms of
    earlier blocks are carried forward as their ``_exact_parts``, so each
    result equals one ``math.fsum`` over all its terms whatever the blocking,
    and memory stays bounded by a block.
    """
    terms: list[list[float]] = [[] for _ in values]
    for block in count_last_blocks(phi, t, cap):
        for i, value in enumerate(values):
            terms[i] = _exact_parts(terms[i]) + (block.p * value(block)).tolist()
    return [math.fsum(block_terms) for block_terms in terms]


def count_surprisal(block: PairBlock) -> np.ndarray:
    """-log p(c) of each pair; its expectation is the count entropy."""
    return -block.log_pc


def log_relative_frequency(block: PairBlock) -> np.ndarray:
    """log(c_x / t) of each pair: the one-step pointwise closure."""
    return np.log(block.n / block.t)


def count_last_distribution(
    phi: CategoricalParam, t: int, cap: int = DEFAULT_COUNT_CAP
) -> Iterator[tuple[CountVector, int, float, float]]:
    """Per-pair view of ``count_last_blocks``.

    Yields ``(c, x, p, log_pc)`` for every count vector c of positive
    probability and every symbol x with c_x >= 1, where ``log_pc`` is the
    log multinomial probability of c and ``p`` = p(c) * c_x / t the
    probability of (c, x).
    """
    for block in count_last_blocks(phi, t, cap):
        states = [CountVector(tuple(row)) for row in block.counts.tolist()]
        for row, x, p, log_pc in zip(
            block.state.tolist(), block.x.tolist(), block.p.tolist(), block.log_pc.tolist()
        ):
            yield states[row], x, p, log_pc


# ---------------------------------------------------------------------------
# Entropies
# ---------------------------------------------------------------------------


def symbol_entropy(phi: CategoricalParam) -> float:
    """Entropy (nats) of a single observation, with 0*log(0) = 0."""
    return -math.fsum(p * math.log(p) for p in phi.probs if p > 0.0)


def count_entropy(phi: CategoricalParam, t: int, cap: int = DEFAULT_COUNT_CAP) -> float:
    """Entropy (nats) of the count vector of a length-t trajectory.

    The expectation of ``count_surprisal``; raises ``ResourceCapError``
    when the count space exceeds ``cap``.
    """
    if t < 0:
        raise DomainError(f"time index must be >= 0, got {t}")
    if t == 0:
        return 0.0  # the empty trajectory's count is certain
    return expectations(phi, t, [count_surprisal], cap)[0]


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
    distribution: the expectation of ``log_relative_frequency``.
    """
    if t < 1:
        raise DomainError(f"closure is defined for t >= 1, got {t}")
    return expectations(phi, t, [log_relative_frequency], cap)[0]


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
