"""IID data process, hyperparameter counter, and counting combinatorics.

The data process emits symbols 0..K-1 i.i.d. from a fixed categorical
parameter; the alphabet is the index range of that parameter, and every
symbol is checked against it (``validate_trajectory``).  The companion
counter chain starts at a strictly positive concentration vector and adds a
one-hot increment per observed symbol; its state after a trajectory is
therefore the start vector plus the trajectory's count vector.  Everything
downstream (closure measures, belief layer, oracle) consumes the types and
counting primitives defined here.

Numeric conventions used throughout the package:

* probabilities are carried in natural-log domain (nats); a probability of
  exactly zero is represented by ``NEG_INFINITY``;
* multinomial coefficients are exact arbitrary-precision integers; their
  logarithms come from the exact integer while the total is <= 64 and from
  one table of log m! above that (``log_factorials``: the log of the exact
  integer while m <= 64, ``log_gamma(m + 1)`` above), which the per-row
  binomial tables of the closed forms read too, grown once per process
  rather than rebuilt per call;
* count space is walked one ``CountVector`` at a time, in lexicographic
  order (``enumerate_counts``); no closed form needs it, only the views and
  checks that look at single states;
* concentration vectors store exact rationals so that one-hot updates, batch
  updates, and posterior construction agree to the bit, not merely to a
  tolerance (repeated float ``+1.0`` provably drifts from a single ``+n``).
  The closed forms read them as integers over one common denominator D
  (``Hyperparameter.over_common_denominator``): the counter after counts c
  is (N_x + c_x D) / D, so its ratios are int / int divisions, correctly
  rounded like the float of the exact rational, with no ``Fraction``
  arithmetic per state or per row.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .errors import AlphabetMismatchError, DomainError
from .special import Columns, log_gamma

NEG_INFINITY = float("-inf")

#: A trajectory is an ordered tuple of symbol indices.
Trajectory = tuple[int, ...]

# Largest count total whose multinomial coefficient is logged from the exact
# integer; beyond it the log-gamma route is both cheaper and stable.
_EXACT_LOG_TOTAL = 64

# log(m!) for m <= _EXACT_LOG_TOTAL, each logged from the exact integer.
_EXACT_LOG_FACTORIALS = np.array(
    [math.log(math.factorial(m)) for m in range(_EXACT_LOG_TOTAL + 1)]
)
_EXACT_LOG_FACTORIALS.flags.writeable = False

# log(m!) for every m below its length; ``log_factorials`` grows it.
_log_factorial_table = _EXACT_LOG_FACTORIALS


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CategoricalParam:
    """The true environment parameter: a probability vector over K symbols.

    Components must be nonnegative and sum to 1 within 1e-12.
    """

    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        probs = tuple(float(p) for p in self.probs)
        if len(probs) < 1:
            raise DomainError("categorical parameter needs at least one component")
        for p in probs:
            if not (p >= 0.0):  # also rejects NaN
                raise DomainError(f"probabilities must be >= 0, got {p!r}")
        total = math.fsum(probs)
        if abs(total - 1.0) > 1e-12:
            raise DomainError(f"probabilities must sum to 1 within 1e-12, got {total!r}")
        object.__setattr__(self, "probs", probs)

    @property
    def size(self) -> int:
        return len(self.probs)

    @property
    def support(self) -> tuple[int, ...]:
        """Symbols with strictly positive probability."""
        return tuple(x for x, p in enumerate(self.probs) if p > 0.0)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.probs, dtype=float)


def _to_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    try:
        # Floats convert to the exact binary value of the double; strings and
        # integer-likes go through Fraction's own parsing.
        return Fraction(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"cannot interpret {value!r} as a concentration component") from exc


@dataclass(frozen=True)
class Hyperparameter:
    """Concentration vector of the counter chain (Dirichlet parameters).

    Components are stored as exact rationals: floats convert exactly to their
    binary value and updates add exact integers, so two construction paths
    that agree mathematically compare equal here bit for bit.
    """

    alpha: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        alpha = tuple(_to_fraction(a) for a in self.alpha)
        if len(alpha) < 1:
            raise DomainError("hyperparameter needs at least one component")
        for a in alpha:
            if not a > 0:
                raise DomainError(f"concentration components must be > 0, got {a!r}")
        object.__setattr__(self, "alpha", alpha)

    @property
    def size(self) -> int:
        return len(self.alpha)

    @property
    def total(self) -> Fraction:
        """Sum of the components, exact."""
        return sum(self.alpha, Fraction(0))

    def as_floats(self) -> tuple[float, ...]:
        return tuple(float(a) for a in self.alpha)

    @cached_property
    def over_common_denominator(self) -> tuple[tuple[int, ...], int]:
        """``(N, D)`` with alpha_x = N_x / D exactly; D is the lcm of the denominators."""
        den = math.lcm(*(a.denominator for a in self.alpha))
        return tuple(a.numerator * (den // a.denominator) for a in self.alpha), den

    @cached_property
    def shifted_columns(self) -> Columns:
        """The digamma and log-gamma columns ``special.shifted`` keeps for this prior."""
        return {}


@dataclass(frozen=True)
class CountVector:
    """Per-symbol occurrence counts of a trajectory."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        counts = tuple(int(c) for c in self.counts)
        if len(counts) < 1:
            raise DomainError("count vector needs at least one component")
        for c in counts:
            if c < 0:
                raise DomainError(f"counts must be nonnegative, got {c!r}")
        object.__setattr__(self, "counts", counts)

    @property
    def size(self) -> int:
        return len(self.counts)

    @property
    def total(self) -> int:
        return sum(self.counts)


def validate_trajectory(traj: Sequence[int], k: int) -> Trajectory:
    """Return ``traj`` as a tuple after checking every symbol is < k."""
    out = tuple(int(x) for x in traj)
    for x in out:
        if x < 0 or x >= k:
            raise AlphabetMismatchError(f"symbol {x} outside alphabet of size {k}")
    return out


# ---------------------------------------------------------------------------
# Data-process probabilities
# ---------------------------------------------------------------------------


def symbol_prob(phi: CategoricalParam, x: int) -> float:
    """Log-probability (nats) of one symbol under the data process.

    Returns ``NEG_INFINITY`` for a zero-probability symbol.
    """
    if x < 0 or x >= phi.size:
        raise AlphabetMismatchError(f"symbol {x} outside alphabet of size {phi.size}")
    p = phi.probs[x]
    return math.log(p) if p > 0.0 else NEG_INFINITY


def trajectory_log_prob(phi: CategoricalParam, traj: Sequence[int]) -> float:
    """Log-probability (nats) of a whole trajectory; the empty one has 0."""
    traj = validate_trajectory(traj, phi.size)
    total = 0.0
    for x in traj:
        lp = symbol_prob(phi, x)
        if lp == NEG_INFINITY:
            return NEG_INFINITY
        total += lp
    return total


# ---------------------------------------------------------------------------
# Counting
# ---------------------------------------------------------------------------


def count(traj: Sequence[int], k: int) -> CountVector:
    """Occurrence counts of each symbol of an alphabet of size k."""
    traj = validate_trajectory(traj, k)
    counts = [0] * k
    for x in traj:
        counts[x] += 1
    return CountVector(tuple(counts))


def update(xi: Hyperparameter, x: int) -> Hyperparameter:
    """One observation step of the counter: add a one-hot at symbol x."""
    if x < 0 or x >= xi.size:
        raise AlphabetMismatchError(f"symbol {x} outside alphabet of size {xi.size}")
    alpha = list(xi.alpha)
    alpha[x] = alpha[x] + 1
    return Hyperparameter(tuple(alpha))


def add_counts(xi: Hyperparameter, c: CountVector) -> Hyperparameter:
    """Batch form of ``update``: add a whole count vector at once."""
    if c.size != xi.size:
        raise AlphabetMismatchError(
            f"count vector of size {c.size} does not match hyperparameter of size {xi.size}"
        )
    return Hyperparameter(tuple(a + n for a, n in zip(xi.alpha, c.counts)))


def inverse_count_cardinality(c: CountVector) -> int:
    """Number of trajectories producing the count ``c``, exactly.

    This is the multinomial coefficient total! / prod(counts!), computed in
    arbitrary-precision integer arithmetic, so it never overflows.
    """
    result = math.factorial(c.total)
    for n in c.counts:
        result //= math.factorial(n)
    return result


def log_count_cardinality(c: CountVector) -> float:
    """Natural log of ``inverse_count_cardinality(c)``.

    Uses the exact integer while total <= 64 and the ``log_factorials``
    table above, whose entries are computed once per process.
    """
    total = c.total
    if total <= _EXACT_LOG_TOTAL:
        return math.log(inverse_count_cardinality(c))
    log_fact = log_factorials(total)
    return float(log_fact[total]) - math.fsum(log_fact[n] for n in c.counts)


def count_log_prob(phi: CategoricalParam, c: CountVector) -> float:
    """Log-probability (nats) that a trajectory of length total(c) has count c.

    This is the multinomial pmf in log domain:
    log |c^{-1}(c)| + sum_x c_x log phi_x.  Returns ``NEG_INFINITY`` when a
    positive count sits on a zero-probability symbol.
    """
    if c.size != phi.size:
        raise AlphabetMismatchError(
            f"count vector of size {c.size} does not match parameter of size {phi.size}"
        )
    log_p = 0.0
    for n, p in zip(c.counts, phi.probs):
        if n == 0:
            continue
        if p == 0.0:
            return NEG_INFINITY
        log_p += n * math.log(p)
    return log_count_cardinality(c) + log_p


def count_space_size(k: int, t: int) -> int:
    """Number of distinct count vectors of length-t trajectories over k symbols."""
    if k < 1 or t < 0:
        raise DomainError(f"need k >= 1 and t >= 0, got k={k}, t={t}")
    return math.comb(t + k - 1, k - 1)


def log_factorials(n: int) -> np.ndarray:
    """log(m!) for m = 0..n as one read-only float array.

    The log of the exact integer while m <= 64, ``log_gamma(m + 1)`` above.
    The entries come from one table that grows to the largest n asked for,
    so each is computed once per process and keeps its value bit for bit.
    The table is a prefix of a buffer whose capacity at least doubles when
    it is outgrown, so an ascending sweep to n copies O(n) entries in
    O(log n) reallocations.
    """
    global _log_factorial_table
    table = _log_factorial_table
    if n >= len(table):
        filled = len(table)
        buffer = table.base
        if buffer is None or not buffer.flags.writeable or n >= len(buffer):
            buffer = np.empty(max(n + 1, 2 * filled))
            buffer[:filled] = table
        # Entries below ``filled`` are never written again, so slices handed
        # out earlier keep their values.
        buffer[filled : n + 1] = [log_gamma(m + 1.0) for m in range(filled, n + 1)]
        table = buffer[: n + 1]
        table.flags.writeable = False
        _log_factorial_table = table
    return table[: n + 1]


def enumerate_counts(k: int, t: int) -> Iterator[CountVector]:
    """Yield every nonnegative k-vector summing to t, each exactly once.

    Lexicographically ascending, ``count_space_size(k, t)`` elements
    (compositions of t into k parts).  A composition is read off the
    positions of k - 1 bars among t + k - 1 slots, and ``combinations``
    yields those positions in the same lexicographic order.
    """
    if k < 1 or t < 0:
        raise DomainError(f"need k >= 1 and t >= 0, got k={k}, t={t}")
    for bars in itertools.combinations(range(t + k - 1), k - 1):
        edges = (-1, *bars, t + k - 1)
        yield CountVector(tuple(right - left - 1 for left, right in zip(edges, edges[1:])))


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def sample_trajectories(
    phi: CategoricalParam, t: int, samples: int, seed: int | Sequence[int]
) -> np.ndarray:
    """Draw ``samples`` length-t trajectories i.i.d. from phi, one per row.

    Symbols come from inverse-CDF lookups on a seeded PCG64 uniform stream
    read row by row, so a fixed (phi, t, samples, seed) always yields the same
    integer array of shape (samples, t).
    """
    if t < 0:
        raise DomainError(f"trajectory length must be >= 0, got {t}")
    u = np.random.default_rng(seed).random((samples, t))
    symbols = np.searchsorted(np.cumsum(phi.as_array()), u, side="right")
    # Float cumsum can land just below 1; fold the sliver onto the last
    # positive-probability symbol.
    return np.minimum(symbols, phi.support[-1])


def sample_trajectory(phi: CategoricalParam, t: int, seed: int) -> Trajectory:
    """Draw one length-t trajectory: the single row of ``sample_trajectories``."""
    return tuple(int(x) for x in sample_trajectories(phi, t, 1, seed)[0])
