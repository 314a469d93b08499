"""IID data process, hyperparameter counter, and counting combinatorics.

The data process emits symbols 0..K-1 i.i.d. from a fixed categorical
parameter; the alphabet is the index range of that parameter.  Every input
rule has its one raise site and message here, and none truncates:
``check_symbol`` (a symbol is an integer in 0..K-1), ``check_size`` (two
sizes that must agree) and ``check_at_least`` (a time, trajectory length,
count, sample number, seed or alphabet size is an integer no smaller than
its least).  The companion counter chain starts at a strictly positive
concentration vector and adds a one-hot increment per observed symbol; its
state after a trajectory is therefore the start vector plus the trajectory's
count vector.  Everything downstream (closure measures, belief layer,
oracle) consumes the types and counting primitives defined here.

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
import operator
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
        check_at_least("categorical parameter size", len(probs), 1)
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

    @cached_property
    def log_probs(self) -> tuple[float, ...]:
        """log phi_x per symbol, ``NEG_INFINITY`` for a zero-probability symbol."""
        return tuple(math.log(p) if p > 0.0 else NEG_INFINITY for p in self.probs)


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
        check_at_least("hyperparameter size", len(alpha), 1)
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
        counts = tuple(check_at_least("count", c, 0) for c in self.counts)
        check_at_least("count vector size", len(counts), 1)
        object.__setattr__(self, "counts", counts)

    @property
    def size(self) -> int:
        return len(self.counts)

    @property
    def total(self) -> int:
        return sum(self.counts)


def check_symbol(x: int, k: float) -> int:
    """x as an int; refuses what ``operator.index`` refuses (1.0, "1") or x outside 0..k-1."""
    try:
        x = operator.index(x)
        if 0 <= x < k:
            return x
    except TypeError:
        pass
    raise AlphabetMismatchError(f"symbol {x!r} outside alphabet of size {k}")


def check_at_least(what: str, value: int, least: int) -> int:
    """``value`` as an int; refuses a non-integer (as ``check_symbol``) or one below ``least``."""
    try:
        value = operator.index(value)
        if value >= least:
            return value
    except TypeError:
        pass
    raise DomainError(f"{what} must be an integer >= {least}, got {value!r}")


def check_size(what: str, size, other: str, other_size) -> None:
    """Refuse sizes (lengths or array shapes) that differ; the one home of this rule."""
    if size != other_size:
        raise AlphabetMismatchError(
            f"{what} of size {size} does not match {other} of size {other_size}"
        )


def validate_trajectory(traj: Sequence[int], k: float) -> Trajectory:
    """Return ``traj`` as a tuple of ints, each symbol checked by ``check_symbol``."""
    return tuple([check_symbol(x, k) for x in traj])


# ---------------------------------------------------------------------------
# Data-process probabilities
# ---------------------------------------------------------------------------


def symbol_prob(phi: CategoricalParam, x: int) -> float:
    """Log-probability (nats) of one symbol under the data process.

    Returns ``NEG_INFINITY`` for a zero-probability symbol.
    """
    return phi.log_probs[check_symbol(x, phi.size)]


def trajectory_log_prob(phi: CategoricalParam, traj: Sequence[int]) -> float:
    """Log-probability (nats) of a whole trajectory; the empty one has 0."""
    total = 0.0
    for x in validate_trajectory(traj, phi.size):
        p = phi.probs[x]
        if p == 0.0:
            return NEG_INFINITY
        total += math.log(p)
    return total


# ---------------------------------------------------------------------------
# Counting
# ---------------------------------------------------------------------------


def count(traj: Sequence[int], k: int) -> CountVector:
    """Occurrence counts of each symbol of an alphabet of size k."""
    counts = [0] * k
    for x in traj:
        counts[check_symbol(x, k)] += 1
    return CountVector(tuple(counts))


def update(xi: Hyperparameter, x: int) -> Hyperparameter:
    """One observation step of the counter: add a one-hot at symbol x."""
    check_symbol(x, xi.size)
    alpha = list(xi.alpha)
    alpha[x] = alpha[x] + 1
    return Hyperparameter(tuple(alpha))


def add_counts(xi: Hyperparameter, c: CountVector) -> Hyperparameter:
    """Batch form of ``update``: add a whole count vector at once."""
    check_size("count vector", c.size, "hyperparameter", xi.size)
    return Hyperparameter(tuple(a + n for a, n in zip(xi.alpha, c.counts)))


def inverse_count_cardinality(c: CountVector) -> int:
    """Number of trajectories producing the count ``c``, exactly.

    This is the multinomial coefficient total! / prod(counts!), computed in
    arbitrary-precision integer arithmetic, so it never overflows.
    """
    return _multinomial(c.counts, c.total)


def _multinomial(counts: Sequence[int], total: int) -> int:
    """total! / prod(counts!) for counts summing to total."""
    result = math.factorial(total)
    for n in counts:
        result //= math.factorial(n)
    return result


def log_count_cardinality(c: CountVector) -> float:
    """Natural log of ``inverse_count_cardinality(c)``.

    Uses the exact integer while total <= 64 and the ``log_factorials``
    table above, whose entries are computed once per process.  A total
    beyond twice the table's length does not grow it: as ``special.shifted``
    reads a far lattice point, each entry past the table is evaluated on its
    own, as ``log_gamma(m + 1)``, the value the table would hold.
    """
    total = c.total
    table = _log_factorial_table
    if total <= 2 * len(table):
        table = log_factorials(total)
    return _log_cardinality(c.counts, total, table)


def _log_cardinality(counts: Sequence[int], total: int, table) -> float:
    """log(total! / prod(counts!)), reading log m! from ``table`` where it reaches.

    The exact integer's log while total <= 64; above, ``table[m]`` for every
    m it holds and ``log_gamma(m + 1)``, the value it would hold, past it.
    """
    if total <= _EXACT_LOG_TOTAL:
        return math.log(_multinomial(counts, total))
    if total < len(table):
        return float(table[total]) - math.fsum(table[n] for n in counts)
    return log_gamma(total + 1.0) - math.fsum(
        table[n] if n < len(table) else log_gamma(n + 1.0) for n in counts
    )


def _log_lik(counts: Sequence[int], log_probs: Sequence[float]) -> float:
    """sum_x c_x log phi_x over the symbols with c_x > 0, in symbol order.

    ``NEG_INFINITY`` once a positive count sits on a symbol whose log
    probability is ``NEG_INFINITY``; adding a finite value keeps it there.
    """
    log_p = 0.0
    for n, log_prob in zip(counts, log_probs):
        if n:
            log_p += n * log_prob
    return log_p


def count_log_prob(phi: CategoricalParam, c: CountVector) -> float:
    """Log-probability (nats) that a trajectory of length total(c) has count c.

    This is the multinomial pmf in log domain:
    log |c^{-1}(c)| + sum_x c_x log phi_x.  Returns ``NEG_INFINITY`` when a
    positive count sits on a zero-probability symbol.
    """
    check_size("count vector", c.size, "parameter", phi.size)
    return log_count_cardinality(c) + _log_lik(c.counts, phi.log_probs)


def count_space_size(k: int, t: int) -> int:
    """Number of distinct count vectors of length-t trajectories over k symbols."""
    k, t = check_at_least("k", k, 1), check_at_least("t", t, 0)
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
    k, t = check_at_least("k", k, 1), check_at_least("t", t, 0)
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
    integer array of shape (samples, t).  The seed is an integer >= 0 or a
    sequence of them.
    """
    shape = check_at_least("samples", samples, 0), check_at_least("t", t, 0)
    if isinstance(seed, Sequence) and not isinstance(seed, str):
        seed = [check_at_least("seed", s, 0) for s in seed]
    else:
        seed = check_at_least("seed", seed, 0)
    u = np.random.default_rng(seed).random(shape)
    symbols = np.searchsorted(np.cumsum(phi.as_array()), u, side="right")
    # Float cumsum can land just below 1; fold the sliver onto the last
    # positive-probability symbol.
    return np.minimum(symbols, phi.support[-1])


def sample_trajectory(phi: CategoricalParam, t: int, seed: int) -> Trajectory:
    """Draw one length-t trajectory: the single row of ``sample_trajectories``."""
    return tuple(sample_trajectories(phi, t, 1, seed)[0].tolist())
