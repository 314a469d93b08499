"""Belief interpretation of the counter chain: predictive probabilities,
surprise, and information gain.

A counter state parameterizes a Dirichlet belief over the data-process
parameter; adding an observation's one-hot to the counter yields exactly the
parameter of the Bayesian posterior.  This module evaluates the quantities
that depend on that interpretation:

* posterior predictive probability and (hindsight) marginal surprise;
* one-step information gain (KL from belief before to belief after one
  observation): the surprise before it minus the digamma hindsight term;
* full-past information gain (KL from the prior belief to the belief after a
  whole trajectory), via the log-gamma/digamma closed form whose validity the
  oracle module's quadrature confirms.

Every quantity here is one formula over integers.  With the prior written
as N_x / D over one common denominator
(``Hyperparameter.over_common_denominator``), the counter after counts c is
(N_x + c_x D) / D, so the predictive probability is the int ratio
(N_x + c_x D) / (N_tot + t D) and the one-step surprise term the same ratio
one observation earlier.  Python's int / int division is correctly rounded,
as the float of the exact rational is, so the values are the exact-rational
ones with no ``Fraction`` arithmetic.  The digamma and log-gamma values sit
on the unit-step lattices a_x + n and |xi0| + t.  The scalar functions and
``belief_tables`` read them from the columns each prior keeps, so a sweep
over t, a trajectory's prefixes or a loop over Monte Carlo samples only
evaluates points it has not met before.  Digamma is read at counts n >= 1
only, so its columns start at a_x + 1.

The one-step gain and the hindsight marginal surprise of a last symbol x
depend on a count vector c only through (x, c_x, t).  ``belief_tables``
evaluates them once per (x, c_x) for a whole time step with the same
formulas as the per-state functions, so a table entry equals the per-state
value bit for bit and count-space passes only index it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .closure import one_step_pointwise_ntic
from .errors import (
    AlphabetMismatchError,
    DomainError,
    InternalConsistencyError,
    WitnessFailedError,
)
from .process import (
    CountVector,
    Hyperparameter,
    count,
    validate_trajectory,
)
from .special import digamma, log_gamma, shifted, shifted_column

# KL values in (-_KL_SLACK, 0) are rounding artifacts and clamp to 0; anything
# more negative indicates a real defect and raises.
_KL_SLACK = 1e-12

#: Gap below which two one-step gains are considered indistinguishable.
WITNESS_GAP = 1e-12


@dataclass(frozen=True)
class WitnessReport:
    """Constructive demonstration that one-step pointwise closure cannot
    indicate information gain: one shared closure value, two differing gains."""

    one_step_pointwise: float
    info_gain_a: float
    info_gain_b: float

    @property
    def gain_gap(self) -> float:
        return abs(self.info_gain_a - self.info_gain_b)


def _clamp_kl(value):
    """A KL value, or an array of them clamped in place entry by entry."""
    if isinstance(value, np.ndarray):
        off = ~(value >= 0.0)
        if off.any():
            value[off] = [_clamp_kl(v) for v in value[off].tolist()]
        return value
    if value >= 0.0:
        return value
    if value > -_KL_SLACK:
        return 0.0
    raise InternalConsistencyError(f"KL divergence evaluated to {value!r} < -{_KL_SLACK}")


# ---------------------------------------------------------------------------
# Predictive probabilities and surprise
# ---------------------------------------------------------------------------


def _check_symbol(xi: Hyperparameter, x: int) -> None:
    if x < 0 or x >= xi.size:
        raise AlphabetMismatchError(f"symbol {x} outside alphabet of size {xi.size}")


def _check_counts(xi: Hyperparameter, c: CountVector) -> None:
    if c.size != xi.size:
        raise AlphabetMismatchError(
            f"count vector of size {c.size} does not match hyperparameter of size {xi.size}"
        )


def _surprise(post: int, post_total: int) -> float:
    """-log(post / post_total) for a counter component and total scaled by D."""
    return -math.log(post / post_total)


def posterior_predictive(xi: Hyperparameter, x: int) -> float:
    """Probability of symbol x after marginalizing the belief: (xi)_x / |xi|."""
    _check_symbol(xi, x)
    nums, _ = xi.over_common_denominator
    return nums[x] / sum(nums)


def marginal_surprise_from_count(xi0: Hyperparameter, c: CountVector, x: int) -> float:
    """Negative log posterior-predictive probability of x after counts c.

    Count-level core of ``marginal_surprise``: -log pred(xi0 + c, x).
    """
    _check_counts(xi0, c)
    _check_symbol(xi0, x)
    nums, den = xi0.over_common_denominator
    return _surprise(nums[x] + c.counts[x] * den, sum(nums) + c.total * den)


def marginal_surprise(xi0: Hyperparameter, traj: Sequence[int], x: int) -> float:
    """Negative log posterior-predictive probability of x after seeing traj.

    With x equal to the trajectory's last symbol this is the hindsight
    marginal surprise.
    """
    traj = validate_trajectory(traj, xi0.size)
    return marginal_surprise_from_count(xi0, count(traj, xi0.size), x)


def hindsight_empirical_surprise(traj: Sequence[int]) -> float:
    """Surprise about the last observation under the empirical distribution.

    Exactly the negation of the one-step pointwise closure.
    """
    value = -one_step_pointwise_ntic(traj)
    return value if value != 0.0 else 0.0  # folds -0.0 onto 0.0


# ---------------------------------------------------------------------------
# Information gain
# ---------------------------------------------------------------------------


def _digamma_after(xi0: Hyperparameter, num: int, n: int) -> float:
    """psi(num / D + n) for n >= 1, kept in a column of ``xi0`` that starts at n = 1."""
    den = xi0.over_common_denominator[1]
    return shifted(xi0.shifted_columns, digamma, num + den, den, n - 1)


def _gain(surprise_term, digamma_post, digamma_total):
    """One-step gain from its surprise term and the posterior's digamma values.

    ``digamma_post`` is psi of the last symbol's posterior component and
    ``digamma_total`` psi of the posterior total; the expected hindsight term
    is -(digamma_post - digamma_total).  Floats, or arrays elementwise: the
    same IEEE operations give the same bits.
    """
    return _clamp_kl(surprise_term - -(digamma_post - digamma_total))


def one_step_info_gain_from_count(xi0: Hyperparameter, c: CountVector, x: int) -> float:
    """One-step gain from the counts of the full trajectory and its last symbol.

    Count-level core of ``one_step_info_gain``; requires c_x >= 1.
    """
    _check_symbol(xi0, x)
    _check_counts(xi0, c)
    n, t = c.counts[x], c.total
    if n < 1:
        raise DomainError(f"the last symbol {x} must occur in the counts, got {c.counts}")
    nums, den = xi0.over_common_denominator
    num, total = nums[x], sum(nums)
    # Marginal surprise of x at the counts before it, c - e_x; the numerator
    # is strictly positive because n >= 1 and every prior component is > 0.
    surprise_term = _surprise(num + (n - 1) * den, total + (t - 1) * den)
    return _gain(surprise_term, _digamma_after(xi0, num, n), _digamma_after(xi0, total, t))


def belief_tables(xi0: Hyperparameter, t: int) -> tuple[np.ndarray, np.ndarray]:
    """One-step gain and hindsight marginal surprise per (last symbol, count) at time t.

    Returns two (K, t + 1) arrays.  Entry [x, n], 1 <= n <= t, is
    ``one_step_info_gain_from_count(xi0, c, x)`` and
    ``marginal_surprise_from_count(xi0, c, x)`` for every length-t count
    vector c with c_x = n, from the same formulas; column 0 is NaN.  The
    digamma values of the components come from columns grown once per
    prior and that of the total from at most one call, so a row makes at
    most K * t + 1 digamma calls and an ascending sweep to T O(K * T) in all.
    """
    if t < 1:
        raise DomainError(f"need t >= 1, got {t}")
    nums, den = xi0.over_common_denominator
    total = sum(nums)
    post_total = total + t * den
    digamma_total = _digamma_after(xi0, total, t)
    gain = np.full((xi0.size, t + 1), np.nan)
    surprise = np.full((xi0.size, t + 1), np.nan)
    for x, num in enumerate(nums):
        # The surprise terms of n = 1..t: the surprises of n - 1 at t - 1.
        before = np.array([
            _surprise(post, post_total - den) for post in range(num, num + t * den, den)
        ])
        surprise[x, 1:] = [
            _surprise(post, post_total) for post in range(num + den, num + (t + 1) * den, den)
        ]
        digammas = np.array(shifted_column(xi0.shifted_columns, digamma, num + den, den, t - 1)[:t])
        gain[x, 1:] = _gain(before, digammas, digamma_total)
    return gain, surprise


def one_step_info_gain(xi0: Hyperparameter, traj: Sequence[int]) -> float:
    """KL divergence from the belief before the last observation to the one after.

    Digamma closed form: ``marginal_surprise(xi0, traj[:-1], traj[-1])`` minus
    the expected hindsight surprise -(psi(a_x + c_x) - psi(|xi0| + t)).
    """
    traj = validate_trajectory(traj, xi0.size)
    if len(traj) < 1:
        raise DomainError("one-step information gain needs a nonempty trajectory")
    return one_step_info_gain_from_count(xi0, count(traj, xi0.size), traj[-1])


def full_past_info_gain_from_count(xi0: Hyperparameter, c: CountVector) -> float:
    """Full-past gain from a count vector; count-level core of ``full_past_info_gain``."""
    _check_counts(xi0, c)
    nums, den = xi0.over_common_denominator
    total, t = sum(nums), c.total
    columns = xi0.shifted_columns
    # Each column is read at m = 0 before m = n, so a sweep appends to it.
    log_gamma_prior = shifted(columns, log_gamma, total, den, 0)
    log_g = shifted(columns, log_gamma, total, den, t) - log_gamma_prior + math.fsum(
        shifted(columns, log_gamma, num, den, 0) - shifted(columns, log_gamma, num, den, n)
        for num, n in zip(nums, c.counts)
    )
    expected_log_lik = 0.0
    if t > 0:
        digamma_total = _digamma_after(xi0, total, t)
        expected_log_lik = math.fsum(
            n * (_digamma_after(xi0, num, n) - digamma_total)
            for num, n in zip(nums, c.counts)
            if n > 0
        )
    return _clamp_kl(log_g + expected_log_lik)


def full_past_info_gain(xi0: Hyperparameter, traj: Sequence[int]) -> float:
    """KL divergence from the prior belief to the belief after the whole trajectory.

    Closed form in log-gamma and digamma; the empty trajectory gives exactly 0.
    """
    traj = validate_trajectory(traj, xi0.size)
    return full_past_info_gain_from_count(xi0, count(traj, xi0.size))


def ntic_ig_divergence_witness(
    traj: Sequence[int], xi0_a: Hyperparameter, xi0_b: Hyperparameter
) -> WitnessReport:
    """Show that the one-step pointwise closure cannot indicate information gain.

    For the same trajectory the pointwise closure is fixed, yet two different
    priors produce different one-step gains.  Raises ``WitnessFailedError``
    when the priors are identical or the gains coincide within
    ``WITNESS_GAP`` (pick different priors in that case).
    """
    if xi0_a.size != xi0_b.size:
        raise AlphabetMismatchError("the two priors must have the same dimension")
    traj = validate_trajectory(traj, xi0_a.size)
    if len(traj) < 1:
        raise DomainError("the witness needs a nonempty trajectory")
    if xi0_a.alpha == xi0_b.alpha:
        raise WitnessFailedError(
            "identical priors cannot witness divergence; pick two different priors"
        )
    shared = one_step_pointwise_ntic(traj)
    gain_a = one_step_info_gain(xi0_a, traj)
    gain_b = one_step_info_gain(xi0_b, traj)
    if abs(gain_a - gain_b) <= WITNESS_GAP:
        raise WitnessFailedError(
            f"one-step gains coincide within {WITNESS_GAP} for these priors "
            f"({gain_a!r} vs {gain_b!r}); pick priors further apart"
        )
    return WitnessReport(one_step_pointwise=shared, info_gain_a=gain_a, info_gain_b=gain_b)
