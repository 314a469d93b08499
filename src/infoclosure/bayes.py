"""Belief interpretation of the counter chain: predictive probabilities,
surprise, and information gain.

A counter state parameterizes a Dirichlet belief over the data-process
parameter; adding an observation's one-hot to the counter yields exactly the
parameter of the Bayesian posterior.  This module evaluates the quantities
that depend on that interpretation:

* posterior predictive probability and (hindsight) marginal surprise;
* expected log predictive under the belief, in digamma closed form;
* one-step information gain (KL from belief before to belief after one
  observation), both as a two-term decomposition and in digamma form;
* full-past information gain (KL from the prior belief to the belief after a
  whole trajectory), via the log-gamma/digamma closed form whose validity the
  oracle module's quadrature confirms.

The marginal-surprise term inside the one-step gain is computed from the
prior and the trajectory's counts directly rather than by replaying the
trajectory; the replay route exists in the tests as an independent check.

The one-step gain and the hindsight marginal surprise of a last symbol x
depend on a count vector c only through (x, c_x, t).  ``belief_tables``
evaluates them once per (x, c_x) for a whole time step, from the same
exact-rational expressions as the per-state functions, so a table entry
equals the per-state value bit for bit and count-space passes only index it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
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
    add_counts,
    count,
    validate_trajectory,
)
from .special import digamma, log_gamma

# KL values in (-_KL_SLACK, 0) are rounding artifacts and clamp to 0; anything
# more negative indicates a real defect and raises.
_KL_SLACK = 1e-12

#: Gap below which two one-step gains are considered indistinguishable.
WITNESS_GAP = 1e-12


@dataclass(frozen=True)
class InfoGainReport:
    """One-step information gain and its two-term decomposition.

    ``value = surprise_term - expected_hindsight_term`` where the surprise
    term is the marginal surprise of the last observation before it was
    incorporated and the hindsight term is the belief-expected surprise about
    it afterwards.
    """

    value: float
    surprise_term: float
    expected_hindsight_term: float


@dataclass(frozen=True)
class WitnessReport:
    """Constructive demonstration that one-step pointwise closure cannot
    indicate information gain: one shared closure value, two differing gains."""

    one_step_pointwise: float
    info_gain_a: InfoGainReport
    info_gain_b: InfoGainReport

    @property
    def gain_gap(self) -> float:
        return abs(self.info_gain_a.value - self.info_gain_b.value)


def _clamp_kl(value: float) -> float:
    if value >= 0.0:
        return value
    if value > -_KL_SLACK:
        return 0.0
    raise InternalConsistencyError(f"KL divergence evaluated to {value!r} < -{_KL_SLACK}")


# ---------------------------------------------------------------------------
# Predictive probabilities and surprise
# ---------------------------------------------------------------------------


def posterior_predictive(xi: Hyperparameter, x: int) -> float:
    """Probability of symbol x after marginalizing the belief: (xi)_x / |xi|."""
    if x < 0 or x >= xi.size:
        raise AlphabetMismatchError(f"symbol {x} outside alphabet of size {xi.size}")
    return float(xi.alpha[x] / xi.total)


def marginal_surprise_from_count(xi0: Hyperparameter, c: CountVector, x: int) -> float:
    """Negative log posterior-predictive probability of x after counts c.

    Count-level core of ``marginal_surprise``: -log pred(xi0 + c, x).
    """
    return -math.log(posterior_predictive(add_counts(xi0, c), x))


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


def expected_log_predictive(xi: Hyperparameter, x: int) -> float:
    """Belief-expected log probability of x: digamma((xi)_x) - digamma(|xi|)."""
    if x < 0 or x >= xi.size:
        raise AlphabetMismatchError(f"symbol {x} outside alphabet of size {xi.size}")
    return digamma(float(xi.alpha[x])) - digamma(float(xi.total))


# ---------------------------------------------------------------------------
# Information gain
# ---------------------------------------------------------------------------


def _one_step_gain(
    a: Fraction, n: int, total0: Fraction, t: int, digamma_total: float
) -> InfoGainReport:
    """One-step gain of a last symbol with prior component ``a`` and count n >= 1.

    ``total0`` is the prior's total, t the trajectory length, and
    ``digamma_total`` = digamma(float(total0 + t)); the posterior component
    of the symbol is a + n.
    """
    # Marginal surprise of x before it was incorporated, written in terms of
    # the full-trajectory counts; the numerator is strictly positive because
    # n >= 1 and every prior component is > 0.
    ratio = (a - 1 + n) / (total0 - 1 + t)
    surprise_term = -math.log(float(ratio))
    expected_hindsight = -(digamma(float(a + n)) - digamma_total)
    value = _clamp_kl(surprise_term - expected_hindsight)
    return InfoGainReport(
        value=value,
        surprise_term=surprise_term,
        expected_hindsight_term=expected_hindsight,
    )


def one_step_info_gain_from_count(xi0: Hyperparameter, c: CountVector, x: int) -> InfoGainReport:
    """One-step gain from the counts of the full trajectory and its last symbol.

    Count-level core of ``one_step_info_gain``; requires c_x >= 1.
    """
    if x < 0 or x >= xi0.size:
        raise AlphabetMismatchError(f"symbol {x} outside alphabet of size {xi0.size}")
    if c.size != xi0.size:
        raise AlphabetMismatchError(
            f"count vector of size {c.size} does not match prior of size {xi0.size}"
        )
    if c.counts[x] < 1:
        raise DomainError(f"the last symbol {x} must occur in the counts, got {c.counts}")
    total0 = xi0.total
    return _one_step_gain(
        xi0.alpha[x], c.counts[x], total0, c.total, digamma(float(total0 + c.total))
    )


def belief_tables(xi0: Hyperparameter, t: int) -> tuple[np.ndarray, np.ndarray]:
    """One-step gain and hindsight marginal surprise per (last symbol, count) at time t.

    Returns two (K, t + 1) arrays.  Entry [x, n], 1 <= n <= t, is
    ``one_step_info_gain_from_count(xi0, c, x).value`` and
    ``marginal_surprise_from_count(xi0, c, x)`` for every length-t count
    vector c with c_x = n; column 0 is NaN.  Costs K * t + 1 digamma calls.
    """
    if t < 1:
        raise DomainError(f"need t >= 1, got {t}")
    total0 = xi0.total
    total1 = total0 + t
    digamma_total = digamma(float(total1))
    gain = np.full((xi0.size, t + 1), np.nan)
    surprise = np.full((xi0.size, t + 1), np.nan)
    for x, a in enumerate(xi0.alpha):
        for n in range(1, t + 1):
            gain[x, n] = _one_step_gain(a, n, total0, t, digamma_total).value
            surprise[x, n] = -math.log(float((a + n) / total1))
    return gain, surprise


def one_step_info_gain(xi0: Hyperparameter, traj: Sequence[int]) -> InfoGainReport:
    """KL divergence from the belief before the last observation to the one after.

    Digamma closed form; the report carries the marginal-surprise /
    expected-hindsight decomposition.
    """
    traj = validate_trajectory(traj, xi0.size)
    if len(traj) < 1:
        raise DomainError("one-step information gain needs a nonempty trajectory")
    return one_step_info_gain_from_count(xi0, count(traj, xi0.size), traj[-1])


def full_past_info_gain_from_count(xi0: Hyperparameter, c: CountVector) -> float:
    """Full-past gain from a count vector; count-level core of ``full_past_info_gain``."""
    alpha0 = xi0.as_floats()
    total0 = float(xi0.total)
    post = add_counts(xi0, c)
    alpha1 = post.as_floats()
    total1 = float(post.total)
    log_g = log_gamma(total1) - log_gamma(total0) + math.fsum(
        log_gamma(a0) - log_gamma(a1) for a0, a1 in zip(alpha0, alpha1)
    )
    digamma_total1 = digamma(total1)
    expected_log_lik = math.fsum(
        n * (digamma(a1) - digamma_total1) for n, a1 in zip(c.counts, alpha1) if n > 0
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
    if abs(gain_a.value - gain_b.value) <= WITNESS_GAP:
        raise WitnessFailedError(
            f"one-step gains coincide within {WITNESS_GAP} for these priors "
            f"({gain_a.value!r} vs {gain_b.value!r}); pick priors further apart"
        )
    return WitnessReport(one_step_pointwise=shared, info_gain_a=gain_a, info_gain_b=gain_b)
