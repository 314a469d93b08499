"""Checks for the closure measures.

The brute-force route enumerates whole trajectory space and averages the
pointwise quantities directly; the implementation under test only ever walks
count space, so expectation identities are genuine two-route comparisons.
"""

import itertools
import math
import warnings

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infoclosure import (
    CategoricalParam,
    DomainError,
    ResourceCapError,
    count_entropy,
    count_last_distribution,
    ntic,
    one_step_ntic,
    one_step_pointwise_ntic,
    pointwise_ntic,
    symbol_entropy,
    trajectory_log_prob,
)


def brute_expectation(phi, t, pointwise):
    """Average a per-trajectory function over all length-t trajectories."""
    terms = []
    for traj in itertools.product(range(phi.size), repeat=t):
        log_p = trajectory_log_prob(phi, traj)
        if log_p == float("-inf"):
            continue
        terms.append(math.exp(log_p) * pointwise(traj))
    return math.fsum(terms)


def mpmath_log_multinomial(phi, counts):
    """log of the multinomial pmf at 50 digits (phi read as its exact binary values)."""
    with mpmath.workdps(50):
        value = mpmath.loggamma(sum(counts) + 1) + mpmath.fsum(
            n * mpmath.log(p) - mpmath.loggamma(n + 1)
            for n, p in zip(counts, phi.probs)
            if n > 0
        )
        return float(value)


PHI_GRID = [
    CategoricalParam((0.5, 0.5)),
    CategoricalParam((0.2, 0.8)),
    CategoricalParam((0.1, 0.9)),
    CategoricalParam((0.2, 0.3, 0.5)),
    CategoricalParam((1.0 / 3, 1.0 / 3, 1.0 / 3)),
    CategoricalParam((0.6, 0.0, 0.4)),
]


class TestSymbolEntropy:
    def test_uniform(self):
        assert symbol_entropy(CategoricalParam((0.5, 0.5))) == pytest.approx(math.log(2))

    def test_deterministic(self):
        assert symbol_entropy(CategoricalParam((1.0, 0.0))) == 0.0

    def test_direct_substitution(self):
        expected = -0.25 * math.log(0.25) - 0.75 * math.log(0.75)
        assert symbol_entropy(CategoricalParam((0.25, 0.75))) == pytest.approx(expected)


class TestCountEntropy:
    def test_t_zero(self):
        assert count_entropy(CategoricalParam((0.3, 0.7)), 0) == 0.0

    def test_t_one_equals_symbol_entropy(self):
        phi = CategoricalParam((0.5, 0.5))
        assert count_entropy(phi, 1) == pytest.approx(math.log(2), abs=1e-14)

    def test_binomial_by_hand(self):
        # Counts of two fair flips follow (1/4, 1/2, 1/4).
        expected = -math.fsum(p * math.log(p) for p in (0.25, 0.5, 0.25))
        assert count_entropy(CategoricalParam((0.5, 0.5)), 2) == pytest.approx(
            expected, abs=1e-14
        )
        assert expected == pytest.approx(1.5 * math.log(2), abs=1e-15)

    def test_resource_cap(self):
        # Refused from K * (t + 1) alone, before a table or log-factorial is built.
        with pytest.raises(ResourceCapError, match="smaller t"):
            count_entropy(CategoricalParam((0.5, 0.5)), 10**9)

    @pytest.mark.parametrize("probs", [(0.1, 0.9), (0.5, 0.5), (0.01, 0.99)])
    def test_matches_mpmath_at_large_t(self, probs):
        # Uncentred and over unrescaled table rows, -log t! + t H(phi) +
        # sum_x E[log C_x!] is off by 3.9e-12 relative at t = 120, phi = (0.1, 0.9).
        phi = CategoricalParam(probs)
        for t in (60, 120, 200):
            with mpmath.workdps(50):
                p, q = (mpmath.mpf(v) for v in probs)
                pmf = [mpmath.binomial(t, n) * p**n * q ** (t - n) for n in range(t + 1)]
                reference = -mpmath.fsum(w * mpmath.log(w) for w in pmf)
            assert count_entropy(phi, t) == pytest.approx(float(reference), rel=1e-13, abs=0.0), t


class TestDeterministic:
    @pytest.mark.parametrize("probs", [(1.0, 0.0), (0.0, 1.0, 0.0)])
    def test_closure_is_exactly_zero_past_the_log_gamma_switch(self, probs):
        # log1p(-phi_x) is -inf for phi_x = 1, and 0 * -inf would be NaN.
        phi = CategoricalParam(probs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t in range(1, 201):
                assert ntic(phi, t) == 0.0, t
                assert one_step_ntic(phi, t) == 0.0, t


class TestNtic:
    def test_t_one_is_zero(self):
        assert ntic(CategoricalParam((0.5, 0.5)), 1) == pytest.approx(0.0, abs=1e-14)

    def test_deterministic_is_zero(self):
        phi = CategoricalParam((1.0, 0.0))
        for t in range(1, 10):
            assert ntic(phi, t) == 0.0

    def test_binomial_spot_value(self):
        assert ntic(CategoricalParam((0.5, 0.5)), 2) == pytest.approx(0.5 * math.log(2), abs=1e-12)

    def test_report_decomposition(self):
        # The mutual-information term minus the transfer-entropy term, bit for bit.
        phi = CategoricalParam((0.2, 0.8))
        assert ntic(phi, 5) == count_entropy(phi, 5) - symbol_entropy(phi)

    def test_strictly_monotone_for_nondegenerate(self):
        for phi in (CategoricalParam((0.5, 0.5)), CategoricalParam((0.2, 0.8))):
            values = [ntic(phi, t) for t in range(1, 9)]
            assert all(b > a for a, b in zip(values, values[1:]))

    def test_requires_positive_t(self):
        with pytest.raises(DomainError):
            ntic(CategoricalParam((0.5, 0.5)), 0)

    @pytest.mark.parametrize("phi", PHI_GRID)
    def test_expectation_identity(self, phi):
        # The expected closure is the trajectory-average of the pointwise one.
        for t in (1, 2, 4, 6, 8):
            brute = brute_expectation(phi, t, lambda traj: pointwise_ntic(phi, traj))
            assert ntic(phi, t) == pytest.approx(brute, abs=1e-10)


class TestPointwiseNtic:
    def test_deterministic(self):
        assert pointwise_ntic(CategoricalParam((1.0, 0.0)), (0, 0, 0)) == 0.0

    def test_single_observation(self):
        assert pointwise_ntic(CategoricalParam((0.5, 0.5)), (0,)) == pytest.approx(0.0)

    def test_pair(self):
        # Count (1,1) has probability 0.5 under fair flips.
        assert pointwise_ntic(CategoricalParam((0.5, 0.5)), (0, 1)) == pytest.approx(0.0)

    def test_zero_probability_trajectory(self):
        with pytest.raises(DomainError):
            pointwise_ntic(CategoricalParam((1.0, 0.0)), (0, 1))

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            pointwise_ntic(CategoricalParam((0.5, 0.5)), ())


class TestOneStepPointwise:
    def test_single_observation(self):
        assert one_step_pointwise_ntic((0,)) == 0.0

    def test_direct_substitution(self):
        assert one_step_pointwise_ntic((0, 1, 0)) == pytest.approx(math.log(2 / 3))
        assert one_step_pointwise_ntic((0, 0, 1)) == pytest.approx(math.log(1 / 3))

    @given(st.lists(st.integers(0, 2), min_size=1, max_size=40))
    @settings(max_examples=300)
    def test_nonpositive_with_equality_iff_constant(self, traj):
        value = one_step_pointwise_ntic(traj)
        assert value <= 0.0
        if len(set(traj)) == 1:
            assert value == 0.0
        else:
            # Non-constant trajectories may still end in their modal symbol;
            # equality requires the last symbol to fill the whole sequence.
            assert (value == 0.0) == (traj.count(traj[-1]) == len(traj))

    @given(st.lists(st.integers(0, 2), min_size=2, max_size=20), st.randoms())
    @settings(max_examples=200)
    def test_invariant_under_permuting_prefix(self, traj, rng):
        prefix = traj[:-1]
        rng.shuffle(prefix)
        assert one_step_pointwise_ntic(prefix + [traj[-1]]) == pytest.approx(
            one_step_pointwise_ntic(traj), abs=0.0
        )


class TestOneStepNtic:
    def test_deterministic_is_zero(self):
        phi = CategoricalParam((1.0, 0.0))
        for t in (1, 3, 7):
            assert one_step_ntic(phi, t) == pytest.approx(0.0, abs=1e-14)

    def test_t_one_is_zero(self):
        for phi in PHI_GRID:
            assert one_step_ntic(phi, 1) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize(
        "probs", [(0.1, 0.9), (0.3, 0.7), (0.5, 0.5), (0.01, 0.99), (0.45, 0.55)]
    )
    def test_matches_mpmath_at_large_t(self, probs):
        # Rescaling each table row to sum to phi_x keeps this within 1.1e-14;
        # unrescaled rows reach 7.9e-14 here.
        phi = CategoricalParam(probs)
        for t in (60, 120, 200):
            with mpmath.workdps(50):
                p = [mpmath.mpf(v) for v in probs]
                reference = mpmath.fsum(
                    p[x] * mpmath.binomial(t - 1, n - 1) * p[x] ** (n - 1) * p[1 - x] ** (t - n)
                    * mpmath.log(mpmath.mpf(n) / t)
                    for x in (0, 1)
                    for n in range(1, t + 1)
                )
            assert one_step_ntic(phi, t) == pytest.approx(float(reference), rel=3e-14, abs=0.0), t

    def test_fair_pair_value(self):
        # Brute force over the four length-2 trajectories gives -0.5 ln 2.
        assert one_step_ntic(CategoricalParam((0.5, 0.5)), 2) == pytest.approx(
            -0.5 * math.log(2), abs=1e-14
        )

    @pytest.mark.parametrize("phi", PHI_GRID)
    def test_matches_trajectory_enumeration(self, phi):
        for t in (1, 2, 3, 5, 8):
            brute = brute_expectation(phi, t, one_step_pointwise_ntic)
            assert one_step_ntic(phi, t) == pytest.approx(brute, abs=1e-12)


class TestCountLastDistribution:
    @pytest.mark.parametrize("phi", PHI_GRID)
    def test_is_a_distribution(self, phi):
        for t in (1, 3, 5):
            weights = [p for _, _, p, _ in count_last_distribution(phi, t)]
            assert math.fsum(weights) == pytest.approx(1.0, abs=1e-12)
            assert all(p > 0.0 for p in weights)

    def test_count_cap_refuses_on_first_next(self):
        # K = 3, t = 10**4 has C(10**4 + 2, 2) = 50 015 001 count vectors.
        pairs = count_last_distribution(CategoricalParam((0.2, 0.3, 0.5)), 10**4)
        with pytest.raises(ResourceCapError, match="has 50015001 elements") as refusal:
            next(pairs)
        assert "raise the cap" not in str(refusal.value)

    def test_matches_trajectory_grouping(self):
        # The grouped weights must equal direct sums over trajectory space.
        phi = CategoricalParam((0.2, 0.3, 0.5))
        t = 4
        brute = {}
        for traj in itertools.product(range(3), repeat=t):
            key = (tuple(traj.count(x) for x in range(3)), traj[-1])
            brute[key] = brute.get(key, 0.0) + math.exp(trajectory_log_prob(phi, traj))
        grouped = {}
        for c, x, p, log_pc in count_last_distribution(phi, t):
            grouped[(c.counts, x)] = p
            assert log_pc == pytest.approx(mpmath_log_multinomial(phi, c.counts), abs=1e-13)
        assert set(grouped) == set(brute)
        for key, p in grouped.items():
            assert p == pytest.approx(brute[key], abs=1e-13)
