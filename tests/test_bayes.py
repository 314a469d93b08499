"""Checks for the belief layer: predictive, surprise, information gain.

Two-route checks here: the digamma closed form of the one-step gain against a
replayed-predictive + quadrature evaluation of its defining decomposition.
Batch and sequential posterior construction agree exactly because the
counter's one-hot steps compose into adding the counts, which
``test_process.py`` checks.
"""

import gc
import math
import tracemalloc
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infoclosure import (
    CountVector,
    DomainError,
    Hyperparameter,
    WitnessFailedError,
    add_counts,
    count,
    digamma,
    full_past_info_gain,
    hindsight_empirical_surprise,
    marginal_surprise,
    ntic_ig_divergence_witness,
    one_step_info_gain,
    one_step_pointwise_ntic,
    posterior_predictive,
    update,
)
from infoclosure.bayes import belief_tables
from infoclosure.errors import AlphabetMismatchError
from infoclosure.oracle import oracle_expected_log_predictive

xi_component = st.floats(min_value=0.05, max_value=50.0, allow_nan=False)


class TestPosteriorPredictive:
    def test_symmetric_prior(self):
        assert posterior_predictive(Hyperparameter((1, 1)), 0) == 0.5

    def test_direct_substitution(self):
        assert posterior_predictive(Hyperparameter((2, 1)), 0) == pytest.approx(2 / 3)

    def test_three_way_symmetry(self):
        assert posterior_predictive(Hyperparameter((1, 1, 1)), 2) == pytest.approx(1 / 3)

    def test_mismatch(self):
        with pytest.raises(AlphabetMismatchError):
            posterior_predictive(Hyperparameter((1, 1)), 5)


class TestMarginalSurprise:
    def test_uniform_prior_no_data(self):
        assert marginal_surprise(Hyperparameter((1, 1)), (), 0) == pytest.approx(math.log(2))

    def test_after_one_observation(self):
        xi0 = Hyperparameter((1, 1))
        assert marginal_surprise(xi0, (0,), 0) == pytest.approx(-math.log(2 / 3))
        assert marginal_surprise(xi0, (0,), 1) == pytest.approx(-math.log(1 / 3))

    def test_nonnegative(self):
        xi0 = Hyperparameter((0.5, 2, 1))
        for traj in [(), (0,), (1, 2, 1), (2, 2, 2, 2)]:
            for x in range(3):
                assert marginal_surprise(xi0, traj, x) >= 0.0


class TestHindsightEmpiricalSurprise:
    def test_examples(self):
        assert hindsight_empirical_surprise((0, 0)) == 0.0
        assert hindsight_empirical_surprise((0, 1, 0)) == pytest.approx(math.log(3 / 2))
        assert hindsight_empirical_surprise((0, 0, 1)) == pytest.approx(math.log(3))

    @given(st.lists(st.integers(0, 2), min_size=1, max_size=30))
    @settings(max_examples=200)
    def test_exact_negation_of_one_step_pointwise(self, traj):
        assert hindsight_empirical_surprise(traj) + one_step_pointwise_ntic(traj) == 0.0


class TestOneStepInfoGain:
    def test_uniform_prior_first_observation(self):
        gain = one_step_info_gain(Hyperparameter((1, 1)), (0,))
        assert gain == pytest.approx(math.log(2) - 0.5, abs=1e-12)

    def test_strong_prior_barely_moves(self):
        gain = one_step_info_gain(Hyperparameter((100, 100)), (0,))
        assert 0.0 <= gain < 0.01

    def test_two_repeats(self):
        gain = one_step_info_gain(Hyperparameter((1, 1)), (0, 0))
        assert gain == pytest.approx(math.log(1.5) - 1.0 / 3.0, abs=1e-12)

    def test_decomposition(self):
        # The marginal surprise of the last symbol before it was seen, minus
        # the expected hindsight surprise -(psi(a_x + c_x) - psi(|xi0| + t)).
        xi0, traj = Hyperparameter((0.5, 2)), (1, 0, 0)
        x = traj[-1]
        hindsight = -(digamma(0.5 + 2) - digamma(2.5 + 3))
        assert one_step_info_gain(xi0, traj) == pytest.approx(
            marginal_surprise(xi0, traj[:-1], x) - hindsight, abs=1e-12
        )

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            one_step_info_gain(Hyperparameter((1, 1)), ())

    @given(
        st.lists(xi_component, min_size=2, max_size=3),
        st.data(),
    )
    @settings(max_examples=200)
    def test_nonnegative(self, alpha, data):
        xi0 = Hyperparameter(tuple(alpha))
        traj = data.draw(st.lists(st.integers(0, xi0.size - 1), min_size=1, max_size=25))
        assert one_step_info_gain(xi0, traj) >= 0.0

    @given(
        st.lists(xi_component, min_size=2, max_size=3),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_digamma_form_matches_expectation_form(self, alpha, data):
        # Independent route: replay the trajectory for the predictive term and
        # integrate the Beta marginal for the expected-hindsight term.
        xi0 = Hyperparameter(tuple(alpha))
        traj = tuple(
            data.draw(st.lists(st.integers(0, xi0.size - 1), min_size=1, max_size=15))
        )
        closed = one_step_info_gain(xi0, traj)

        xi_before = xi0
        for x in traj[:-1]:
            xi_before = update(xi_before, x)
        surprise = -math.log(posterior_predictive(xi_before, traj[-1]))
        xi_after = update(xi_before, traj[-1])
        expected_hindsight = -oracle_expected_log_predictive(xi_after, traj[-1])
        assert closed == pytest.approx(surprise - expected_hindsight, abs=1e-10)


class TestFullPastInfoGain:
    def test_empty_trajectory_is_zero(self):
        assert full_past_info_gain(Hyperparameter((1, 1)), ()) == 0.0

    def test_single_step_coincides_with_one_step_gain(self):
        xi0 = Hyperparameter((1, 1))
        assert full_past_info_gain(xi0, (0,)) == pytest.approx(
            one_step_info_gain(xi0, (0,)), abs=1e-12
        )

    def test_nonnegative(self):
        xi0 = Hyperparameter((0.5, 2, 1))
        for traj in [(0,), (1, 2), (2, 2, 2, 0, 1), (0,) * 10]:
            assert full_past_info_gain(xi0, traj) >= 0.0

    def test_vanishes_monotonically_for_strong_priors(self):
        traj = (0, 1, 0, 0)
        gains = [
            one_step_info_gain(Hyperparameter((lam, lam)), traj)
            for lam in (1, 10, 100, 1000)
        ]
        assert all(b < a for a, b in zip(gains, gains[1:]))

    def test_alternating_trajectory_against_quadrature(self):
        from infoclosure import oracle_kl_quadrature

        # An alternating run of length 2n moves the flat belief to the
        # symmetric state (n+1, n+1); check the closed form against the
        # numerically integrated divergence.
        xi0 = Hyperparameter((1, 1))
        for n in range(1, 5):
            traj = (0, 1) * n
            closed = full_past_info_gain(xi0, traj)
            quad = oracle_kl_quadrature(Hyperparameter((n + 1, n + 1)), xi0)
            assert closed == pytest.approx(quad, abs=1e-7)


class TestWitness:
    def test_first_observation_example(self):
        report = ntic_ig_divergence_witness((0,), Hyperparameter((1, 1)), Hyperparameter((10, 10)))
        assert report.one_step_pointwise == 0.0
        assert report.gain_gap > 0.0

    def test_pair_example(self):
        report = ntic_ig_divergence_witness(
            (0, 1), Hyperparameter((1, 1)), Hyperparameter((5, 1))
        )
        assert report.one_step_pointwise == pytest.approx(math.log(0.5))
        assert report.gain_gap > 0.0

    def test_identical_priors_fail(self):
        with pytest.raises(WitnessFailedError):
            ntic_ig_divergence_witness((0, 0), Hyperparameter((2, 2)), Hyperparameter((2, 2)))

    def test_mismatched_dimensions(self):
        with pytest.raises(AlphabetMismatchError):
            ntic_ig_divergence_witness((0,), Hyperparameter((1, 1)), Hyperparameter((1, 1, 1)))

    def test_empty_trajectory(self):
        with pytest.raises(DomainError):
            ntic_ig_divergence_witness((), Hyperparameter((1, 1)), Hyperparameter((2, 1)))


class TestCountLevelCores:
    def test_from_count_matches_trajectory_route(self):
        from infoclosure import (
            CategoricalParam,
            full_past_info_gain_from_count,
            marginal_surprise_from_count,
            one_step_info_gain_from_count,
            pointwise_ntic,
            pointwise_ntic_from_count,
        )

        xi0 = Hyperparameter((0.5, 2))
        traj = (1, 0, 1, 1)
        c = count(traj, 2)
        assert one_step_info_gain_from_count(xi0, c, traj[-1]) == one_step_info_gain(xi0, traj)
        assert full_past_info_gain_from_count(xi0, c) == full_past_info_gain(xi0, traj)
        for x in (0, 1):
            assert marginal_surprise_from_count(xi0, c, x) == marginal_surprise(xi0, traj, x)
        phi = CategoricalParam((0.3, 0.7))
        assert pointwise_ntic_from_count(phi, c, traj[-1]) == pointwise_ntic(phi, traj)

    def test_last_symbol_must_occur(self):
        from infoclosure import (
            CategoricalParam,
            one_step_info_gain_from_count,
            pointwise_ntic_from_count,
        )

        with pytest.raises(DomainError):
            one_step_info_gain_from_count(Hyperparameter((1, 1)), CountVector((2, 0)), 1)
        with pytest.raises(DomainError):
            pointwise_ntic_from_count(CategoricalParam((0.5, 0.5)), CountVector((2, 0)), 1)


class TestKeptValues:
    def test_a_dropped_prior_takes_its_kept_values_with_it(self):
        # Each prior keeps the digamma and log-gamma values it reads; none
        # may outlive it.  200 distinct priors keep about 0.4 MB while alive.
        belief_tables(Hyperparameter((0.5, 2, 1)), 40)  # warm up what every prior shares
        refs = []
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(200):
                xi0 = Hyperparameter((Fraction(i + 1, 7), 0.5, 3))
                belief_tables(xi0, 40)
                full_past_info_gain(xi0, (0, 1, 2, 2))
                assert xi0.shifted_columns
                refs.append(weakref.ref(xi0))
            del xi0
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert all(ref() is None for ref in refs)
        assert grown < 100_000, grown
