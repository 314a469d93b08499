"""Checks for the data process, counter, and counting combinatorics.

Brute-force oracles enumerate trajectory space directly (itertools.product)
and recount cardinalities and count probabilities from scratch; the module
under test never enumerates trajectories, so the two routes are independent.
"""

import itertools
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infoclosure import (
    CategoricalParam,
    CountVector,
    DomainError,
    Hyperparameter,
    add_counts,
    count,
    count_log_prob,
    enumerate_counts,
    inverse_count_cardinality,
    log_count_cardinality,
    sample_trajectory,
    trajectory_log_prob,
    update,
)
from infoclosure.errors import AlphabetMismatchError
from infoclosure.process import NEG_INFINITY, count_space_size, symbol_prob

# -- brute-force oracles -----------------------------------------------------


def brute_trajectories_with_count(c):
    """All length-total strings over len(c) symbols whose counts equal c."""
    k = len(c.counts)
    return [
        traj
        for traj in itertools.product(range(k), repeat=c.total)
        if tuple(traj.count(x) for x in range(k)) == c.counts
    ]


def brute_count_prob(phi, c):
    total = 0.0
    for traj in brute_trajectories_with_count(c):
        p = 1.0
        for x in traj:
            p *= phi.probs[x]
        total += p
    return total


# -- domain types ------------------------------------------------------------


class TestTypes:
    def test_categorical_must_normalize(self):
        with pytest.raises(DomainError):
            CategoricalParam((0.5, 0.6))
        with pytest.raises(DomainError):
            CategoricalParam((1.5, -0.5))
        with pytest.raises(DomainError):
            CategoricalParam(())

    def test_categorical_support(self):
        assert CategoricalParam((0.5, 0.0, 0.5)).support == (0, 2)

    def test_hyperparameter_positive(self):
        with pytest.raises(DomainError):
            Hyperparameter((1.0, 0.0))
        with pytest.raises(DomainError):
            Hyperparameter((-1.0, 2.0))

    def test_hyperparameter_exact_components(self):
        xi = Hyperparameter((0.5, 2.5))
        assert xi.alpha == (Fraction(1, 2), Fraction(5, 2))
        assert xi.total == Fraction(3)

    def test_count_vector_nonnegative(self):
        with pytest.raises(DomainError):
            CountVector((1, -1))
        assert CountVector((2, 1)).total == 3


# -- probabilities -----------------------------------------------------------


class TestSymbolProb:
    def test_uniform_binary(self):
        phi = CategoricalParam((0.5, 0.5))
        assert symbol_prob(phi, 0) == pytest.approx(math.log(0.5))

    def test_zero_probability_symbol(self):
        phi = CategoricalParam((1.0, 0.0))
        assert symbol_prob(phi, 1) == NEG_INFINITY

    def test_direct_substitution(self):
        phi = CategoricalParam((0.2, 0.3, 0.5))
        assert symbol_prob(phi, 2) == pytest.approx(math.log(0.5))

    def test_out_of_range(self):
        with pytest.raises(AlphabetMismatchError):
            symbol_prob(CategoricalParam((0.5, 0.5)), 2)


class TestTrajectoryLogProb:
    def test_uniform(self):
        phi = CategoricalParam((0.5, 0.5))
        assert trajectory_log_prob(phi, (0, 1, 0)) == pytest.approx(3 * math.log(0.5))

    def test_empty_is_zero(self):
        assert trajectory_log_prob(CategoricalParam((0.5, 0.5)), ()) == 0.0

    def test_direct_substitution(self):
        phi = CategoricalParam((0.2, 0.8))
        assert trajectory_log_prob(phi, (1, 1)) == pytest.approx(math.log(0.64))

    def test_zero_probability_trajectory(self):
        phi = CategoricalParam((1.0, 0.0))
        assert trajectory_log_prob(phi, (0, 1)) == NEG_INFINITY


# -- counting ----------------------------------------------------------------


class TestCount:
    def test_direct(self):
        assert count((0, 1, 0), 2).counts == (2, 1)
        assert count((2, 2, 2), 3).counts == (0, 0, 3)

    def test_empty(self):
        assert count((), 3).counts == (0, 0, 0)

    @given(st.lists(st.integers(0, 2), max_size=40))
    @settings(max_examples=200)
    def test_total_equals_length(self, symbols):
        assert count(symbols, 3).total == len(symbols)


class TestUpdate:
    def test_one_hot_addition(self):
        assert update(Hyperparameter((1, 1)), 0).alpha == (Fraction(2), Fraction(1))
        assert update(Hyperparameter((0.5, 2.5)), 1).alpha == (
            Fraction(1, 2),
            Fraction(7, 2),
        )

    def test_batch_form(self):
        xi = Hyperparameter((1, 1, 1))
        for x in (0, 0, 2):
            xi = update(xi, x)
        assert xi.alpha == (Fraction(3), Fraction(1), Fraction(2))

    def test_mismatch(self):
        with pytest.raises(AlphabetMismatchError):
            update(Hyperparameter((1, 1)), 2)

    @given(
        st.lists(st.floats(min_value=0.01, max_value=50.0), min_size=1, max_size=4),
        st.data(),
    )
    @settings(max_examples=200)
    def test_sequential_equals_batch(self, alpha, data):
        # The counter identity: one-hot steps compose into adding the counts.
        xi0 = Hyperparameter(tuple(alpha))
        traj = data.draw(st.lists(st.integers(0, len(alpha) - 1), max_size=30))
        sequential = xi0
        for x in traj:
            sequential = update(sequential, x)
        batch = add_counts(xi0, count(traj, len(alpha)))
        assert sequential.alpha == batch.alpha


class TestInverseCountCardinality:
    def test_examples(self):
        assert inverse_count_cardinality(CountVector((2, 1))) == 3
        assert inverse_count_cardinality(CountVector((0, 0))) == 1
        assert inverse_count_cardinality(CountVector((1, 1, 1))) == 6

    def test_brute_force_agreement(self):
        for k in (2, 3):
            for t in range(0, 9 if k == 2 else 7):
                for c in enumerate_counts(k, t):
                    assert inverse_count_cardinality(c) == len(
                        brute_trajectories_with_count(c)
                    )

    def test_no_overflow(self):
        huge = inverse_count_cardinality(CountVector((120, 120, 60)))
        assert huge > 10**100  # exact big integer, not a float

    def test_log_paths_agree(self):
        # Exact-integer logging (total <= 64) and the log-gamma route must
        # agree where both are sensible.
        for counts in [(40, 30), (65, 1), (100, 20, 5), (33, 33, 33)]:
            c = CountVector(counts)
            exact = math.log(inverse_count_cardinality(c))
            assert log_count_cardinality(c) == pytest.approx(exact, abs=1e-10)

    def test_log_above_64_against_mpmath(self):
        # Totals above 64 are logged through the log m! table.  Against the
        # log of the exact integer at 50 digits the absolute error stays
        # below 1e-12 for totals 65..300 (5.7e-13 at worst on these vectors).
        for total in range(65, 301):
            third = total // 3
            for counts in [
                (total - third, third),
                (total - 1, 1),
                (total - 64, 64),
                (third, third, total - 2 * third),
                (total - 50, 30, 20),
                (5, 7, total - 12),
            ]:
                c = CountVector(counts)
                value = log_count_cardinality(c)
                assert type(value) is float
                with mpmath.workdps(50):
                    reference = mpmath.log(inverse_count_cardinality(c))
                    assert abs(value - reference) <= 1e-12


class TestCountLogProb:
    def test_uniform_pair(self):
        phi = CategoricalParam((0.5, 0.5))
        assert count_log_prob(phi, CountVector((1, 1))) == pytest.approx(math.log(0.5))

    def test_deterministic_process(self):
        phi = CategoricalParam((1.0, 0.0))
        assert count_log_prob(phi, CountVector((3, 0))) == pytest.approx(0.0)

    def test_brute_force_value(self):
        phi = CategoricalParam((0.5, 0.5))
        assert count_log_prob(phi, CountVector((2, 0))) == pytest.approx(math.log(0.25))

    def test_zero_support(self):
        phi = CategoricalParam((1.0, 0.0))
        assert count_log_prob(phi, CountVector((1, 2))) == NEG_INFINITY

    def test_dimension_mismatch(self):
        with pytest.raises(AlphabetMismatchError):
            count_log_prob(CategoricalParam((0.5, 0.5)), CountVector((1, 1, 1)))

    @pytest.mark.parametrize(
        "probs,k,tmax",
        [((0.5, 0.5), 2, 8), ((0.2, 0.8), 2, 8), ((0.2, 0.3, 0.5), 3, 6)],
    )
    def test_matches_trajectory_enumeration(self, probs, k, tmax):
        phi = CategoricalParam(probs)
        for t in range(tmax + 1):
            for c in enumerate_counts(k, t):
                brute = brute_count_prob(phi, c)
                assert math.exp(count_log_prob(phi, c)) == pytest.approx(
                    brute, abs=1e-12
                )

    @pytest.mark.parametrize("probs", [(0.5, 0.5), (0.1, 0.9), (0.2, 0.3, 0.5)])
    def test_normalization(self, probs):
        phi = CategoricalParam(probs)
        for t in range(0, 12):
            total = math.fsum(
                math.exp(count_log_prob(phi, c))
                for c in enumerate_counts(len(probs), t)
            )
            assert total == pytest.approx(1.0, abs=1e-10)


class TestEnumerateCounts:
    def test_stars_and_bars(self):
        assert {c.counts for c in enumerate_counts(2, 2)} == {(0, 2), (1, 1), (2, 0)}

    def test_single_symbol(self):
        assert [c.counts for c in enumerate_counts(1, 5)] == [(5,)]

    def test_stream_length(self):
        for k in (1, 2, 3, 4):
            for t in (0, 1, 3, 6):
                stream = list(enumerate_counts(k, t))
                assert len(stream) == count_space_size(k, t) == math.comb(t + k - 1, k - 1)
                assert len(set(c.counts for c in stream)) == len(stream)
                assert all(c.total == t for c in stream)


# -- sampling ----------------------------------------------------------------


class TestSampleTrajectory:
    def test_zero_length(self):
        assert sample_trajectory(CategoricalParam((0.5, 0.5)), 0, seed=1) == ()

    def test_deterministic_param_gives_constant(self):
        assert sample_trajectory(CategoricalParam((1.0, 0.0)), 4, seed=7) == (0, 0, 0, 0)

    def test_seed_determinism(self):
        phi = CategoricalParam((0.3, 0.3, 0.4))
        a = sample_trajectory(phi, 200, seed=42)
        b = sample_trajectory(phi, 200, seed=42)
        c = sample_trajectory(phi, 200, seed=43)
        assert a == b
        assert a != c

    def test_frequency_concentration(self):
        traj = sample_trajectory(CategoricalParam((0.5, 0.5)), 10000, seed=20240901)
        frequency = traj.count(0) / len(traj)
        assert 0.48 <= frequency <= 0.52

    def test_zero_probability_never_sampled(self):
        traj = sample_trajectory(CategoricalParam((0.5, 0.0, 0.5)), 2000, seed=5)
        assert 1 not in traj
