"""Checks for the in-repo log-gamma and digamma.

Independent references: exact small-integer factorials, the reflection value
Gamma(1/2) = sqrt(pi), harmonic numbers accumulated in exact rationals, the
standard library's lgamma, and mpmath at 50 significant digits.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infoclosure import DomainError, digamma, log_gamma

EULER_GAMMA = float(mpmath.euler)


class TestLogGamma:
    def test_gamma_one_is_one(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-15)

    def test_gamma_five_is_factorial_four(self):
        assert log_gamma(5.0) == pytest.approx(math.log(24.0), abs=1e-13)

    def test_gamma_half_is_sqrt_pi(self):
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), abs=1e-13)

    def test_small_integers_match_exact_factorials(self):
        for n in range(1, 40):
            assert log_gamma(float(n)) == pytest.approx(
                math.log(math.factorial(n - 1)), abs=1e-12
            )

    def test_against_stdlib_lgamma(self):
        for z in np.linspace(0.5, 150.0, 4000):
            assert abs(log_gamma(float(z)) - math.lgamma(float(z))) <= 1e-12

    def test_against_mpmath(self):
        zs = np.concatenate([np.linspace(1e-3, 0.5, 500), np.linspace(0.5, 100.0, 4000)])
        for z in zs:
            assert abs(log_gamma(float(z)) - mp_reference("loggamma", float(z))) <= 1e-12

    def test_recurrence_residuals(self):
        for z in np.linspace(0.5, 100.0, 3000):
            residual = log_gamma(float(z) + 1.0) - log_gamma(float(z)) - math.log(float(z))
            assert abs(residual) <= 1e-12

    @given(st.floats(min_value=0.5, max_value=100.0, allow_nan=False))
    @settings(max_examples=300)
    def test_recurrence_property(self, z):
        assert abs(log_gamma(z + 1.0) - log_gamma(z) - math.log(z)) <= 1e-12

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            log_gamma(0.0)
        with pytest.raises(DomainError):
            log_gamma(-2.5)

    def test_infinity_is_infinity_as_in_lgamma_and_digamma(self):
        assert log_gamma(math.inf) == math.lgamma(math.inf) == digamma(math.inf) == math.inf


class TestDigamma:
    def test_at_one_is_minus_euler_gamma(self):
        assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-12)

    def test_integer_harmonic_identity(self):
        # Psi(n) = H_{n-1} - gamma, with the harmonic number in exact rationals.
        harmonic = Fraction(0)
        for n in range(1, 51):
            assert abs(digamma(float(n)) - (float(harmonic) - EULER_GAMMA)) <= 1e-10
            harmonic += Fraction(1, n)

    def test_two_and_three(self):
        assert digamma(2.0) == pytest.approx(1.0 - EULER_GAMMA, abs=1e-12)
        assert digamma(3.0) == pytest.approx(1.5 - EULER_GAMMA, abs=1e-12)

    def test_against_mpmath(self):
        zs = np.concatenate([np.linspace(1e-3, 1.0, 1000), np.linspace(1.0, 100.0, 4000)])
        for z in zs:
            assert abs(digamma(float(z)) - mp_reference("digamma", float(z))) <= 1e-10

    def test_recurrence_residuals(self):
        for z in np.linspace(0.5, 100.0, 3000):
            residual = digamma(float(z) + 1.0) - digamma(float(z)) - 1.0 / float(z)
            assert abs(residual) <= 1e-12

    @given(st.floats(min_value=0.5, max_value=100.0, allow_nan=False))
    @settings(max_examples=300)
    def test_recurrence_property(self, z):
        assert abs(digamma(z + 1.0) - digamma(z) - 1.0 / z) <= 1e-12

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            digamma(0.0)
        with pytest.raises(DomainError):
            digamma(-1.0)


def mp_reference(name, z):
    """``mpmath.<name>(z)`` at 50 significant digits."""
    with mpmath.workdps(50):
        return getattr(mpmath, name)(mpmath.mpf(z))


class TestAgainstMpmath:
    """The accuracy bounds stated in the module docstring."""

    def test_log_gamma_absolute_below_500(self):
        for z in np.linspace(0.5, 500.0, 2000):
            assert abs(log_gamma(float(z)) - mp_reference("loggamma", float(z))) <= 1e-12

    def test_log_gamma_relative_above_10(self):
        for z in np.geomspace(10.0, 1e15, 2000):
            ref = mp_reference("loggamma", float(z))
            assert abs((log_gamma(float(z)) - ref) / ref) <= 1e-15

    def test_digamma_absolute(self):
        for z in np.geomspace(1e-3, 1e12, 2000):
            assert abs(digamma(float(z)) - mp_reference("digamma", float(z))) <= 1e-10
