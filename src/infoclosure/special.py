"""In-repo log-gamma and digamma.

These two functions are the only transcendental machinery the closed-form
information-gain expressions need, so they are implemented here rather than
pulled from an external math library: every digit the package reports can be
audited from this file.

Both use the same scheme: the recurrences Gamma(z+1) = z * Gamma(z) and
Psi(z+1) = Psi(z) + 1/z shift the argument up into a regime (z >= 12) where a
truncated Stirling / de Moivre series converges below double-precision
round-off.

Accuracy (checked against mpmath at 50 digits in the test suite):
    log_gamma : absolute error <= 1e-12 for 0.5 <= z <= 500, and relative
                error <= 1e-15 for z >= 10.  The absolute error grows with
                the size of the result beyond that (about 6e-10 at z = 1e6
                and 3e-3 at z = 1e12) while the relative error stays near
                one rounding.
    digamma   : absolute error <= 1e-10 for z >= 1e-3

The closed forms evaluate them along unit-step lattices z = a + m, m = 0, 1,
..., such as a counter component as its count grows.  ``shifted_column``
keeps each such lattice's values in a dict per prior once they are computed,
so a sweep over t evaluates every (function, a + m) once per prior.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import DomainError

_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)

# Asymptotic regime threshold; below it the recurrences shift upward.
_SHIFT_THRESHOLD = 12.0

# B_{2n} / (2n (2n-1)) for n = 1..7: coefficients of z^{-(2n-1)} in the
# Stirling series of log Gamma.  Truncation error at z >= 12 is < 2e-18.
_LOG_GAMMA_COEFFS = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
)

# B_{2n} / (2n) for n = 1..7: coefficients of z^{-2n} in the asymptotic
# expansion of digamma.  Truncation error at z >= 12 is < 7e-17.
_DIGAMMA_COEFFS = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
)


def log_gamma(z: float) -> float:
    """Natural logarithm of the Gamma function for z > 0."""
    z = float(z)
    if not z > 0.0:
        raise DomainError(f"log_gamma requires z > 0, got {z!r}")
    if z == math.inf:
        return z  # the Stirling form below would take inf - inf
    shift = 0.0
    while z < _SHIFT_THRESHOLD:
        shift -= math.log(z)
        z += 1.0
    r = 1.0 / z
    r2 = r * r
    series = 0.0
    power = r
    for coeff in _LOG_GAMMA_COEFFS:
        series += coeff * power
        power *= r2
    return shift + (z - 0.5) * math.log(z) - z + _HALF_LOG_TWO_PI + series


def digamma(z: float) -> float:
    """Digamma function Psi(z) = d/dz log Gamma(z) for z > 0.

    For positive integers n this reproduces the harmonic identity
    Psi(n) = H_{n-1} - gamma.
    """
    z = float(z)
    if not z > 0.0:
        raise DomainError(f"digamma requires z > 0, got {z!r}")
    shift = 0.0
    while z < _SHIFT_THRESHOLD:
        shift -= 1.0 / z
        z += 1.0
    r = 1.0 / z
    r2 = r * r
    series = 0.0
    power = r2
    for coeff in _DIGAMMA_COEFFS:
        series += coeff * power
        power *= r2
    return shift + math.log(z) - 0.5 * r - series


#: f((num + m * den) / den) for m = 0, 1, ..., per (f, num, den); grown by
#: ``shifted_column`` and ``shifted`` and never rewritten.
Columns = dict[tuple[Callable[[float], float], int, int], list[float]]


def shifted_column(
    columns: Columns, f: Callable[[float], float], num: int, den: int, n: int
) -> list[float]:
    """``f((num + m * den) / den)`` for m = 0..n, each computed once per ``columns``.

    The argument is the rational num / den + m, rounded once by the correctly
    rounded int / int division, as ``float(Fraction(num, den) + m)`` is, so
    an entry equals f at that float bit for bit.  The list is kept in
    ``columns`` and may be longer than n + 1: read it, never write to it.
    """
    column = columns.setdefault((f, num, den), [])
    if n >= len(column):
        column.extend([f((num + m * den) / den) for m in range(len(column), n + 1)])
    return column


def shifted(columns: Columns, f: Callable[[float], float], num: int, den: int, n: int) -> float:
    """``f((num + n * den) / den)``, kept in its ``shifted_column`` when that is cheap.

    A read at most twice the column's length grows the column to n, so an
    ascending sweep evaluates each entry once and growing costs at most one
    evaluation more than the column already holds.  A read further out, such
    as a first read past m = 0, is evaluated on its own and not kept: a
    single call costs one evaluation, not a column of them.
    """
    column = columns.get((f, num, den), ())
    if n < len(column):
        return column[n]
    if n <= 2 * len(column):
        return shifted_column(columns, f, num, den, n)[n]
    return f((num + n * den) / den)
