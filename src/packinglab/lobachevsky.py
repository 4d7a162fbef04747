"""The Lobachevsky function by series, quadrature, and expansion.

L(theta) = -integral_0^theta log|2 sin u| du, the standard building
block for exact hyperbolic volumes (ideal tetrahedra in H^3 decompose
into L evaluations).  The integrand is negative near 0, so with this
sign L(pi/6) = 0.50747... is the function's maximum.

Three independent evaluation routes are provided so they can check
each other:

  * lobachevsky            -- the sine series (1/2) sum sin(2n theta)/n^2,
                              truncated under a rigorous tail bound;
  * lobachevsky_quadrature -- adaptive quadrature on the integral itself;
  * lobachevsky_asymptotic -- the small-angle expansion
                              theta (1 - log(2 theta) + sum_n |B_2n| (2 theta)^2n
                              / (2n (2n+1)!)).

L is odd and pi-periodic; every route reduces its argument first where
that is sound.
"""

from __future__ import annotations

import functools
import math
import warnings
from fractions import Fraction

import mpmath

# Beyond this the truncated expansion is no longer a good substitute
# for the series (the neglected tail is of practical size).
ASYMPTOTIC_RADIUS = 0.5

# Below this the series route delegates to the expansion: the sine
# series needs about 1/sqrt(2 tol sin r) terms, which blows up at the
# period ends, while twelve expansion terms are already exact to far
# below any float tolerance (the tail is geometric in (r/pi)^2).
_SERIES_SWITCH = 0.01


def reduce_angle(theta: float) -> float:
    """theta mod pi, in [0, pi).  L is pi-periodic, L(0) = L(pi) = 0."""
    r = math.fmod(theta, math.pi)
    if r < 0.0:
        r += math.pi
    return r


def series_terms(theta: float, tol: float) -> int:
    """Terms needed for the tail of the sine series to stay under tol.

    Summation by parts against the bounded partial sums of sin(2nr)
    gives |sum_{n>N} sin(2nr)/n^2| <= 1 / ((N+1)^2 |sin r|), so the
    truncation error after N terms is at most 1/(2 (N+1)^2 |sin r|).
    """
    s = abs(math.sin(reduce_angle(theta)))
    if s == 0.0:
        return 0
    return max(8, math.ceil(math.sqrt(1.0 / (2.0 * tol * s))))


def lobachevsky(theta: float, tol: float = 1e-9) -> float:
    """Evaluate L by the truncated sine series.

    Very small reduced angles (within _SERIES_SWITCH of either period
    end) go through the expansion instead, where it is the sharper
    tool; the result is still within tol of L(theta).
    """
    if tol <= 0.0:
        raise ValueError(f"tolerance must be positive, got {tol!r}")
    r = reduce_angle(theta)
    if r == 0.0:
        return 0.0
    if r < _SERIES_SWITCH:
        return lobachevsky_asymptotic(r, terms=12)
    if math.pi - r < _SERIES_SWITCH:
        return -lobachevsky_asymptotic(math.pi - r, terms=12)
    count = series_terms(r, tol)
    return 0.5 * sum(math.sin(2.0 * r * n) / (n * n) for n in range(1, count + 1))


def lobachevsky_quadrature(theta: float, tol: float = 1e-9) -> float:
    """Evaluate L by adaptive quadrature on the defining integral.

    The integrand log|2 sin u| has an integrable log singularity at 0.
    Rather than leaning on the quadrature rule to absorb it, split off
    the singular part in closed form,

        int_0^r log(2 sin u) du = r (log(2r) - 1) + int_0^r log(sin u / u) du,

    so the remaining integrand extends continuously by 0 at u = 0.  The
    reflection L(pi - r) = -L(r) keeps the range inside [0, pi/2], clear
    of the other zero of sin.  The smooth part goes to mpmath's
    tanh-sinh rule at the current mpmath precision; ValueError if its
    error estimate exceeds tol.
    """
    if tol <= 0.0:
        raise ValueError(f"tolerance must be positive, got {tol!r}")
    r = reduce_angle(theta)
    sign = 1.0
    if r > 0.5 * math.pi:
        r = math.pi - r
        sign = -1.0
    if r == 0.0:
        return 0.0
    smooth, error = mpmath.quad(
        lambda u: mpmath.log(mpmath.sin(u) / u) if u else 0, [0, r], error=True
    )
    if error > tol:
        raise ValueError(
            f"quadrature error estimate {float(error):g} exceeds tolerance {tol!r}"
        )
    return -sign * (r * (math.log(2.0 * r) - 1.0) + float(smooth))


@functools.lru_cache(maxsize=None)
def _even_bernoulli(count: int) -> tuple:
    """(|B_2|, |B_4|, ..., |B_2count|) as Fractions.

    Classic recurrence sum_{j<=m} C(m+1, j) B_j = 0; only the even
    ones survive into the expansion.
    """
    top = 2 * count
    bern = [Fraction(0)] * (top + 1)
    bern[0] = Fraction(1)
    for m in range(1, top + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += math.comb(m + 1, j) * bern[j]
        bern[m] = -acc / (m + 1)
    return tuple(abs(bern[2 * k]) for k in range(1, count + 1))


def lobachevsky_asymptotic(theta: float, terms: int = 5) -> float:
    """Evaluate L by the small-angle expansion.

    Accurate to ~1e-9 for |theta| <= 0.1 with the default five terms;
    warns once |theta| exceeds ASYMPTOTIC_RADIUS, where the truncation
    error becomes non-negligible.  No angle reduction is applied: the
    expansion is only meaningful near 0.
    """
    if terms < 0:
        raise ValueError(f"terms must be nonnegative, got {terms!r}")
    if theta == 0.0:
        return 0.0
    sign = 1.0
    if theta < 0.0:
        theta, sign = -theta, -1.0
    if theta > ASYMPTOTIC_RADIUS:
        warnings.warn(
            f"asymptotic expansion used at theta = {theta:g}, beyond its "
            f"reliable radius {ASYMPTOTIC_RADIUS}; prefer lobachevsky()",
            stacklevel=2,
        )
    total = 1.0 - math.log(2.0 * theta)
    two_theta_sq = (2.0 * theta) ** 2
    power = 1.0
    for k, b2k in enumerate(_even_bernoulli(terms), start=1):
        power *= two_theta_sq
        total += float(b2k) * power / (2 * k * math.factorial(2 * k + 1))
    return sign * theta * total
