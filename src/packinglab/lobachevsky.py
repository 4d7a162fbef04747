"""The Lobachevsky function by one expansion, with quadrature as its check.

L(theta) = -integral_0^theta log|2 sin u| du, the standard building
block for exact hyperbolic volumes (ideal tetrahedra in H^3 decompose
into L evaluations).  The integrand is negative near 0, so with this
sign L(pi/6) = 0.50747... is the function's maximum.

One route evaluates L, and one independent oracle checks it:

  * lobachevsky            -- reduce theta mod pi, fold (pi/2, pi) onto
                              (-pi/2, 0) (L is odd and pi-periodic), and sum
                              r (1 - log(2r) + sum_k |B_2k| (2r)^2k / (2k (2k+1)!))
                              to a term count set by its own tail bound;
  * lobachevsky_quadrature -- adaptive quadrature on the integral itself.

lobachevsky_asymptotic is the same expansion with a caller-chosen term
count and no angle reduction, for angles near 0.

Only the quadrature needs mpmath, and it imports mpmath on its first
call, so importing this module (and the CLI) does not load mpmath.
"""

from __future__ import annotations

import functools
import math
import warnings
from fractions import Fraction

# Beyond this a handful of unreduced expansion terms is no longer a good
# substitute for lobachevsky() (the neglected tail is of practical size).
ASYMPTOTIC_RADIUS = 0.5

# Enough terms for any tolerance: at the fold point r = pi/2 the tail
# bound after this many terms is below 1e-27, far under float resolution.
_MAX_TERMS = 40

# From this many terms on, the expansion overflows at every theta != 0:
# term 85's denominator 2k (2k+1)! = 170 * 171! is past float range.
_OVERFLOW_TERMS = 85


def _check_angle(theta: float) -> None:
    if not math.isfinite(theta):
        raise ValueError(f"angle must be finite, got {theta!r}")


def reduce_angle(theta: float) -> float:
    """theta mod pi, in [0, pi).  L is pi-periodic, L(0) = L(pi) = 0."""
    r = math.fmod(theta, math.pi)
    if r < 0.0:
        r += math.pi
    return r


def _term_count(r: float, tol: float) -> int:
    """Fewest expansion terms whose tail at 0 <= r <= pi/2 is under tol.

    |B_2k| = 2 (2k)! zeta(2k) / (2 pi)^2k and zeta(2k) <= pi^2/6, so with
    q = (r/pi)^2 <= 1/4 term k is at most r (pi^2/6) q^k / (k (2k+1)),
    and the tail after N terms is at most
    r (pi^2/6) q^(N+1) / ((N+1) (2N+3) (1-q)).
    """
    q = (r / math.pi) ** 2
    scale = r * (math.pi**2 / 6.0) / (1.0 - q)
    n = 0
    while n < _MAX_TERMS and scale * q ** (n + 1) / ((n + 1) * (2 * n + 3)) > tol:
        n += 1
    return n


def lobachevsky(theta: float, tol: float = 1e-9) -> float:
    """Evaluate L within tol by the reduced-angle expansion."""
    _check_angle(theta)
    if not tol > 0.0:  # refuses nan too
        raise ValueError(f"tolerance must be positive, got {tol!r}")
    r = reduce_angle(theta)
    if r > 0.5 * math.pi:
        r -= math.pi  # L(r) = L(r - pi) = -L(pi - r); exact by Sterbenz
    return _expansion(r, _term_count(abs(r), tol))


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
    import mpmath

    _check_angle(theta)
    if not tol > 0.0:  # refuses nan too
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


def _expansion(theta: float, terms: int) -> float:
    """theta (1 - log(2|theta|) + the first terms Bernoulli terms), odd in theta."""
    if theta == 0.0:
        return 0.0
    r = abs(theta)
    total = 1.0 - math.log(2.0 * r)
    two_r_sq = (2.0 * r) ** 2
    power = 1.0
    # one cached table serves every count up to _MAX_TERMS
    bernoulli = _even_bernoulli(max(terms, _MAX_TERMS))
    for k in range(1, terms + 1):
        power *= two_r_sq
        total += float(bernoulli[k - 1]) * power / (2 * k * math.factorial(2 * k + 1))
    return r * total if theta > 0.0 else -r * total


def lobachevsky_asymptotic(theta: float, terms: int = 5) -> float:
    """Evaluate L by the small-angle expansion with a fixed term count.

    Accurate to ~1e-9 for |theta| <= 0.1 with the default five terms;
    warns once |theta| exceeds ASYMPTOTIC_RADIUS, where the truncation
    error becomes non-negligible.  No angle reduction is applied: the
    expansion is only meaningful near 0, and where it overflows float
    range (the more terms, the smaller the angle) ValueError is raised,
    before any warning.  From _OVERFLOW_TERMS terms on that is every
    theta != 0, and such a count is refused before any term is built.
    """
    _check_angle(theta)
    if terms < 0:
        raise ValueError(f"terms must be nonnegative, got {terms!r}")
    try:
        if theta and terms >= _OVERFLOW_TERMS:
            raise OverflowError
        value = _expansion(theta, terms)
    except OverflowError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(
            f"asymptotic expansion to {terms} terms overflows at theta = {theta!r}"
        )
    if abs(theta) > ASYMPTOTIC_RADIUS:
        warnings.warn(
            f"asymptotic expansion used at theta = {abs(theta):g}, beyond its "
            f"reliable radius {ASYMPTOTIC_RADIUS}; prefer lobachevsky()",
            stacklevel=2,
        )
    return value
