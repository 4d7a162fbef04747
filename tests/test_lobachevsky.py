import functools
import math

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from packinglab import lobachevsky as lob

# Maximum of L, attained at pi/6; reference from the quadrature route
# and cross-checked against lobachevsky() below.
L_PI_6 = 0.5074708032

angles = st.floats(
    min_value=-20.0, max_value=20.0, allow_nan=False, allow_infinity=False
)


def test_trivial_zeros():
    assert lob.lobachevsky(0.0) == 0.0
    assert lob.lobachevsky_quadrature(0.0) == 0.0
    assert lob.lobachevsky_asymptotic(0.0) == 0.0
    assert abs(lob.lobachevsky(math.pi / 2, tol=1e-13)) < 1e-12
    assert abs(lob.lobachevsky(math.pi)) < 1e-12


def test_maximum_at_pi_over_six():
    s = lob.lobachevsky(math.pi / 6, tol=1e-10)
    q = lob.lobachevsky_quadrature(math.pi / 6, tol=1e-10)
    assert abs(s - L_PI_6) < 1e-9
    assert abs(s - q) < 1e-9


def test_series_agrees_with_quadrature_on_grid():
    for theta in [k * (math.pi / 60) for k in range(60)]:
        s = lob.lobachevsky(theta, tol=1e-10)
        q = lob.lobachevsky_quadrature(theta, tol=1e-10)
        assert abs(s - q) < 1e-9, theta


@settings(max_examples=150, deadline=None)
@given(angles)
def test_oddness(theta):
    a = lob.lobachevsky(theta, tol=1e-10)
    b = lob.lobachevsky(-theta, tol=1e-10)
    assert abs(a + b) < 1e-9


@settings(max_examples=150, deadline=None)
@given(angles)
def test_pi_periodicity(theta):
    a = lob.lobachevsky(theta, tol=1e-10)
    b = lob.lobachevsky(theta + math.pi, tol=1e-10)
    assert abs(a - b) < 1e-9


def test_tail_bound_honesty():
    for theta in (0.3, 1.0, 2.0, 3.0):
        coarse = lob.lobachevsky(theta, tol=1e-6)
        fine = lob.lobachevsky(theta, tol=1e-12)
        assert abs(coarse - fine) < 1e-6 + 1e-12


def test_asymptotic_matches_quadrature_when_small():
    for theta in (0.01, 0.05, 0.1):
        a = lob.lobachevsky_asymptotic(theta, terms=5)
        q = lob.lobachevsky_quadrature(theta, tol=1e-11)
        assert abs(a - q) < 1e-9, theta


def test_asymptotic_warns_outside_radius():
    with pytest.warns(UserWarning, match="beyond its reliable radius"):
        lob.lobachevsky_asymptotic(1.0)


def test_asymptotic_oddness():
    assert lob.lobachevsky_asymptotic(-0.05) == -lob.lobachevsky_asymptotic(0.05)


def test_bad_arguments():
    with pytest.raises(ValueError, match="tolerance must be positive"):
        lob.lobachevsky(1.0, tol=0.0)
    with pytest.raises(ValueError, match="tolerance must be positive"):
        lob.lobachevsky_quadrature(1.0, tol=-1e-9)
    with pytest.raises(ValueError, match="terms must be nonnegative"):
        lob.lobachevsky_asymptotic(0.05, terms=-1)


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_non_finite_angles_are_refused(theta):
    for f in (lob.lobachevsky, lob.lobachevsky_quadrature, lob.lobachevsky_asymptotic):
        with pytest.raises(ValueError, match="angle must be finite"):
            f(theta)


@pytest.mark.parametrize("theta, terms", [(1e308, 12), (-1e200, 5), (1e100, 12), (1e20, 40)])
def test_asymptotic_overflow_is_refused_before_any_warning(recwarn, theta, terms):
    with pytest.raises(ValueError, match="^asymptotic expansion to %d terms overflows" % terms):
        lob.lobachevsky_asymptotic(theta, terms=terms)
    assert len(recwarn) == 0


@pytest.mark.parametrize("tol", [math.nan, -math.nan, 0.0, -1e-9, -math.inf])
def test_tolerance_must_be_positive(tol):
    for f in (lob.lobachevsky, lob.lobachevsky_quadrature):
        with pytest.raises(ValueError, match="^tolerance must be positive, got "):
            f(1.0, tol=tol)


def test_asymptotic_term_count_past_float_range_is_refused_at_once(monkeypatch, recwarn):
    # term k's denominator 2k (2k+1)! converts to a float up to k = 84 only,
    # so from 85 terms on the count is refused before any Bernoulli number
    assert float(168 * math.factorial(169)) < math.inf
    with pytest.raises(OverflowError):
        float(170 * math.factorial(171))
    bernoulli = lob._even_bernoulli

    def no_work(count):
        raise AssertionError("Bernoulli numbers built for %d terms" % count)

    monkeypatch.setattr(lob, "_even_bernoulli", no_work)
    for terms in (85, 300, 10**6):
        for theta in (0.05, -1e-300, 2.0):
            with pytest.raises(ValueError, match="^asymptotic expansion to %d terms overflows" % terms):
                lob.lobachevsky_asymptotic(theta, terms=terms)
        assert lob.lobachevsky_asymptotic(0.0, terms=terms) == 0.0
    assert len(recwarn) == 0
    monkeypatch.setattr(lob, "_even_bernoulli", bernoulli)
    near = lob.lobachevsky_asymptotic(0.05, terms=84)
    assert abs(near - lob.lobachevsky_quadrature(0.05, tol=1e-11)) < 1e-9


@functools.lru_cache(maxsize=None)
def clausen_grid():
    """(theta, Cl_2(2 theta) / 2) at 241 angles across [-pi, pi].

    L(theta) = Cl_2(2 theta) / 2, and mpmath's Clausen function is an
    oracle independent of both routes here.  The grid holds a full
    period either side of 0, the fold points +-pi/2 and the period ends.
    """
    with mpmath.workdps(20):
        return tuple(
            (theta, float(mpmath.clsin(2, 2 * mpmath.mpf(theta)) / 2))
            for theta in (k * (math.pi / 120) for k in range(-120, 121))
        )


@pytest.mark.parametrize("tol", [1e-9, 1e-13])
def test_full_period_grid_against_clausen(tol):
    for theta, want in clausen_grid():
        assert abs(lob.lobachevsky(theta, tol=tol) - want) <= tol, theta
