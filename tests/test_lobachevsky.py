import math

import pytest
from hypothesis import given, settings, strategies as st

from packinglab import lobachevsky as lob

# Maximum of L, attained at pi/6; reference from the quadrature route
# and cross-checked against the series below.
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


def test_series_terms_scale():
    assert lob.series_terms(math.pi / 2, 1e-9) < 30000
    assert lob.series_terms(math.pi / 2, 1e-6) < 1000
    assert lob.series_terms(0.0, 1e-9) == 0


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


def test_criterion_sized_grid_is_fast():
    # The acceptance run compares 10^3 points; make sure the term
    # counts stay practical across the whole open interval.
    grid = [k * (math.pi / 1000) for k in range(1000)]
    total = sum(lob.series_terms(t, 1e-9) for t in grid)
    assert total < 5e7
