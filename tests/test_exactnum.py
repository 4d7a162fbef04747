import random
from fractions import Fraction
from math import isqrt

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from packinglab.exactnum import ONE, QNum, ZERO, sqrt, squarefree_decompose


# independent oracle: full prime factorization by trial division,
# then split exponents into square part and squarefree part
def factor_squarefree(n):
    s, f = 1, 1
    d = 2
    m = n
    while d * d <= m:
        e = 0
        while m % d == 0:
            m //= d
            e += 1
        s *= d ** (e // 2)
        if e % 2:
            f *= d
        d += 1
    if m > 1:
        f *= m
    return s, f


def mp_value(x, dps=100):
    with mpmath.workdps(dps):
        total = mpmath.mpf(0)
        for k, c in x.terms:
            total += mpmath.mpf(c.numerator) / c.denominator * mpmath.sqrt(k)
        return total


def test_parse_rational_only():
    assert QNum.parse("3/2") == Fraction(3, 2)
    assert QNum.parse("-7") == -7
    assert QNum.parse("0") == ZERO


def test_parse_mixed_radical():
    x = QNum.parse("1/2*sqrt(2)+1/2*sqrt(6)")
    assert x.terms == ((2, Fraction(1, 2)), (6, Fraction(1, 2)))


def test_parse_reduces_radicand():
    s, f = factor_squarefree(12)
    assert (s, f) == (2, 3)
    assert QNum.parse("sqrt(12)") == QNum({f: s})
    assert str(QNum.parse("sqrt(12)")) == "2*sqrt(3)"


@pytest.mark.parametrize("n", [8, 18, 45, 50, 72, 98, 99])
def test_parse_reduction_against_oracle(n):
    s, f = factor_squarefree(n)
    assert s * s * f == n
    assert QNum.parse(f"sqrt({n})").terms == ((f, Fraction(s)),)


def test_squarefree_decompose_matches_oracle():
    for n in range(1, 400):
        assert squarefree_decompose(n) == factor_squarefree(n)


def test_parse_whitespace_ok():
    assert QNum.parse(" 1/2 * sqrt( 2 ) + 3 ") == QNum.parse("3+1/2*sqrt(2)")


@pytest.mark.parametrize(
    "bad", ["", "+", "1/0", "sqrt(0)", "sqrt(-2)", "2**sqrt(2)", "1 2", "sqrt(2", "x"]
)
def test_parse_rejects(bad):
    with pytest.raises(ValueError, match="position"):
        QNum.parse(bad)


def test_mul_same_radical():
    assert sqrt(2) * sqrt(2) == 2


def test_mul_mixed_radicals():
    # oracle: 2*6 = 12 = 2^2 * 3
    s, f = factor_squarefree(2 * 6)
    assert sqrt(2) * sqrt(6) == QNum({f: s})


def test_add_cancellation():
    a = QNum.parse("1/2*sqrt(2)+1/2*sqrt(6)")
    b = QNum.parse("1/2*sqrt(2)-1/2*sqrt(6)")
    assert a + b == sqrt(2)


def test_inverse_single_radical():
    assert sqrt(2).inverse() == QNum.parse("1/2*sqrt(2)")


def test_inverse_binomial():
    x = ONE + sqrt(2)
    inv = x.inverse()
    assert inv == QNum.parse("-1+sqrt(2)")
    assert x * inv == ONE  # direct multiplication oracle


def test_inverse_rational():
    assert QNum(2).inverse() == Fraction(1, 2)


def test_inverse_zero():
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_sign_basics():
    assert ZERO.sign() == 0
    assert (sqrt(2) - 1).sign() == 1
    assert (1 - sqrt(2)).sign() == -1


def test_sign_close_call():
    # 3*sqrt(2) - 2*sqrt(3) + sqrt(6) - 3 is approx 0.228: a genuine
    # multi-term refinement case, sign not visible from any one term
    x = 3 * sqrt(2) - 2 * sqrt(3) + sqrt(6) - 3
    assert mp_value(x) > 0  # 100-digit oracle
    assert x.sign() == 1
    assert (-x).sign() == -1
    y = x - 2  # approx -1.77
    assert mp_value(y) < 0
    assert y.sign() == -1


def test_sign_mass_agreement_with_mpmath():
    rng = random.Random(20260822)
    radicands = [1, 2, 3, 5, 6, 7, 10, 11, 13, 17, 34]
    for _ in range(10_000):
        terms = {}
        for k in rng.sample(radicands, rng.randint(1, 4)):
            terms[k] = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
        x = QNum(terms)
        want = mp_value(x)
        got = x.sign()
        if want == 0:
            assert got == 0
        else:
            assert got == (1 if want > 0 else -1)


def test_is_rational_and_float():
    assert QNum.parse("5/3").is_rational()
    assert not sqrt(17).is_rational()
    x = QNum.parse("1/2*sqrt(2)+1/2*sqrt(6)")
    assert abs(x.to_float() - 1.9318516525781366) < 1e-12


def test_ordering():
    assert sqrt(2) < sqrt(3) < 2 < sqrt(5)
    assert abs(QNum(-3)) == 3


def test_hash_consistent_with_int():
    assert hash(QNum(7)) == hash(7)
    assert hash(QNum.parse("3/2")) == hash(Fraction(3, 2))
    assert len({QNum(2), QNum.parse("2"), QNum.parse("4/2")}) == 1


def test_rejects_float_arithmetic():
    with pytest.raises(TypeError):
        sqrt(2) + 0.5


def test_sqrt_product_reduction_exhaustive():
    squarefree = [n for n in range(1, 101) if factor_squarefree(n)[0] == 1]
    for a in squarefree:
        for b in squarefree:
            assert (sqrt(a) * sqrt(b)) ** 2 == a * b


# -- randomized ring laws --------------------------------------------

RADICANDS = [1, 2, 3, 5, 6, 10]

coeffs = st.fractions(
    min_value=-30, max_value=30, max_denominator=12
).filter(lambda f: f != 0)

qnums = st.dictionaries(
    st.sampled_from(RADICANDS), coeffs, min_size=0, max_size=4
).map(QNum)


@settings(max_examples=300, deadline=None)
@given(qnums, qnums, qnums)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == ZERO


@settings(max_examples=200, deadline=None)
@given(qnums.filter(lambda x: bool(x)))
def test_field_inverse(a):
    assert a * a.inverse() == ONE


@settings(max_examples=300, deadline=None)
@given(qnums)
def test_parse_print_round_trip(a):
    assert QNum.parse(str(a)) == a


@settings(max_examples=200, deadline=None)
@given(qnums, qnums)
def test_comparison_matches_oracle(a, b):
    fa, fb = mp_value(a), mp_value(b)
    if fa == fb:
        assert a == b
    elif fa < fb:
        assert a < b
    else:
        assert a > b


# -- to_float ---------------------------------------------------------


def midpoint_float(x, precision=53):
    # the Fraction midpoint of the isqrt interval, as to_float once was
    return float(sum(x._bounds(precision + 2)) / 2)


wide_coeffs = st.builds(
    Fraction, st.integers(-(10 ** 40), 10 ** 40), st.integers(1, 10 ** 30)
).filter(lambda f: f != 0)

wide_qnums = st.dictionaries(
    st.sampled_from(RADICANDS + [7, 34]), wide_coeffs, min_size=0, max_size=4
).map(QNum)


@settings(max_examples=300, deadline=None)
@given(st.one_of(qnums, wide_qnums), st.sampled_from([10, 53, 100]))
def test_to_float_is_the_rounded_interval_midpoint(x, precision):
    assert x.to_float(precision) == midpoint_float(x, precision)


def test_to_float_overflows_where_the_midpoint_does():
    top = 2 ** 1024 - 2 ** 970  # the least value that rounds past the largest float
    values = [QNum(top - 1), QNum(top), QNum(-top), QNum(Fraction(top, 3) * 3)]
    for k in (2, 3, 34):
        c = isqrt(top * top // k)
        for delta in (-(2 ** 968), -1, 0, 1, 2 ** 968):
            values.append(QNum({k: c + delta}))
            values.append(QNum({1: -1, k: c + delta}))
    values.append(QNum({1: 10 ** 400, 2: -(10 ** 400)}))
    values.append(QNum({1: Fraction(1, 10 ** 400), 2: Fraction(1, 10 ** 400)}))
    outcomes = set()
    for x in values:
        try:
            want = midpoint_float(x)
        except OverflowError:
            with pytest.raises(OverflowError):
                x.to_float()
            outcomes.add("overflow")
        else:
            assert x.to_float() == want
            outcomes.add("finite")
    assert outcomes == {"overflow", "finite"}
