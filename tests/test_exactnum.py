import operator
import random
import time
from fractions import Fraction
from math import gcd, isqrt

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from packinglab.exactnum import (
    ONE,
    QNum,
    ZERO,
    _Field,
    _format,
    _scan,
    _sign,
    sqrt,
    squarefree_decompose,
)


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


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(st.sampled_from(RADICANDS), coeffs, min_size=1, max_size=4),
    st.sampled_from([(), (7,), (2, 15), (6, 35)]),
)
def test_field_reciprocal_matches_inverse(terms, extra):
    # in a's own field and in fields with more (or shared) generators
    a = QNum(terms)
    field = _Field([[a] + [sqrt(k) for k in extra]])
    key = field.encode((a,))
    w, n = field.reciprocal(key[:-1])
    assert isinstance(n, int) and n != 0
    got = field.number(tuple(w), 1) * QNum(Fraction(key[-1], n))
    assert got.terms == reference_of(terms).inverse().terms
    assert (w is field.one) == a.is_rational()


UNITS = [sqrt(2) - 1, sqrt(10) - 3, 2 - sqrt(3), (1 + sqrt(5)) / 2, sqrt(2) + sqrt(3) - sqrt(5)]


def integer_form(x):
    den = x.denominator
    return [k for k, _ in x.terms], [c.numerator * (den // c.denominator) for _, c in x.terms]


@pytest.mark.parametrize("unit", UNITS, ids=str)
def test_integer_sign_on_near_cancelling_unit_powers(unit):
    # for |u| < 1, u**n has coefficients near |u|**-n cancelling to about
    # |u|**n; less the low end of its 300-bit enclosure, the sign of any
    # power needs more than 64 bits
    for n in range(1, 61, 3):
        power = unit ** n
        lo, _ = power._bounds(300)
        for x in (power, -power, power - lo, power - lo - Fraction(1, 10 ** 200)):
            with mpmath.workdps(600):
                want = int(mpmath.sign(mp_value(x, 600)))
            assert _sign(*integer_form(x)) == x.sign() == want
    # exact zeros are structural
    assert _sign([], []) == 0
    assert _sign([1, 2, 3, 6], [0, 0, 0, 0]) == 0
    zero = unit ** 40 * unit ** -40 - 1
    assert not zero.terms and zero.sign() == 0
    field = _Field([[unit]])
    assert _sign(field.radicands, list(field.encode((zero,))[:-1])) == 0


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


def fraction_interval(x, prec):
    # independent oracle for QNum._bounds: each sqrt(k) boxed between
    # consecutive multiples of 2**-prec, summed in Fractions
    scale = 1 << prec
    lo = hi = Fraction(0)
    for k, c in x.terms:
        if k == 1:
            lo += c
            hi += c
        else:
            s = isqrt(k * scale * scale)
            a, b = Fraction(s, scale), Fraction(s + 1, scale)
            if c >= 0:
                lo += c * a
                hi += c * b
            else:
                lo += c * b
                hi += c * a
    return lo, hi


def midpoint_float(x, precision=53):
    # the Fraction midpoint of the first isqrt interval, at p = precision
    # + 2, 2p, 4p, ..., whose width is at most 2**-precision |lo + hi|
    p = precision + 2
    while True:
        lo, hi = fraction_interval(x, p)
        if (hi - lo) * 2 ** precision <= abs(lo + hi):
            return float((lo + hi) / 2)
        p *= 2


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


@settings(max_examples=300, deadline=None)
@given(st.one_of(qnums, wide_qnums), st.sampled_from([1, 16, 64, 200]))
def test_bounds_match_fraction_interval(x, prec):
    assert x._bounds(prec) == fraction_interval(x, prec)


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


def test_to_float_of_a_near_cancelling_power():
    # coefficients near 4.6e22 cancel to about 1.08e-23: the enclosure at
    # p = 55 alone is wider than the value
    x = (3 - 2 * sqrt(2)) ** 30
    with mpmath.workdps(60):
        want = (3 - 2 * mpmath.sqrt(2)) ** 30
    assert abs(x.to_float() - want) <= want * 2 ** -52
    assert 1.07e-23 < float(x) < 1.09e-23


@pytest.mark.parametrize("unit", UNITS, ids=str)
def test_to_float_is_relatively_precise_against_mpmath(unit):
    # u**n at 60 digits, from the power of u itself so that the oracle
    # suffers none of the cancellation in u**n's coefficients
    with mpmath.workdps(60):
        base = mp_value(unit, 60)
        for n in range(-45, 46, 3):
            x, want = unit ** n, base ** n
            for precision in (24, 53, 80):
                got = x.to_float(precision)
                assert abs(got - want) <= abs(want) * (2.0 ** -precision + 2.0 ** -52)


# -- scanner against the hand parser -----------------------------------


def reference_parse(text):
    # the recursive-descent parser that the regular-expression scanner
    # replaced, kept as the differential oracle
    pos = 0
    n = len(text)

    def err(msg, at):
        raise ValueError(f"QNum syntax error at position {at}: {msg}")

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def parse_uint():
        nonlocal pos
        start = pos
        while pos < n and text[pos].isdigit():
            pos += 1
        if pos == start:
            err("expected an unsigned integer", start)
        return int(text[start:pos])

    def parse_sqrt():
        nonlocal pos
        pos += 4  # past "sqrt"
        skip_ws()
        if pos >= n or text[pos] != "(":
            err("expected '(' after sqrt", pos)
        pos += 1
        skip_ws()
        at = pos
        k = parse_uint()
        if k == 0:
            err("radicand must be positive", at)
        skip_ws()
        if pos >= n or text[pos] != ")":
            err("expected ')'", pos)
        pos += 1
        return k

    def parse_term():
        nonlocal pos
        neg = False
        if pos < n and text[pos] == "-":
            pos += 1
            skip_ws()
            neg = True
        if text.startswith("sqrt", pos):
            c, k = Fraction(1), parse_sqrt()
        else:
            num = parse_uint()
            den = 1
            skip_ws()
            if pos < n and text[pos] == "/":
                pos += 1
                skip_ws()
                at = pos
                den = parse_uint()
                if den == 0:
                    err("zero denominator", at)
            c = Fraction(num, den)
            k = 1
            skip_ws()
            if pos < n and text[pos] == "*":
                pos += 1
                skip_ws()
                if not text.startswith("sqrt", pos):
                    err("expected sqrt(...) after '*'", pos)
                k = parse_sqrt()
        return (-c if neg else c), k

    acc = {}

    def accumulate(c, k):
        s, f = factor_squarefree(k)
        c = c * s
        if not c:
            return
        v = acc.get(f, Fraction(0)) + c
        if v:
            acc[f] = v
        elif f in acc:
            del acc[f]

    skip_ws()
    c, k = parse_term()
    accumulate(c, k)
    skip_ws()
    while pos < n:
        op = text[pos]
        if op not in "+-":
            err(f"expected '+' or '-', got {op!r}", pos)
        pos += 1
        skip_ws()
        c, k = parse_term()
        accumulate(c if op == "+" else -c, k)
        skip_ws()
    return tuple(sorted(acc.items()))


spaces = st.text(alphabet=" \t\n\r\x0b\x0c\x1c\xa0 ", max_size=3)
uints = st.one_of(
    st.integers(0, 40).map(str),
    st.sampled_from(["007", "00", "12", "18", "72", "123456789"]),
)


@st.composite
def well_formed_terms(draw):
    # a term of the grammar, whitespace between every pair of tokens
    def ws():
        return draw(spaces)

    def root():
        return "sqrt" + ws() + "(" + ws() + draw(uints) + ws() + ")"

    sign = draw(st.sampled_from(["", "-"]))
    if draw(st.booleans()):
        body = root()
    else:
        body = draw(uints)
        if draw(st.booleans()):
            body += ws() + "/" + ws() + draw(uints)
        if draw(st.booleans()):
            body += ws() + "*" + ws() + root()
    return sign + (ws() if sign else "") + body


@st.composite
def well_formed_literals(draw):
    terms = draw(st.lists(well_formed_terms(), min_size=1, max_size=4))
    out = draw(spaces) + terms[0]
    for t in terms[1:]:
        out += draw(spaces) + draw(st.sampled_from("+-")) + draw(spaces) + t
    return out + draw(spaces)


junk = st.sampled_from(
    ["", "+", "-", "*", "/", "(", ")", "sqrt", "sqr", "x", "**", "2", " ", "\t", ".", ","]
)


@st.composite
def garbled_literals(draw):
    text = draw(well_formed_literals())
    i = draw(st.integers(0, len(text)))
    j = draw(st.integers(i, min(len(text), i + 3)))
    edit = draw(st.sampled_from(["truncate", "replace", "insert"]))
    if edit == "truncate":
        return text[:i]
    if edit == "replace":
        return text[:i] + draw(junk) + text[j:]
    return text[:i] + draw(junk) + text[i:]


token_soup = st.lists(
    st.one_of(junk, uints, spaces, st.just("sqrt(")), max_size=8
).map("".join)


def outcome(parse, text):
    try:
        return parse(text)
    except ValueError as err:
        return err


@settings(max_examples=800, deadline=None)
@given(st.one_of(well_formed_literals(), garbled_literals(), token_soup))
def test_scanner_matches_reference_parser(text):
    want = outcome(reference_parse, text)
    got = outcome(lambda t: QNum.parse(t).terms, text)
    if isinstance(want, ValueError):
        assert isinstance(got, ValueError), (text, got)
        assert "position" in str(got)
        assert str(got) == str(want)
    else:
        assert got == want
        assert QNum(text).terms == want
        q = QNum(text)
        assert _scan(text) == (q.radicands, q.coeffs, q.den)


@pytest.mark.parametrize(
    "text, want",
    [
        ("1+-2", -1),
        ("1 - - 2", 3),
        ("- 3/4 * sqrt ( 8 ) + 3/2*sqrt(2)", 0),
        ("0*sqrt(5) - 0/7", 0),
        ("sqrt(4) - -sqrt(9)", 5),
    ],
)
def test_scanner_signs_and_reduction(text, want):
    assert QNum.parse(text) == want


@pytest.mark.parametrize(
    "prefix", ["", "1", "-", "1/", "1*", "1+", "sqrt", "sqrt(", "sqrt(2", "sqrt(2)"]
)
def test_scanner_rejects_long_whitespace_quickly(prefix):
    text = prefix + " " * 100_000 + "x"
    start = time.perf_counter()
    with pytest.raises(ValueError, match="position"):
        QNum.parse(text)
    assert time.perf_counter() - start < 1.0


# -- the one formatter -------------------------------------------------


def reference_str(q):
    # the term-by-term Fraction printer str(QNum) used before _format
    if not q.terms:
        return "0"
    parts = []
    for k, c in q.terms:
        if k == 1:
            parts.append(str(c))
        elif c == 1:
            parts.append(f"sqrt({k})")
        elif c == -1:
            parts.append(f"-sqrt({k})")
        else:
            parts.append(f"{c}*sqrt({k})")
    out = parts[0]
    for p in parts[1:]:
        out += p if p.startswith("-") else "+" + p
    return out


@st.composite
def integer_numbers(draw):
    # (radicands, coeffs, den), not necessarily in lowest terms: zero,
    # coefficients that reduce to +-1, fractions and mixed radicands
    den = draw(st.one_of(st.just(1), st.integers(1, 10 ** 4)))
    radicands = sorted(draw(st.sets(st.sampled_from([1, 2, 3, 5, 6, 7, 10, 15, 30]), max_size=5)))
    coefficient = st.one_of(
        st.sampled_from([0, 1, -1, den, -den, 2 * den, -3 * den]),
        st.integers(-10 ** 6, 10 ** 6),
    )
    return radicands, [draw(coefficient) for _ in radicands], den


@settings(max_examples=500, deadline=None)
@given(integer_numbers())
def test_formatter_matches_str(number):
    radicands, coeffs, den = number
    q = QNum({k: Fraction(c, den) for k, c in zip(radicands, coeffs)})
    text = _format(radicands, coeffs, den)
    assert text == str(q) == reference_str(q)
    assert QNum.parse(text) == q


@pytest.mark.parametrize(
    "number, text",
    [
        (((), (), 1), "0"),
        (((1, 2), (0, 0), 3), "0"),
        (((1,), (-6,), 4), "-3/2"),
        (((2,), (5,), 5), "sqrt(2)"),
        (((1, 2, 5), (-2, -3, 4), 2), "-1-3/2*sqrt(2)+2*sqrt(5)"),
        (((1, 10), (0, -7), 7), "-sqrt(10)"),
    ],
)
def test_formatter_examples(number, text):
    assert _format(*number) == text


# -- the Fraction QNum as the reference -------------------------------


def least_prime_factor(n):
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


class ReferenceQNum:
    """The QNum of ((radicand, Fraction), ...) terms that the integer form
    replaced, with its prime-flip inverse: the differential oracle."""

    def __init__(self, terms):
        self.terms = tuple(sorted((k, Fraction(c)) for k, c in terms if c))

    def __add__(self, other):
        acc = dict(self.terms)
        for k, c in other.terms:
            acc[k] = acc.get(k, 0) + c
        return ReferenceQNum(acc.items())

    def __neg__(self):
        return ReferenceQNum((k, -c) for k, c in self.terms)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        acc = {}
        for k1, c1 in self.terms:
            for k2, c2 in other.terms:
                g = gcd(k1, k2)
                k = (k1 // g) * (k2 // g)
                acc[k] = acc.get(k, 0) + c1 * c2 * g
        return ReferenceQNum(acc.items())

    def __eq__(self, other):
        return self.terms == other.terms

    def is_rational(self):
        return all(k == 1 for k, _ in self.terms)

    def inverse(self):
        # clear one radical prime at a time: times the conjugate that
        # flips every sqrt containing p, the denominator is free of p
        if not self.terms:
            raise ZeroDivisionError("QNum division by zero")
        num, den = ReferenceQNum([(1, 1)]), self
        while not den.is_rational():
            p = least_prime_factor(next(k for k, _ in den.terms if k > 1))
            conjugate = ReferenceQNum((k, -c if k % p == 0 else c) for k, c in den.terms)
            num, den = num * conjugate, den * conjugate
        return num * ReferenceQNum([(1, 1 / den.terms[0][1])])

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** -n
        out = ReferenceQNum([(1, 1)])
        for _ in range(n):
            out = out * self
        return out

    def sign(self):
        return 0 if not self.terms else int(mpmath.sign(mp_value(self)))

    def to_float(self, precision=53):
        # the midpoint of the one enclosure at p = precision + 2
        return float(sum(fraction_interval(self, precision + 2)) / 2)

    def __hash__(self):
        if self.is_rational():
            return hash(self.terms[0][1] if self.terms else 0)
        return hash(self.terms)


def reference_of(terms):
    """The reference value of a dict {radicand: coefficient}, its radicands
    reduced by the factorization oracle."""
    acc = {}
    for k, c in terms.items():
        s, f = factor_squarefree(k)
        acc[f] = acc.get(f, 0) + Fraction(c) * s
    return ReferenceQNum(acc.items())


term_dicts = st.dictionaries(st.sampled_from(RADICANDS + [4, 12, 18]), coeffs, max_size=4)


def assert_agrees(q, ref):
    assert q.terms == ref.terms
    assert all(type(c) is Fraction for _, c in q.terms)
    assert str(q) == reference_str(ref)
    assert q.sign() == ref.sign()
    assert QNum.parse(str(q)) == q
    assert reference_parse(str(q)) == ref.terms
    if ref.is_rational():
        assert hash(q) == hash(ref)


@settings(max_examples=300, deadline=None)
@given(term_dicts, term_dicts, st.integers(-3, 3))
def test_matches_the_fraction_reference(x, y, n):
    a, b = QNum(x), QNum(y)
    ra, rb = reference_of(x), reference_of(y)
    assert_agrees(a, ra)
    assert_agrees(a + b, ra + rb)
    assert_agrees(a - b, ra - rb)
    assert_agrees(-a, -ra)
    assert_agrees(a * b, ra * rb)
    assert (a == b) == (ra == rb)
    if a == b:
        assert hash(a) == hash(b)
    if a:
        assert_agrees(a.inverse(), ra.inverse())
        assert_agrees(a ** n, ra ** n)
        assert_agrees(b / a, rb * ra.inverse())
    else:
        with pytest.raises(ZeroDivisionError):
            a.inverse()


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(term_dicts, st.dictionaries(st.sampled_from(RADICANDS + [7, 34]), wide_coeffs, max_size=4)),
    st.sampled_from([10, 53, 100]),
)
def test_to_float_matches_the_reference_where_one_enclosure_suffices(terms, precision):
    q, ref = QNum(terms), reference_of(terms)
    lo, hi = fraction_interval(ref, precision + 2)
    if (hi - lo) * 2 ** precision <= abs(lo + hi):
        assert q.to_float(precision) == ref.to_float(precision)
    else:
        assert q.to_float(precision) == midpoint_float(ref, precision)


def canonical(q):
    return q.radicands, q.coeffs, q.den


def test_equal_values_are_equal_however_built():
    def decoded(coeffs, den):
        # a fresh field each time, so that no number comes from its cache
        field = _Field.over([2, 3])
        assert field.radicands == (1, 2, 3, 6)
        return field.decode(tuple(coeffs) + (den,))[0]

    def numbered(coeffs, den):
        return _Field.over([2, 3]).number(tuple(coeffs), den)

    groups = {
        "0": [ZERO, QNum(), QNum(0), QNum(Fraction(0)), QNum("0"), QNum("0/7+0*sqrt(2)"),
              QNum({2: 0, 1: Fraction(0, 3)}), sqrt(2) - sqrt(2), numbered([0, 0, 0, 0], 5),
              decoded([0, 0, 0, 0], 9)],
        "2": [QNum(2), QNum(Fraction(4, 2)), QNum("2"), QNum("4/2"), QNum({4: 1}),
              sqrt(2) * sqrt(2), ONE + ONE, QNum(Fraction(1, 2)).inverse(),
              numbered([4, 0, 0, 0], 2), decoded([6, 0, 0, 0], 3)],
        "3/2": [QNum(Fraction(3, 2)), QNum("3/2"), QNum("6/4"), QNum({1: Fraction(3, 2)}),
                QNum({4: Fraction(3, 4)}), QNum(3) / 2, ONE + QNum(Fraction(1, 2)),
                sqrt(2) * sqrt(2) * Fraction(3, 4), numbered([6, 0, 0, 0], 4),
                decoded([9, 0, 0, 0], 6)],
        # (1 + 2 sqrt2)/3, from keys whose coefficients share 2 and 3
        # with their denominators
        "(1+2sqrt2)/3": [QNum("1/3+2/3*sqrt(2)"), QNum("2/6+4/6*sqrt(2)"),
                         QNum({1: Fraction(1, 3), 8: Fraction(1, 3)}), (1 + 2 * sqrt(2)) / 3,
                         (QNum(3) / (1 + 2 * sqrt(2))).inverse(), numbered([2, 4, 0, 0], 6),
                         numbered([3, 6, 0, 0], 9), decoded([4, 8, 0, 0], 12)],
        "sqrt6/2": [sqrt(2) * sqrt(3) / 2, QNum("1/2*sqrt(6)"), QNum({24: Fraction(1, 4)}),
                    sqrt(6) * Fraction(1, 2), (sqrt(6) / 3).inverse(),
                    numbered([0, 0, 0, 3], 6), decoded([0, 0, 0, 2], 4)],
    }
    forms = set()
    for name, values in groups.items():
        form = canonical(values[0])
        radicands, coeffs, den = form
        assert list(radicands) == sorted(set(radicands)) and all(coeffs)
        assert den > 0 and gcd(den, *coeffs) == 1, name
        for q in values:
            assert canonical(q) == form, (name, q)
            assert q == values[0] and hash(q) == hash(values[0]), (name, q)
        forms.add(form)
    assert len(forms) == len(groups)
    assert hash(groups["0"][0]) == hash(0)
    assert hash(groups["2"][0]) == hash(2)
    assert hash(groups["3/2"][0]) == hash(Fraction(3, 2))
    assert groups["3/2"][0] == Fraction(3, 2) and groups["2"][0] == 2


@pytest.mark.parametrize("op", [operator.lt, operator.le, operator.gt, operator.ge])
@pytest.mark.parametrize("other, name", [(1.5, "float"), ("1", "str")])
def test_comparison_names_the_other_type(op, other, name):
    with pytest.raises(TypeError, match="^cannot compare QNum with %s$" % name):
        op(QNum(1), other)
