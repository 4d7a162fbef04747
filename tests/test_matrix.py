import random
from fractions import Fraction

import pytest

from packinglab import _matrix
from packinglab.exactnum import ONE, QNum, ZERO, sqrt


def rand_matrix(rng, n, irr=False):
    def entry():
        q = QNum(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
        if irr and rng.random() < 0.3:
            q = q + sqrt(2) * Fraction(rng.randint(-2, 2))
        return q

    return tuple(tuple(entry() for _ in range(n)) for _ in range(n))


def test_identity_and_mul():
    i3 = _matrix.identity(3)
    a = _matrix.as_matrix([[1, 2, 3], [0, 1, 4], [5, 6, 0]])
    assert _matrix.mat_mul(a, i3) == a
    assert _matrix.mat_mul(i3, a) == a


def test_inverse_round_trip():
    rng = random.Random(7)
    found = 0
    while found < 25:
        a = rand_matrix(rng, rng.randint(1, 4), irr=True)
        try:
            inv = _matrix.mat_inverse(a)
        except ValueError:
            continue
        found += 1
        n = len(a)
        assert _matrix.mat_mul(a, inv) == _matrix.identity(n)
        assert _matrix.mat_mul(inv, a) == _matrix.identity(n)


def test_inverse_singular():
    # the second matrix's third row is the sum of the other two
    for rows in ([[1, 2], [2, 4]], [[1, 2, 3], [0, 1, 4], [1, 3, 7]]):
        with pytest.raises(ValueError, match="singular"):
            _matrix.mat_inverse(_matrix.as_matrix(rows))


def test_row_mat_matches_mat_mul():
    a = _matrix.as_matrix([[1, 2], [3, 4]])
    v = (QNum(5), QNum(6))
    assert _matrix.row_mat(v, a) == _matrix.mat_mul((v,), a)[0]


def test_rref_canonical():
    a = _matrix.as_matrix([[2, 4, 6], [1, 2, 4], [3, 6, 10]])
    r, pivots = _matrix.rref(a)
    assert pivots == (0, 2)
    assert r[0] == (ONE, QNum(2), ZERO)
    assert r[1] == (ZERO, ZERO, ONE)
    assert r[2] == (ZERO, ZERO, ZERO)


def test_rref_identity_for_invertible():
    rng = random.Random(11)
    found = 0
    while found < 10:
        a = rand_matrix(rng, 3)
        try:
            _matrix.mat_inverse(a)
        except ValueError:
            continue
        found += 1
        r, pivots = _matrix.rref(a)
        assert r == _matrix.identity(3)
        assert pivots == (0, 1, 2)


def test_rank():
    assert _matrix.mat_rank(_matrix.as_matrix([[1, 2], [2, 4]])) == 1
    assert _matrix.mat_rank(_matrix.identity(4)) == 4
