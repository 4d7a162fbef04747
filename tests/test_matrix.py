import io
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

from packinglab import _matrix, catalog, cli, integrality
from packinglab.exactnum import ONE, QNum, ZERO, sqrt
from packinglab.geometry import bend_matrices


# -- the QNum-object oracle: one QNum product per step ----------------


def oracle_mat_mul(a, b):
    if a and b and len(a[0]) != len(b):
        raise ValueError(f"dimension mismatch: {len(a[0])} vs {len(b)}")
    bt = tuple(zip(*b))
    return tuple(tuple(oracle_dot(row, col) for col in bt) for row in a)


def oracle_dot(u, v):
    total = ZERO
    for x, y in zip(u, v):
        total = total + x * y
    return total


def oracle_rref(a):
    if not a:
        return a, ()
    rows = [list(r) for r in a]
    ncols = len(rows[0])
    pivots = []
    r = 0
    for col in range(ncols):
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][col].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    return tuple(tuple(row) for row in rows), tuple(pivots)


def oracle_inverse(a):
    n = len(a)
    reduced, pivots = oracle_rref(tuple(tuple(row) + e for row, e in zip(a, _matrix.identity(n))))
    if pivots[:n] != tuple(range(n)):
        raise ValueError("singular matrix")
    return tuple(row[n:] for row in reduced)


def use_oracle(monkeypatch):
    # every caller of the kernels, by module attribute or imported name
    monkeypatch.setattr(_matrix, "mat_mul", oracle_mat_mul)
    monkeypatch.setattr(_matrix, "rref", oracle_rref)
    monkeypatch.setattr(integrality, "mat_mul", oracle_mat_mul)
    monkeypatch.setattr(integrality, "rref", oracle_rref)
    monkeypatch.setattr(integrality, "mat_inverse", oracle_inverse)


# -- random matrices over Q and multiquadratic fields --------------------

FIELDS = {
    "Q": (),
    "Q(sqrt2)": (2,),
    "Q(sqrt2,sqrt5)": (2, 5),
    "Q(sqrt2,sqrt3,sqrt5)": (2, 3, 5),
}


def rand_entry(rng, radicands, zero=0.25):
    if rng.random() < zero:
        return ZERO
    q = QNum(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
    # products of the generators too, so the basis is the whole field
    for k in radicands + tuple(a * b for a in radicands for b in radicands if a < b):
        if rng.random() < 0.4:
            q = q + sqrt(k) * Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return q


def rand_matrix(rng, rows, cols, radicands=(2,), zero=0.25):
    return tuple(
        tuple(rand_entry(rng, radicands, zero) for _ in range(cols)) for _ in range(rows)
    )


def low_rank(rng, rows, cols, rank, radicands):
    # a product through rank inner dimensions, so rank at most rank
    return oracle_mat_mul(
        rand_matrix(rng, rows, rank, radicands), rand_matrix(rng, rank, cols, radicands)
    )


def shaped(rng, radicands):
    """Random matrices of many shapes and ranks over the field."""
    out = [(), ((),), ((), ()), rand_matrix(rng, 1, 5, radicands), rand_matrix(rng, 5, 1, radicands)]
    for _ in range(6):
        n, m = rng.randint(1, 5), rng.randint(1, 6)
        out.append(rand_matrix(rng, n, m, radicands))
        out.append(low_rank(rng, n, m, rng.randint(1, min(n, m)), radicands))
        a = [list(row) for row in rand_matrix(rng, n, m, radicands)]
        a[rng.randrange(n)] = [ZERO] * m  # a zero row
        j = rng.randrange(m)
        for row in a:
            row[j] = ZERO  # and a zero column
        out.append(tuple(tuple(row) for row in a))
    out.append(tuple(tuple(ZERO for _ in range(3)) for _ in range(2)))
    return out


@pytest.mark.parametrize("field", FIELDS)
def test_rref_matches_oracle(field):
    rng = random.Random(field)
    for a in shaped(rng, FIELDS[field]):
        assert _matrix.rref(a) == oracle_rref(a)
        # the canonical form is its own rref
        reduced = _matrix.rref(a)[0]
        assert _matrix.rref(reduced)[0] == reduced


@pytest.mark.parametrize("field", FIELDS)
def test_mat_mul_matches_oracle(field):
    rng = random.Random(field)
    for a in shaped(rng, FIELDS[field]):
        width = len(a[0]) if a else 0
        for cols in (0, 1, 4):
            b = rand_matrix(rng, width, cols, FIELDS[field])
            assert _matrix.mat_mul(a, b) == oracle_mat_mul(a, b)
        if a and width:
            with pytest.raises(ValueError, match="dimension mismatch"):
                _matrix.mat_mul(a, rand_matrix(rng, width + 1, 2))
    assert _matrix.mat_mul((), ()) == ()


@pytest.mark.parametrize("field", FIELDS)
def test_mat_inverse_matches_oracle(field):
    rng = random.Random(field)
    inverted = singular = 0
    for _ in range(20):
        n = rng.randint(1, 5)
        a = rand_matrix(rng, n, n, FIELDS[field], zero=0.1)
        if rng.random() < 0.3:
            a = low_rank(rng, n, n, max(1, n - 1), FIELDS[field])
        try:
            want = oracle_inverse(a)
        except ValueError:
            singular += 1
            with pytest.raises(ValueError, match="singular"):
                _matrix.mat_inverse(a)
            continue
        inverted += 1
        assert _matrix.mat_inverse(a) == want
        assert _matrix.mat_mul(a, want) == _matrix.identity(n)
    assert inverted and singular
    assert _matrix.mat_inverse(()) == ()


def test_outputs_are_canonical():
    # every cell comes out in the stored form of its own literal
    a = _matrix.as_matrix([["2/4", "3/2*sqrt(2)"], [0, "3/9"]])
    cells = [c for m in (_matrix.mat_mul(a, a), _matrix.rref(a)[0]) for row in m for c in row]
    for cell in cells:
        back = QNum(str(cell))
        assert (cell.radicands, cell.coeffs, cell.den) == (back.radicands, back.coeffs, back.den)


def test_identity_and_mul():
    i3 = _matrix.identity(3)
    a = _matrix.as_matrix([[1, 2, 3], [0, 1, 4], [5, 6, 0]])
    assert _matrix.mat_mul(a, i3) == a
    assert _matrix.mat_mul(i3, a) == a


def test_inverse_round_trip():
    rng = random.Random(7)
    found = 0
    while found < 25:
        n = rng.randint(1, 4)
        a = rand_matrix(rng, n, n, zero=0)
        try:
            inv = _matrix.mat_inverse(a)
        except ValueError:
            continue
        found += 1
        assert _matrix.mat_mul(a, inv) == _matrix.identity(n)
        assert _matrix.mat_mul(inv, a) == _matrix.identity(n)


def test_inverse_singular():
    # the second matrix's third row is the sum of the other two
    for rows in ([[1, 2], [2, 4]], [[1, 2, 3], [0, 1, 4], [1, 3, 7]]):
        with pytest.raises(ValueError, match="singular"):
            _matrix.mat_inverse(_matrix.as_matrix(rows))


def test_rref_canonical():
    a = _matrix.as_matrix([[2, 4, 6], [1, 2, 4], [3, 6, 10]])
    r, pivots = _matrix.rref(a)
    assert pivots == (0, 2)
    assert r[0] == (ONE, QNum(2), ZERO)
    assert r[1] == (ZERO, ZERO, ONE)
    assert r[2] == (ZERO, ZERO, ZERO)


def test_rref_irrational_pivot():
    # the pivot 1 + sqrt(2) is inverted by its conjugate, 1/(1+r2) = r2 - 1
    a = _matrix.as_matrix([["1+sqrt(2)", 1], [1, "sqrt(2)-1"]])
    r, pivots = _matrix.rref(a)
    assert pivots == (0,)
    assert r == ((ONE, sqrt(2) - 1), (ZERO, ZERO))


def test_rref_identity_for_invertible():
    rng = random.Random(11)
    found = 0
    while found < 10:
        a = rand_matrix(rng, 3, 3, ())
        try:
            _matrix.mat_inverse(a)
        except ValueError:
            continue
        found += 1
        r, pivots = _matrix.rref(a)
        assert r == _matrix.identity(3)
        assert pivots == (0, 1, 2)


def test_rank():
    # the rank is the pivot count of rref
    assert len(_matrix.rref(_matrix.as_matrix([[1, 2], [2, 4]]))[1]) == 1
    assert len(_matrix.rref(_matrix.identity(4))[1]) == 4


# -- the certificates on every builtin entry, against the oracle ---------


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = cli.run(argv)
    return status, out.getvalue(), err.getvalue()


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as e:
        return ("ValueError", str(e))


@pytest.mark.parametrize("entry_id", catalog.list_builtin())
def test_certificates_match_oracle_on_builtins(monkeypatch, entry_id):
    entry = catalog.get_builtin(entry_id)
    rows = entry.configuration.rows
    width = len(rows[0])
    commands = [
        ["prove-nonintegral", "--config", "builtin:" + entry_id],
        ["growth-probe", "--config", "builtin:" + entry_id, "--word", "2.1"],
    ] + [
        ["check-integrality", "--config", "builtin:" + entry_id,
         "--cluster", ",".join(cluster), "--seed", "0"]
        for cluster in entry.clusters or ()
    ]
    # the bend matrices of the first n + 2 walls, a basis when independent
    basis = rows[:width]
    mirrors = rows[:3]

    def outcomes():
        got = [_run(argv) for argv in commands]
        got += [_outcome(lambda b, m: bend_matrices(b, [m])[0], basis, m) for m in mirrors]
        got.append(_outcome(integrality.check_bounded_rational, basis, mirrors[:1], 4, 3, 1))
        return got

    fast = outcomes()
    with monkeypatch.context() as m:
        use_oracle(m)
        slow = outcomes()
    assert fast == slow

