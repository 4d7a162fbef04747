"""Inversive coordinates, the ambient quadratic form, and reflections.

An oriented sphere or hyperplane in R^n is stored as the row tuple

    v = (co_bend, bend, bz_1, ..., bz_n)

of n+2 QNums.  A sphere of center z and radius r (r may be negative to
flip the interior) has bend b = 1/r, bz = z/r and co-bend solved from
the normalization; a hyperplane has b = 0, a unit normal in the bz
slots and co-bend twice its signed distance from the origin.  The
ambient bilinear form is

    <v, w> = (co_bend_v * bend_w + bend_v * co_bend_w) / 2 - bz_v . bz_w

and every wall vector satisfies <v, v> = -1 exactly.

Matrices act on the right throughout: vectors are rows, a reflection is
v -> v * R, and matrix products transcribe in reading order.
"""

from __future__ import annotations

from fractions import Fraction

from . import _matrix
from .exactnum import ONE, QNum, ZERO, _Field

HALF = QNum(Fraction(1, 2))
MINUS_ONE = QNum(-1)


def dim_n(v) -> int:
    """Ambient dimension of an inversive vector (tuple length minus 2)."""
    return len(v) - 2


def as_vector(coords):
    """Coerce a sequence of scalars/literals to an inversive row tuple
    (QNum entries are kept as they are: they are immutable)."""
    v = tuple(x if isinstance(x, QNum) else QNum(x) for x in coords)
    if len(v) < 3:
        raise ValueError("an inversive vector needs at least 3 entries")
    return v


def form_matrix(n: int) -> _matrix.Matrix:
    """The (n+2) x (n+2) form: 1/2 in the two top-left off-diagonal
    slots, minus the identity in the lower block.  Signature (1, n+1)."""
    if n < 1:
        raise ValueError("ambient dimension must be >= 1")
    rows = [[ZERO] * (n + 2) for _ in range(n + 2)]
    rows[0][1] = rows[1][0] = HALF
    for i in range(n):
        rows[2 + i][2 + i] = MINUS_ONE
    return tuple(tuple(r) for r in rows)


def inner(v, w) -> QNum:
    """<v, w> under the ambient form; exact."""
    if len(v) != len(w):
        raise ValueError(f"dimension mismatch: {len(v)} vs {len(w)}")
    total = (v[0] * w[1] + v[1] * w[0]) * HALF
    for x, y in zip(v[2:], w[2:]):
        total = total - x * y
    return total


def norm(v) -> QNum:
    return inner(v, v)


def is_wall(v) -> bool:
    """True iff the vector is normalized to norm -1."""
    return norm(v) == MINUS_ONE


def sphere(center, radius) -> tuple:
    """Inversive vector of the sphere with given center and radius.

    radius must be nonzero; a negative radius gives the reversed
    orientation (interior = the unbounded side).  The co-bend is forced
    by co_bend * bend - |bz|^2 = -1.
    """
    z = tuple(QNum(c) for c in center)
    r = QNum(radius)
    if not r:
        raise ValueError("radius must be nonzero")
    b = r.inverse()
    bz = tuple(c * b for c in z)
    sq = ZERO
    for c in bz:
        sq = sq + c * c
    co = (sq - ONE) * r
    return (co, b) + bz


def hyperplane(normal, nearest_point_distance, side: int = 1) -> tuple:
    """Inversive vector of a hyperplane.

    normal must be an exact unit vector; nearest_point_distance is the
    (nonnegative) distance from the origin, and side = +1 places the
    plane's nearest point at +distance along the normal, side = -1 at
    -distance.  The interior is always the open half-space the normal
    points into: {x : normal . x > distance * side}.
    """
    nz = tuple(QNum(c) for c in normal)
    sq = ZERO
    for c in nz:
        sq = sq + c * c
    if sq != ONE:
        raise ValueError(f"normal must have exact unit length, |n|^2 = {sq}")
    if side not in (1, -1):
        raise ValueError("side must be +1 or -1")
    d = QNum(nearest_point_distance)
    if d.sign() < 0:
        raise ValueError("nearest_point_distance must be >= 0")
    return (2 * d * side, ZERO) + nz


def reflection_matrix(mirror) -> _matrix.Matrix:
    """R = I + 2 Q m^T m for a norm -1 mirror; right-acting involution."""
    if not is_wall(mirror):
        raise ValueError(f"mirror must have norm -1, got {norm(mirror)}")
    m = len(mirror)
    # u = Q m^T: swap-halve the first two entries, negate the rest
    u = (mirror[1] * HALF, mirror[0] * HALF) + tuple(-c for c in mirror[2:])
    ident = _matrix.identity(m)
    return tuple(
        tuple(ident[i][j] + 2 * u[i] * mirror[j] for j in range(m))
        for i in range(m)
    )


def reflect(v, mirror) -> tuple:
    """v reflected through the mirror: v + 2 <v, mirror> mirror.

    Same result as v * reflection_matrix(mirror) but cheaper; the
    mirror is assumed normalized (callers validate once, orbits reuse).
    """
    c = 2 * inner(v, mirror)
    return tuple(x + c * y for x, y in zip(v, mirror))


def bend_matrix(basis, mirror) -> _matrix.Matrix:
    """B with B V = V R: the reflection written in the basis of V's rows.

    basis is a square (n+2) x (n+2) arrangement of inversive vectors;
    ValueError when it is singular.
    """
    v = tuple(tuple(row) for row in basis)
    if any(len(row) != len(v) for row in v):
        raise ValueError(f"basis must be square, got {len(v)} rows")
    r = reflection_matrix(mirror)
    return _matrix.mat_mul(_matrix.mat_mul(v, r), _matrix.mat_inverse(v))


def form_functional(field, key) -> tuple:
    """2<v, m> for an encoded row m, compiled to integer functionals.

    With v = x / D and m = y / E over the field's basis, 2<v, m> is
    sum_c t_c sqrt(r_c) / (D E), where t_c = sum x[slot] * weight over
    the c-th returned tuple of (slot, weight) pairs.  The tables come in
    closed form from y and the basis product table.
    """
    d, product = field.d, field.product
    y = key[:-1]
    functionals = [{} for _ in range(d)]
    # 2<v,m> = v0 m1 + v1 m0 - 2 sum_{i>=2} vi mi: (v slot, m slot, weight)
    pairs = [(0, 1, 1), (1, 0, 1)] + [(i, i, -2) for i in range(2, len(y) // d)]
    for i, j, weight in pairs:
        for b in range(d):
            coeff = weight * y[j * d + b]
            if coeff:
                for a in range(d):
                    c, g = product[a][b]
                    slot = i * d + a
                    functionals[c][slot] = functionals[c].get(slot, 0) + g * coeff
    return tuple(
        tuple((s, w) for s, w in functional.items() if w) for functional in functionals
    )


def gram(rows) -> _matrix.Matrix:
    """Pairwise inner products of a configuration (symmetric, exact).

    The rows are encoded over one integer field basis; each row's
    2<., m> is compiled once (form_functional), and each cell is
    evaluated on integers and decoded once into a canonical QNum.
    """
    rows = tuple(as_vector(r) for r in rows)
    for w in rows:
        if len(w) != len(rows[0]):
            raise ValueError(f"dimension mismatch: {len(rows[0])} vs {len(w)}")
    field = _Field(rows)
    keys = [field.encode(r) for r in rows]
    out = [[None] * len(rows) for _ in rows]
    for j, m in enumerate(keys):
        functionals = form_functional(field, m)
        for i in range(j + 1):
            v = keys[i]
            t = tuple(sum([v[s] * w for s, w in f]) for f in functionals)
            out[i][j] = out[j][i] = field.number(t, 2 * v[-1] * m[-1])
    return tuple(tuple(r) for r in out)


def interior_contains(v, point) -> bool:
    """Exact membership of a point in the open interior of a wall.

    Hyperplane case: normal . x > co_bend / 2.  Sphere case: x lies
    strictly inside when the bend is positive, strictly outside when
    negative; both reduce to sign(1 - |bz - b x|^2) * sign(b) > 0,
    which avoids any division.
    """
    x = tuple(QNum(c) for c in point)
    if len(x) != dim_n(v):
        raise ValueError(f"point dimension {len(x)} != {dim_n(v)}")
    b = v[1]
    if not b:
        t = -v[0] * HALF
        for nz, xi in zip(v[2:], x):
            t = t + nz * xi
        return t.sign() > 0
    t = ONE
    for bz, xi in zip(v[2:], x):
        d = bz - b * xi
        t = t - d * d
    return t.sign() * b.sign() > 0
