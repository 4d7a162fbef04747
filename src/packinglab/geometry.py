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

The bend matrix of a mirror m in a square wall basis V is
B_m = V R_m V^-1 (B_m V = V R_m).  With R_m = I + 2 Q m^T m, Q the
form's matrix, B_m = I + 2 (V Q m^T)(m V^-1) = I + 2 c^T w: c_i = <v_i, m>
is m's column of the Gram G of V's rows and m, and w = m V^-1.  For
basis row k, w = e_k, so B_m is I but for column k, e_k + 2 G[:, k].
A word's matrix is its letters', B_{i1} ... B_{ik} = V R_{i1} ... R_{ik} V^-1.
An isometry S of the form, such as the conformal rescaling
diag(f, 1/f, 1, ..., 1), leaves B as it is: V S and m S give
R' = S^-1 R S, so B' = V S S^-1 R S S^-1 V^-1 = B.
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
    """True iff the vector is normalized to norm -1, its one-row Gram's
    diagonal entry.  The package proves rows on the Gram of the whole
    list instead (``Configuration``, the orbit, ``orbit._checked_rows``);
    this one-row form is kept for perfbench/harness.py, which imports it."""
    return gram((v,))[0][0] == MINUS_ONE


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
    g = gram((mirror,))[0][0]
    if g != MINUS_ONE:
        raise ValueError(f"mirror must have norm -1, got {g}")
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


def bend_matrices(basis, mirrors) -> tuple:
    """B_m = I + 2 c^T w (module docstring) for each mirror m over a square
    basis V; () with nothing inverted for no mirrors.  One ``gram`` of V's
    rows and the mirrors gives each c and proves each mirror on its
    diagonal; one V^-1 and one product of the mirrors with it give each w.
    ValueError, in this order: the basis is not square; ``gram`` refuses
    the rows (a mirror of another width: ``dimension mismatch``); a
    mirror does not have norm -1; the basis is singular."""
    v = tuple(tuple(row) for row in basis)
    if any(len(row) != len(v) for row in v):
        raise ValueError(f"basis must be square, got {len(v)} rows")
    mirrors = tuple(as_vector(m) for m in mirrors)
    if not mirrors:
        return ()
    k = len(v)
    g = gram(v + mirrors)
    for t in range(k, len(g)):
        if g[t][t] != MINUS_ONE:
            raise ValueError(f"mirror must have norm -1, got {g[t][t]}")
    out = []
    for t, w in enumerate(_matrix.mat_mul(mirrors, _matrix.mat_inverse(v)), start=k):
        b = [[c * x for x in w] for c in (2 * g[i][t] for i in range(k))]
        for i in range(k):
            b[i][i] += ONE
        out.append(tuple(map(tuple, b)))
    return tuple(out)


def form_functional(field, key) -> tuple:
    """2<v, m> for an encoded row m, compiled to integer functionals.

    With v = x / D and m = y / E over the field's basis, 2<v, m> is
    sum_c t_c sqrt(r_c) / (D E), where t_c = sum x[slot] * weight over
    the c-th returned tuple of (slot, weight) pairs.  The tables come in
    closed form from y and the basis product table.
    """
    d, product = field.d, field.product
    y = key[:-1]
    functionals = [[] for _ in range(d)]
    # 2<v,m> = v0 m1 + v1 m0 - 2 sum_{i>=2} vi mi: (v slot, m slot, weight).
    # Each v slot meets one m coordinate, and sqrt(r_a) sqrt(r_b) lands on
    # a different basis element for each b, so no (c, slot) repeats.
    pairs = [(0, 1, 1), (1, 0, 1)] + [(i, i, -2) for i in range(2, len(y) // d)]
    for i, j, weight in pairs:
        for b in range(d):
            coeff = weight * y[j * d + b]
            if coeff:
                for a in range(d):
                    c, g = product[a][b]
                    functionals[c].append((i * d + a, g * coeff))
    return tuple(tuple(functional) for functional in functionals)


def gram(rows) -> _matrix.Matrix:
    """Pairwise inner products of a configuration (symmetric, exact).

    The rows are encoded over one integer field basis, each distinct
    coordinate object placed once, and each row keeps the list of its
    nonzero key slots.  Each row's 2<., m> is compiled once
    (form_functional) and indexed by slot, so a cell sums only over the
    other row's nonzero slots, on integers, and is decoded once into a
    canonical QNum.
    """
    rows = tuple(as_vector(r) for r in rows)
    for w in rows:
        if len(w) != len(rows[0]):
            raise ValueError(f"dimension mismatch: {len(rows[0])} vs {len(w)}")
    field = _Field(rows)
    # a catalog load shares one QNum per distinct literal, so each
    # distinct object is placed over the field once
    placed = {}
    keys = []
    for r in rows:
        numbers = []
        for q in r:
            number = placed.get(id(q))
            if number is None:
                number = placed[id(q)] = field.place(q.radicands, q.coeffs, q.den)
            numbers.append(number)
        keys.append(field.join(numbers))
    nonzero = [[(s, x) for s, x in enumerate(key[:-1]) if x] for key in keys]
    d = field.d
    out = [[None] * len(rows) for _ in rows]
    for j, m in enumerate(keys):
        # slot -> ((basis element c, weight), ...) of m's functionals
        by_slot = {}
        for c, functional in enumerate(form_functional(field, m)):
            for s, w in functional:
                by_slot.setdefault(s, []).append((c, w))
        for i in range(j + 1):
            t = [0] * d
            for s, x in nonzero[i]:
                for c, w in by_slot.get(s, ()):
                    t[c] += x * w
            out[i][j] = out[j][i] = field.number(tuple(t), 2 * keys[i][-1] * m[-1])
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
