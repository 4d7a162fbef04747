import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from packinglab import _matrix, catalog, geometry
from packinglab.exactnum import ONE, QNum, ZERO, sqrt
from packinglab.groupwords import double


def qv(*coords):
    return tuple(QNum(c) for c in coords)


def rand_wall(rng):
    """Random exact norm -1 vector: a sphere with rational center and
    rational or sqrt(2)-rational radius."""
    n = 2
    center = [Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(n)]
    r = QNum(Fraction(rng.randint(1, 9), rng.randint(1, 4)))
    if rng.random() < 0.3:
        r = r * sqrt(2)
    if rng.random() < 0.5:
        r = -r
    return geometry.sphere(center, r)


def form_matrix(n):
    """The (n+2) x (n+2) form: 1/2 in the two top-left off-diagonal
    slots, minus the identity in the lower block.  Signature (1, n+1)."""
    rows = [[ZERO] * (n + 2) for _ in range(n + 2)]
    rows[0][1] = rows[1][0] = QNum(Fraction(1, 2))
    for i in range(n):
        rows[2 + i][2 + i] = QNum(-1)
    return tuple(tuple(r) for r in rows)


def row_mat(v, a):
    """Row vector times matrix (the right-action convention)."""
    return _matrix.mat_mul((tuple(v),), a)[0]


def test_inner_matches_form_matrix_oracle():
    # oracle: v Q w^T with the explicit form matrix
    rng = random.Random(3)
    q = form_matrix(2)
    for _ in range(50):
        v, w = rand_wall(rng), rand_wall(rng)
        via_matrix = row_mat(row_mat(v, q), _matrix.transpose((w,)))[0]
        assert geometry.inner(v, w) == via_matrix


def test_unit_circle():
    assert geometry.sphere((0, 0), 1) == qv(-1, 1, 0, 0)


def test_sphere_from_coords33_row10():
    v = geometry.sphere((2 * sqrt(3), 0), sqrt(2))
    assert v == (5 * sqrt(2), sqrt(2) / 2, sqrt(6), ZERO)
    assert geometry.gram((v,))[0][0] == -1


def test_sphere_zero_radius():
    with pytest.raises(ValueError, match="radius"):
        geometry.sphere((0, 0), 0)


def test_hyperplane_x1_axis():
    v = geometry.hyperplane((-1, 0), 0, 1)
    assert v == qv(0, 0, -1, 0)
    assert geometry.gram((v,))[0][0] == -1


def test_hyperplane_offset_side():
    # plane x2 = 1, interior above: normal (0,1), distance 1, side +1
    v = geometry.hyperplane((0, 1), 1, 1)
    assert v == qv(2, 0, 0, 1)
    assert geometry.interior_contains(v, (0, 2))
    assert not geometry.interior_contains(v, (0, 0))


def test_hyperplane_diagonal_unit_normal():
    half2 = sqrt(2) / 2
    v = geometry.hyperplane((half2, half2), QNum(3), -1)
    assert geometry.gram((v,))[0][0] == -1
    assert v[0] == -6


def test_hyperplane_rejects_non_unit():
    with pytest.raises(ValueError, match="unit"):
        geometry.hyperplane((1, 1), 0, 1)


def test_norm_of_table_row():
    row5 = qv(-2, 0, -QNum("1/2*sqrt(3)"), Fraction(-1, 2))
    assert geometry.norm(row5) == -1


def test_reflection_matrix_involution():
    r = geometry.reflection_matrix(qv(-1, 1, 0, 0))
    assert _matrix.mat_mul(r, r) == _matrix.identity(4)


def test_reflection_matrix_rejects_bad_norm():
    with pytest.raises(ValueError, match="norm"):
        geometry.reflection_matrix(qv(0, 0, 2, 0))


def test_reflect_is_row_action():
    rng = random.Random(5)
    for _ in range(25):
        v, m = rand_wall(rng), rand_wall(rng)
        r = geometry.reflection_matrix(m)
        assert geometry.reflect(v, m) == row_mat(v, r)


def test_reflect_involution_and_self():
    rng = random.Random(8)
    for _ in range(25):
        w, a = rand_wall(rng), rand_wall(rng)
        assert geometry.reflect(geometry.reflect(w, a), a) == w
    m = rand_wall(rng)
    assert geometry.reflect(m, m) == tuple(-c for c in m)


def test_reflection_preserves_form():
    rng = random.Random(13)
    q = form_matrix(2)
    for _ in range(10):
        m = rand_wall(rng)
        r = geometry.reflection_matrix(m)
        assert _matrix.mat_mul(_matrix.mat_mul(r, q), _matrix.transpose(r)) == q


def test_reflection_preserves_inner_products():
    rng = random.Random(17)
    for _ in range(25):
        v, w, m = rand_wall(rng), rand_wall(rng), rand_wall(rng)
        assert geometry.inner(
            geometry.reflect(v, m), geometry.reflect(w, m)
        ) == geometry.inner(v, w)


STRIP_BASIS = (
    (ZERO, ZERO, ZERO, QNum(-1)),
    (QNum(2), ZERO, ZERO, ONE),
    (ZERO, QNum(2), ZERO, ONE),
    (QNum(2), QNum(2), QNum(2), ONE),
)


def test_bend_matrix_strip_packing():
    mirror = geometry.hyperplane((-1, 0), 0, 1)
    b = geometry.bend_matrices(STRIP_BASIS, [mirror])[0]
    assert b == _matrix.as_matrix(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [2, 2, 2, -1]]
    )
    r = geometry.reflection_matrix(mirror)
    assert _matrix.mat_mul(b, STRIP_BASIS) == _matrix.mat_mul(STRIP_BASIS, r)


def test_bend_matrix_singular_basis():
    bad = (STRIP_BASIS[0],) * 4
    with pytest.raises(ValueError, match="singular"):
        geometry.bend_matrices(bad, [geometry.hyperplane((-1, 0), 0, 1)])[0]


def test_bend_matrices_error_precedence():
    # non-square basis first, then a mirror whose norm is not -1, then a
    # singular basis
    mirror = geometry.hyperplane((-1, 0), 0, 1)
    not_wall = (ONE, ONE, ZERO, ZERO)
    singular = (STRIP_BASIS[0],) * 4
    with pytest.raises(ValueError, match=r"^basis must be square, got 3 rows$"):
        geometry.bend_matrices(STRIP_BASIS[:3], [not_wall])
    with pytest.raises(ValueError, match=r"^basis must be square, got 4 rows$"):
        geometry.bend_matrices(STRIP_BASIS[:3] + ((ONE,) * 3,), [mirror])
    with pytest.raises(ValueError, match=r"^mirror must have norm -1, got 1$"):
        geometry.bend_matrices(singular, [mirror, not_wall])
    with pytest.raises(ValueError, match=r"^singular matrix$"):
        geometry.bend_matrices(singular, [mirror])
    # no mirror, no inverse: nothing to report on a singular basis
    assert geometry.bend_matrices(singular, []) == ()


def test_bend_matrices_are_each_mirrors_matrix():
    # one call over the four walls gives each wall's own B with B V = V R,
    # the same matrix as a call on that wall alone
    matrices = geometry.bend_matrices(STRIP_BASIS, STRIP_BASIS)
    assert len(matrices) == 4
    for b, m in zip(matrices, STRIP_BASIS):
        r = geometry.reflection_matrix(m)
        assert _matrix.mat_mul(b, STRIP_BASIS) == _matrix.mat_mul(STRIP_BASIS, r)
        assert geometry.bend_matrices(STRIP_BASIS, [m]) == (b,)
    # a word's matrix is the product of its letters' matrices
    b_word = _matrix.mat_mul(matrices[1], matrices[3])
    r_word = _matrix.mat_mul(
        geometry.reflection_matrix(STRIP_BASIS[1]), geometry.reflection_matrix(STRIP_BASIS[3])
    )
    assert _matrix.mat_mul(b_word, STRIP_BASIS) == _matrix.mat_mul(STRIP_BASIS, r_word)


# -- the bend-matrix identity against the conjugation it replaced ------


def conjugated_bend_matrices(basis, mirrors):
    # the earlier route: each mirror's reflection matrix R_m, one inverse,
    # and two products per mirror, B_m = V R_m V^-1
    v = tuple(tuple(row) for row in basis)
    if any(len(row) != len(v) for row in v):
        raise ValueError(f"basis must be square, got {len(v)} rows")
    reflections = [geometry.reflection_matrix(m) for m in mirrors]
    if not reflections:
        return ()
    inverse = _matrix.mat_inverse(v)
    return tuple(_matrix.mat_mul(_matrix.mat_mul(v, r), inverse) for r in reflections)


def outcome(route, basis, mirrors):
    try:
        return route(basis, mirrors)
    except ValueError as e:
        return str(e)


SQUARE_BUILTINS = ("bi1-cluster3", "d1n3-base")


@pytest.mark.parametrize("entry_id", catalog.list_builtin())
def test_bend_matrices_match_conjugation_on_builtins(entry_id):
    # all the entry's rows as mirrors, over its own rows when square and
    # over its first n + 2 rows otherwise (singular bases give one error)
    rows = catalog.get_builtin(entry_id).configuration.rows
    basis = rows[: len(rows[0])]
    assert (basis == rows) == (entry_id in SQUARE_BUILTINS)
    want = outcome(conjugated_bend_matrices, basis, rows)
    assert outcome(geometry.bend_matrices, basis, rows) == want
    if entry_id in SQUARE_BUILTINS:
        assert len(want) == len(rows)


GENERAL_MIRRORS = (
    geometry.sphere((Fraction(1, 3), -2), Fraction(5, 7)),
    geometry.hyperplane((Fraction(3, 5), Fraction(-4, 5)), Fraction(2, 9), -1),
    geometry.sphere((sqrt(2), Fraction(1, 2)), -sqrt(3)),
    geometry.hyperplane((sqrt(2) / 2, sqrt(2) / 2), sqrt(5), 1),
)


def test_bend_matrices_match_conjugation_on_general_mirrors():
    # rational and irrational mirrors that are not basis walls
    got = geometry.bend_matrices(STRIP_BASIS, GENERAL_MIRRORS)
    assert got == conjugated_bend_matrices(STRIP_BASIS, GENERAL_MIRRORS)
    assert any(not e.is_rational() for b in got for row in b for e in row)


def test_bend_matrices_match_conjugation_on_random_bases():
    rng = random.Random(29)
    for _ in range(20):
        basis = tuple(rand_wall(rng) for _ in range(4))
        mirrors = tuple(rand_wall(rng) for _ in range(rng.randint(0, 3))) + basis[:1]
        want = outcome(conjugated_bend_matrices, basis, mirrors)
        assert outcome(geometry.bend_matrices, basis, mirrors) == want


@pytest.mark.parametrize("entry_id", SQUARE_BUILTINS)
def test_basis_wall_changes_one_column_of_the_identity(entry_id):
    # for basis wall k, w = e_k: column k is e_k + 2 G[:, k], the rest is I
    rows = catalog.get_builtin(entry_id).configuration.rows
    g = geometry.gram(rows)
    ident = _matrix.identity(len(rows))
    for k, b in enumerate(geometry.bend_matrices(rows, rows)):
        for j, column in enumerate(zip(*b)):
            if j == k:
                assert column == tuple(ident[i][k] + 2 * g[i][k] for i in range(len(rows)))
            else:
                assert column == tuple(ident[i][j] for i in range(len(rows)))


def test_bend_matrices_take_one_gram_one_inverse_one_product(monkeypatch):
    calls = []

    def counting(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(geometry, "gram", counting("gram", geometry.gram))
    for name in ("mat_inverse", "mat_mul"):
        monkeypatch.setattr(_matrix, name, counting(name, getattr(_matrix, name)))
    monkeypatch.setattr(
        geometry, "reflection_matrix", counting("reflection_matrix", geometry.reflection_matrix)
    )
    rows = catalog.get_builtin("bi1-cluster3").configuration.rows
    for basis, mirrors in ((STRIP_BASIS, GENERAL_MIRRORS), (rows, rows), (STRIP_BASIS, STRIP_BASIS[:1])):
        calls.clear()
        assert len(geometry.bend_matrices(basis, mirrors)) == len(mirrors)
        assert sorted(calls) == ["gram", "mat_inverse", "mat_mul"]
    calls.clear()
    assert geometry.bend_matrices(rows, ()) == ()
    assert calls == []


def test_bend_matrices_refuse_a_mirror_of_another_width_first():
    # the one Gram checks widths, so a mirror of another width is reported
    # before a norm that is not -1 and before a singular basis
    singular = (STRIP_BASIS[0],) * 4
    wide = geometry.sphere((0, 0, 0), 1)
    for mirrors in ([wide], [(ONE, ONE, ZERO, ZERO), wide]):
        with pytest.raises(ValueError, match=r"^dimension mismatch: 4 vs 5$"):
            geometry.bend_matrices(singular, mirrors)


def test_gram_strip_packing():
    g = geometry.gram(STRIP_BASIS)
    assert all(g[i][i] == -1 for i in range(4))
    assert all(g[i][j] == 1 for i in range(4) for j in range(4) if i != j)


def test_gram_single():
    assert geometry.gram([qv(-1, 1, 0, 0)]) == ((QNum(-1),),)


def gram_oracle(rows):
    return tuple(tuple(geometry.inner(v, w) for w in rows) for v in rows)


def cell_terms(g):
    # the canonical term tuples themselves, coefficient types included
    return [[tuple((k, type(c), c) for k, c in q.terms) for q in row] for row in g]


def assert_gram_matches_oracle(rows):
    assert cell_terms(geometry.gram(rows)) == cell_terms(gram_oracle(rows))


@pytest.mark.parametrize("entry_id", catalog.list_builtin())
def test_gram_matches_inner_oracle_on_builtins(entry_id):
    assert_gram_matches_oracle(catalog.get_builtin(entry_id).configuration.rows)


def test_gram_matches_inner_oracle_on_doubled_configuration():
    doubled = double(catalog.get_builtin("d1n3-base").configuration, 3)
    assert_gram_matches_oracle(doubled.rows)
    assert doubled.gram() == gram_oracle(doubled.rows)


# Q(sqrt2, sqrt3) scalars; rows drawn from them rarely have norm -1
coefficients = st.builds(
    Fraction, st.integers(min_value=-8, max_value=8), st.integers(min_value=1, max_value=6)
)
field_scalars = st.builds(
    lambda a, b, c, e: QNum({1: a, 2: b, 3: c, 6: e}),
    coefficients, coefficients, coefficients, coefficients,
)


@st.composite
def field_rows(draw):
    size = draw(st.integers(min_value=3, max_value=6))
    row = st.tuples(*[field_scalars] * size)
    return draw(st.lists(row, min_size=1, max_size=4))


@st.composite
def sparse_field_rows(draw):
    # mostly-zero rows: the Gram sums only over nonzero key slots
    size = draw(st.integers(min_value=3, max_value=8))
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        row = [ZERO] * size
        for k in draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=2, unique=True)):
            row[k] = draw(field_scalars)
        rows.append(tuple(row))
    return rows


@settings(max_examples=100, deadline=None)
@given(st.one_of(field_rows(), sparse_field_rows()))
def test_gram_matches_inner_oracle_on_field_rows(rows):
    assert_gram_matches_oracle(rows)


def test_gram_matches_inner_oracle_on_single_nonzero_coordinates():
    rows = [
        qv(0, 0, 0, 0, 1),
        qv(0, 0, sqrt(3), 0, 0),
        qv(Fraction(1, 2), 0, 0, 0, 0),
        qv(0, sqrt(6) / 4, 0, 0, 0),
        qv(0, 0, 0, 0, 0),
        geometry.hyperplane((0, 0, 1), 0),
    ]
    assert_gram_matches_oracle(rows)


def test_gram_places_each_distinct_coordinate_object_once(monkeypatch):
    # a catalog load shares one QNum per distinct literal: d3n13's 308
    # row coordinates are 26 objects
    rows = catalog.get_builtin("d3n13").configuration.rows
    objects = {id(q) for row in rows for q in row}
    assert sum(len(row) for row in rows) == 308 and len(objects) == 26
    placed = []
    place = geometry._Field.place

    def counted(self, radicands, coeffs, den):
        placed.append((radicands, coeffs, den))
        return place(self, radicands, coeffs, den)

    monkeypatch.setattr(geometry._Field, "place", counted)
    g = geometry.gram(rows)
    assert len(placed) == 26
    monkeypatch.undo()
    assert g == gram_oracle(rows)


@settings(max_examples=50, deadline=None)
@given(st.lists(field_scalars, min_size=1, max_size=4), st.data())
def test_gram_on_rows_sharing_coordinate_objects(pool, data):
    # rows drawn from a small pool of objects, plus equal values that are
    # distinct objects
    size = data.draw(st.integers(min_value=3, max_value=5))
    rows = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
        picks = data.draw(st.lists(st.integers(0, 2 * len(pool) - 1), min_size=size, max_size=size))
        rows.append(tuple(
            pool[k] if k < len(pool) else pool[k - len(pool)] + 0 for k in picks
        ))
    assert_gram_matches_oracle(rows)


def test_gram_edge_cases():
    assert geometry.gram(()) == ()
    with pytest.raises(ValueError, match="dimension mismatch: 4 vs 3"):
        geometry.gram([qv(-1, 1, 0, 0), qv(0, 0, 1)])


def test_interior_sphere():
    unit = geometry.sphere((0, 0), 1)
    assert geometry.interior_contains(unit, (0, 0))
    assert not geometry.interior_contains(unit, (2, 0))
    assert not geometry.interior_contains(unit, (1, 0))  # boundary is open
    flipped = geometry.sphere((0, 0), -1)
    assert not geometry.interior_contains(flipped, (0, 0))
    assert geometry.interior_contains(flipped, (2, 0))


def test_interior_coords33_circle10():
    v = geometry.sphere((2 * sqrt(3), 0), sqrt(2))
    assert geometry.interior_contains(v, (2 * sqrt(3), 0))
    assert not geometry.interior_contains(v, (0, 0))


def test_interior_halfplane():
    v = geometry.hyperplane((-1, 0), 0, 1)
    assert geometry.interior_contains(v, (-1, 5))
    assert not geometry.interior_contains(v, (1, 0))
