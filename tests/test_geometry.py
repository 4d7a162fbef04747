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


def test_inner_matches_form_matrix_oracle():
    # oracle: v Q w^T with the explicit form matrix
    rng = random.Random(3)
    q = geometry.form_matrix(2)
    for _ in range(50):
        v, w = rand_wall(rng), rand_wall(rng)
        via_matrix = _matrix.row_mat(_matrix.row_mat(v, q), _matrix.transpose((w,)))[0]
        assert geometry.inner(v, w) == via_matrix


def test_unit_circle():
    assert geometry.sphere((0, 0), 1) == qv(-1, 1, 0, 0)


def test_sphere_from_coords33_row10():
    v = geometry.sphere((2 * sqrt(3), 0), sqrt(2))
    assert v == (5 * sqrt(2), sqrt(2) / 2, sqrt(6), ZERO)
    assert geometry.is_wall(v)


def test_sphere_zero_radius():
    with pytest.raises(ValueError, match="radius"):
        geometry.sphere((0, 0), 0)


def test_hyperplane_x1_axis():
    v = geometry.hyperplane((-1, 0), 0, 1)
    assert v == qv(0, 0, -1, 0)
    assert geometry.is_wall(v)


def test_hyperplane_offset_side():
    # plane x2 = 1, interior above: normal (0,1), distance 1, side +1
    v = geometry.hyperplane((0, 1), 1, 1)
    assert v == qv(2, 0, 0, 1)
    assert geometry.interior_contains(v, (0, 2))
    assert not geometry.interior_contains(v, (0, 0))


def test_hyperplane_diagonal_unit_normal():
    half2 = sqrt(2) / 2
    v = geometry.hyperplane((half2, half2), QNum(3), -1)
    assert geometry.is_wall(v)
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
        assert geometry.reflect(v, m) == _matrix.row_mat(v, r)


def test_reflect_involution_and_self():
    rng = random.Random(8)
    for _ in range(25):
        w, a = rand_wall(rng), rand_wall(rng)
        assert geometry.reflect(geometry.reflect(w, a), a) == w
    m = rand_wall(rng)
    assert geometry.reflect(m, m) == tuple(-c for c in m)


def test_reflection_preserves_form():
    rng = random.Random(13)
    q = geometry.form_matrix(2)
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
    b = geometry.bend_matrix(STRIP_BASIS, mirror)
    assert b == _matrix.as_matrix(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [2, 2, 2, -1]]
    )
    r = geometry.reflection_matrix(mirror)
    assert _matrix.mat_mul(b, STRIP_BASIS) == _matrix.mat_mul(STRIP_BASIS, r)


def test_bend_matrix_singular_basis():
    bad = (STRIP_BASIS[0],) * 4
    with pytest.raises(ValueError, match="singular"):
        geometry.bend_matrix(bad, geometry.hyperplane((-1, 0), 0, 1))


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


@settings(max_examples=100, deadline=None)
@given(field_rows())
def test_gram_matches_inner_oracle_on_field_rows(rows):
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
