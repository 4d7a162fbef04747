import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from packinglab import geometry
from packinglab.convert import (
    BianchiRoot,
    VinbergVector,
    _unit_scale,
    convert_all,
    convert_root,
    from_mcleod_bianchi,
    from_vinberg_form,
    load_patch_table,
    read_root_file,
)
from packinglab.exactnum import QNum, sqrt

R2 = sqrt(2)
R3 = sqrt(3)
HALF = QNum("1/2")


def test_bianchi_root_validation():
    with pytest.raises(ValueError, match="positive integer"):
        BianchiRoot(0, (1, 0, 0, 0))
    with pytest.raises(ValueError, match="square-free"):
        BianchiRoot(12, (0, 0, 1, 0))
    with pytest.raises(ValueError, match="4 components"):
        BianchiRoot(2, (1, 0, 0))
    with pytest.raises(ValueError, match="space-like"):
        BianchiRoot(1, (1, 1, 0, 0))  # form value -2


@pytest.mark.parametrize("make", [BianchiRoot, VinbergVector])
def test_booleans_are_not_numbers(make):
    # Fraction(True) is 1 and True is an int to isinstance, so a bool would
    # otherwise pass as the number 1 (or 0)
    good = (0, 2, 0, 1)
    make(1, good)
    with pytest.raises(ValueError, match="positive integer, got True"):
        make(True, good)
    for j in range(len(good)):
        x = good[:j] + (bool(good[j]),) + good[j + 1:]
        with pytest.raises(ValueError, match="component %d of x is not a number" % j):
            make(1, x)


def test_bianchi_form_value_both_classes():
    assert BianchiRoot(2, (2, 0, 0, -1)).form_value() == 4
    assert BianchiRoot(3, (0, 0, 0, 1)).form_value() == 2
    # the 3 (mod 4) form carries a cross term
    assert BianchiRoot(3, (0, 0, 1, 1)).form_value() == 6
    assert BianchiRoot(7, (0, 0, 1, -1)).form_value() == 2 - 2 + 4


def test_bianchi_examples():
    assert from_mcleod_bianchi(BianchiRoot(2, (2, 0, 0, -1))) == (R2, QNum(0), QNum(0), QNum(-1))
    # form value already 2: no rescaling, a unit-normal line
    assert from_mcleod_bianchi(BianchiRoot(1, (0, 0, 1, 0))) == (QNum(0), QNum(0), QNum(1), QNum(0))
    got = from_mcleod_bianchi(BianchiRoot(3, (0, 0, 0, 1)))
    assert got == (QNum(0), QNum(0), HALF, R3 * HALF)


def test_vinberg_vector_validation():
    with pytest.raises(ValueError, match="positive integer"):
        VinbergVector(0, (0, 1, 0))
    with pytest.raises(ValueError, match="at least 3"):
        VinbergVector(1, (0, 1))
    with pytest.raises(ValueError, match="positive"):
        VinbergVector(1, (1, 0, 0, 0))  # norm -1, time-like


def test_vinberg_examples():
    assert from_vinberg_form(VinbergVector(1, (0, 1, 0, 0))) == (QNum(1), QNum(-1), QNum(0), QNum(0))
    assert from_vinberg_form(VinbergVector(3, (0, 0, 0, 1))) == (QNum(0), QNum(0), QNum(0), QNum(1))
    got = from_vinberg_form(VinbergVector(2, (1, 2, 0, 0)))
    assert got == (QNum(1) + R2, QNum(1) - R2, QNum(0), QNum(0))
    assert geometry.norm(got) == QNum(-1)


small_fractions = st.fractions(
    min_value=-6, max_value=6, max_denominator=4
)


def _space_like_bianchi(m):
    return st.tuples(*([small_fractions] * 4)).map(
        lambda x: (m, x)
    ).filter(
        lambda mx: _bianchi_form(mx[0], mx[1]) > 0
    )


def _bianchi_form(m, x):
    x1, x2, x3, x4 = (Fraction(c) for c in x)
    if m % 4 == 3:
        return -2 * x1 * x2 + 2 * x3 * x3 + 2 * x3 * x4 + Fraction(m + 1, 2) * x4 * x4
    return -2 * x1 * x2 + 2 * x3 * x3 + 2 * m * x4 * x4


@given(st.sampled_from([1, 2, 3, 5, 6, 7, 10, 11]).flatmap(_space_like_bianchi))
def test_bianchi_norm_always_minus_one(mx):
    m, x = mx
    row = from_mcleod_bianchi(BianchiRoot(m, x))
    assert geometry.norm(row) == QNum(-1)


@given(
    st.sampled_from([1, 2, 3, 5, 7]).flatmap(
        lambda d: st.tuples(
            st.just(d),
            st.tuples(*([small_fractions] * 5)).filter(
                lambda x: -d * Fraction(x[0]) ** 2
                + sum(Fraction(c) ** 2 for c in x[1:]) > 0
            ),
        )
    )
)
def test_vinberg_norm_always_minus_one(dx):
    d, x = dx
    v = VinbergVector(d, x)
    assert geometry.norm(from_vinberg_form(v)) == QNum(-1)


@given(
    st.sampled_from([2, 3]),
    st.fractions(min_value="1/5", max_value=9, max_denominator=5).filter(lambda c: c > 0),
)
def test_scaling_invariance(m, c):
    base = BianchiRoot(m, (2, 0, 1, 1))
    scaled = BianchiRoot(m, tuple(c * v for v in base.x))
    assert from_mcleod_bianchi(base) == from_mcleod_bianchi(scaled)
    vb = VinbergVector(m, (1, 2, 1, 0))
    vs = VinbergVector(m, tuple(c * v for v in vb.x))
    assert from_vinberg_form(vb) == from_vinberg_form(vs)


def _polarization(m, x, y):
    # bilinear form with B(x, x) = f(x)
    b = -x[0] * y[1] - x[1] * y[0] + 2 * x[2] * y[2]
    if m % 4 == 3:
        b += x[2] * y[3] + x[3] * y[2] + Fraction(m + 1, 2) * x[3] * y[3]
    else:
        b += 2 * m * x[3] * y[3]
    return b


@given(
    st.sampled_from([1, 2, 3, 7, 10, 11]).flatmap(
        lambda m: st.tuples(_space_like_bianchi(m), _space_like_bianchi(m))
    )
)
def test_bianchi_inner_products_track_polarization(pair):
    (m, x), (_, y) = pair
    rx, ry = BianchiRoot(m, x), BianchiRoot(m, y)
    got = geometry.inner(from_mcleod_bianchi(rx), from_mcleod_bianchi(ry))
    # compare against the source bilinear form, normalization folded in
    want = -HALF * _polarization(m, rx.x, ry.x) \
        * _unit_scale(rx.form_value() / 2) * _unit_scale(ry.form_value() / 2)
    assert got == want


def test_unit_scale_rejects_nonpositive():
    with pytest.raises(ValueError, match="positive rational"):
        _unit_scale(Fraction(-2))


def test_convert_all_dispatch():
    items = [
        BianchiRoot(2, (2, 0, 0, -1)),
        VinbergVector(3, (0, 0, 0, 1)),
        BianchiRoot(1, (0, 0, 1, 0)),
    ]
    seq = convert_all(items)
    assert seq[0] == (R2, QNum(0), QNum(0), QNum(-1))
    assert seq[1] == (QNum(0), QNum(0), QNum(0), QNum(1))
    with pytest.raises(TypeError, match="BianchiRoot or VinbergVector"):
        convert_root((1, 0, 0, 0))


def test_builtin_patch_table():
    patches, notes = load_patch_table()
    assert patches[("F.2", "e4")] == (2, 0, 0, -1)
    assert patches[("F.3", "e4")] == (-1, 1, 0, 0)
    assert patches[("F.16", "e3")] == (0, 0, 0, 1)
    assert patches[("F.16", "e4")] == (33, 0, 0, 1)
    assert patches[("F.17", "e4")] == (39, 0, -1, 2)
    assert len(patches) == 5
    assert len(notes) == 2


def test_patch_table_rejects_duplicates(tmp_path):
    p = tmp_path / "patches.json"
    p.write_text(json.dumps({
        "patches": [
            {"table": "F.2", "vector": "e4", "x": ["1"] * 4},
            {"table": "F.2", "vector": "e4", "x": ["2"] * 4},
        ]
    }))
    with pytest.raises(ValueError, match="duplicate patch"):
        load_patch_table(p)


def test_read_root_file_applies_patches(tmp_path):
    p = tmp_path / "roots.json"
    p.write_text(json.dumps([
        # the printed row; the patch replaces it
        {"m": 2, "table": "F.2", "vector": "e4", "x": ["1", "0", "0", "-1"]},
        # same row without provenance: taken as-is
        {"m": 2, "x": ["1", "0", "0", "-1"]},
        {"m": 33, "table": "F.16", "vector": "e3", "x": ["0", "0", "1", "-2"]},
        {"d": 3, "x": ["0", "0", "0", "1"]},
    ]))
    roots = read_root_file(p)
    assert roots[0].x == (2, 0, 0, -1)
    assert roots[1].x == (1, 0, 0, -1)
    assert from_mcleod_bianchi(roots[0]) == (R2, QNum(0), QNum(0), QNum(-1))
    assert from_mcleod_bianchi(roots[1]) == (R2 * HALF, QNum(0), QNum(0), QNum(-1))
    # the fixed unit row converts to the coordinate line
    assert from_mcleod_bianchi(roots[2]) == (QNum(0), QNum(0), QNum(0), QNum(1))
    assert isinstance(roots[3], VinbergVector)


def test_read_root_file_validation(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"m": 2}))
    with pytest.raises(ValueError, match="JSON list"):
        read_root_file(p)
    p.write_text(json.dumps([{"m": 2, "d": 3, "x": ["0", "0", "1", "0"]}]))
    with pytest.raises(ValueError, match="entry 0"):
        read_root_file(p)
    p.write_text(json.dumps([{"x": ["0", "0", "1", "0"]}]))
    with pytest.raises(ValueError, match="exactly one"):
        read_root_file(p)
