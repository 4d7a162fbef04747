import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from packinglab import geometry, groupwords
from packinglab.exactnum import QNum, sqrt
from packinglab.geometry import reflection_matrix, sphere
from packinglab.groupwords import Configuration, double, eval_word, parse_word

R2 = sqrt(2)
R3 = sqrt(3)

# derived half-plane seed for the d=1 strip packing, order (1, 2, 3, 4)
BASE13 = (
    (-R2 / 2, R2 / 2, R2 / 2, QNum(0)),
    (QNum(0), QNum(0), -R2 / 2, R2 / 2),
    (QNum(0), QNum(0), QNum(0), QNum(1)),
    (R2, QNum(0), R2 / 2, R2 / 2),
)


def rand_wall(rng):
    cx = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    cy = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    r = QNum(Fraction(rng.randint(1, 9), rng.randint(1, 3)))
    if rng.random() < 0.3:
        r = r * R2
    return sphere((QNum(cx), QNum(cy)), r)


def test_parse_plain():
    w = parse_word("3.4")
    assert w.atoms == ((3, False), (4, False))
    assert parse_word("2.~1").atoms == ((2, False), (1, True))
    assert parse_word("12.3").atoms == ((12, False), (3, False))


def test_parse_group_expansion():
    assert parse_word("(1.2).3").atoms == tuple((i, False) for i in (1, 2, 1, 3))
    assert parse_word("((1.2).3).4").atoms == tuple(
        (i, False) for i in (1, 2, 1, 3, 1, 2, 1, 4)
    )
    # a trailing group is just a seed expression, not a conjugator
    assert parse_word("(1.2.3)").atoms == parse_word("1.2.3").atoms
    assert parse_word("1.(2.3)").atoms == parse_word("1.2.3").atoms


def test_parse_str_round_trip():
    for text in ["1", "~1", "3.2.~1", "10.2.3"]:
        assert str(parse_word(text)) == text


WORDS = st.recursive(
    st.integers(1, 12).map(str),
    lambda words: st.lists(words, min_size=1, max_size=3).map(".".join).map("({})".format),
    max_leaves=8,
)


@given(st.lists(WORDS, min_size=1, max_size=3).map(".".join))
def test_a_flattened_group_is_never_empty(inner):
    # a group in front of a seed unfolds to the palindrome w.reversed(w[:-1]),
    # w the group's own flattening, which has at least one atom
    w = parse_word(inner).atoms
    assert len(w) >= 1
    assert parse_word("(%s).1" % inner).atoms == w + w[:-1][::-1] + ((1, False),)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "empty"),
        ("0", "index 0"),
        ("1..2", "index"),
        ("~", "index"),
        ("(1.2", r"expected '\)'"),
        ("1)", "unexpected"),
        ("~(1.2).3", "parenthesized group"),
    ],
)
def test_parse_rejects(text, fragment):
    with pytest.raises(ValueError, match=fragment):
        parse_word(text)


def test_eval_involution_drops():
    rng = random.Random(4)
    rows = [rand_wall(rng) for _ in range(3)]
    assert eval_word("1.1.2", rows) == rows[1]
    assert eval_word("2.2.2.2.3", rows) == rows[2]


def test_eval_group_is_conjugation():
    rng = random.Random(5)
    rows = [rand_wall(rng) for _ in range(3)]
    assert eval_word("(1.2).3", rows) == eval_word("1.2.1.3", rows)


def test_eval_matches_reflection_conjugation():
    # the wall 1.2 acts by R1 R2 R1
    rng = random.Random(6)
    rows = [rand_wall(rng) for _ in range(2)]
    r1 = reflection_matrix(rows[0])
    r2 = reflection_matrix(rows[1])
    lhs = reflection_matrix(eval_word("1.2", rows))
    from packinglab._matrix import mat_mul

    assert lhs == mat_mul(mat_mul(r1, r2), r1)


def test_eval_reversal_sign():
    rng = random.Random(7)
    rows = [rand_wall(rng) for _ in range(2)]
    neg = tuple(-c for c in rows[0])
    assert eval_word("~1", rows) == neg
    assert eval_word("2.~1", rows) == tuple(-c for c in eval_word("2.1", rows))
    assert eval_word("~2.~1", rows) == eval_word("2.1", rows)


def test_eval_index_range():
    rng = random.Random(8)
    rows = [rand_wall(rng) for _ in range(2)]
    with pytest.raises(IndexError):
        eval_word("3", rows)


def test_configuration_validates():
    cfg = Configuration("base13", BASE13, ("1", "2", "3", "4"))
    assert cfg.dim_n == 2
    assert cfg.position("3") == 2
    assert cfg.row("4") == BASE13[3]
    assert cfg.gram() == geometry.gram(BASE13)
    with pytest.raises(KeyError):
        cfg.position("5")


def test_configuration_rejects_bad_rows():
    bad = (BASE13[0], (QNum(1), QNum(1), QNum(0), QNum(0)))
    with pytest.raises(ValueError, match="norm"):
        Configuration("x", bad, ("1", "2"))
    with pytest.raises(ValueError, match="label"):
        Configuration("x", BASE13[:2], ("1", "1"))
    with pytest.raises(ValueError, match="labels"):
        Configuration("x", BASE13[:2], ("1",))


BI3_BASE = (
    (-(QNum(3) + R3) / 2, (1 - R3) / 2, QNum(0), -(R3 + 1) / 2),
    (R3 + 1, QNum(0), QNum(0), QNum(1)),
    (QNum(0), QNum(1), QNum("1/2"), R3 / 2),
    (QNum(0), QNum(0), QNum(-1), QNum(0)),
)


def test_bi3_base_gram():
    g = geometry.gram(BI3_BASE)
    h = QNum("1/2")
    for i in range(4):
        for j in range(4):
            assert g[i][j] == g[j][i]
    assert g[0][1] == R3 / 2 and g[1][2] == h and g[2][3] == h
    assert g[0][2] == 0 and g[0][3] == 0 and g[1][3] == 0


def test_bi3_word_forms_agree():
    # three spellings of the same wall over the quadruple above
    a = eval_word("(((3.2).1).4).((3.2).1)", BI3_BASE)
    b = eval_word("3.2.3.1.3.2.3.4.3.2.3.~1", BI3_BASE)
    c = eval_word("(3.2.3.1).4.(3.2).~1", BI3_BASE)
    assert a == b == c


def test_double_strip_base():
    cfg = Configuration("base13", BASE13, ("1", "2", "3", "4"))
    out = double(cfg, 3)
    assert out.labels == ("1", "2", "4", "3.2", "3.4")
    assert out.rows[:2] == BASE13[:2]
    assert out.rows[2] == BASE13[3]
    assert out.rows[3] == (QNum(0), QNum(0), -R2 / 2, -R2 / 2)
    assert out.rows[4] == (R2, QNum(0), R2 / 2, -R2 / 2)
    assert "doubled about 3" in out.name


def test_double_dedups_fixed_rows():
    # row 1 meets the mirror orthogonally, so its image collapses away
    cfg = Configuration("base13", BASE13, ("1", "2", "3", "4"))
    out = double(cfg, 3)
    assert len(out.rows) == 5
    assert all(label != "3.1" for label in out.labels)


def test_double_parity_guard():
    cfg = Configuration("base13", BASE13, ("1", "2", "3", "4"))
    with pytest.raises(ValueError, match="odd"):
        double(cfg, 1)  # rows 1 and 2 meet at pi/3
    # rows 3 and 4 are orthogonal to mirror 1, so only 2 gains an image
    out = double(cfg, 1, enforce_parity=False)
    assert out.labels == ("2", "3", "4", "1.2")


def test_double_index_range():
    cfg = Configuration("base13", BASE13, ("1", "2", "3", "4"))
    with pytest.raises(ValueError):
        double(cfg, 0)
    with pytest.raises(ValueError):
        double(cfg, 5)
