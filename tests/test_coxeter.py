import itertools
import math
import random
from fractions import Fraction

import mpmath
import pytest
from mpmath import iv

from packinglab import coxeter
from packinglab.coxeter import Angle, Disjoint, Orthogonal, Tangent
from packinglab.exactnum import QNum, sqrt


def test_classify_orthogonal_tangent():
    assert coxeter.classify_entry(QNum(0)) == Orthogonal()
    assert coxeter.classify_entry(QNum(1)) == Tangent(sign=1)
    assert coxeter.classify_entry(QNum(-1)) == Tangent(sign=-1)


def test_classify_angles():
    assert coxeter.classify_entry(QNum("1/2")) == Angle(order=3, sign=1)
    assert coxeter.classify_entry(QNum("-1/2")) == Angle(order=3, sign=-1)
    assert coxeter.classify_entry(sqrt(2) / 2) == Angle(order=4, sign=1)
    assert coxeter.classify_entry(-sqrt(2) / 2) == Angle(order=4, sign=-1)
    assert coxeter.classify_entry(sqrt(3) / 2) == Angle(order=6, sign=1)
    assert coxeter.classify_entry((1 + sqrt(5)) / 4) == Angle(order=5, sign=1)
    assert coxeter.classify_entry((sqrt(6) + sqrt(2)) / 4) == Angle(order=12, sign=1)


def test_classify_disjoint_keeps_entry():
    k = coxeter.classify_entry(QNum(2))
    assert isinstance(k, Disjoint) and k.separation == 2
    k = coxeter.classify_entry(QNum("-3/2"))
    assert k.separation == Fraction(-3, 2)
    k = coxeter.classify_entry(sqrt(10) / 2)
    assert isinstance(k, Disjoint)


def test_classify_unmatched_raises():
    with pytest.raises(ValueError, match="unclassifiable"):
        coxeter.classify_entry(QNum("9/10"))
    # ~cos(pi/8) to 5 digits, and cos(pi/8) is not in the ring
    with pytest.raises(ValueError, match="unclassifiable"):
        coxeter.classify_entry(QNum("92388/100000"))


def test_classify_restores_interval_precision():
    saved = iv.prec
    iv.prec = 53
    try:
        with pytest.raises(ValueError, match="unclassifiable"):
            coxeter.classify_entry(sqrt(2) / 3)
        assert iv.prec == 53
    finally:
        iv.prec = saved


def test_classify_respects_max_order():
    g = (sqrt(6) + sqrt(2)) / 4
    assert coxeter.classify_entry(g, max_order=12) == Angle(order=12, sign=1)
    with pytest.raises(ValueError):
        coxeter.classify_entry(g, max_order=6)


def test_exact_cos_orders_are_those_with_exponent_two_unit_groups():
    # cos(pi/n) is a QNum iff (Z/2n)^x / {+-1} has exponent 2, i.e. every
    # unit a mod 2n has a^2 = +-1: the table must hold exactly those n
    def exponent_two(n):
        m = 2 * n
        return all(a * a % m in (1, m - 1) for a in range(1, m) if math.gcd(a, m) == 1)

    assert [n for n in range(3, 2001) if exponent_two(n)] == sorted(coxeter._EXACT_COS)


def test_exact_cos_values_match_mpmath():
    with mpmath.workdps(60):
        for n, c in coxeter._EXACT_COS.items():
            exact = mpmath.mpf(0)
            for k, q in c.terms:
                exact += mpmath.mpf(q.numerator) / q.denominator * mpmath.sqrt(k)
            assert mpmath.almosteq(exact, mpmath.cos(mpmath.pi / n), rel_eps=mpmath.mpf(10) ** -50)


def test_near_cosines_of_other_orders_are_unclassifiable():
    with pytest.raises(ValueError, match=r"unclassifiable .* n <= 60$"):
        coxeter.classify_entry(QNum("92388/100000"), max_order=60)
    # within 2**-300 of cos(pi/7), closer than any fixed working precision
    with mpmath.workprec(400):
        c = mpmath.cos(mpmath.pi / 7)
        near = Fraction(int(mpmath.nint(c * 2**310)), 2**310)
        assert abs(near.numerator / mpmath.mpf(near.denominator) - c) < mpmath.mpf(2) ** -300
    with pytest.raises(ValueError, match=r"unclassifiable .* n <= 60$"):
        coxeter.classify_entry(QNum(near), max_order=60)


# the 5x5 Gram of the doubled d=1 configuration, row order (2, 3.2, 1, 4, 3.4)
PACK13_GRAM = [
    [-1, 0, "1/2", 0, 1],
    [0, -1, "1/2", 1, 0],
    ["1/2", "1/2", -1, 0, 0],
    [0, 1, 0, -1, 0],
    [1, 0, 0, 0, -1],
]


def as_gram(rows):
    return tuple(tuple(QNum(x) for x in row) for row in rows)


def test_diagram_pack13():
    d = coxeter.diagram(as_gram(PACK13_GRAM))
    assert d.nodes == 5
    assert d.kind(0, 2) == Angle(order=3, sign=1)
    assert d.kind(1, 2) == Angle(order=3, sign=1)
    assert d.kind(1, 3) == Tangent(sign=1)
    assert d.kind(0, 4) == Tangent(sign=1)
    others = [
        (i, j)
        for i, j in itertools.combinations(range(5), 2)
        if (i, j) not in [(0, 2), (1, 2), (1, 3), (0, 4)]
    ]
    assert all(d.kind(i, j) == Orthogonal() for i, j in others)


def test_diagram_reports_bad_cell():
    g = as_gram([[-1, "9/10"], ["9/10", -1]])
    with pytest.raises(ValueError, match=r"\(0, 1\)"):
        coxeter.diagram(g)


def test_diagram_trivial():
    assert coxeter.diagram(as_gram([[-1]])).edges == {}


def test_clusters_pack13():
    got = coxeter.enumerate_clusters(as_gram(PACK13_GRAM))
    assert got == [(3,), (4,)]  # rows labeled 4 and 3.4


def test_clusters_max_size():
    g = as_gram([[-1, 1, 1], [1, -1, 1], [1, 1, -1]])
    assert coxeter.enumerate_clusters(g, max_size=1) == [(0,), (1,), (2,)]
    assert len(coxeter.enumerate_clusters(g)) == 7


def test_validate_cluster_reports():
    g = as_gram(PACK13_GRAM)
    rep = coxeter.validate_cluster(g, [3])
    assert rep.verdict
    assert rep.cocluster == (0, 1, 2, 4)
    rep = coxeter.validate_cluster(g, [0])
    assert not rep.verdict
    bad = [c for c in rep.checks if not c[4]]
    assert any(c[1:3] == (0, 2) for c in bad)  # the pi/3 entry blocks it


def test_validate_all_vertices_invalid_with_angle():
    rep = coxeter.validate_cluster(as_gram(PACK13_GRAM), range(5))
    assert not rep.verdict


def test_enumerate_matches_literal_oracle():
    # brute force: filter every subset through validate_cluster
    rng = random.Random(99)
    entries = [QNum(0), QNum(1), QNum(-1), QNum(2), QNum("1/2"),
               -sqrt(2) / 2, sqrt(3) / 2, QNum(3)]
    for _ in range(30):
        m = rng.randint(2, 6)
        g = [[QNum(-1)] * m for _ in range(m)]
        for i in range(m):
            for j in range(i + 1, m):
                g[i][j] = g[j][i] = rng.choice(entries)
        g = tuple(tuple(r) for r in g)
        want = sorted(
            tuple(s)
            for k in range(1, m + 1)
            for s in itertools.combinations(range(m), k)
            if coxeter.validate_cluster(g, s).verdict
        )
        assert coxeter.enumerate_clusters(g) == want


def test_export_dot():
    d = coxeter.diagram(as_gram(PACK13_GRAM))
    text = coxeter.export_dot(d, labels=["2", "3.2", "1", "4", "3.4"])
    assert text.startswith("graph coxeter {")
    assert text.endswith("}\n")
    assert '  n1 [label="3.2"];' in text
    assert "n0 -- n2 [label=\"3\"];" in text
    assert "n1 -- n3 [style=bold];" in text
    assert text.count("--") == 4  # orthogonal pairs draw nothing
    assert coxeter.export_dot(d, labels=["2", "3.2", "1", "4", "3.4"]) == text


def test_export_dot_empty():
    d = coxeter.diagram(())
    assert coxeter.export_dot(d) == "graph coxeter {\n}\n"


def test_export_dot_disjoint_dashed():
    g = as_gram([[-1, 2], [2, -1]])
    text = coxeter.export_dot(coxeter.diagram(g))
    assert "n0 -- n1 [style=dashed];" in text
