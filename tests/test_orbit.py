import random
from fractions import Fraction

import pytest

from packinglab import orbit
from packinglab.exactnum import QNum, sqrt
from packinglab.geometry import hyperplane, inner, is_wall, reflect, sphere
from packinglab.orbit import (
    OrbitLimits,
    bends,
    export_tsv,
    generate_packing,
    generate_superpacking,
    orbit_stats,
    parse_tsv,
    verify_empty_interior,
)

R2 = sqrt(2)

# the strip-packing quadruple: two horizontal lines and two unit-diameter
# circles, all pairwise tangent
BI1 = (
    (QNum(0), QNum(0), QNum(0), QNum(-1)),
    (QNum(2), QNum(0), QNum(0), QNum(1)),
    (QNum(0), QNum(2), QNum(0), QNum(1)),
    (QNum(2), QNum(2), QNum(2), QNum(1)),
)
BI1_CLUSTER = (BI1[2],)
BI1_COCLUSTER = (BI1[0], BI1[1], BI1[3])


def qv(*coords):
    return tuple(QNum(c) for c in coords)


def test_single_step_images():
    got = generate_packing(BI1_CLUSTER, BI1_COCLUSTER, OrbitLimits(max_generation=1))
    vectors = [c.vector for c in got.circles]
    assert vectors[0] == BI1[2]
    assert set(vectors[1:]) == {qv(0, 2, 0, -1), qv(4, 2, 0, 3), qv(4, 6, 4, 3)}
    words = {c.word: c.vector for c in got.circles}
    assert words["2.1"] == qv(0, 2, 0, -1)
    assert words["3.1"] == qv(4, 2, 0, 3)
    assert words["4.1"] == qv(4, 6, 4, 3)


def test_empty_cocluster():
    got = generate_packing(BI1_CLUSTER, (), OrbitLimits(max_generation=3))
    assert [c.vector for c in got.circles] == [BI1[2]]


def test_all_norms_exact():
    got = generate_packing(BI1_CLUSTER, BI1_COCLUSTER, OrbitLimits(max_generation=3))
    assert all(is_wall(c.vector) for c in got.circles)


def test_generation_monotone():
    small = generate_packing(BI1_CLUSTER, BI1_COCLUSTER, OrbitLimits(max_generation=2))
    large = generate_packing(BI1_CLUSTER, BI1_COCLUSTER, OrbitLimits(max_generation=4))
    assert set(c.vector for c in small.circles) <= set(c.vector for c in large.circles)


def test_bend_limit_filters():
    got = generate_packing(
        BI1_CLUSTER, BI1_COCLUSTER, OrbitLimits(max_generation=4, max_bend=20)
    )
    assert all(abs(c.vector[1]) <= 20 for c in got.circles)


def test_limits_validation():
    with pytest.raises(ValueError, match="generation limit"):
        OrbitLimits(max_generation=None)
    with pytest.raises(ValueError, match="nonempty"):
        generate_packing((), BI1_COCLUSTER, OrbitLimits(max_generation=1))
    bad = (qv(1, 1, 0, 0),)
    with pytest.raises(ValueError, match="norm"):
        generate_packing(bad, (), OrbitLimits(max_generation=1))


def closure_oracle(cluster, mirrors, max_bend, rounds):
    # independent quadratic closure: reflect everything in everything,
    # a fixed number of rounds (a pure bend-bounded fixpoint need not
    # exist; two parallel mirror lines give bounded-bend translates at
    # every depth)
    seen = set(cluster)
    for _ in range(rounds):
        new = set()
        for v in seen:
            neg = tuple(-c for c in v)
            for m in mirrors:
                if m == v or m == neg:
                    continue
                img = reflect(v, m)
                if img not in seen and abs(img[1]) <= max_bend:
                    new.add(img)
        if not new:
            break
        seen |= new
    return seen


def test_matches_fixpoint_closure():
    for rounds in (2, 4):
        limits = OrbitLimits(max_generation=rounds, max_bend=20)
        got = generate_packing(BI1_CLUSTER, BI1_COCLUSTER, limits)
        want = closure_oracle(BI1_CLUSTER, BI1_COCLUSTER, 20, rounds=rounds)
        assert set(c.vector for c in got.circles) == want
        stats = orbit_stats(got)
        assert stats.circle_count == len(want)
        assert sum(stats.generation_counts) == len(want)


def test_disjoint_interiors_exact():
    got = generate_packing(BI1_CLUSTER, BI1_COCLUSTER, OrbitLimits(max_generation=3))
    circles = [c.vector for c in got.circles]
    for i in range(len(circles)):
        for j in range(i + 1, len(circles)):
            p = inner(circles[i], circles[j])
            assert p == 1 or (p - 1).sign() > 0


def test_disjoint_sample_check_raises():
    same = tuple(orbit.OrbitCircle(BI1[2], 0, str(k)) for k in range(1, 5))
    overlapping = orbit.PackingOrbit(same, OrbitLimits(), "packing")
    with pytest.raises(ValueError, match="overlapping interiors"):
        orbit._check_disjoint_sample(overlapping)


def test_superpacking_contains_packing():
    limits = OrbitLimits(max_generation=3)
    pack = generate_packing(BI1_CLUSTER, BI1_COCLUSTER, limits)
    sup = generate_superpacking(BI1_CLUSTER, BI1_COCLUSTER, limits)
    assert set(c.vector for c in pack.circles) <= set(c.vector for c in sup.circles)
    assert sup.mode == "superpacking" and pack.mode == "packing"


def test_superpacking_bends_integral():
    sup = generate_superpacking(BI1_CLUSTER, BI1_COCLUSTER, OrbitLimits(max_generation=3))
    assert len(sup.circles) > 20
    assert all(b.is_integer() for b in bends(sup))


def test_orthogonal_cluster_superpacking_equals_packing():
    # the extra mirror (the cluster circle itself) fixes the cluster circle
    cluster = (sphere((QNum(0), QNum(0)), QNum(1)),)
    mirrors = (
        hyperplane((QNum(1), QNum(0)), 0),
        hyperplane((QNum(0), QNum(1)), 0),
    )
    for m in mirrors:
        assert inner(cluster[0], m) == 0
    limits = OrbitLimits(max_generation=3)
    pack = generate_packing(cluster, mirrors, limits)
    sup = generate_superpacking(cluster, mirrors, limits)
    assert [c.vector for c in pack.circles] == [c.vector for c in sup.circles]
    assert len(pack.circles) == 1


def test_drawing_orbit_bends():
    # the whole quadruple reflected in the line x1 = 0; bend column keeps 0s
    mirror = hyperplane((QNum(-1), QNum(0)), 0)
    got = generate_packing(BI1, (mirror,), OrbitLimits(max_generation=1))
    assert {QNum(0), QNum(2)} <= set(bends(got))
    assert qv(2, 2, -2, 1) in [c.vector for c in got.circles]


def test_stats_empty_and_order():
    got = generate_packing(BI1_CLUSTER, BI1_COCLUSTER, OrbitLimits(max_generation=0))
    stats = orbit_stats(got)
    assert stats.generation_counts == (1,)
    assert stats.min_bend == stats.max_bend == 2
    empty = orbit.PackingOrbit((), OrbitLimits(max_generation=0), "packing")
    s = orbit_stats(empty)
    assert s.circle_count == 0 and s.generation_counts == ()
    assert s.min_bend is None and s.max_bend is None


def test_tsv_round_trip():
    got = generate_packing(BI1_CLUSTER, BI1_COCLUSTER, OrbitLimits(max_generation=2))
    text = export_tsv(got)
    lines = text.splitlines()
    assert lines[0] == "0\t1\t(0,2,0,1)"
    assert all(len(line.split("\t")) == 3 for line in lines)
    back = parse_tsv(text)
    assert back == got.circles
    assert parse_tsv("") == ()
    with pytest.raises(ValueError, match="tab"):
        parse_tsv("0\t1")


def test_tsv_irrational_coords():
    cluster = (sphere((QNum(0), QNum(0)), R2),)
    mirror = (hyperplane((QNum(1), QNum(0)), 2),)
    got = generate_packing(cluster, mirror, OrbitLimits(max_generation=1))
    back = parse_tsv(export_tsv(got))
    assert back == got.circles


def test_empty_interior_single_circle():
    cfg = (sphere((QNum(0), QNum(0)), QNum(1)),)
    rep = verify_empty_interior(cfg, 100, seed=7)
    assert not rep.verdict
    assert rep.counterexample is not None
    x, y = rep.counterexample
    assert x * x + y * y < 1


def test_empty_interior_tangent_pair():
    # two externally tangent circles share no interior point
    cfg = (
        sphere((QNum(-1), QNum(0)), QNum(1)),
        sphere((QNum(1), QNum(0)), QNum(1)),
    )
    rep = verify_empty_interior(cfg, 2000, seed=3)
    assert rep.verdict
    assert rep.counterexample is None


def test_empty_interior_reproducible():
    cfg = (sphere((QNum(0), QNum(0)), QNum(1)),)
    a = verify_empty_interior(cfg, 50, seed=11)
    b = verify_empty_interior(cfg, 50, seed=11)
    assert a == b
    c = verify_empty_interior(cfg, 50, seed=12)
    assert c.counterexample != a.counterexample


def test_empty_interior_supplied_box():
    cfg = (
        hyperplane((QNum(1), QNum(0)), 0),
        hyperplane((QNum(-1), QNum(0)), 1),
    )
    # interiors x > 0 and x < -1 cannot meet; lines force an explicit box
    rep = verify_empty_interior(cfg, 500, seed=1, box=((-2, 2), (-2, 2)))
    assert rep.verdict
    with pytest.raises(ValueError, match="box"):
        verify_empty_interior(cfg, 10, seed=1)


def test_empty_interior_prefilter_matches_exact():
    # the float screen must agree with a pure exact evaluation
    rng = random.Random(17)
    for _ in range(20):
        rows = []
        for _ in range(rng.randint(1, 4)):
            cx = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            cy = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            r = QNum(Fraction(rng.randint(1, 6), rng.randint(1, 3)))
            if rng.random() < 0.3:
                r = r * R2 / 2
            rows.append(sphere((QNum(cx), QNum(cy)), r))
        box = ((-5, 5), (-5, 5))
        rep = verify_empty_interior(rows, 300, seed=23, box=box)
        gen = orbit.splitmix64(23)
        hit = None
        for _ in range(300):
            point = tuple(
                Fraction(lo) + Fraction(hi - lo) * orbit._unit_fraction(next(gen))
                for lo, hi in box
            )
            from packinglab.geometry import interior_contains

            if all(interior_contains(r, point) for r in rows):
                hit = point
                break
        assert rep.verdict == (hit is None)
        assert rep.counterexample == hit
