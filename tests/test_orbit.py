import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from packinglab import catalog, orbit
from packinglab.exactnum import QNum, sqrt
from packinglab.geometry import (
    hyperplane,
    inner,
    interior_contains,
    is_wall,
    reflect,
    sphere,
)
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


def test_mirror_equal_to_circle_or_its_negation_is_skipped():
    flipped = tuple(-c for c in BI1[2])
    for cluster in ((BI1[2],), (flipped,)):
        got = generate_packing(cluster, (BI1[2],), OrbitLimits(max_generation=2))
        assert [c.vector for c in got.circles] == [cluster[0]]


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


@pytest.mark.parametrize("max_bend", [True, False, "10", 10.5, float("inf"), -1, Fraction(-1, 2), -R2, [10]])
def test_limits_reject_bad_max_bend(max_bend):
    with pytest.raises(ValueError, match="max_bend"):
        OrbitLimits(max_generation=3, max_bend=max_bend)


@pytest.mark.parametrize("max_bend", [None, 0, 20, Fraction(41, 2), 14 * R2])
def test_limits_accept_max_bend(max_bend):
    got = generate_packing(
        BI1_CLUSTER, BI1_COCLUSTER, OrbitLimits(max_generation=4, max_bend=max_bend)
    )
    if max_bend is not None:
        # the bound filters images, never the cluster
        assert all(abs(c.vector[1]) <= max_bend for c in got.circles if c.generation)


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


def qnum_orbit(cluster, mirrors, limits, mode):
    # the QNum loop the integer engine replaced, kept as its reference:
    # reflect with geometry.reflect, dedup on QNum tuples, compare bends
    # exactly, and try every mirror on every circle
    circles = [orbit.OrbitCircle(v, 0, str(i + 1)) for i, v in enumerate(cluster)]
    seen = set(c.vector for c in circles)
    mirror_data = [(idx, m, tuple(-c for c in m)) for idx, m in mirrors]
    frontier = circles[:]
    generation = 0
    while frontier and generation < limits.max_generation:
        generation += 1
        parents, frontier = frontier, []
        for parent in parents:
            v = parent.vector
            for idx, m, neg_m in mirror_data:
                if m == v or neg_m == v:
                    continue
                vec = reflect(v, m)
                if vec in seen:
                    continue
                if limits.max_bend is not None and abs(vec[1]) > limits.max_bend:
                    continue
                seen.add(vec)
                circ = orbit.OrbitCircle(vec, generation, "%d.%s" % (idx, parent.word))
                circles.append(circ)
                frontier.append(circ)
    return orbit.PackingOrbit(tuple(circles), limits, mode)


def listed_clusters():
    for entry_id in catalog.list_builtin():
        entry = catalog.get_builtin(entry_id)
        for cluster in entry.clusters or ():
            yield entry_id, cluster


@pytest.mark.parametrize("mode", ["packing", "superpacking"])
@pytest.mark.parametrize(
    "entry_id,labels",
    list(listed_clusters()),
    ids=lambda x: ",".join(x) if isinstance(x, tuple) else x,
)
def test_engine_matches_qnum_oracle(entry_id, labels, mode):
    config = catalog.get_builtin(entry_id).configuration
    cluster, cocluster, _, _ = config.split(labels)
    cluster, cocluster = tuple(cluster), tuple(cocluster)
    if mode == "packing":
        generate = generate_packing
        mirrors = [(len(cluster) + k + 1, m) for k, m in enumerate(cocluster)]
    else:
        generate = generate_superpacking
        mirrors = [(k + 1, m) for k, m in enumerate(cluster + cocluster)]
    depth = 3 if config.dim_n <= 4 else 2
    unbounded = OrbitLimits(max_generation=depth, max_bend=None)
    want = qnum_orbit(cluster, mirrors, unbounded, mode)
    assert generate(cluster, cocluster, unbounded) == want
    # a bound the orbit reaches: the circles that meet it exactly are kept
    reached = sorted((abs(b) for b in bends(want)), key=float)
    bounded = OrbitLimits(max_generation=depth, max_bend=reached[len(reached) // 2])
    want = qnum_orbit(cluster, mirrors, bounded, mode)
    assert generate(cluster, cocluster, bounded) == want


def test_compiled_reflection_matches_qnum():
    # every row of every builtin entry, reflected in every other row
    for entry_id in catalog.list_builtin():
        rows = catalog.get_builtin(entry_id).configuration.rows
        field = orbit._Field(rows)
        for j, m in enumerate(rows):
            plan = orbit._Mirror(field, j + 1, m)
            for v in rows:
                key = field.encode(v)
                assert field.decode(key) == v
                if v == m:
                    assert key == plan.key
                    continue
                image = reflect(v, m)
                assert plan.reflect(key) == field.encode(image)
                assert field.decode(plan.reflect(key)) == image


def bend_row(bend):
    return (QNum(0), bend, QNum(0), QNum(0))


def bend_test(bend, max_bend):
    field = orbit._Field([bend_row(bend)])
    bound = orbit._BendBound(field, max_bend)
    key = field.encode(bend_row(bend))
    return bound.screen(key), bound.exceeds(key)


def test_bend_screen_clear_cases():
    assert bend_test(QNum(20), 10) == (True, True)
    assert bend_test(QNum(-20), 10) == (True, True)
    assert bend_test(QNum(3), 10) == (False, False)
    assert bend_test(3 * R2 + QNum(Fraction(1, 3)), 5) == (False, False)
    assert bend_test(3 * R2 + QNum(Fraction(1, 3)), 4) == (True, True)
    assert bend_test(-3 * R2, 4) == (True, True)


def test_bend_screen_tie_takes_exact_path():
    # abs(bend) == max_bend is not above the bound: the float screen
    # cannot tell, so the exact comparison keeps the circle
    assert bend_test(QNum(10), 10) == (None, False)
    assert bend_test(QNum(-10), 10) == (None, False)
    assert bend_test(QNum(Fraction(7, 3)), Fraction(7, 3)) == (None, False)
    assert bend_test(3 * R2, 3 * R2) == (None, False)


def test_bend_screen_near_tie_is_exact():
    # (3 + 2 sqrt2)^k = p + q sqrt2, so 0 < p - q sqrt2 = 1/(p + q sqrt2).
    # At k = 12 that is ~3e-10, above the 64-bit enclosure's width of
    # q * 2**-64 ~ 3e-11, so the screen settles it; at k = 30 it is
    # ~1e-23, below 2**-64, and only the exact comparison can.
    tiny = (3 - 2 * R2) ** 12
    assert tiny.sign() > 0 and float(tiny) < 1e-9
    assert bend_test(5 + tiny, 5) == (True, True)
    assert bend_test(5 - tiny, 5) == (False, False)
    assert bend_test(-5 - tiny, 5) == (True, True)
    tiny = (3 - 2 * R2) ** 30
    assert 0 < tiny < Fraction(1, 2 ** 64)
    assert bend_test(5 + tiny, 5) == (None, True)
    assert bend_test(5 - tiny, 5) == (None, False)
    assert bend_test(-5 - tiny, 5) == (None, True)
    assert bend_test(-5 + tiny, 5) == (None, False)


def test_bend_screen_decides_past_float_range():
    huge = QNum(2 ** 1100)
    assert bend_test(huge, 10) == (True, True)
    assert bend_test(huge * R2 - huge, 10) == (True, True)
    # huge coefficients over a huge denominator: a small bend
    assert bend_test(QNum(Fraction(2 ** 1100 + 1, 2 ** 1100)), 10) == (False, False)
    assert bend_test(QNum(5), 10 ** 400) == (False, False)
    assert bend_test(QNum(10 ** 400 + 1), 10 ** 400) == (True, True)
    # ties past float range still reach the exact comparison
    assert bend_test(QNum(10 ** 400), 10 ** 400) == (None, False)
    assert bend_test(huge * R2, huge * R2) == (None, False)
    assert bend_test(huge * R2 + 1, huge * R2) == (None, True)


bend_coeffs = st.one_of(
    st.integers(-50, 50),
    st.integers(-(2 ** 1100), 2 ** 1100),
    st.builds(Fraction, st.integers(-(10 ** 30), 10 ** 30), st.integers(1, 10 ** 30)),
)


@settings(max_examples=300, deadline=None)
@given(
    st.dictionaries(st.sampled_from([1, 2, 5, 10]), bend_coeffs, max_size=4),
    st.one_of(
        st.integers(0, 100),
        st.builds(Fraction, st.integers(0, 10 ** 6), st.integers(1, 10 ** 3)),
        st.builds(lambda a, b: abs(QNum({1: a, 2: b})), bend_coeffs, bend_coeffs),
    ),
)
def test_bend_screen_agrees_with_exact_comparison(coeffs, max_bend):
    bend = QNum(coeffs)
    decided, exceeds = bend_test(bend, max_bend)
    assert exceeds == (abs(bend) > max_bend)
    assert decided in (None, exceeds)
    if abs(bend) == max_bend:
        assert decided is None


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


def test_tsv_parses_each_coordinate_text_once(monkeypatch):
    text = "0\t1\t(0,2,0,1)\n1\t2.1\t(2,2,2,1)\n1\t3.1\t(0,0,0,-1)\n"
    scanned = []
    scan = orbit._scan

    def counted(part):
        scanned.append(part)
        return scan(part)

    monkeypatch.setattr(orbit, "_scan", counted)
    circles = parse_tsv(text)
    assert scanned == ["0", "2", "1", "-1"]
    assert [c.vector for c in circles] == [qv(0, 2, 0, 1), qv(2, 2, 2, 1), qv(0, 0, 0, -1)]
    parse_tsv(text)
    assert len(scanned) == 8  # shared within one call only
    monkeypatch.undo()
    cfg = catalog.get_builtin("bi10-example").configuration
    inside, outside, _, _ = cfg.split(["1", "7"])
    got = generate_packing(inside, outside, OrbitLimits(max_generation=3))
    text = export_tsv(got)
    back = parse_tsv(text)
    assert back == got.circles
    assert export_tsv(orbit.PackingOrbit(back, got.limits, got.mode)) == text


# -- TSV against the decode-everything path ---------------------------
#
# export_tsv printed str of every decoded QNum, and parse_tsv built QNum
# rows from the text; both are kept here as the oracle for the key path.


def oracle_export(circles):
    lines = [
        "%d\t%s\t(%s)" % (c.generation, c.word, ",".join(str(q) for q in c.vector))
        for c in circles
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def oracle_parse(text):
    rows = []
    for line in text.splitlines():
        gen, word, coords = line.split("\t")
        rows.append((tuple(QNum(p) for p in coords[1:-1].split(",")), int(gen), word))
    return rows


@pytest.mark.parametrize(
    "entry_id, labels, generate, depth",
    [
        ("bi10-example", ["1", "7"], generate_packing, 4),
        ("bi10-example", ["3", "4", "7"], generate_superpacking, 3),
        ("d3n3", ["6"], generate_superpacking, 3),  # irrational bends
        ("d3n13", ["34"], generate_packing, 2),  # n = 12, 21 mirrors
        ("d1n3", ["4"], generate_packing, 4),
    ],
)
def test_tsv_matches_decode_everything_oracle(entry_id, labels, generate, depth):
    cfg = catalog.get_builtin(entry_id).configuration
    inside, outside, _, _ = cfg.split(labels)
    got = generate(inside, outside, OrbitLimits(max_generation=depth, max_bend=None))
    text = export_tsv(got)
    assert text == oracle_export(got.circles)
    back = parse_tsv(text)
    assert [(c.vector, c.generation, c.word) for c in back] == oracle_parse(text)
    assert len({id(c.field) for c in back}) == 1
    # circles built from vectors print the same way
    rebuilt = tuple(orbit.OrbitCircle(c.vector, c.generation, c.word) for c in back)
    assert export_tsv(orbit.PackingOrbit(rebuilt, got.limits, got.mode)) == text


def test_orbit_circles_decode_their_vectors_once():
    # a superpacking: generate_packing's disjointness sample reads vectors
    got = generate_superpacking(BI1_CLUSTER, BI1_COCLUSTER, OrbitLimits(max_generation=3))
    fields = {id(c.field) for c in got.circles}
    assert len(fields) == 1 and None not in {c.key for c in got.circles}
    c = got.circles[-1]
    assert c._vector is None  # nothing decoded yet
    v = c.vector
    assert c.vector is v and v == c.field.decode(c.key)
    plain = orbit.OrbitCircle(v, c.generation, c.word)
    assert plain.key is None and plain.field is None
    assert plain == c and c == plain and hash(plain) == hash(c)
    assert plain != orbit.OrbitCircle(v, c.generation + 1, c.word)
    assert repr(plain) == repr(c)


@pytest.mark.parametrize(
    "text, message",
    [
        ("0\t1\t(0,2,0,1)\n-1\t1\t(0,2,0,1)\n", "orbit line 2: generation must be a nonnegative integer, got '-1'"),
        ("0\t1\t(0,2,0,1)\n\nx\t1\t(0,2,0,1)\n", "orbit line 3: generation must be a nonnegative integer, got 'x'"),
        ("1.5\t1\t(0,2,0,1)\n", "orbit line 1: generation must be a nonnegative integer, got '1.5'"),
        ("0\t1\t(0,2,0,1)\n1\t2\t(0,2,1)\n", "orbit line 2: expected 4 coordinates, as on the first row, got 3"),
        ("0\t1\t(0,2)\n", "orbit line 1: an inversive vector needs at least 3 entries"),
        ("0\t1\t(0,2,0,1)\n0\t2\t(0,2,0,1/0)\n", "orbit line 2: QNum syntax error at position 2: zero denominator"),
        ("0\t1\t(0,2,0,sqrt(2)x)\n", "orbit line 1: QNum syntax error at position 7: expected '+' or '-', got 'x'"),
    ],
)
def test_tsv_errors_name_the_line(text, message):
    with pytest.raises(ValueError) as err:
        parse_tsv(text)
    assert str(err.value) == message


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


def unit_fraction(word):
    # 53 high bits as an exact dyadic fraction in [0, 1)
    return Fraction(word >> 11, 1 << 53)


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
                Fraction(lo) + Fraction(hi - lo) * unit_fraction(next(gen))
                for lo, hi in box
            )
            if all(interior_contains(r, point) for r in rows):
                hit = point
                break
        assert rep.verdict == (hit is None)
        assert rep.counterexample == hit


def empty_interior_oracle(rows, sample_count, seed, box):
    """The sampler with an exact Fraction point built for every sample
    and converted to float for the screen.  Returns the report and the
    (float point, exact point) of every sample drawn."""
    box = tuple((Fraction(lo), Fraction(hi)) for lo, hi in box)
    frows = [[float(q) for q in r] for r in rows]
    rng = orbit.splitmix64(seed)
    drawn = []
    exact_checks = 0
    for _ in range(sample_count):
        point = tuple(lo + (hi - lo) * unit_fraction(next(rng)) for lo, hi in box)
        fpoint = [float(x) for x in point]
        drawn.append((fpoint, point))
        candidate = True
        for fr in frows:
            bh, b = fr[0], fr[1]
            if b == 0.0:
                q = sum(c * x for c, x in zip(fr[2:], fpoint)) - 0.5 * bh
            else:
                d2 = sum((c - b * x) ** 2 for c, x in zip(fr[2:], fpoint))
                q = (1.0 - d2) * (1.0 if b > 0 else -1.0)
            if q < -1e-6:
                candidate = False
                break
        if not candidate:
            continue
        exact_checks += 1
        if all(interior_contains(r, point) for r in rows):
            report = orbit.EmptyInteriorReport(
                False, sample_count, seed, box, point, exact_checks
            )
            return report, drawn
    return orbit.EmptyInteriorReport(True, sample_count, seed, box, None, exact_checks), drawn


def assert_sampler_matches_oracle(rows, sample_count, seed, box):
    want, drawn = empty_interior_oracle(rows, sample_count, seed, box)
    got = verify_empty_interior(rows, sample_count, seed, box=box)
    # field by field: verdict, exact_checks, counterexample, box, ...
    assert got == want
    # the points themselves: floats bit for bit, exact points equal
    ratios = orbit._sample_ratios(want.box)
    rng = orbit.splitmix64(seed)
    for fpoint, point in drawn:
        words = [next(rng) >> 11 for _ in ratios]
        assert [x.hex() for x in orbit._float_point(ratios, words)] == [
            x.hex() for x in fpoint
        ]
        assert orbit._exact_point(ratios, words) == point
    return got


@pytest.mark.parametrize("seed,samples", [(0, 400), (-5, 400), (7, 2000)])
@pytest.mark.parametrize("entry_id", catalog.list_builtin())
def test_empty_interior_matches_fraction_oracle_on_builtins(entry_id, seed, samples):
    rows = catalog.get_builtin(entry_id).configuration.rows
    assert_sampler_matches_oracle(rows, samples, seed, orbit._derived_box(rows))


def test_empty_interior_oracle_covers_a_counterexample():
    # d1n3-base has an interior point at the CLI's seed: the exact point matters
    rows = catalog.get_builtin("d1n3-base").configuration.rows
    rep = assert_sampler_matches_oracle(rows, 2000, 7, orbit._derived_box(rows))
    assert not rep.verdict and rep.exact_checks == 1


UNIT_DISK = (sphere((QNum(0), QNum(0)), QNum(1)),)
LINES = (
    hyperplane((QNum(1), QNum(0)), 0),
    hyperplane((QNum(0), QNum(-1)), Fraction(1, 3)),
)


@pytest.mark.parametrize("rows", [UNIT_DISK, LINES], ids=["disk", "lines"])
@pytest.mark.parametrize(
    "box",
    [
        ((Fraction(-1, 3), Fraction(2, 7)), (Fraction(-5, 3), Fraction(1, 9))),
        ((-3, Fraction(-1, 7)), (Fraction(-22, 7), Fraction(-3, 11))),
        ((Fraction(1, 3), Fraction(-2, 5)), (2, Fraction(-7, 3))),
        ((Fraction(1, 3), Fraction(1, 3)), (Fraction(-1, 10), Fraction(1, 10))),
        ((Fraction(-10**40, 3), Fraction(10**40, 7)), (-1, 1)),
    ],
    ids=["non-dyadic", "negative", "reversed", "degenerate", "wide"],
)
@pytest.mark.parametrize("seed", [0, -1, 23])
def test_empty_interior_matches_fraction_oracle_on_boxes(rows, box, seed):
    assert_sampler_matches_oracle(rows, 300, seed, box)


@pytest.mark.parametrize(
    "box",
    [
        ((Fraction(10**400), Fraction(10**400 + 1)), (0, 1)),
        ((0, 1), (-(10**400), 0)),
    ],
)
def test_empty_interior_overflow_matches_fraction_oracle(box):
    with pytest.raises(OverflowError) as want:
        empty_interior_oracle(UNIT_DISK, 10, 0, box)
    with pytest.raises(OverflowError) as got:
        verify_empty_interior(UNIT_DISK, 10, 0, box=box)
    assert str(got.value) == str(want.value)
