import functools
import gc
import itertools
import math
import random
import runpy
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from packinglab import catalog, coxeter, orbit
from packinglab.exactnum import QNum, sqrt
from packinglab.geometry import (
    as_vector,
    form_functional,
    gram,
    hyperplane,
    inner,
    interior_contains,
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
    assert all(gram((c.vector,))[0][0] == -1 for c in got.circles)


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
    for generations in (None, True, False, -1, 2.0):
        with pytest.raises(ValueError, match="generation limit"):
            OrbitLimits(max_generation=generations)
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


def test_max_bend_keeps_what_is_reached_through_small_bends():
    # d3n13 {34}: the mirror 35 has bend (sqrt(2)-sqrt(6))/2 < 0, so bends
    # can fall from parent to child, and 8 of the 102 circles of |bend| <=
    # 20 within 3 generations are reached only through a larger bend
    entry = catalog.get_builtin("d3n13")
    cluster, cocluster, _, _ = entry.configuration.split(("34",))
    full = generate_packing(cluster, cocluster, OrbitLimits(max_generation=3, max_bend=None))
    small = {c.word: c for c in full.circles if abs(c.vector[1]) <= 20}
    assert len(small) == 102
    for generations in (3, 5):
        bounded = generate_packing(cluster, cocluster, OrbitLimits(generations, max_bend=20))
        kept = {c.vector for c in bounded.circles}
        missed = sorted(w for w, c in small.items() if c.vector not in kept)
        assert missed == sorted([
            "13.20.1", "13.16.13.1", "13.19.13.1", "13.19.16.1",
            "13.2.20.1", "13.7.20.1", "21.13.20.1", "13.19.22.1",
        ])
    assert str(small["13.20.1"].vector[1]) == "44*sqrt(2)-19*sqrt(6)"
    assert str(entry.configuration.rows[entry.configuration.position("35")][1]) == "1/2*sqrt(2)-1/2*sqrt(6)"


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
    # skips chained through commuting mirrors first appear at generation 3
    depth = 3
    unbounded = OrbitLimits(max_generation=depth, max_bend=None)
    want = qnum_orbit(cluster, mirrors, unbounded, mode)
    assert generate(cluster, cocluster, unbounded) == want
    # a bound the orbit reaches: the circles that meet it exactly are kept
    reached = sorted((abs(b) for b in bends(want)), key=float)
    bounded = OrbitLimits(max_generation=depth, max_bend=reached[len(reached) // 2])
    want = qnum_orbit(cluster, mirrors, bounded, mode)
    assert generate(cluster, cocluster, bounded) == want


def test_commuting_skip_keeps_images_of_bend_filtered_intermediates():
    # mirror 2 (a circle about the origin) is orthogonal to mirrors 3 and
    # 4, which meet at an angle that is not a right one.  2.1 is kept, so
    # 3.1 skips its image in mirror 2, r3 r2 of circle 1, which exceeds
    # the bound (bend -695/9).  For x = 4.3.1 the image of its parent 3.1
    # in mirror 2 is then not known to be in the orbit, and r2 x, kept as
    # 2.4.3.1, must be formed; a rule that counted skipped images as known
    # would drop it.
    cluster = (qv(-875, -3, 5, 51),)
    cocluster = (
        qv(5, "-1/5", 0, 0),
        qv("-25/6", "-1/6", -1, "-5/6"),
        qv("25/3", "1/3", 1, "5/3"),
    )
    mirrors = [(k + 2, m) for k, m in enumerate(cocluster)]
    limits = OrbitLimits(max_generation=3, max_bend=Fraction(665, 9))
    got = generate_packing(cluster, cocluster, limits)
    assert got == qnum_orbit(cluster, mirrors, limits, "packing")
    assert "3\t2.4.3.1\t(-9425/9,-665/9,-715/3,-1291/9)\n" in export_tsv(got)


PYTHAGOREAN = ((1, 0, 1), (0, 1, 1), (3, 4, 5), (4, 3, 5), (5, 12, 13), (12, 5, 13), (8, 15, 17))


def random_unit(rng):
    a, b, c = rng.choice(PYTHAGOREAN)
    return (Fraction(a * rng.choice((1, -1)), c), Fraction(b * rng.choice((1, -1)), c))


def random_commuting_mirrors(rng):
    """A circle mirror about the origin and two or three mirrors
    orthogonal to it, pairwise not orthogonal, in a random order."""
    radius = Fraction(rng.randint(1, 6), rng.randint(1, 3))
    circle = sphere((QNum(0), QNum(0)), QNum(radius * rng.choice((1, -1))))
    while True:
        others = []
        for _ in range(rng.randint(2, 3)):
            u = random_unit(rng)
            if rng.random() < 0.4:
                # a line through the origin
                others.append(hyperplane(tuple(QNum(c) for c in u), 0))
            else:
                # |c|^2 - r^2 = R^2 with |c| = R (t^2+1)/2t, r = R (t^2-1)/2t
                t = Fraction(rng.randint(3, 18), 2)
                far = radius * (t * t + 1) / (2 * t)
                r = radius * (t * t - 1) / (2 * t) * rng.choice((1, -1))
                others.append(sphere(tuple(QNum(far * c) for c in u), QNum(r)))
        if all(inner(a, b) != 0 for k, a in enumerate(others) for b in others[:k]):
            break
    assert all(inner(circle, m) == 0 for m in others)
    rows = others + [circle]
    rng.shuffle(rows)
    return rows


def random_circle(rng):
    center = tuple(QNum(Fraction(rng.randint(-20, 20), rng.randint(1, 4))) for _ in range(2))
    radius = Fraction(rng.randint(1, 12), rng.randint(1, 40)) * rng.choice((1, 1, -1))
    return sphere(center, QNum(radius))


def test_commuting_skip_matches_qnum_oracle_on_random_mirrors():
    rng = random.Random(20190308)
    for _ in range(40):
        rows = random_commuting_mirrors(rng)
        mirrors = [(k + 2, m) for k, m in enumerate(rows)]
        cluster = tuple(random_circle(rng) for _ in range(rng.randint(1, 2)))
        unbounded = OrbitLimits(max_generation=4, max_bend=None)
        want = qnum_orbit(cluster, mirrors, unbounded, "packing")
        products = gram(rows)
        assert orbit._generate(cluster, unbounded, mirrors, products, "packing") == want
        # bounds at bends the orbit reaches (exact ties) and a random one
        reached = sorted(set(abs(b) for b in bends(want) if b), key=float)
        for max_bend in (rng.choice(reached), rng.choice(reached), rng.randint(0, 40)):
            limits = OrbitLimits(max_generation=4, max_bend=max_bend)
            want = qnum_orbit(cluster, mirrors, limits, "packing")
            assert orbit._generate(cluster, limits, mirrors, products, "packing") == want


def benchmark_counts():
    # the circles per generation that the benchmark pins for its pack workloads
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    workloads = runpy.run_path(str(path))
    return workloads["PACK_PLANAR_COUNTS"], workloads["PACK_WIDE_COUNTS"]


def table_reflect(field, mirror, key):
    # the reflection of key in the encoded row mirror = y / E, built apart
    # from orbit._Mirror's divided tables: E^2 x plus each functional t_c of
    # geometry.form_functional times the coefficients of sqrt(r_c) * y
    # (field.multiply, on the basis product table), then the gcd
    d = field.d
    y, den = mirror[:-1], mirror[-1]
    out = [a * den * den for a in key]
    for c, functional in enumerate(form_functional(field, mirror)):
        t = sum(key[s] * w for s, w in functional)
        unit = [int(b == c) for b in range(d)]
        for k in range(0, len(y), d):
            for e, w in enumerate(field.multiply(unit, y[k:k + d])):
                out[k + e] += t * w
    g = math.gcd(*out)
    return tuple(a // g for a in out)


def commuting_oracle(plans):
    # the orthogonality test the mirrors' Gram replaced, kept as its
    # reference: mirror j < i is orthogonal to mirror i when every
    # functional of mirror i vanishes on mirror j's key
    return [
        frozenset(
            j for j, other in enumerate(plans[:i])
            if not any(sum([other.key[s] * w for s, w in f]) for f, _ in plan.terms)
        )
        for i, plan in enumerate(plans)
    ]


def test_gram_zeros_are_the_orthogonal_mirror_pairs():
    # every row of every builtin entry taken as a mirror (714 pairs): the
    # Gram's zero entries below the diagonal are the pairs the functionals
    # find orthogonal
    pairs = 0
    for entry_id in catalog.list_builtin():
        rows = catalog.get_builtin(entry_id).configuration.rows
        field = orbit._Field(rows)
        plans = [orbit._Mirror(field, j + 1, m) for j, m in enumerate(rows)]
        products = gram(rows)
        zeros = [frozenset(j for j in range(i) if not products[i][j]) for i in range(len(rows))]
        assert commuting_oracle(plans) == zeros, entry_id
        pairs += len(rows) * (len(rows) - 1) // 2
    assert pairs == 714


def test_flat_mirror_is_read_off_the_bend_slots():
    # every row of every builtin entry (126 rows): no column of its tables
    # reaches the bend slots [d, 2d) exactly when its key's bend slots are
    # all 0, which is when its bend is 0
    count = 0
    for entry_id in catalog.list_builtin():
        rows = catalog.get_builtin(entry_id).configuration.rows
        field = orbit._Field(rows)
        d = field.d
        for m in rows:
            plan = orbit._Mirror(field, 1, m)
            reaches = any(d <= s < 2 * d for _, column in plan.terms for s, _ in column)
            assert plan.flat == (not reaches) == (m[1] == 0)
            count += 1
    assert count == 126


def reached_slots(cluster, mirrors):
    # orbit._reached over the field and plans _generate builds
    field = orbit._Field(tuple(cluster) + tuple(mirrors))
    plans = [orbit._Mirror(field, k + 1, m) for k, m in enumerate(mirrors)]
    return field, orbit._reached([field.encode(v) for v in cluster], plans)


def enumerated_clusters():
    for entry_id in catalog.list_builtin():
        config = catalog.get_builtin(entry_id).configuration
        for subset in coxeter.enumerate_clusters(config.gram()):
            yield entry_id, tuple(config.labels[i] for i in subset)


def test_orbit_keys_are_zero_off_the_reached_slots():
    # every enumerated cluster of every builtin (116) as a packing and as a
    # superpacking, 2 generations without a bend bound: each circle of the
    # QNum oracle, encoded over the full field, is 0 at every slot
    # _reached leaves out, and the engine, which runs on the cut keys,
    # gives the oracle's orbit
    limits = OrbitLimits(max_generation=2, max_bend=None)
    runs = 0
    for entry_id, labels in enumerated_clusters():
        cluster, cocluster, _, _ = catalog.get_builtin(entry_id).configuration.split(labels)
        cluster, cocluster = tuple(cluster), tuple(cocluster)
        for generate, mirrors, first in (
            (generate_packing, cocluster, len(cluster) + 1),
            (generate_superpacking, cluster + cocluster, 1),
        ):
            try:
                got = generate(cluster, cocluster, limits)
            except ValueError as e:
                assert generate is generate_packing and str(e).startswith("not a cluster: ")
                continue
            field, slots = reached_slots(cluster, mirrors)
            off = [s for s in range(len(field.encode(cluster[0]))) if s not in slots]
            numbered = [(first + k, m) for k, m in enumerate(mirrors)]
            want = qnum_orbit(cluster, numbered, limits, got.mode)
            for circle in want.circles:
                key = field.encode(circle.vector)
                assert not any(key[s] for s in off), (entry_id, labels, circle.word)
            assert got == want
            runs += 1
    assert runs == 232


@pytest.mark.parametrize(
    "entry_id,labels,reached,slots",
    [
        ("d3n13", ("34",), 28, 56),
        ("bi10-example", ("1", "7"), 4, 16),
        ("d3n11", ("23",), 24, 48),
        ("d3n5", ("7",), 12, 24),
        ("d3n3", ("6",), 4, 16),
        ("d1n3", ("4",), 4, 8),
        ("bi1-cluster3", ("3",), 4, 4),
    ],
)
def test_reached_slot_counts(entry_id, labels, reached, slots):
    # the slots besides the den that a packing's loop runs on, of the
    # (n+2)*d of a full key; d3n13 {34}'s orbit fills only 16 of its 28
    cluster, cocluster, _, _ = catalog.get_builtin(entry_id).configuration.split(labels)
    field, got = reached_slots(cluster, cocluster)
    width = len(field.encode(cluster[0]))
    assert (len(got) - 1, width - 1) == (reached, slots)
    assert got == sorted(got) and got[-1] == width - 1


def test_an_orbit_with_no_bend_slot_reached_is_not_screened():
    # the line x = 0 under the unit circle about the origin and the line
    # y = 0, both orthogonal to it: neither functional reads the line's
    # one nonzero slot, so no bend slot is reached, every orbit bend is 0
    # and no kernel may screen (one that did would test an empty bend);
    # the orbit is the one line
    cluster = (qv(0, 0, 1, 0),)
    cocluster = (qv(-1, 1, 0, 0), qv(0, 0, 0, 1))
    field, slots = reached_slots(cluster, cocluster)
    assert slots == [2 * field.d, len(field.encode(cluster[0])) - 1]
    for max_bend in (None, 0, 5, R2):
        limits = OrbitLimits(max_generation=3, max_bend=max_bend)
        for generate in (generate_packing, generate_superpacking):
            assert export_tsv(generate(cluster, cocluster, limits)) == "0\t1\t(0,0,1,0)\n"


@pytest.mark.parametrize(
    "entry_id,labels,generations,which,reflections",
    [
        # 29,420 and 11,901 reflections when every commuting pair is tried
        ("bi10-example", ("1", "7"), 7, 0, 25_221),
        ("d3n13", ("34",), 4, 1, 6_640),
    ],
)
def test_commuting_skip_reflection_counts(monkeypatch, entry_id, labels, generations, which, reflections):
    # kernel calls, and those the bend bound settles before building the
    # image: pack-wide's bends never reach 10,000
    settled_before_image = {"bi10-example": 9_726, "d3n13": 0}[entry_id]
    calls, settled = [0], [0]
    kernels = orbit._kernels

    def counted(plans, slots, bound):
        def count(kernel):
            def call(key):
                image = kernel(key)
                calls[0] += 1
                settled[0] += image is None
                return image
            return call
        return [count(kernel) for kernel in kernels(plans, slots, bound)]

    monkeypatch.setattr(orbit, "_kernels", counted)
    cluster, cocluster, _, _ = catalog.get_builtin(entry_id).configuration.split(labels)
    got = generate_packing(cluster, cocluster, OrbitLimits(max_generation=generations))
    assert calls[0] == reflections
    assert settled[0] == settled_before_image
    assert calls[0] - settled[0] == {"bi10-example": 15_495, "d3n13": 6_640}[entry_id]
    assert orbit_stats(got).generation_counts == benchmark_counts()[which]


def test_compiled_reflection_matches_qnum():
    # every row of every builtin entry, reflected in every row by its
    # kernel, against geometry.reflect and the table-driven reflection
    for entry_id in catalog.list_builtin():
        rows = catalog.get_builtin(entry_id).configuration.rows
        field = orbit._Field(rows)
        plans = [orbit._Mirror(field, j + 1, m) for j, m in enumerate(rows)]
        kernels = orbit._kernels(plans, range(len(plans[0].key)), None)
        for plan, kernel, m in zip(plans, kernels, rows):
            assert field.decode(plan.key) == m
            for v in rows:
                key = field.encode(v)
                image = reflect(v, m)
                assert kernel(key) == table_reflect(field, plan.key, key) == field.encode(image)
                assert field.decode(kernel(key)) == image


@functools.cache
def builtin_kernels(entry_id):
    # (field, plans, unscreened kernels over full keys) of every row of a
    # builtin entry
    rows = catalog.get_builtin(entry_id).configuration.rows
    field = orbit._Field(rows)
    plans = [orbit._Mirror(field, j + 1, m) for j, m in enumerate(rows)]
    return field, plans, orbit._kernels(plans, range(len(plans[0].key)), None)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_kernels_match_the_undivided_reflection_on_random_keys(data):
    # any reduced integer key, not only a wall's, reflected in every row of
    # a builtin entry: each kernel gives the E^2-then-gcd image, and where
    # the divided tables left a = 1 (no gcd in the kernel) the kernel is an
    # integral involution that keeps the key reduced
    entry_id = data.draw(st.sampled_from(catalog.list_builtin()))
    field, plans, kernels = builtin_kernels(entry_id)
    width = len(plans[0].key)
    coeffs = data.draw(st.lists(st.integers(-10**6, 10**6), min_size=width - 1, max_size=width - 1))
    key = tuple(coeffs) + (data.draw(st.integers(1, 10**4)),)
    g = math.gcd(*key)
    key = tuple(a // g for a in key)
    for plan, kernel in zip(plans, kernels):
        image = kernel(key)
        assert image == table_reflect(field, plan.key, key)
        if plan.scale == 1:
            assert image[-1] == key[-1] and math.gcd(*image) == 1
            assert kernel(image) == key


def test_kernel_branches_on_the_builtins():
    # the rows whose divided tables leave a = 1 return their image without
    # a gcd; d3n13 keeps rows of both kinds, so both branches stay tested
    kinds = {}
    for entry_id in catalog.list_builtin():
        field, plans, _ = builtin_kernels(entry_id)
        for plan in plans:
            source = plan.source("kernel", range(len(plan.key)), None)
            assert ("gcd" in source) == (plan.scale != 1)
        kinds[entry_id] = sorted((plan.scale, plan.key[-1]) for plan in plans)
    # every bi10-example row has E = 1
    assert kinds["bi10-example"] == [(1, 1)] * 9
    # d3n13: 15 rows with a = 1, 13 of them of E = 2, and 7 with a = 2
    assert kinds["d3n13"] == [(1, 1)] * 2 + [(1, 2)] * 13 + [(2, 2)] * 7


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_kernel_settles_the_bound_as_the_full_image_would(data):
    # a builtin row reflected in a builtin row, against bounds at the
    # image's own bend (an exact tie), a (3 - 2 sqrt2)^30 step either side
    # of it (only the exact comparison can tell), a (3 - 2 sqrt2)^13 step,
    # irrational and below 2**-32, either side of it (at the edge of the
    # kernel's inline test) and a random integer: the kernel gives None
    # exactly when exceeds holds on the full image, and a flat mirror's
    # kernel never does
    entry_id = data.draw(st.sampled_from(catalog.list_builtin()))
    rows = catalog.get_builtin(entry_id).configuration.rows
    m, v = data.draw(st.sampled_from(rows)), data.draw(st.sampled_from(rows))
    field = orbit._Field(rows)
    plan = orbit._Mirror(field, 1, m)
    key = field.encode(v)
    full = table_reflect(field, plan.key, key)
    d = field.d
    bend = abs(field.number(full[d:2 * d], full[-1]))
    tiny, near = (3 - 2 * R2) ** 30, (3 - 2 * R2) ** 13
    assert 0 < near < Fraction(1, 2 ** 32)
    bounds = [bend, bend + tiny, bend + near, data.draw(st.integers(0, 100))]
    if bend:
        bounds += [bend - tiny, bend - near]
    for max_bend in bounds:
        bound = orbit._BendBound(field, max_bend, range(d, 2 * d))
        (kernel,) = orbit._kernels([plan], range(len(key)), bound)
        past = bound.exceeds(full[d:2 * d], full[-1])
        assert past == (bend > max_bend)
        if plan.flat:
            assert field.number(full[d:2 * d], full[-1]) == v[1]
            assert kernel(key) == full
        else:
            assert kernel(key) == (None if past else full)
    assert plan.flat == (m[1] == 0)


def test_orbit_is_freed_without_the_cycle_collector():
    # the kernels hold the bound and so the field; no reference cycle may
    # keep them alive once the orbit is dropped
    config = catalog.get_builtin("bi10-example").configuration
    cluster, cocluster, _, _ = config.split(("1", "7"))
    enabled = gc.isenabled()
    gc.disable()
    try:
        got = generate_packing(cluster, cocluster, OrbitLimits(max_generation=2, max_bend=5))
        field = weakref.ref(got.circles[0].field)
        del got
        assert field() is None
    finally:
        if enabled:
            gc.enable()


def test_bound_below_a_cluster_circles_bend_matches_qnum_oracle():
    # bi10-example {1,7}: circle 7 has bend 6, past max_bend 5, so its
    # flat mirrors are skipped as missed and the rest are screened
    config = catalog.get_builtin("bi10-example").configuration
    cluster, cocluster, _, _ = config.split(("1", "7"))
    cluster, cocluster = tuple(cluster), tuple(cocluster)
    assert cluster[1][1] == 6
    limits = OrbitLimits(max_generation=4, max_bend=5)
    for generate, mirrors in (
        (generate_packing, [(k + 3, m) for k, m in enumerate(cocluster)]),
        (generate_superpacking, [(k + 1, m) for k, m in enumerate(cluster + cocluster)]),
    ):
        want = qnum_orbit(cluster, mirrors, limits, "")
        got = generate(cluster, cocluster, limits)
        assert got.circles == want.circles
        assert got.circles[1].vector == cluster[1] and len(got) > 2


def bend_row(bend):
    return (QNum(0), bend, QNum(0), QNum(0))


def bend_test(bend, max_bend):
    field = orbit._Field([bend_row(bend)])
    bound = orbit._BendBound(field, max_bend, range(field.d, 2 * field.d))
    key = field.encode(bend_row(bend))
    coeffs, den = key[field.d:2 * field.d], key[-1]
    return bound.screen(coeffs, den), bound.exceeds(coeffs, den)


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


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_inline_bound_test_is_sufficient(data):
    # the kernels' inline test sum_k U_k |v_k| <= L D on any nonempty set
    # of bend slots of Q(sqrt2, sqrt5): U_k is ceil(sqrt(r_k) * 2**32),
    # L <= max_bend * 2**32 (the floor for a rational bound), and where
    # the test holds abs(bend) <= max_bend.  The bounds are the bend itself
    # (an exact tie), a (3 - 2 sqrt2)^13 step either side of it (irrational
    # and below 2**-32) and a random Fraction
    field = orbit._Field.over([2, 5])
    d = field.d
    slots = data.draw(st.lists(st.sampled_from(range(d, 2 * d)), min_size=1, unique=True))
    slots.sort()
    coeffs = [data.draw(st.integers(-10 ** 6, 10 ** 6)) for _ in slots]
    den = data.draw(st.integers(1, 10 ** 4))
    full = [0] * d
    for s, c in zip(slots, coeffs):
        full[s - d] = c
    bend = abs(field.number(tuple(full), den))
    near = (3 - 2 * R2) ** 13
    bounds = [bend, bend + near, data.draw(st.fractions(0, 10 ** 3))]
    if bend > near:
        bounds.append(bend - near)
    for max_bend in bounds:
        bound = orbit._BendBound(field, max_bend, slots)
        assert bound.radicands == tuple(field.radicands[s - d] for s in slots)
        for k, u in zip(bound.radicands, bound.units):
            assert (u - 1) ** 2 < k << 64 <= u ** 2
        assert bound.limit <= max_bend * 2 ** 32
        q = QNum(max_bend)
        if q.is_rational():
            assert bound.limit == math.floor(q.as_fraction() * 2 ** 32)
        inline = sum(u * abs(c) for u, c in zip(bound.units, coeffs)) <= bound.limit * den
        if inline:
            assert not bend > max_bend
        assert bound.exceeds(coeffs, den) == (bend > max_bend)


def test_disjoint_interiors_exact():
    got = generate_packing(BI1_CLUSTER, BI1_COCLUSTER, OrbitLimits(max_generation=3))
    circles = [c.vector for c in got.circles]
    for i in range(len(circles)):
        for j in range(i + 1, len(circles)):
            p = inner(circles[i], circles[j])
            assert p == 1 or (p - 1).sign() > 0


PLANAR = ("bi1-cluster3", "bi10-example", "bi17-cluster48", "d1n3", "d1n3-base", "d3n3")


def test_planar_entries_are_the_2d_builtins():
    planar = [e for e in catalog.list_builtin() if catalog.get_builtin(e).configuration.dim_n == 2]
    assert tuple(planar) == PLANAR


@pytest.mark.parametrize("entry_id", PLANAR)
def test_generate_packing_refuses_exactly_the_non_clusters(entry_id):
    # every subset of at most 3 walls, at 0 generations: the subsets
    # enumerate_clusters lists give their own rows, and every other one
    # is refused before any orbit is generated
    config = catalog.get_builtin(entry_id).configuration
    listed = set(coxeter.enumerate_clusters(config.gram(), max_size=3))
    limits = OrbitLimits(max_generation=0)
    for size in (1, 2, 3):
        for subset in itertools.combinations(range(len(config.rows)), size):
            cluster, cocluster, _, _ = config.split([config.labels[i] for i in subset])
            if subset in listed:
                got = generate_packing(cluster, cocluster, limits)
                assert [c.vector for c in got.circles] == cluster
            else:
                with pytest.raises(ValueError, match="^not a cluster: rows "):
                    generate_packing(cluster, cocluster, limits)


def test_non_cluster_error_names_the_rule_and_the_row_pair():
    # bi10-example {2}: wall 2 meets cocluster wall 5 at pi/3, and wall 5
    # is row 5 of cluster + cocluster; {1,3} has an orthogonal pair inside
    config = catalog.get_builtin("bi10-example").configuration
    cases = {
        ("2",): "rows 1 and 5 of cluster + cocluster fail separated-or-orthogonal "
        "(Gram entry 1/2)",
        ("1", "3"): "rows 1 and 2 of cluster + cocluster fail pairwise-thick (Gram entry 0)",
    }
    for labels, message in cases.items():
        cluster, cocluster, _, _ = config.split(labels)
        with pytest.raises(ValueError) as info:
            generate_packing(cluster, cocluster, OrbitLimits(max_generation=4))
        assert str(info.value) == "not a cluster: " + message


def test_row_errors_come_before_the_cluster_proof():
    # the unit circle and a line through its center are orthogonal, so no
    # cluster; a row that is not a wall, then an empty cluster, are still
    # reported first, as before the proof
    pair = (sphere((0, 0), 1), hyperplane((1, 0), 0))
    limits = OrbitLimits(max_generation=1)
    with pytest.raises(ValueError, match="^cocluster row 1 does not have norm -1$"):
        generate_packing(pair, (qv(1, 1, 0, 0),), limits)
    with pytest.raises(ValueError, match="^cluster must be nonempty$"):
        generate_packing((), pair, limits)
    with pytest.raises(ValueError, match=r"^not a cluster: rows 1 and 2 .* \(Gram entry 0\)$"):
        generate_packing(pair, (), limits)


def test_nested_cluster_walls_are_refused():
    # two concentric circles (radii 1 and 3) and a line through their
    # centre: the discs are nested, so the Gram entry of the pair is -5/3,
    # past 1 in size but not in sign, and the pair is no cluster
    nested = (sphere((0, 0), 1), sphere((0, 0), 3), hyperplane((1, 0), 0))
    assert gram(nested)[0][1] == QNum(Fraction(-5, 3))
    with pytest.raises(ValueError) as info:
        generate_packing(nested[:2], nested[2:], OrbitLimits(max_generation=1))
    assert str(info.value) == (
        "not a cluster: rows 1 and 2 of cluster + cocluster fail pairwise-thick "
        "(Gram entry -5/3)"
    )


def test_repeated_rows_are_refused_naming_both():
    # a wall given twice in the cluster or twice in the cocluster, by both
    # generators; a row and its negation are two walls, and a cluster row
    # that is also a mirror is allowed (a test above skips it)
    config = catalog.get_builtin("bi10-example").configuration
    cluster, cocluster, _, _ = config.split(("1", "7"))
    limits = OrbitLimits(max_generation=2)
    cases = {
        "rows 1 and 2": ([cluster[0], cluster[0]], cocluster),
        "rows 4 and 7": (cluster, cocluster[:4] + [cocluster[1]]),
    }
    for generate in (generate_packing, generate_superpacking):
        for rows, (c, co) in cases.items():
            with pytest.raises(ValueError) as info:
                generate(c, co, limits)
            assert str(info.value) == rows + " of cluster + cocluster are the same wall"
    pair = (BI1[2], tuple(-q for q in BI1[2]))
    got = generate_superpacking(pair, BI1_COCLUSTER, limits)
    assert [c.vector for c in got.circles[:2]] == list(pair)


def test_rows_of_different_lengths_are_refused():
    # a circle (4 entries) and a plane (5 entries), by both generators
    circle, plane = sphere((0, 0), 1), hyperplane((1, 0, 0), 0)
    limits = OrbitLimits(max_generation=2)
    for generate in (generate_packing, generate_superpacking):
        for cluster, cocluster, message in (
            ((circle,), (plane,), "dimension mismatch: 4 vs 5"),
            ((plane,), (circle,), "dimension mismatch: 5 vs 4"),
            ((circle, plane), (), "dimension mismatch: 4 vs 5"),
        ):
            with pytest.raises(ValueError, match="^%s$" % message):
                generate(cluster, cocluster, limits)


def test_several_faults_report_the_first_in_one_order():
    # an empty cluster, then mixed widths (gram's text), then a row that
    # is not a wall, then a repeated row: each input below drops the
    # first fault of the one before it
    circle, plane, bad = sphere((0, 0), 1), hyperplane((1, 0, 0), 0), qv(1, 1, 0, 0)
    limits = OrbitLimits(max_generation=1)
    cases = (
        ((), (circle, plane, bad, bad), "cluster must be nonempty"),
        ((circle, circle), (plane, bad), "dimension mismatch: 4 vs 5"),
        ((circle, circle), (bad,), "cocluster row 1 does not have norm -1"),
        ((circle, circle, bad), (), "cluster row 3 does not have norm -1"),
        ((circle, circle), (), "rows 1 and 2 of cluster + cocluster are the same wall"),
    )
    for generate in (generate_packing, generate_superpacking):
        for cluster, cocluster, message in cases:
            with pytest.raises(ValueError) as info:
                generate(cluster, cocluster, limits)
            assert str(info.value) == message


@pytest.mark.parametrize("entry_id", catalog.list_builtin())
def test_cluster_orbits_have_disjoint_interiors(entry_id):
    # exact, all pairs: on the 2-generation orbit of every cluster that
    # enumerate_clusters lists, any two circles have <v, w> >= 1
    config = catalog.get_builtin(entry_id).configuration
    for subset in coxeter.enumerate_clusters(config.gram()):
        cluster, cocluster, _, _ = config.split([config.labels[i] for i in subset])
        got = generate_packing(cluster, cocluster, OrbitLimits(max_generation=2))
        products = gram([c.vector for c in got.circles])
        for i, row in enumerate(products):
            assert all((p - 1).sign() >= 0 for p in row[:i]), (subset, got.circles[i].word)


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
        # int() takes these, and they would re-export as 3, 3, 10 and 3
        ("+3\t1\t(0,2,0,1)\n", "orbit line 1: generation must be a nonnegative integer, got '+3'"),
        (" 3\t1\t(0,2,0,1)\n", "orbit line 1: generation must be a nonnegative integer, got ' 3'"),
        ("0\t1\t(0,2,0,1)\n1_0\t1\t(0,2,0,1)\n", "orbit line 2: generation must be a nonnegative integer, got '1_0'"),
        ("\u0663\t1\t(0,2,0,1)\n", "orbit line 1: generation must be a nonnegative integer, got '\u0663'"),
        ("\t1\t(0,2,0,1)\n", "orbit line 1: generation must be a nonnegative integer, got ''"),
        ("0\t1\t(0,2,0,1)\n1\t2\t(0,2,1)\n", "orbit line 2: expected 4 coordinates, as on the first row, got 3"),
        ("0\t1\t(0,2)\n", "orbit line 1: an inversive vector needs at least 3 entries"),
        ("0\t1\t(0,2,0,1)\n0\t2\t(0,2,0,1/0)\n", "orbit line 2: QNum syntax error at position 2: zero denominator"),
        ("0\t1\t(0,2,0,sqrt(2)x)\n", "orbit line 1: QNum syntax error at position 7: expected '+' or '-', got 'x'"),
        ("0\t1\t0,2,0,1\n", "orbit line 1: malformed coordinate tuple"),
        ("0\t1\t(0,2,0,1)\n1\t2\t(0,2,0,1\n", "orbit line 2: malformed coordinate tuple"),
        ("0\t1\t0,2,0,1)\n", "orbit line 1: malformed coordinate tuple"),
    ],
)
def test_tsv_errors_name_the_line(text, message):
    with pytest.raises(ValueError) as err:
        parse_tsv(text)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "samples, box, message",
    [
        (0, None, "sample_count must be positive"),
        (-5, None, "sample_count must be positive"),
        (10, ((0, 1),), "box has 1 intervals, expected 2"),
        (10, ((0, 1), (0, 1), (0, 1)), "box has 3 intervals, expected 2"),
    ],
)
def test_empty_interior_refuses_bad_counts_and_boxes(samples, box, message):
    with pytest.raises(ValueError) as err:
        verify_empty_interior(BI1, samples, 0, box)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "samples, seed, message",
    [
        (True, 0, "sample_count must be an int, not a bool; got True"),
        (2.5, 0, "sample_count must be an int, not a bool; got 2.5"),
        (False, True, "sample_count must be an int, not a bool; got False"),
        (10, True, "seed must be an int, not a bool; got True"),
        (10, 0.0, "seed must be an int, not a bool; got 0.0"),
        (10, "7", "seed must be an int, not a bool; got '7'"),
    ],
)
def test_empty_interior_refuses_bools_and_non_int_counts_and_seeds(monkeypatch, samples, seed, message):
    # refused after the row gate, the count before the seed, before any draw
    monkeypatch.setattr(orbit, "_word", None)
    with pytest.raises(ValueError) as err:
        verify_empty_interior(BI1, samples, seed)
    assert str(err.value) == message
    with pytest.raises(ValueError, match="config must have at least one row"):
        verify_empty_interior((), samples, seed)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_empty_interior_refuses_seeds_outside_the_stream(monkeypatch, seed):
    # _word masks a seed to 64 bits: -1 would draw the samples of 2**64 - 1
    # and 2**64 those of 0, under another name; refused before any draw
    monkeypatch.setattr(orbit, "_word", None)
    with pytest.raises(ValueError) as err:
        verify_empty_interior(BI1, 10, seed)
    assert str(err.value) == "seed must be in 0 <= seed < 2**64, got %d" % seed


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_empty_interior_takes_the_stream_end_seeds(seed):
    report = verify_empty_interior(BI1, 10, seed)
    assert report.seed == seed and report.sample_count == 10


def test_circles_of_one_field_compare_by_key_without_decoding():
    # equality within one orbit, or within one parsed file, compares keys
    # and decodes no vector; words and generations still count
    got = generate_superpacking(BI1_CLUSTER, BI1_COCLUSTER, OrbitLimits(max_generation=2))
    for circles in (got.circles, parse_tsv(export_tsv(got))):
        a, b = circles[1], circles[2]
        twin = orbit.OrbitCircle._encoded(a.field, a.key, a.generation, a.word)
        renamed = orbit.OrbitCircle._encoded(a.field, a.key, a.generation, b.word)
        moved = orbit.OrbitCircle._encoded(a.field, b.key, a.generation, a.word)
        assert a == twin and twin == a
        assert a != renamed and a != moved and a != b
        assert all(c._vector is None for c in (a, b, twin, renamed, moved))
    # a re-parsed twin is over another field, so it compares by vector
    back = parse_tsv(export_tsv(got))
    assert back[0].field is not got.circles[0].field
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


def splitmix64(seed):
    """The splitmix64 stream of a 64-bit seed, one state step per word,
    written out apart from orbit._word as its reference."""
    mask = (1 << 64) - 1
    state = seed & mask
    while True:
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        yield z ^ (z >> 31)


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
        gen = splitmix64(23)
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


def qnum_extents(rows):
    # per wall with b > 0, per coordinate the enclosures at 64 bits of
    # (bz_j - 1) / b and (bz_j + 1) / b in QNum arithmetic: the ball's
    # extent, rounded outward
    return [
        [(((bz - 1) / r[1])._bounds(64)[0], ((bz + 1) / r[1])._bounds(64)[1]) for bz in r[2:]]
        for r in map(as_vector, rows)
        if r[1].sign() > 0
    ]


def outside_an_extent(extents, box, point):
    """The extent rule: some coordinate of positive box width lies
    outside some ball's extent, so the point is inside no ball."""
    return any(
        not lo <= x <= hi
        for ends in extents
        for (lo, hi), (blo, bhi), x in zip(ends, box, point)
        if bhi > blo
    )


def empty_interior_oracle(rows, sample_count, seed, box):
    """The sampler with an exact Fraction point built for every sample
    and converted to float for the screen; a sample the screen passes is
    dropped by the extent rule before it is checked exactly.  Returns the
    report and the (float point, exact point) of every sample drawn."""
    box = tuple((Fraction(lo), Fraction(hi)) for lo, hi in box)
    extents = qnum_extents(rows)
    frows = [[float(q) for q in r] for r in rows]
    rng = splitmix64(seed)
    drawn = []
    exact_checks = 0
    for _ in range(sample_count):
        point = tuple(lo + (hi - lo) * unit_fraction(next(rng)) for lo, hi in box)
        fpoint = [float(x) for x in point]
        drawn.append((fpoint, point))
        candidate = True
        for fr in frows:
            bh, b = fr[0], fr[1]
            # explicit left-to-right sums: builtin sum() of floats is
            # compensated from CPython 3.12
            if b == 0.0:
                s = 0.0
                for c, x in zip(fr[2:], fpoint):
                    s += c * x
                q = s - 0.5 * bh
            else:
                d2 = 0.0
                for c, x in zip(fr[2:], fpoint):
                    d2 += (c - b * x) ** 2
                q = (1.0 - d2) * (1.0 if b > 0 else -1.0)
            if q < -1e-6:
                candidate = False
                break
        if not candidate or outside_an_extent(extents, box, point):
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
    # the points themselves, coordinate j of sample i drawn as word i*n + j:
    # floats bit for bit, exact points equal
    ratios = orbit._sample_ratios(want.box)
    n = len(ratios)
    for i, (fpoint, point) in enumerate(drawn):
        words = [orbit._word(seed, i * n + j) >> 11 for j in range(n)]
        assert [((a + c * u) / den).hex() for (a, c, den), u in zip(ratios, words)] == [
            x.hex() for x in fpoint
        ]
        assert orbit._exact_point(ratios, words) == point
    return got


def qnum_derived_box(rows):
    # the box in QNum arithmetic: per coordinate the union of the extents
    return tuple(
        (min(lo for lo, _ in ends), max(hi for _, hi in ends))
        for ends in zip(*qnum_extents(rows))
    )


def assert_extents_match_qnum_oracle(rows):
    got = [[(Fraction(lo, s), Fraction(hi, s)) for lo, hi in ends] for s, ends in orbit._ball_extents(rows)]
    assert got == qnum_extents(rows)
    assert verify_empty_interior(rows, 1, 0).box == qnum_derived_box(rows)


@pytest.mark.parametrize("entry_id", catalog.list_builtin())
def test_derived_box_matches_qnum_oracle(entry_id):
    assert_extents_match_qnum_oracle(catalog.get_builtin(entry_id).configuration.rows)


def test_derived_box_irrational_and_negative_reciprocals():
    # bends 1 + sqrt(2) and sqrt(2) - 3: an irrational 1/b, and one whose
    # conjugate product is negative
    rows = (
        sphere((QNum("1/3"), R2), (R2 - 1)),
        sphere((R2, QNum(-2)), QNum(1) / (R2 + 3)),
        sphere((QNum(0), QNum(0)), QNum(-5)),
    )
    assert_extents_match_qnum_oracle(rows)
    with pytest.raises(ValueError, match="no interior-bounding circle"):
        verify_empty_interior(rows[2:], 1, 0)


# the id -5-400 names seed 2**64 - 5: it draws what -5 drew before seeds
# outside 0 <= seed < 2**64 were refused
@pytest.mark.parametrize(
    "seed,samples", [(0, 400), pytest.param(2**64 - 5, 400, id="-5-400"), (7, 2000)]
)
@pytest.mark.parametrize("entry_id", catalog.list_builtin())
def test_empty_interior_matches_fraction_oracle_on_builtins(entry_id, seed, samples):
    rows = catalog.get_builtin(entry_id).configuration.rows
    assert_sampler_matches_oracle(rows, samples, seed, qnum_derived_box(rows))


def test_empty_interior_oracle_covers_a_counterexample():
    # d1n3-base has an interior point at the CLI's seed: the exact point matters
    rows = catalog.get_builtin("d1n3-base").configuration.rows
    rep = assert_sampler_matches_oracle(rows, 2000, 7, qnum_derived_box(rows))
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
# the id -1 names the stream's last seed, 2**64 - 1: it draws what -1 drew
# before seeds outside 0 <= seed < 2**64 were refused
@pytest.mark.parametrize("seed", [0, pytest.param(2**64 - 1, id="-1"), 23])
def test_empty_interior_matches_fraction_oracle_on_boxes(rows, box, seed):
    assert_sampler_matches_oracle(rows, 300, seed, box)


@pytest.mark.parametrize(
    "box",
    [
        ((Fraction(10**400), Fraction(10**400 + 1)), (0, 1)),
        ((0, 1), (-(10**400), 0)),
        # coordinate 0 alone rejects every sample, so a draw that stops at
        # the first rejecting term would never read coordinate 1
        ((5, 6), (10**200, 10**200 + 1)),
    ],
)
def test_empty_interior_overflow_matches_fraction_oracle(box):
    with pytest.raises(OverflowError) as want:
        empty_interior_oracle(UNIT_DISK, 10, 0, box)
    with pytest.raises(OverflowError) as got:
        verify_empty_interior(UNIT_DISK, 10, 0, box=box)
    assert str(got.value) == str(want.value)


def test_splitmix64_reference_stream():
    # the published first outputs of splitmix64 from seed 0
    rng = splitmix64(0)
    assert [next(rng) for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F,
    ]


@pytest.mark.parametrize("seed", [0, -5, 7, 2**64 + 3])
def test_splitmix64_word_by_index_matches_stream(seed):
    rng = splitmix64(seed)
    for k in range(5000):
        assert orbit._word(seed, k) == next(rng)


def test_empty_interior_infinite_term_raises_before_sampling():
    # b * x overflows to inf at the box's far end: (c - b x)**2 is inf there
    # without an exception, and some sample inside could overflow instead
    tiny = (sphere((QNum(0), QNum(0)), Fraction(1, 10**200)),)
    with pytest.raises(OverflowError, match="wall 1"):
        verify_empty_interior(tiny, 10, 0, box=((0, 10**200), (0, 1)))


def test_empty_interior_screen_sums_left_to_right():
    # 2/3 * 3e16 + 1/3 * 3 - 2/3 * 3e16: summed left to right the 1 is lost
    # (sum() gives 0.0 on CPython 3.10 and 3.11, 1.0 from 3.12 on)
    line = hyperplane((Fraction(2, 3), Fraction(1, 3), Fraction(2, 3)), Fraction(1, 2))
    big = 3 * 10**16
    box = ((big, big), (3, 3), (-big, -big))
    terms = [2 / 3 * big, 1 / 3 * 3, 2 / 3 * -big]
    assert (terms[0] + terms[1]) + terms[2] == 0.0
    assert math.fsum(terms) == 1.0
    # the exact point is interior (2/3 big + 1 - 2/3 big = 1 > 1/2), but the
    # float screen sees 0 - 1/2 and rejects it on every Python version
    assert interior_contains(line, (big, 3, -big))
    want, _ = empty_interior_oracle((line,), 5, 0, box)
    assert (want.verdict, want.exact_checks) == (True, 0)
    assert verify_empty_interior((line,), 5, 0, box=box) == want


small_fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 7))


@st.composite
def sampler_walls(draw):
    n = draw(st.integers(2, 6))
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["ball", "outward", "line"]))
        if kind == "line":
            k = draw(st.integers(0, n - 1))
            normal = [0] * n
            if draw(st.booleans()):
                normal[k] = draw(st.sampled_from([1, -1]))
            else:  # a unit normal off the axes
                normal[k], normal[(k + 1) % n] = Fraction(3, 5), Fraction(-4, 5)
            distance = Fraction(draw(st.integers(0, 6)), draw(st.integers(1, 3)))
            rows.append(hyperplane(normal, distance, draw(st.sampled_from([1, -1]))))
        else:
            center = [draw(small_fractions) for _ in range(n)]
            radius = Fraction(draw(st.integers(1, 12)), draw(st.integers(1, 3)))
            rows.append(sphere(center, radius if kind == "ball" else -radius))
    box = []
    for _ in range(n):
        lo = draw(small_fractions)
        hi = draw(st.one_of(small_fractions, st.just(lo)))  # reversed or degenerate too
        box.append((lo, hi))
    return tuple(rows), tuple(box)


@settings(max_examples=150, deadline=None)
@given(
    walls=sampler_walls(),
    seed=st.one_of(st.integers(-(2**70), 2**70), st.integers(2**64, 2**66)),
    samples=st.integers(1, 120),
)
def test_empty_interior_matches_fraction_oracle_on_random_walls(walls, seed, samples):
    rows, box = walls
    if not 0 <= seed < 2**64:
        # refused: the report would name seed while drawing seed mod 2**64
        with pytest.raises(ValueError, match=r"^seed must be in 0 <= seed < 2\*\*64, got "):
            verify_empty_interior(rows, samples, seed, box=box)
        seed %= 2**64
    want, _ = empty_interior_oracle(rows, samples, seed, box)
    assert verify_empty_interior(rows, samples, seed, box=box) == want


# -- integer windows of the sampler -------------------------------------


def parent_empty_interior(rows, sample_count, seed, box=None):
    """The sampler as it was before the integer windows: every sample's
    coordinates drawn as floats while the balls are screened, each ball
    stopping at its first rejecting prefix; a sample the screen passes is
    dropped by the extent rule before it is checked exactly."""
    rows = tuple(rows)
    extents = qnum_extents(rows)
    if box is None:
        box = qnum_derived_box(rows)
    box = tuple((Fraction(lo), Fraction(hi)) for lo, hi in box)
    n = len(rows[0]) - 2
    ratios = orbit._sample_ratios(box)
    frows = [[float(q) for q in r] for r in rows]
    orbit._check_range(ratios, frows)
    balls = [(fr[1], fr[2:]) for fr in frows if fr[1] > 0.0]
    rest = [fr for fr in frows if not fr[1] > 0.0]
    exact_checks = 0
    for i in range(sample_count):
        first = i * n
        xs = []
        candidate = True
        for b, bz in balls:
            d2 = 0.0
            for j, c in enumerate(bz):
                if j == len(xs):
                    a, w, den = ratios[j]
                    xs.append((a + w * (orbit._word(seed, first + j) >> 11)) / den)
                d2 += (c - b * xs[j]) ** 2
                if 1.0 - d2 < -1e-6:
                    candidate = False
                    break
            if not candidate:
                break
        if not candidate:
            continue
        for j in range(len(xs), n):
            a, w, den = ratios[j]
            xs.append((a + w * (orbit._word(seed, first + j) >> 11)) / den)
        for fr in rest:
            bh, b = fr[0], fr[1]
            s = 0.0
            if b == 0.0:
                for c, x in zip(fr[2:], xs):
                    s += c * x
                q = s - 0.5 * bh
            else:
                for c, x in zip(fr[2:], xs):
                    s += (c - b * x) ** 2
                q = s - 1.0
            if q < -1e-6:
                candidate = False
                break
        if not candidate:
            continue
        point = orbit._exact_point(
            ratios, [orbit._word(seed, first + j) >> 11 for j in range(n)]
        )
        if outside_an_extent(extents, box, point):
            continue
        exact_checks += 1
        if all(interior_contains(r, point) for r in rows):
            return orbit.EmptyInteriorReport(False, sample_count, seed, box, point, exact_checks)
    return orbit.EmptyInteriorReport(True, sample_count, seed, box, None, exact_checks)


@pytest.mark.parametrize("entry_id", catalog.list_builtin())
def test_empty_interior_matches_parent_loop_on_builtins(entry_id):
    config = catalog.get_builtin(entry_id).configuration
    for seed in list(range(40)) + [2**64 - 1]:
        want = parent_empty_interior(config.rows, 2000, seed)
        assert verify_empty_interior(config, 2000, seed) == want
    box = qnum_derived_box(config.rows)
    for seed in range(3):
        want, _ = empty_interior_oracle(config.rows, 2000, seed, box)
        assert verify_empty_interior(config, 2000, seed) == want
    if entry_id in ("d1n3", "d1n3-base"):
        # every window of d1n3 is the full range: every sample passes
        # every window and reaches the float screen
        for seed in range(3):
            want = parent_empty_interior(config.rows, 20000, seed)
            assert verify_empty_interior(config, 20000, seed) == want


@pytest.mark.parametrize("entry_id", catalog.list_builtin())
def test_windows_are_built_once_before_the_first_draw(monkeypatch, entry_id):
    config = catalog.get_builtin(entry_id).configuration
    want = verify_empty_interior(config, 50, 7)
    calls = []
    extents, windows, word = orbit._ball_extents, orbit._windows, orbit._word
    monkeypatch.setattr(orbit, "_ball_extents", lambda rows: calls.append("extents") or extents(rows))
    monkeypatch.setattr(orbit, "_windows", lambda e, r: calls.append("windows") or windows(e, r))
    monkeypatch.setattr(orbit, "_word", lambda seed, k: calls.append("word") or word(seed, k))
    assert verify_empty_interior(config, 50, 7) == want
    # the extents once per call, then all the windows, then the draws
    assert calls[:2] == ["extents", "windows"]
    assert calls[2:] == ["word"] * (len(calls) - 2)


UNITS = 1 << 53


def x_of(ratio, u):
    a, c, den = ratio
    return Fraction(a + c * u, den)


def random_balls_and_box(rng, scale):
    # one to three balls of radius ~scale near the origin, and their
    # derived box or a random one around, across or beside them
    n = rng.randint(1, 3)

    def number(top, den):
        return Fraction(rng.randint(-top, top), rng.randint(1, den)) * scale

    rows = [
        sphere([number(40, 9) for _ in range(n)], abs(number(40, 40)) or scale)
        for _ in range(rng.randint(1, 3))
    ]
    if rng.random() < 0.5:
        return rows, qnum_derived_box(rows)
    box = []
    for _ in range(n):
        lo = number(90, 9)
        box.append((lo, lo + abs(number(90, 9)) + scale))
    return rows, tuple(box)


@pytest.mark.parametrize("scale", [Fraction(1, 10**9), Fraction(1), Fraction(10**12)])
def test_window_edges_are_tight(scale):
    # against the QNum-enclosed extents: every finite edge lies inside
    # every ball's extent, and its outer neighbour in [0, 2**53) lies
    # below (lower edge) or above (upper edge) at least one; x grows with
    # u, so every u outside the window is outside some extent
    rng = random.Random(str(scale))
    empty = nonempty = 0
    for _ in range(60):
        rows, box = random_balls_and_box(rng, scale)
        extents = qnum_extents(rows)
        ratios = orbit._sample_ratios(box)
        windows = orbit._windows(orbit._ball_extents(rows), ratios)
        for j, (ratio, (lo, hi)) in enumerate(zip(ratios, windows)):
            ends = [e[j] for e in extents]

            def inside(u):
                return all(elo <= x_of(ratio, u) <= ehi for elo, ehi in ends)

            if lo <= hi:
                nonempty += 1
                assert 0 <= lo and hi < UNITS
                assert inside(lo) and inside(hi)
            else:
                empty += 1
            below = min(lo, UNITS) - 1
            if below >= 0:
                assert any(x_of(ratio, below) < elo for elo, _ in ends)
            above = max(hi, -1) + 1
            if above < UNITS:
                assert any(x_of(ratio, above) > ehi for _, ehi in ends)
            # and across the box, a u is in the window exactly when its
            # x is inside every extent
            for _ in range(20):
                u = rng.randrange(UNITS)
                assert (lo <= u <= hi) == inside(u)
    assert empty > 10 and nonempty > 20


def test_window_is_full_for_boxes_of_zero_and_negative_width():
    extents = orbit._ball_extents((sphere((Fraction(1, 4), Fraction(-1, 2)), 1),))
    for box in (((Fraction(1, 3), Fraction(1, 3)), (0, 1)), ((3, -3), (0, 1))):
        ratios = orbit._sample_ratios(box)
        assert ratios[0][1] <= 0
        assert orbit._windows(extents, ratios)[0] == (0, UNITS - 1)
        # and every window is full when there is no ball
        assert orbit._windows([], ratios) == [(0, UNITS - 1)] * 2


def test_window_drops_samples_outside_an_extent_that_the_screen_passes():
    # x in (1, 1 + 1e-7] lies outside the unit disk's extent [-1, 1], yet
    # 1 - x**2 is above -1e-6: every sample would pass the float screen,
    # and only the window (the oracles' extent rule) keeps it from being
    # checked exactly
    box = ((1, 1 + Fraction(1, 10**7)), (0, 0))
    ratios = orbit._sample_ratios(box)
    for i in range(50):
        xs = [(a + c * (orbit._word(0, 2 * i + j) >> 11)) / den for j, (a, c, den) in enumerate(ratios)]
        assert xs[0] > 1.0 and orbit._screen([(1.0, [0.0, 0.0])], [], xs)
    rep = verify_empty_interior(UNIT_DISK, 50, 0, box=box)
    assert (rep.verdict, rep.exact_checks) == (True, 0)
    assert rep == empty_interior_oracle(UNIT_DISK, 50, 0, box)[0]
    assert rep == parent_empty_interior(UNIT_DISK, 50, 0, box)


def test_empty_window_returns_before_any_draw(monkeypatch):
    # two disjoint unit disks: no x lies within both balls' terms
    rows = (sphere((-10, 0), 1), sphere((10, 0), 1))
    draws = []
    word = orbit._word
    monkeypatch.setattr(orbit, "_word", lambda seed, k: draws.append(k) or word(seed, k))
    rep = verify_empty_interior(rows, 500, 3)
    assert (rep.verdict, rep.exact_checks, draws) == (True, 0, [])
    monkeypatch.setattr(orbit, "_word", word)
    assert rep == parent_empty_interior(rows, 500, 3)


def test_overflow_is_raised_before_any_window_or_draw(monkeypatch):
    calls = []
    monkeypatch.setattr(orbit, "_word", lambda *a: calls.append(a))
    monkeypatch.setattr(orbit, "_windows", lambda *a: calls.append(a))
    with pytest.raises(OverflowError):
        verify_empty_interior(UNIT_DISK, 10, 0, box=((5, 6), (10**200, 10**200 + 1)))
    tiny = (sphere((QNum(0), QNum(0)), Fraction(1, 10**200)),)
    with pytest.raises(OverflowError, match="wall 1"):
        verify_empty_interior(tiny, 10, 0, box=((0, 10**200), (0, 1)))
    assert calls == []


OUTWARD = (
    sphere((0, 0), 1),
    sphere((Fraction(1, 2), 0), Fraction(-1, 10)),
    sphere((0, Fraction(-1, 3)), Fraction(-1, 5)),
)
# an outward sphere left of the box: its term (x + 5) is above 1 at every
# sampled x, yet every point of the box is outside it
FAR_OUTWARD = (sphere((0, 0), 1), sphere((-5, 0), -1))


@pytest.mark.parametrize(
    "rows, box",
    [
        # a ball with outward spheres inside it: interior points lie far
        # from the outward spheres, whose terms must not be windowed
        (OUTWARD, None),
        (OUTWARD[:2], ((Fraction(-1, 2), 1), (-1, Fraction(1, 7)))),
        (FAR_OUTWARD, None),
        # lines only: no ball, every window full
        (LINES, ((Fraction(-1, 3), Fraction(2, 7)), (Fraction(-5, 3), Fraction(1, 9)))),
        (LINES, ((-2, 2), (0, 0))),
        # zero and negative widths
        (UNIT_DISK, ((Fraction(1, 3), Fraction(1, 3)), (Fraction(-1, 10), Fraction(1, 10)))),
        (UNIT_DISK, ((Fraction(1, 3), Fraction(-2, 5)), (2, Fraction(-7, 3)))),
        (UNIT_DISK, ((Fraction(1, 2), Fraction(-1, 2)), (Fraction(1, 2), Fraction(-1, 2)))),
        # tiny and huge scales
        ((sphere((0, 0), Fraction(1, 10**9)), sphere((Fraction(3, 10**9), 0), Fraction(2, 10**9))), None),
        ((sphere((0, 0), 10**12), sphere((3 * 10**12, 0), 2 * 10**12)), None),
        ((sphere((0, 0), 10**12), sphere((10**12, 0), 10**12)), None),
        # a window emptied by two disjoint balls
        ((sphere((-10, 0), 1), sphere((10, 0), 1)), None),
    ],
    ids=[
        "outward", "outward-box", "far-outward", "lines", "lines-flat", "zero-width", "negative-width",
        "reversed", "scale-1e-9", "scale-1e12", "scale-1e12-overlap", "empty-window",
    ],
)
@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
def test_empty_interior_matches_parent_loop_on_edge_cases(rows, box, seed):
    want = parent_empty_interior(rows, 2000, seed, box)
    assert verify_empty_interior(rows, 2000, seed, box=box) == want
    if box is None:
        box = qnum_derived_box(rows)
    assert empty_interior_oracle(rows, 300, seed, box)[0] == verify_empty_interior(
        rows, 300, seed, box=box
    )


@pytest.mark.parametrize("rows", [OUTWARD, FAR_OUTWARD], ids=["outward", "far-outward"])
def test_outward_spheres_leave_a_counterexample(rows):
    # the comparisons above mean something: interior points are found
    # where an outward sphere's term is far above 1
    rep = verify_empty_interior(rows, 2000, 0)
    assert not rep.verdict
    assert all(interior_contains(r, rep.counterexample) for r in rows)
