"""Breadth-first orbit generation for packings and superpackings.

A packing orbit starts from the cluster circles (generation 0) and
repeatedly reflects every frontier circle in every mirror.  For a
packing the mirrors are the cocluster walls; for a superpacking they
are cluster and cocluster together.  Circles are deduplicated by their
exact coordinate tuple (bends alone collide).

A circle is never reflected in a mirror equal to itself or to its
negation: the image would be the same wall with reversed orientation,
which is not a new member of the orbit.

Every circle carries a provenance word "m_k. ... .m_1.a" of 1-based
indices into the concatenated cluster + cocluster row list: circle
number a reflected first in mirror m_1, then m_2, and so on.

Orbits serialize to tab-separated text, one circle per line:
``generation <tab> word <tab> (coord,coord,...)`` with coordinates in
canonical exact form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .exactnum import QNum
from .geometry import as_vector, inner, interior_contains, is_wall, reflect
from .groupwords import Configuration

_MASK64 = (1 << 64) - 1


def splitmix64(seed):
    """Yield the splitmix64 stream for a 64-bit seed (portable, cheap)."""
    state = seed & _MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


def _unit_fraction(word):
    # 53 high bits as an exact dyadic fraction in [0, 1)
    return Fraction(word >> 11, 1 << 53)


@dataclass(frozen=True)
class OrbitLimits:
    """Termination bounds for orbit generation.

    A generation bound is always required: an exact-arithmetic orbit
    with only a bend bound is not guaranteed to terminate (coordinates
    of a generic configuration are not discrete).  ``max_bend = None``
    disables the bend filter.
    """

    max_generation: int = 6
    max_bend: int | None = 10_000

    def __post_init__(self):
        if not isinstance(self.max_generation, int) or self.max_generation < 0:
            raise ValueError(
                "an explicit nonnegative generation limit is required; "
                "got %r" % (self.max_generation,)
            )


@dataclass(frozen=True)
class OrbitCircle:
    vector: tuple
    generation: int
    word: str


@dataclass(frozen=True)
class PackingOrbit:
    circles: tuple
    limits: OrbitLimits
    mode: str  # "packing" | "superpacking"

    def __len__(self):
        return len(self.circles)


def _checked_rows(rows, what):
    out = tuple(as_vector(r) for r in rows)
    for i, r in enumerate(out):
        if not is_wall(r):
            raise ValueError("%s row %d does not have norm -1" % (what, i + 1))
    return out


def _generate(cluster, limits, mirrors, mode):
    if limits is None:
        limits = OrbitLimits()
    if not cluster:
        raise ValueError("cluster must be nonempty")

    circles = [
        OrbitCircle(v, 0, str(i + 1)) for i, v in enumerate(cluster)
    ]
    seen = set(c.vector for c in circles)
    # (1-based index, vector, negated vector)
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
                circ = OrbitCircle(vec, generation, "%d.%s" % (idx, parent.word))
                circles.append(circ)
                frontier.append(circ)

    return PackingOrbit(tuple(circles), limits, mode)


def _check_disjoint_sample(orbit, pairs=32):
    # tangent or disjoint interiors: <v,w> = 1 or > 1, checked exactly
    circles = orbit.circles
    n = len(circles)
    if n < 2:
        return
    rng = splitmix64(0)
    for _ in range(min(pairs, n * (n - 1) // 2)):
        i = next(rng) % n
        j = next(rng) % n
        if i == j:
            continue
        p = inner(circles[i].vector, circles[j].vector)
        if (p - 1).sign() < 0:
            raise ValueError(
                "orbit circles %s and %s have overlapping interiors"
                % (circles[i].word, circles[j].word)
            )


def generate_packing(cluster, cocluster, limits=None):
    """Orbit of the cluster under reflections in the cocluster walls."""
    cluster = _checked_rows(cluster, "cluster")
    cocluster = _checked_rows(cocluster, "cocluster")
    offset = len(cluster)
    mirrors = [(offset + k + 1, m) for k, m in enumerate(cocluster)]
    orbit = _generate(cluster, limits, mirrors, "packing")
    _check_disjoint_sample(orbit)
    return orbit


def generate_superpacking(cluster, cocluster, limits=None):
    """Orbit of the cluster under reflections in all walls (interiors
    of the result may overlap)."""
    cluster = _checked_rows(cluster, "cluster")
    cocluster = _checked_rows(cocluster, "cocluster")
    mirrors = [(k + 1, m) for k, m in enumerate(cluster + cocluster)]
    return _generate(cluster, limits, mirrors, "superpacking")


def bends(orbit):
    """Bends of the orbit circles, exact, in insertion order."""
    return [c.vector[1] for c in orbit.circles]


@dataclass(frozen=True)
class OrbitStats:
    generation_counts: tuple
    circle_count: int
    min_bend: QNum | None
    max_bend: QNum | None


def orbit_stats(orbit):
    circles = orbit.circles
    if not circles:
        return OrbitStats((), 0, None, None)
    top = max(c.generation for c in circles)
    counts = [0] * (top + 1)
    for c in circles:
        counts[c.generation] += 1
    all_bends = bends(orbit)
    return OrbitStats(tuple(counts), len(circles), min(all_bends), max(all_bends))


def export_tsv(orbit):
    lines = []
    for c in orbit.circles:
        coords = ",".join(str(q) for q in c.vector)
        lines.append("%d\t%s\t(%s)" % (c.generation, c.word, coords))
    return "\n".join(lines) + ("\n" if lines else "")


def parse_tsv(text):
    """Parse export_tsv output back into a tuple of OrbitCircle."""
    circles = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ValueError("orbit line %d: expected 3 tab fields" % lineno)
        gen, word, coords = parts
        if not (coords.startswith("(") and coords.endswith(")")):
            raise ValueError("orbit line %d: malformed coordinate tuple" % lineno)
        vec = tuple(QNum(part) for part in coords[1:-1].split(","))
        circles.append(OrbitCircle(as_vector(vec), int(gen), word))
    return tuple(circles)


@dataclass(frozen=True)
class EmptyInteriorReport:
    verdict: bool  # True: no sampled point lay inside every wall
    sample_count: int
    seed: int
    box: tuple  # per-coordinate (lo, hi) Fractions
    counterexample: tuple | None
    exact_checks: int


def _rational_interval(x, prec=64):
    if x.is_rational():
        f = x.as_fraction()
        return (f, f)
    return x._bounds(prec)


def _derived_box(rows):
    lo = None
    hi = None
    n = len(rows[0]) - 2
    for r in rows:
        b = r[1]
        if b.sign() <= 0:
            continue  # lines and outward circles do not bound a box
        radius = b.inverse()
        center = [bz / b for bz in r[2:]]
        clo = [_rational_interval(c - radius)[0] for c in center]
        chi = [_rational_interval(c + radius)[1] for c in center]
        if lo is None:
            lo, hi = clo, chi
        else:
            lo = [min(a, b2) for a, b2 in zip(lo, clo)]
            hi = [max(a, b2) for a, b2 in zip(hi, chi)]
    if lo is None:
        raise ValueError(
            "no interior-bounding circle to derive a sample box from; "
            "pass box= explicitly"
        )
    return tuple((a, b2) for a, b2 in zip(lo, hi))


def verify_empty_interior(config, sample_count, seed, box=None):
    """Sample the bounding box and look for a point interior to every wall.

    Points are exact dyadic rationals from a seeded splitmix64 stream, so
    reports reproduce bit for bit.  Each sample is screened with a float
    evaluation first: only points within 1e-6 of passing every wall are
    confirmed with exact arithmetic (the margin is validated against the
    pure exact path by a property test).
    """
    if isinstance(config, Configuration):
        rows = config.rows
    else:
        rows = _checked_rows(config, "config")
    if sample_count <= 0:
        raise ValueError("sample_count must be positive")
    if box is None:
        box = _derived_box(rows)
    box = tuple((Fraction(lo), Fraction(hi)) for lo, hi in box)
    n = len(rows[0]) - 2
    if len(box) != n:
        raise ValueError("box has %d intervals, expected %d" % (len(box), n))

    frows = [[float(q) for q in r] for r in rows]
    rng = splitmix64(seed)
    exact_checks = 0
    for _ in range(sample_count):
        point = tuple(
            lo + (hi - lo) * _unit_fraction(next(rng)) for lo, hi in box
        )
        fpoint = [float(x) for x in point]
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
            return EmptyInteriorReport(
                False, sample_count, seed, box, point, exact_checks
            )
    return EmptyInteriorReport(True, sample_count, seed, box, None, exact_checks)
