"""Breadth-first orbit generation for packings and superpackings.

A packing orbit starts from the cluster circles (generation 0) and
repeatedly reflects every frontier circle in every mirror.  For a
packing the mirrors are the cocluster walls; for a superpacking they
are cluster and cocluster together.  Circles are deduplicated by their
exact coordinates (bends alone collide).

A circle is never reflected in a mirror equal to itself or to its
negation: the image would be the same wall with reversed orientation,
which is not a new member of the orbit.  Nor is it reflected in the
mirror that made it, whose image is its parent, already in the orbit.

The loop runs on integers.  Each call first closes the radicands of
its rows under products into a fixed multiquadratic basis ({1,2,5,10}
for Bi(10), {1,2,3,6} for the d=3 entries), writes every row as its
(n+2)*d integer basis coefficients over one positive common
denominator reduced by the gcd, and uses that tuple as the exact dedup
key.  The basis and this encoding are ``exactnum._Field``, which
``geometry.gram`` shares.  Each mirror is compiled once into integer
tables, its 2<v,m> by ``geometry.form_functional``, so a reflection is
an integer rank-one update and one gcd.  The bend bound is settled in
integers too: the bend's basis coefficients and the bound are enclosed
with ``exactnum._enclose`` at 64 bits, and only when the two enclosures
meet (an exact tie, or a bend within about 2**-64 of the bound relative
to its coefficients) is the bend decoded and compared as an exact QNum.
No decision rests on a float.  The kept circles keep their keys over the
field, and a circle decodes its QNum vector only when ``vector`` is read.

Every circle carries a provenance word "m_k. ... .m_1.a" of 1-based
indices into the concatenated cluster + cocluster row list: circle
number a reflected first in mirror m_1, then m_2, and so on.

Orbits serialize to tab-separated text, one circle per line:
``generation <tab> word <tab> (coord,coord,...)`` with coordinates in
canonical exact form, ``str`` of each QNum.  ``export_tsv`` prints them
from the keys with ``exactnum._format``, and ``parse_tsv`` scans them
back into integers and keys over one field of the file's radicands;
neither goes through QNum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exactnum import QNum, _enclose, _Field, _scan
from .geometry import as_vector, form_functional, inner, interior_contains, is_wall
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


@dataclass(frozen=True)
class OrbitLimits:
    """Termination bounds for orbit generation.

    A generation bound is always required: an exact-arithmetic orbit
    with only a bend bound is not guaranteed to terminate (coordinates
    of a generic configuration are not discrete).  ``max_bend`` is None,
    which disables the bend filter, or a nonnegative int, Fraction or
    QNum; anything else raises ValueError.
    """

    max_generation: int = 6
    max_bend: int | None = 10_000

    def __post_init__(self):
        if not isinstance(self.max_generation, int) or self.max_generation < 0:
            raise ValueError(
                "an explicit nonnegative generation limit is required; "
                "got %r" % (self.max_generation,)
            )
        bend = self.max_bend
        if bend is not None and (
            isinstance(bend, bool)
            or not isinstance(bend, (int, Fraction, QNum))
            or bend < 0
        ):
            raise ValueError(
                "max_bend must be None or a nonnegative int, Fraction or QNum; "
                "got %r" % (bend,)
            )


class OrbitCircle:
    """One member of an orbit: its row, generation and provenance word.

    ``OrbitCircle(vector, generation, word)`` holds a row of QNums.  The
    orbit engine and ``parse_tsv`` make circles that carry the row as
    ``key`` over ``field`` (an exactnum._Field) instead, and ``vector`` is
    decoded from the key on first access.  ``key`` and ``field`` are None
    on a circle built from a vector.  Equality and hashing are on
    (vector, generation, word).
    """

    __slots__ = ("_vector", "generation", "word", "key", "field")

    def __init__(self, vector, generation, word):
        self._vector = vector
        self.generation = generation
        self.word = word
        self.key = self.field = None

    @classmethod
    def _encoded(cls, field, key, generation, word):
        self = object.__new__(cls)
        self._vector, self.generation, self.word = None, generation, word
        self.field, self.key = field, key
        return self

    @property
    def vector(self):
        if self._vector is None:
            self._vector = self.field.decode(self.key)
        return self._vector

    def __eq__(self, other):
        if not isinstance(other, OrbitCircle):
            return NotImplemented
        if (self.generation, self.word) != (other.generation, other.word):
            return False
        if self.field is not None and self.field is other.field:
            return self.key == other.key
        return self.vector == other.vector

    def __hash__(self):
        return hash((self.vector, self.generation, self.word))

    def __repr__(self):
        return "OrbitCircle(vector=%r, generation=%r, word=%r)" % (
            self.vector, self.generation, self.word
        )


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


class _Mirror:
    """Reflection in one mirror, compiled to integer tables.

    With v = x / D and m = y / E over the field's basis, 2<v,m> is
    sum_c t_c sqrt(r_c) / (D E), where each t_c is an integer linear
    functional of x (geometry.form_functional), and
    v + 2<v,m> m = (E^2 x + sum_c t_c P_c) / (D E^2), where P_c holds the
    coefficients of sqrt(r_c) * y.  Both tables come in closed form from
    y and the basis product table.
    """

    def __init__(self, field, index, mirror):
        self.index = index
        self.key = field.encode(mirror)
        d, product = field.d, field.product
        y, den = self.key[:-1], self.key[-1]
        self.negated = tuple(-a for a in y) + (den,)
        self.scale = den * den
        columns = [{} for _ in range(d)]
        for k in range(len(mirror)):
            for b in range(d):
                for c in range(d):
                    e, g = product[c][b]
                    slot = k * d + e
                    columns[c][slot] = columns[c].get(slot, 0) + g * y[k * d + b]
        terms = []
        for functional, column in zip(form_functional(field, self.key), columns):
            column = tuple((s, w) for s, w in column.items() if w)
            if functional and column:
                terms.append((functional, column))
        self.terms = tuple(terms)

    def reflect(self, key):
        scale = self.scale
        out = list(key) if scale == 1 else [a * scale for a in key]
        for functional, column in self.terms:
            t = sum([key[s] * w for s, w in functional])
            if t:
                for s, w in column:
                    out[s] += t * w
        if out[-1] != 1:
            g = math.gcd(*out)
            if g != 1:
                out = [a // g for a in out]
        return tuple(out)


class _BendBound:
    """Exact test of abs(bend) > max_bend on encoded rows.

    The screen is integer arithmetic: ``exactnum._enclose`` at 64 bits
    encloses the key's bend coefficients over its denominator D, and the
    bound is enclosed the same way over its own denominator E; it decides
    when the two intervals, brought to the common scale D * E * 2**64, are
    disjoint.  When they meet, as on an exact tie or a bend within the
    enclosure width of the bound, the bend is decoded and compared exactly.
    """

    def __init__(self, field, max_bend):
        self.field = field
        self.max_bend = max_bend
        q = QNum(max_bend)
        self.lo, self.hi = _enclose(q.radicands, q.coeffs, 64)
        self.den = q.den

    def screen(self, key):
        """True or False when the enclosures settle the test, None when they meet."""
        d = self.field.d
        lo, hi = _enclose(self.field.radicands, key[d:2 * d], 64)
        # abs(bend) * D * 2**64 lies in [lo, hi]
        if hi < 0:
            lo, hi = -hi, -lo
        elif lo < 0:
            lo, hi = 0, max(hi, -lo)
        den = key[-1]
        if lo * self.den > self.hi * den:
            return True
        if hi * self.den < self.lo * den:
            return False
        return None

    def exceeds(self, key):
        decided = self.screen(key)
        if decided is None:
            return abs(self.field.coordinate(key, 1)) > self.max_bend
        return decided


def _generate(cluster, limits, mirrors, mode):
    if limits is None:
        limits = OrbitLimits()
    if not cluster:
        raise ValueError("cluster must be nonempty")

    field = _Field(cluster + tuple(m for _, m in mirrors))
    plans = [_Mirror(field, idx, m) for idx, m in mirrors]
    bound = None if limits.max_bend is None else _BendBound(field, limits.max_bend)

    circles = [
        OrbitCircle._encoded(field, field.encode(v), 0, str(i + 1))
        for i, v in enumerate(cluster)
    ]
    # (key, word, position of the mirror that made the circle)
    frontier = [(c.key, c.word, -1) for c in circles]
    seen = set(key for key, _, _ in frontier)

    generation = 0
    while frontier and generation < limits.max_generation:
        generation += 1
        parents, frontier = frontier, []
        for key, word, made_by in parents:
            for j, plan in enumerate(plans):
                # the image in the mirror that made the circle is its parent
                if j == made_by or key == plan.key or key == plan.negated:
                    continue
                image = plan.reflect(key)
                if image in seen:
                    continue
                if bound is not None and bound.exceeds(image):
                    continue
                seen.add(image)
                frontier.append((image, "%d.%s" % (plan.index, word), j))
        circles.extend(
            OrbitCircle._encoded(field, key, generation, word)
            for key, word, _ in frontier
        )

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
    """The orbit as text, one line per circle (see the module docstring).

    A coordinate is printed as ``str`` of the exact number.  For circles
    that carry a key it is formatted from the key's integers, each
    distinct (denominator, coefficients) once per field.
    """
    texts = {}  # field -> the row_text cache over it
    lines = []
    for c in orbit.circles:
        if c.field is None:
            coords = ",".join(str(q) for q in c.vector)
        else:
            coords = c.field.row_text(c.key, texts.setdefault(c.field, {}))
        lines.append("%d\t%s\t(%s)" % (c.generation, c.word, coords))
    return "\n".join(lines) + ("\n" if lines else "")


def parse_tsv(text):
    """Parse export_tsv output back into a tuple of OrbitCircle.

    Each distinct coordinate text is scanned once into integers, and the
    rows are encoded over one exactnum._Field of the file's radicands, so
    the circles carry keys and decode their vectors only when read.  A
    malformed line raises ValueError naming it: a wrong field count, a
    generation that is not a nonnegative integer, a coordinate literal
    outside the grammar (with the scanner's message and position), fewer
    than 3 coordinates, or a row length unlike the first row's.
    """
    scanned = {}  # coordinate text -> its index in numbers
    numbers = []
    # per line, few objects for the collector to trace: the generations,
    # the words, and the coordinates' indices in numbers in one flat list
    generations, words, flat = [], [], []
    width = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line or line.isspace():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ValueError("orbit line %d: expected 3 tab fields" % lineno)
        gen, word, coords = parts
        try:
            generation = int(gen)
        except ValueError:
            generation = -1
        if generation < 0:
            raise ValueError(
                "orbit line %d: generation must be a nonnegative integer, got %r"
                % (lineno, gen)
            )
        if not (coords.startswith("(") and coords.endswith(")")):
            raise ValueError("orbit line %d: malformed coordinate tuple" % lineno)
        row = coords[1:-1].split(",")
        if len(row) != width:
            if len(row) < 3:
                raise ValueError(
                    "orbit line %d: an inversive vector needs at least 3 entries" % lineno
                )
            if width is not None:
                raise ValueError(
                    "orbit line %d: expected %d coordinates, as on the first row, got %d"
                    % (lineno, width, len(row))
                )
            width = len(row)
        for part in row:
            i = scanned.get(part)
            if i is None:
                try:
                    numbers.append(_scan(part))
                except ValueError as e:
                    raise ValueError("orbit line %d: %s" % (lineno, e)) from None
                i = scanned[part] = len(numbers) - 1
            flat.append(i)
        generations.append(generation)
        words.append(word)
    field = _Field.over(k for radicands, _, _ in numbers for k in radicands)
    numbers = [field.place(*number) for number in numbers]
    flat = [numbers[i] for i in flat]
    return tuple(
        OrbitCircle._encoded(field, field.join(flat[r * width:(r + 1) * width]), generation, word)
        for r, (generation, word) in enumerate(zip(generations, words))
    )


@dataclass(frozen=True)
class EmptyInteriorReport:
    verdict: bool  # True: no sampled point lay inside every wall
    sample_count: int
    seed: int
    box: tuple  # per-coordinate (lo, hi) Fractions
    counterexample: tuple | None
    exact_checks: int


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
        clo = [(c - radius)._bounds(64)[0] for c in center]
        chi = [(c + radius)._bounds(64)[1] for c in center]
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


def _sample_ratios(box):
    """Per box coordinate, integers (A, C, D) with
    lo + (hi - lo) * u / 2**53 == (A + C*u) / D for every u."""
    ratios = []
    for lo, hi in box:
        width = hi - lo
        ratios.append((
            lo.numerator * width.denominator << 53,
            width.numerator * lo.denominator,
            lo.denominator * width.denominator << 53,
        ))
    return ratios


def _float_point(ratios, words):
    # int true division rounds correctly, as float(Fraction) does
    return [(a + c * u) / den for (a, c, den), u in zip(ratios, words)]


def _exact_point(ratios, words):
    return tuple(Fraction(a + c * u, den) for (a, c, den), u in zip(ratios, words))


def verify_empty_interior(config, sample_count, seed, box=None):
    """Sample the bounding box and look for a point interior to every wall.

    Coordinate i of a sample is the exact rational lo + (hi - lo) * u / 2**53,
    u the 53 high bits of the next word of a seeded splitmix64 stream, so
    reports reproduce bit for bit.  Per coordinate that point is
    (A + C*u) / D over integers A, C and D fixed by the box, and its float
    is that one int ratio, correctly rounded as float(Fraction) is,
    OverflowError included.  Each sample is screened with the float point:
    only points within 1e-6 of passing every wall are built as Fractions
    and checked exactly (``exact_checks`` counts them).  A counterexample
    is therefore exact, but the 1e-6 margin is not a proven bound on the
    float error, and the box is only sampled, so a True verdict is
    sampling evidence, not a proof.
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
    ratios = _sample_ratios(box)

    frows = [[float(q) for q in r] for r in rows]
    rng = splitmix64(seed)
    exact_checks = 0
    for _ in range(sample_count):
        words = [next(rng) >> 11 for _ in ratios]
        fpoint = _float_point(ratios, words)
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
        point = _exact_point(ratios, words)
        if all(interior_contains(r, point) for r in rows):
            return EmptyInteriorReport(
                False, sample_count, seed, box, point, exact_checks
            )
    return EmptyInteriorReport(True, sample_count, seed, box, None, exact_checks)
