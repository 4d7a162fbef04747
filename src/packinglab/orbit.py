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

Orthogonal mirrors commute, so a circle x = r_i p is not reflected in a
mirror j that comes before i in the mirror list, is orthogonal to i
(<m_i, m_j> = 0), and whose image of the parent p is known to be in the
orbit: j made p, or r_j p was computed and was already seen or kept.
Each circle carries, for its children, the list of its mirrors whose
image is not known to be seen: those the bend bound filtered, those
skipped as equal to the circle, and those skipped by this rule.  The
output is byte-identical to trying every mirror, words and order
included.  Since j < i, r_j p was handled before x was appended, so it
comes before x in breadth-first order and is expanded first; by
induction on that order, r_i r_j p = r_j x is then already seen or is
rejected by the bend bound, and either way the full loop would drop it
here too.  A mirror skipped by the rule is not known to be seen (the
image r_j p may be one the bound rejected), so it counts as unknown for
the circle's own children.  Orthogonality is read once per call off the
compiled integer tables.

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
canonical exact form, ``str`` of each QNum; ``OrbitCircle.text`` is the
part between the parentheses.  ``export_tsv`` prints it, formatted from
the keys with ``exactnum._format`` (each distinct number once per
field), and ``parse_tsv`` scans the literals back into integers and keys
over one field of the file's radicands; neither goes through QNum.
``parse_tsv`` checks each distinct literal once, when it first scans
it, against ``_format`` of its number: a row whose literals all match
keeps the file's own text, so a canonical file is not formatted again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exactnum import QNum, _enclose, _Field, _format, _scan
from .geometry import as_vector, form_functional, inner, interior_contains, key_is_wall
from .groupwords import Configuration

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix64(z):
    # the splitmix64 output function of one 64-bit state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _word(seed, k):
    """Word k (from 0) of the splitmix64 stream of a 64-bit seed (portable,
    cheap), drawn without the ones before it."""
    return _mix64((seed + (k + 1) * _GAMMA) & _MASK64)


@dataclass(frozen=True)
class OrbitLimits:
    """Termination bounds for orbit generation.

    A generation bound is always required: an exact-arithmetic orbit
    with only a bend bound is not guaranteed to terminate (coordinates
    of a generic configuration are not discrete).  ``max_generation`` is
    a nonnegative int, not a bool.  ``max_bend`` is None, which disables
    the bend filter, or a nonnegative int, Fraction or QNum.  Anything
    else raises ValueError.

    The bend bound B prunes the search: an image with |bend| > B is
    neither kept nor reflected (the cluster circles are always kept).  So
    the orbit holds the circles reached through circles with |bend| <= B.
    Once a mirror has negative bend, that need not be every orbit circle
    of |bend| <= B within the generation bound: on d3n13 {34}, whose
    mirror 35 has bend (sqrt(2)-sqrt(6))/2, 8 of the 102 circles of
    |bend| <= 20 within 3 generations are reached only through a larger
    bend, among them word 13.20.1 of bend 44*sqrt(2)-19*sqrt(6).
    """

    max_generation: int = 6
    max_bend: int | None = 10_000

    def __post_init__(self):
        generations = self.max_generation
        if isinstance(generations, bool) or not isinstance(generations, int) or generations < 0:
            raise ValueError(
                "an explicit nonnegative generation limit is required; "
                "got %r" % (generations,)
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

    ``text`` is the row as ``export_tsv`` prints it between the
    parentheses: ``str`` of each coordinate, joined by commas.  A circle
    that ``parse_tsv`` read from a row of canonical literals keeps that
    row's own text; any other circle formats it from its key (each
    distinct number once per field) or its vector when it is read.
    """

    __slots__ = ("_vector", "generation", "word", "key", "field", "_text")

    def __init__(self, vector, generation, word):
        self._vector = vector
        self.generation = generation
        self.word = word
        self.key = self.field = self._text = None

    @classmethod
    def _encoded(cls, field, key, generation, word, text=None):
        self = object.__new__(cls)
        self._vector, self.generation, self.word = None, generation, word
        self.field, self.key, self._text = field, key, text
        return self

    @property
    def text(self):
        if self._text is not None:
            return self._text
        if self.field is None:
            return ",".join([str(q) for q in self._vector])
        return self.field.row_text(self.key)

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
    """The rows as inversive vectors, each proved to have norm -1.

    The one gate for row proofs: a Configuration passes through, since
    its constructor proved every row and stored it through ``as_vector``.
    Raw rows are encoded over one field and each key is checked alone by
    ``geometry.key_is_wall`` (the check ``is_wall`` makes), so lengths may
    differ; the error names the first failing row, counting from 1.
    """
    if isinstance(rows, Configuration):
        return rows.rows
    out = tuple(as_vector(r) for r in rows)
    field = _Field(out)
    for i, r in enumerate(out):
        if not key_is_wall(field, field.encode(r)):
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


def _commuting(plans):
    """Per plan position i, the positions j < i of the mirrors orthogonal
    to mirror i: every functional of plan i vanishes on plan j's key."""
    return [
        frozenset(
            j for j, other in enumerate(plans[:i])
            if not any(sum([other.key[s] * w for s, w in f]) for f, _ in plan.terms)
        )
        for i, plan in enumerate(plans)
    ]


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
    commuting = _commuting(plans)
    # (key, word, position of the mirror that made the circle, positions
    # of the parent's mirrors whose image is not known to be in seen)
    frontier = [(c.key, c.word, -1, ()) for c in circles]
    seen = set(key for key, _, _, _ in frontier)

    generation = 0
    while frontier and generation < limits.max_generation:
        generation += 1
        parents, frontier = frontier, []
        for key, word, made_by, unknown in parents:
            skip = commuting[made_by].difference(unknown) if made_by >= 0 else ()
            missed = []  # this circle's mirrors whose image is not known to be in seen
            for j, plan in enumerate(plans):
                # the image in the mirror that made the circle is its parent
                if j == made_by:
                    continue
                if j in skip or key == plan.key or key == plan.negated:
                    missed.append(j)
                    continue
                image = plan.reflect(key)
                if image in seen:
                    continue
                if bound is not None and bound.exceeds(image):
                    missed.append(j)
                    continue
                seen.add(image)
                frontier.append((image, "%d.%s" % (plan.index, word), j, missed))
        circles.extend(
            OrbitCircle._encoded(field, key, generation, word)
            for key, word, _, _ in frontier
        )

    return PackingOrbit(tuple(circles), limits, mode)


def _check_disjoint_sample(orbit, pairs=32):
    # tangent or disjoint interiors: <v,w> = 1 or > 1, checked exactly
    circles = orbit.circles
    n = len(circles)
    if n < 2:
        return
    for t in range(min(pairs, n * (n - 1) // 2)):
        i = _word(0, 2 * t) % n
        j = _word(0, 2 * t + 1) % n
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
    """The orbit as text, one line per circle (see the module docstring):
    each circle's ``text`` between parentheses."""
    lines = ["%d\t%s\t(%s)" % (c.generation, c.word, c.text) for c in orbit.circles]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_tsv(text):
    """Parse export_tsv output back into a tuple of OrbitCircle.

    Each distinct coordinate text is scanned once into integers, and the
    rows are encoded over one exactnum._Field of the file's radicands, so
    the circles carry keys and decode their vectors only when read.  When
    a literal is first scanned it is also checked to be canonical, the
    text ``str`` gives for its number; a row whose literals all are keeps
    the file's own text as its circle's ``text``, and any other row's text
    is formatted from its key when read, so export_tsv and render never
    see a non-canonical spelling.  A malformed line raises ValueError
    naming it: a wrong field count, a generation that is not a string of
    ASCII digits, a coordinate literal outside the grammar (with the
    scanner's message and position), fewer than 3 coordinates, or a row
    length unlike the first row's.
    """
    scanned = {}  # coordinate text -> its index in numbers
    numbers = []
    noncanonical = set()  # literals scanned so far that str spells otherwise
    # per line, few objects for the collector to trace: the generations,
    # the words, the row texts (None when not canonical) and the
    # coordinates' indices in numbers in one flat list
    generations, words, texts, flat = [], [], [], []
    width = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line or line.isspace():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ValueError("orbit line %d: expected 3 tab fields" % lineno)
        gen, word, coords = parts
        # int() would also take "+3", " 3", "1_0" and other scripts' digits
        if not (gen.isascii() and gen.isdigit()):
            raise ValueError(
                "orbit line %d: generation must be a nonnegative integer, got %r"
                % (lineno, gen)
            )
        if not (coords.startswith("(") and coords.endswith(")")):
            raise ValueError("orbit line %d: malformed coordinate tuple" % lineno)
        inner = coords[1:-1]
        row = inner.split(",")
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
                    number = _scan(part)
                except ValueError as e:
                    raise ValueError("orbit line %d: %s" % (lineno, e)) from None
                if _format(*number) != part:
                    noncanonical.add(part)
                i = scanned[part] = len(numbers)
                numbers.append(number)
            flat.append(i)
        generations.append(int(gen))
        words.append(word)
        texts.append(inner if not noncanonical or noncanonical.isdisjoint(row) else None)
    field = _Field.over(k for radicands, _, _ in numbers for k in radicands)
    numbers = [field.place(*number) for number in numbers]
    flat = [numbers[i] for i in flat]
    return tuple(
        OrbitCircle._encoded(
            field, field.join(flat[r * width:(r + 1) * width]), generation, word, row_text
        )
        for r, (generation, word, row_text) in enumerate(zip(generations, words, texts))
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
    """Per coordinate (lo, hi) Fractions enclosing every wall with b > 0.

    With a wall row encoded as x / D over one field and b = u / D, the
    reciprocal 1/u = w / m gives its box ends (bz_j -+ 1) / b as
    (x_j -+ D) * w / m, and each end is rounded outward to the enclosure
    of that number at 64 bits: the same Fractions as ``QNum._bounds(64)``
    of the canonical number, since the enclosure scales with its
    coefficients.
    """
    balls = [r for r in rows if r[1].sign() > 0]  # lines and outward circles do not bound a box
    if not balls:
        raise ValueError(
            "no interior-bounding circle to derive a sample box from; "
            "pass box= explicitly"
        )
    field = _Field(balls)
    d, radicands, multiply = field.d, field.radicands, field.multiply
    lo = hi = None
    for r in balls:
        key = field.encode(r)
        den = key[-1]
        w, m = field.reciprocal(key[d:2 * d])
        if m < 0:
            w, m = [-c for c in w], -m
        scale = m << 64
        clo, chi = [], []
        for j in range(2 * d, len(key) - 1, d):
            x = list(key[j:j + d])
            x[0] -= den  # radicand 1 is the first basis element
            clo.append(Fraction(_enclose(radicands, multiply(x, w), 64)[0], scale))
            x[0] += 2 * den
            chi.append(Fraction(_enclose(radicands, multiply(x, w), 64)[1], scale))
        if lo is None:
            lo, hi = clo, chi
        else:
            lo = [min(a, b2) for a, b2 in zip(lo, clo)]
            hi = [max(a, b2) for a, b2 in zip(hi, chi)]
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


def _exact_point(ratios, words):
    return tuple(Fraction(a + c * u, den) for (a, c, den), u in zip(ratios, words))


def _check_range(ratios, frows):
    """Raise, before the first sample, any OverflowError a sample could.

    Float rounding is monotone, so a sampled coordinate lies between the
    floats of its box ends and each term c - b*x between its values
    there; once every end converts and every term squares to a finite
    float at both ends, no sample can overflow, whichever terms it reads.
    """
    ends = [(a / den, (a + (c << 53)) / den) for a, c, den in ratios]
    for k, fr in enumerate(frows):
        b = fr[1]
        if b == 0.0:
            continue
        for c, pair in zip(fr[2:], ends):
            for x in pair:
                if not math.isfinite((c - b * x) ** 2):
                    raise OverflowError(
                        "wall %d: a squared term is infinite at the box's edge" % (k + 1)
                    )


_UNITS = 1 << 53  # the u of a sample coordinate lie in [0, _UNITS)
# a term |c - b x| above this fails its ball's screen alone: R**2 is
# 1 + 2.000001e-6, well past the screen's 1 + 1e-6
_R = 1.000001


def _first(passes, guess):
    """The least u in [0, _UNITS) with passes(u), or _UNITS if none, for
    passes monotone (False, then True) on [0, _UNITS): a doubling search
    out from guess, then bisection."""
    lo = hi = min(max(guess, 0), _UNITS - 1)
    step = 1
    if passes(hi):
        lo = hi - 1
        while lo >= 0 and passes(lo):
            hi, step = lo, 2 * step
            lo = hi - step
        lo = max(lo, -1)
    else:
        hi = lo + 1
        while hi < _UNITS and not passes(hi):
            lo, step = hi, 2 * step
            hi = lo + step
        hi = min(hi, _UNITS)
    # lo fails (or is -1), hi passes (or is _UNITS)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if passes(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _window(balls, j, ratio):
    """The u in [0, _UNITS), as lo <= u <= hi, at which coordinate j has
    every ball's term |c_j - b x| <= _R, x = (A + C*u) / D drawn as the
    sampler draws it; lo > hi when there is none.  The full range when
    C <= 0."""
    a, c, den = ratio
    lo, hi = 0, _UNITS - 1
    if c <= 0:
        return lo, hi

    def guess(x):
        # the real u at which the float x is drawn
        try:
            p, q = x.as_integer_ratio()
        except OverflowError:  # x is infinite: search from u = 0
            return 0
        return (p * den - q * a) // (q * c)

    for b, bz in balls:
        cj = bz[j]
        # c_j - b x falls as u grows, so each side is one search; a ball
        # that the current edge already satisfies costs one evaluation
        if not cj - b * ((a + c * lo) / den) <= _R:
            lo = _first(lambda u: cj - b * ((a + c * u) / den) <= _R, guess((cj - _R) / b))
        if cj - b * ((a + c * hi) / den) < -_R:
            hi = _first(lambda u: cj - b * ((a + c * u) / den) < -_R, guess((cj + _R) / b)) - 1
        if lo > hi:
            break
    return lo, hi


def verify_empty_interior(config, sample_count, seed, box=None):
    """Sample the box of a Configuration or rows for a point inside every wall.

    Coordinate j of sample i is the exact rational lo + (hi - lo) * u / 2**53,
    u the 53 high bits of word i*n + j of the seeded splitmix64 stream, so
    reports reproduce bit for bit.  Per coordinate that point is
    (A + C*u) / D over integers A, C and D fixed by the box, and its float
    is that one int ratio, correctly rounded as float(Fraction) is.
    Each sample is screened with the float point: only points within 1e-6
    of passing every wall are built as Fractions and checked exactly
    (``exact_checks`` counts them).  A counterexample is therefore exact,
    but the 1e-6 margin is not a proven bound on the float error, and the
    box is only sampled, so a True verdict is sampling evidence, not a
    proof.

    The screen: a wall with b > 0 (a ball) passes when
    q = 1.0 - sum_j (c_j - b x_j)**2 >= -1e-6, a line (b = 0) when
    sum_j c_j x_j - bh/2 >= -1e-6, and a wall with b < 0 when the sum of
    its squared terms minus 1.0 is.  Every sum is an explicit left-to-right
    loop (builtin sum() of floats is compensated from CPython 3.12), and a
    point is a candidate exactly when every wall passes.  A ball's loop
    stops at the first prefix with q < -1e-6: every term is >= 0 and float
    + and - are monotone, so the full sum rejects too.

    Most samples are settled on integers before any float is formed.
    Coordinate j has a window W_j, the u in [0, 2**53) at which every ball
    has |c_j - b x_j| <= R = 1.000001, its x_j drawn as above.  Each float
    step (int true division, b * x, c - y) is monotone in u, so each
    ball's set is one interval whose two edges are found by monotone
    searches: doubling out from the real-number estimate, then bisection.
    A ball's prefix sums are at least each of its terms, so a sample the
    screen passes has 1.0 - t**2 >= -1e-6 for every ball term t, which
    puts |t| below sqrt(1 + 1e-6) (about 1.0000005) plus the rounding of
    ``** 2``, far below R.  A sample with some u_j outside W_j is
    therefore one the screen rejects, and it is dropped at the first such
    u_j.  W_j is built the first time a sample reads coordinate j (the
    full range when C <= 0), and an empty W_j rejects every sample that
    remains, so the report is returned at once.  splitmix64 is
    counter-based, so each u is drawn when first read, and a sample inside
    every window is screened as above, so the report equals that of
    screening every wall of every sample in row order.

    Overflow is settled before the first sample: every box end is
    converted to float, then each b != 0 wall's squared terms are
    evaluated at both ends, and the first OverflowError is raised (an
    infinite term raises one too).  Past that check no sample and no
    window search overflows.
    """
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
    _check_range(ratios, frows)
    balls = [(fr[1], fr[2:]) for fr in frows if fr[1] > 0.0]
    rest = [fr for fr in frows if not fr[1] > 0.0]
    windows = []
    exact_checks = 0
    for i in range(sample_count):
        first = i * n  # coordinate j is word i*n + j
        us = []
        for j in range(n):
            if j == len(windows):
                windows.append(_window(balls, j, ratios[j]))
                if windows[j][0] > windows[j][1]:
                    return EmptyInteriorReport(True, sample_count, seed, box, None, exact_checks)
            lo, hi = windows[j]
            u = _word(seed, first + j) >> 11
            if u < lo or u > hi:
                break
            us.append(u)
        else:
            xs = [(a + w * u) / den for (a, w, den), u in zip(ratios, us)]
            if _screen(balls, rest, xs):
                exact_checks += 1
                point = _exact_point(ratios, us)
                if all(interior_contains(r, point) for r in rows):
                    return EmptyInteriorReport(
                        False, sample_count, seed, box, point, exact_checks
                    )
    return EmptyInteriorReport(True, sample_count, seed, box, None, exact_checks)


def _screen(balls, rest, xs):
    """The float screen of one point: True when every wall passes."""
    for b, bz in balls:
        d2 = 0.0
        for c, x in zip(bz, xs):
            d2 += (c - b * x) ** 2
            if 1.0 - d2 < -1e-6:
                return False
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
            q = s - 1.0  # -(1.0 - s), exactly
        if q < -1e-6:
            return False
    return True
