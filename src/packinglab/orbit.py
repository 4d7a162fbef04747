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
the circle's own children.  Orthogonality is read off the mirrors'
Gram, which the caller computes once with ``geometry.gram``.

The loop runs on integers.  Each call first closes the radicands of
its rows under products into a fixed multiquadratic basis ({1,2,5,10}
for Bi(10), {1,2,3,6} for the d=3 entries) and writes every row as its
key: its (n+2)*d integer basis coefficients over one positive common
denominator, reduced by the gcd (``exactnum._Field``, which
``geometry.gram`` shares).  Each mirror's reflection is an integer
rank-one update: its 2<v,m> is a few integer functionals t'_c of the key
(``geometry.form_functional``), each times a fixed column P'_c, and the
image of x / D is (a x + sum_c t'_c P'_c) over D a.  The tables are
divided by their content when they are built, so that most mirrors get
a = 1 (every row of Bi(10), 15 of the 22 rows of d3n13), the image is
then reduced already (``_Mirror``), and only where a > 1 is its gcd
taken.

The kernels run on keys cut to the slots the orbit can reach
(``_reached``): start from the slots nonzero in some cluster key; a term
(t'_c, P'_c) is live when its functional reads a reached slot, and every
slot of a live term's column is then reached; repeat until nothing
grows.  The den slot is always kept.  Every orbit key is 0 off those
slots, by induction: a cluster key is; a x keeps the support of x; a
dead term's t'_c is 0 on a key supported on the reached slots; a live
term writes only reached slots; and dividing by the gcd keeps the
support.  Dropping those zeros keeps the gcd and the bend, and putting
them back gives the key itself, so each circle's key is cut before its
kernels run and each image is widened back with zeros before the
``seen`` lookup.  ``seen`` and the circles keep the full keys, one tuple
per circle: cut keys in ``seen`` would be a second tuple per circle,
which on bi10-example's orbit costs more peak memory than the shorter
hashes save in time.  On d3n13 {34} 28 of the 56 slots are reached (its orbit fills
16 of them), on bi10-example {1,7} 4 of 16.

Each call writes every mirror's live terms on the reached slots, with
only %d-formatted integers and slot indices, as one straight-line Python
function, and compiles it with ``compile`` and ``exec``, as
``collections.namedtuple`` builds its classes.  The bend of the image is
bend(x) + 2<x,m> bend(m), so a mirror of nonzero bend computes the
functionals, then only the image's reached bend coefficients, and
settles the bend bound on them; only an image within the bound gets its
other coordinates and its tuple (and, where a > 1, its gcd).  A flat
mirror (bend 0) keeps every bend, so it is not screened: a circle within
the bound gives an image within it, and a generation-0 circle past the
bound has its flat mirrors marked as missed without reflecting.  When no
bend slot is reached, every orbit bend is 0, within any bound, and no
kernel screens.

The bound is settled before the ``seen`` lookup, and the output is
byte-identical to that of looking up first.  Every circle in
``seen`` other than a cluster circle passed the bound, so the only image
the screen now rejects that the lookup would have dropped is a cluster
circle; rejecting it marks its mirror as missed, which only turns a
commuting skip off for the circle's children, and a reflection the rule
would have skipped gives an image that is already seen or past the
bound.  The bound is settled in integers.  A kernel first tests
sum_k U_k |v_k| <= L D' on the image's bend coefficients v_k over its
den D', with U_k = ceil(sqrt(r_k) * 2**32) and L <= max_bend * 2**32
fixed per call (``_BendBound``); when that holds, abs(bend) <= max_bend.
Only when it fails does ``exceeds`` enclose the bend's coefficients and
the bound with ``exactnum._enclose`` at 64 bits, and only when the two
enclosures meet (an exact tie, or a bend within about 2**-64 of the
bound relative to its coefficients) is the bend decoded and compared as
an exact QNum.  No decision rests on a float.  The kept circles keep
their keys over the field, and a circle decodes its QNum vector only
when ``vector`` is read.

Both generators compute the Gram of the cluster + cocluster rows once,
and a diagonal entry of -1 is the proof that a row is a wall: no row is
proved again.  ``generate_packing`` then proves that its cluster is
one: with ``coxeter.validate_cluster`` on that Gram, the cluster walls
must be pairwise tangent or disjoint with disjoint interiors (g >= 1),
and each must be tangent to, disjoint from or orthogonal to every
cocluster wall (|g| >= 1 or g = 0).  A subset that fails is refused
before any orbit is generated, and the cocluster block of that one Gram
is the mirrors' Gram.  By the Structure Theorem (Kontorovich-Nakamura)
the orbit circles then have pairwise disjoint interiors, provided the
cocluster walls bound a Coxeter polytope; the catalog's wall lists are
taken to do so until a polytope certificate proves it.  The
superpacking's circles may overlap, and it proves nothing more; its
mirrors' Gram is the whole of that Gram.

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
from fractions import Fraction
from operator import itemgetter

from ._record import Record
from .coxeter import validate_cluster
from .exactnum import QNum, _enclose, _Field, _format, _lowest, _scan
from .geometry import MINUS_ONE, as_vector, form_functional, gram, interior_contains
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


def _check_seed(seed):
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ValueError("seed must be an int, not a bool; got %r" % (seed,))
    if not 0 <= seed <= _MASK64:  # _word draws seed mod 2**64
        raise ValueError("seed must be in 0 <= seed < 2**64, got %d" % seed)


class OrbitLimits(Record):
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


class PackingOrbit(Record):
    circles: tuple
    limits: OrbitLimits
    mode: str  # "packing" | "superpacking"

    def __len__(self):
        return len(self.circles)


def _checked_rows(rows, what):
    """The rows as inversive vectors, each proved to have norm -1.

    The row gate of the sampler and the certificates, proving raw rows as
    ``Configuration`` and the orbit's ``_split`` do: on the diagonal of
    the rows' one ``geometry.gram``.  A Configuration passes through,
    since its constructor proved every row on its Gram and stored it
    through ``as_vector``.  Past ``as_vector``'s own errors, the first of
    these faults raises ValueError: no row; rows of different lengths
    (``gram``'s ``dimension mismatch``); a diagonal entry other than -1,
    naming the row by its place counted from 1.  The Gram is quadratic in
    the row count; the CLI's largest raw list is prove-nonintegral's
    16-row supplement of bi1-cluster3.
    """
    if isinstance(rows, Configuration):
        return rows.rows
    out = tuple(as_vector(r) for r in rows)
    if not out:
        raise ValueError("%s must have at least one row" % what)
    for i, row in enumerate(gram(out)):
        if row[i] != MINUS_ONE:
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

    The tables are divided by their content.  With h_c the gcd of t_c's
    coefficients, t_c = h_c t'_c; with g the gcd of E^2 and every h_c w
    over the weights w of P_c, the image is (a x + sum_c t'_c P'_c) over
    D a, where a = E^2 / g (``scale``) and P'_c = h_c P_c / g.  That is the
    image above divided by g, so its key, the tuple reduced by its gcd, is
    the same, and the bend bound, homogeneous in (coefficients, den), gives
    the same verdicts.  ``terms`` pairs each nonzero t'_c with P'_c, and
    ``source`` writes the live ones out as straight-line code on a key cut
    to the reached slots (module docstring).

    Where a = 1 the image needs no gcd.  The map x -> x + sum_c t'_c P'_c
    is then the reflection's own integer matrix R on the coefficients, and
    the den slot passes through.  r_m is an involution for <m,m> = -1, so
    R^2 = I, det R = +-1, and gcd(R x, D) = gcd(x, D).  Every key the
    orbit loop feeds a kernel is reduced (a cluster key comes from
    ``encode``, an image is reduced by induction, and the cut drops only
    zeros), so the image is reduced too.  Where a > 1 the image's den is
    a D >= 2, and its gcd is taken.

    A mirror is ``flat`` when its key's bend slots [d, 2d) are all 0: its
    bend is 0, so it leaves every bend unchanged.
    """

    def __init__(self, field, index, mirror):
        self.index = index
        self.key = field.encode(mirror)
        d, product = field.d, field.product
        y, den = self.key[:-1], self.key[-1]
        self.negated = tuple(-a for a in y) + (den,)
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
                h = math.gcd(*[w for _, w in functional])
                terms.append((tuple((s, w // h) for s, w in functional), h, column))
        g = math.gcd(den * den, *[h * w for _, h, column in terms for _, w in column])
        self.scale = den * den // g
        self.terms = tuple(
            (functional, tuple((s, h * w // g) for s, w in column))
            for functional, h, column in terms
        )
        self.flat = not any(self.key[d:2 * d])

    def source(self, name, slots, bound):
        """Python source of ``def name(x)``, the reflected key of a key x
        cut to ``slots`` (ascending, the den slot last; ``_reached``).

        Only %d-formatted integers and slot indices go into it.  It names
        and returns only those slots: a term whose functional reads none of
        them is 0 on x and is dropped, and a kept term writes only slots of
        the list.  With a bound (a ``_BendBound``) it computes the t'_c,
        then the image's coefficients at the bound's bend slots over D a,
        and returns None when sum_k U_k |v_k| > L D a and ``exceeds`` holds
        on them; only then does it build the other slots, and where a > 1
        reduce the key by its gcd.
        """
        names = {s: "x%d" % s for s in slots}
        values = {s: n if self.scale == 1 else "%d*%s" % (self.scale, n) for s, n in names.items()}
        lines = ["def %s(x):" % name, "    %s, = x" % ", ".join(names.values())]
        for c, (functional, column) in enumerate(self.terms):
            read = [(s, w) for s, w in functional if s in names]
            if read:
                lines.append("    t%d = %s" % (c, " + ".join("%d*x%d" % (w, s) for s, w in read)))
                for s, w in column:
                    values[s] += " + %d*t%d" % (w, c)
        den = slots[-1]
        if bound is not None:
            for s in [*bound.slots, den]:
                if values[s] != names[s]:
                    lines.append("    v%d = %s" % (s, values[s]))
                    values[s] = "v%d" % s
            bend = [values[s] for s in bound.slots]
            total = " + ".join("%d*abs(%s)" % (u, v) for u, v in zip(bound.units, bend))
            lines.append("    if %s > %d*%s and exceeds((%s,), %s):"
                         % (total, bound.limit, values[den], ", ".join(bend), values[den]))
            lines.append("        return None")
        out = ", ".join(values.values())
        if self.scale == 1:
            lines.append("    return (%s,)" % out)
        else:
            lines += [
                "    out = (%s,)" % out,
                "    g = gcd(*out)",
                "    if g != 1:",
                "        return tuple([a // g for a in out])",
                "    return out",
            ]
        return "\n".join(lines)


def _reached(keys, plans):
    """The slots an orbit of these keys under these mirrors can make
    nonzero, ascending, with the den slot last (module docstring): those
    nonzero in some key, closed under adding every column slot of a term
    whose functional reads a slot already in."""
    den = len(keys[0]) - 1
    reached = {s for key in keys for s in range(den) if key[s]}
    terms = [term for plan in plans for term in plan.terms]
    while True:
        live = [column for functional, column in terms if any(s in reached for s, _ in functional)]
        if not live:
            return sorted(reached) + [den]
        terms = [term for term in terms if not any(s in reached for s, _ in term[0])]
        reached.update(s for column in live for s, _ in column)


def _kernels(plans, slots, bound):
    """Each plan's reflection as one straight-line function of a key cut
    to ``slots`` (``_Mirror.source``): the cut image key, or None when the
    image's bend is past the bound (never for a flat plan, nor when bound
    is None).  Each is compiled on its own, which holds the compiler's
    peak memory to one kernel's source, and popped from the namespace it
    reads its globals from, so that no reference cycle keeps the bound
    alive past the call."""
    namespace = {"gcd": math.gcd, "exceeds": None if bound is None else bound.exceeds}
    kernels = []
    for plan in plans:
        source = plan.source("kernel", slots, None if plan.flat else bound)
        exec(compile(source, "<orbit kernel>", "exec"), namespace)
        kernels.append(namespace.pop("kernel"))
    return kernels


class _BendBound:
    """Exact test of abs(bend) > max_bend on a bend given as integer
    coefficients at the bend ``slots`` (key indices in [d, 2d), ascending)
    over a denominator D > 0, not necessarily in lowest terms; the bend's
    coefficients at the other bend slots are 0.

    The kernels' inline test is a sufficient condition for abs(bend) <=
    max_bend: with U_k = ceil(sqrt(r_k) * 2**32) per slot (``units``,
    exactly 2**32 for r_k = 1) and L <= max_bend * 2**32 (``limit``, the
    floor of the bound's lower 64-bit enclosure at scale 2**32), sum_k
    U_k |v_k| <= L D gives abs(bend) <= sum_k sqrt(r_k) |v_k| / D <= L /
    2**32 <= max_bend.  Only a bend that fails it reaches ``exceeds``.
    Where every slot is rational and the bound is an integer, as on
    bi10-example's orbits, the inline test is exact.

    ``exceeds`` screens in integers: ``exactnum._enclose`` at 64 bits
    encloses the coefficients over D, and the bound is enclosed the same
    way over its own denominator E; it decides when the two intervals,
    brought to the common scale D * E * 2**64, are disjoint.  Both ends
    scale with the coefficients and D, so a key that is not reduced gets
    the same answer.  When the intervals meet, as on an exact tie or a
    bend within the enclosure width of the bound, the bend is decoded and
    compared exactly.
    """

    def __init__(self, field, max_bend, slots):
        self.max_bend = max_bend
        self.slots = tuple(slots)
        self.radicands = tuple(field.radicands[s - field.d] for s in self.slots)
        self.units = tuple(_enclose((k,), (1,), 32)[1] for k in self.radicands)
        q = QNum(max_bend)
        self.lo, self.hi = _enclose(q.radicands, q.coeffs, 64)
        self.den = q.den
        self.limit = (self.lo >> 32) // self.den

    def screen(self, coeffs, den):
        """True or False when the enclosures settle the test, None when they meet."""
        lo, hi = _enclose(self.radicands, coeffs, 64)
        # abs(bend) * D * 2**64 lies in [lo, hi]
        if hi < 0:
            lo, hi = -hi, -lo
        elif lo < 0:
            lo, hi = 0, max(hi, -lo)
        if lo * self.den > self.hi * den:
            return True
        if hi * self.den < self.lo * den:
            return False
        return None

    def exceeds(self, coeffs, den):
        decided = self.screen(coeffs, den)
        if decided is None:
            return abs(QNum._make(*_lowest(self.radicands, coeffs, den))) > self.max_bend
        return decided


def _generate(cluster, limits, mirrors, products, mode):
    """Orbit of the cluster under the (index, row) mirrors of Gram products."""
    if limits is None:
        limits = OrbitLimits()

    field = _Field(cluster + tuple(m for _, m in mirrors))
    plans = [_Mirror(field, idx, m) for idx, m in mirrors]
    circles = [
        OrbitCircle._encoded(field, field.encode(v), 0, str(i + 1))
        for i, v in enumerate(cluster)
    ]
    # the kernels run on keys cut to the slots the orbit can reach; seen
    # and the circles keep the full keys, one tuple shared by both
    slots = _reached([c.key for c in circles], plans)
    width, d = len(circles[0].key), field.d
    at = {s: i for i, s in enumerate(slots)}
    cut = itemgetter(*slots)
    widen = itemgetter(*[at.get(s, len(slots)) for s in range(width)])
    bend = [s for s in slots if d <= s < 2 * d]
    # with no bend slot reached every orbit bend is 0, within any bound
    bound = None
    if limits.max_bend is not None and bend:
        bound = _BendBound(field, limits.max_bend, bend)

    # per mirror i, the mirrors j < i orthogonal to it
    commuting = [frozenset(j for j in range(i) if not row[j]) for i, row in enumerate(products)]
    flats = frozenset(j for j, plan in enumerate(plans) if plan.flat)
    kernels = [
        (plan.index, plan.key, plan.negated, kernel)
        for plan, kernel in zip(plans, _kernels(plans, slots, bound))
    ]
    # (key, word, position of the mirror that made the circle, positions
    # of the parent's mirrors whose image is not known to be in seen)
    frontier = [(c.key, c.word, -1, ()) for c in circles]
    seen = set(key for key, _, _, _ in frontier)

    generation = 0
    while frontier and generation < limits.max_generation:
        generation += 1
        parents, frontier = frontier, []
        for key, word, made_by, unknown in parents:
            if made_by >= 0:
                skip = commuting[made_by].difference(unknown)
            elif bound is not None and bound.exceeds([key[s] for s in bend], key[-1]):
                # a cluster circle past the bound: a flat mirror's image
                # keeps its bend, so it is past the bound too
                skip = flats
            else:
                skip = ()
            x = cut(key)
            missed = []  # this circle's mirrors whose image is not known to be in seen
            for j, (index, mirror, negated, kernel) in enumerate(kernels):
                # the image in the mirror that made the circle is its parent
                if j == made_by:
                    continue
                if j in skip or key == mirror or key == negated:
                    missed.append(j)
                    continue
                image = kernel(x)
                if image is None:
                    missed.append(j)
                    continue
                image = widen(image + (0,))
                if image in seen:
                    continue
                seen.add(image)
                frontier.append((image, "%d.%s" % (index, word), j, missed))
        circles.extend(
            OrbitCircle._encoded(field, key, generation, word)
            for key, word, _, _ in frontier
        )

    return PackingOrbit(tuple(circles), limits, mode)


def _split(cluster, cocluster):
    """The cluster and cocluster rows as vectors, and the Gram of
    cluster + cocluster, on whose diagonal each row is proved a wall.

    Either list may be a Configuration.  Past ``as_vector``'s own errors,
    the first of these faults raises ValueError: an empty cluster; rows of
    different lengths (``geometry.gram``'s ``dimension mismatch``); a
    diagonal entry other than -1, naming the row by its place in its own
    list counted from 1; a row given twice in the cluster or twice in the
    cocluster, naming both places counted from 1 over cluster + cocluster.
    A cluster row that is also a mirror stays allowed: the orbit never
    reflects a circle in itself.
    """
    cluster, cocluster = [
        tuple(as_vector(r) for r in (rows.rows if isinstance(rows, Configuration) else rows))
        for rows in (cluster, cocluster)
    ]
    if not cluster:
        raise ValueError("cluster must be nonempty")
    products = gram(cluster + cocluster)
    for i, row in enumerate(products):
        if row[i] != MINUS_ONE:
            what, k = ("cluster", i) if i < len(cluster) else ("cocluster", i - len(cluster))
            raise ValueError("%s row %d does not have norm -1" % (what, k + 1))
    for offset, rows in ((0, cluster), (len(cluster), cocluster)):
        first = {}
        for i, row in enumerate(rows, offset):
            j = first.setdefault(row, i)
            if j != i:
                raise ValueError(
                    "rows %d and %d of cluster + cocluster are the same wall" % (j + 1, i + 1)
                )
    return cluster, cocluster, products


def generate_packing(cluster, cocluster, limits=None):
    """Orbit of the cluster under reflections in the cocluster walls.

    The cluster is proved one first, by ``coxeter.validate_cluster`` on
    the Gram of the cluster + cocluster rows: ValueError names the first
    failing rule and its row pair, counted from 1 over the cluster rows,
    then the cocluster rows (as in the orbit's words).  Given the cluster,
    the Structure Theorem makes the orbit's interiors pairwise disjoint
    once the cocluster walls bound a Coxeter polytope (module docstring).
    """
    cluster, cocluster, products = _split(cluster, cocluster)
    report = validate_cluster(products, range(len(cluster)))
    if not report.verdict:
        rule, i, j, g, _ = next(c for c in report.checks if not c[4])
        raise ValueError(
            "not a cluster: rows %d and %d of cluster + cocluster fail %s (Gram entry %s)"
            % (i + 1, j + 1, rule, g)
        )
    offset = len(cluster)
    mirrors = [(offset + k + 1, m) for k, m in enumerate(cocluster)]
    products = [row[offset:] for row in products[offset:]]
    return _generate(cluster, limits, mirrors, products, "packing")


def generate_superpacking(cluster, cocluster, limits=None):
    """Orbit of the cluster under reflections in all walls (interiors
    of the result may overlap)."""
    cluster, cocluster, products = _split(cluster, cocluster)
    mirrors = [(k + 1, m) for k, m in enumerate(cluster + cocluster)]
    return _generate(cluster, limits, mirrors, products, "superpacking")


def bends(orbit):
    """Bends of the orbit circles, exact, in insertion order."""
    return [c.vector[1] for c in orbit.circles]


class OrbitStats(Record):
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


class EmptyInteriorReport(Record):
    verdict: bool  # True: no sampled point lay inside every wall
    sample_count: int
    seed: int
    box: tuple  # per-coordinate (lo, hi) Fractions
    counterexample: tuple | None
    exact_checks: int


def _ball_extents(rows):
    """Per ball (wall with b > 0), (S, ends): ends[j] = (lo, hi), integers
    with [lo / S, hi / S] the outward 64-bit enclosure of its extent
    ((bz_j - 1) / b, (bz_j + 1) / b).  With the row encoded as x / D over
    one field and b = u / D, one reciprocal 1/u = w / m (m > 0) gives each
    end as (x_j -+ D) * w / m and S = m * 2**64; the enclosure scales with
    its coefficients, so each end is ``QNum._bounds(64)`` of its number."""
    balls = [r for r in rows if r[1].sign() > 0]
    field = _Field(balls)
    d, radicands, multiply = field.d, field.radicands, field.multiply
    extents = []
    for r in balls:
        key = field.encode(r)
        den = key[-1]
        w, m = field.reciprocal(key[d:2 * d])
        if m < 0:
            w, m = [-c for c in w], -m
        ends = []
        for j in range(2 * d, len(key) - 1, d):
            x = list(key[j:j + d])
            x[0] -= den  # radicand 1 is the first basis element
            lo = _enclose(radicands, multiply(x, w), 64)[0]
            x[0] += 2 * den
            ends.append((lo, _enclose(radicands, multiply(x, w), 64)[1]))
        extents.append((m << 64, ends))
    return extents


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


def _windows(extents, ratios):
    """Per coordinate, (lo, hi): the u in [0, _UNITS) whose (A + C*u) / D
    lies in every ball's extent [elo / S, ehi / S], which for C, D, S > 0
    is ceil((elo*D - A*S) / (C*S)) <= u <= floor((ehi*D - A*S) / (C*S));
    lo > hi when there is none, the full range when C <= 0 or no ball."""
    windows = []
    for j, (a, c, den) in enumerate(ratios):
        lo, hi = 0, _UNITS - 1
        if c > 0:
            for s, ends in extents:
                lo = max(lo, -((a * s - ends[j][0] * den) // (c * s)))
                hi = min(hi, (ends[j][1] * den - a * s) // (c * s))
        windows.append((lo, hi))
    return windows


def verify_empty_interior(config, sample_count, seed, box=None):
    """Sample the box of a Configuration or rows for a point inside every wall.

    ValueError, in order: the row gate's (``_checked_rows``); a count not
    a positive int and a seed not an int in [0, 2**64), bools refused; no
    box and no ball to derive one from; a box of other than n intervals.

    Coordinate j of sample i is the exact rational lo + (hi - lo) * u / 2**53,
    u the 53 high bits of word i*n + j of the splitmix64 stream of seed, so
    reports reproduce bit for bit.  It is (A + C*u) / D over integers fixed
    by the box, and its float is that int ratio, correctly rounded.  Only
    points within 1e-6 of passing the float screen (``_screen``) are built
    as Fractions and checked exactly.  A counterexample is therefore
    exact, but the margin is not a proven bound on the float error and
    the box is only sampled: a True verdict is evidence, not a proof.

    The windows are the ball extents in integers: W_j (``_windows``) holds
    the u whose exact x_j lies in every ball's extent (``_ball_extents``,
    computed once per call; a derived box is their union).  A point inside
    a ball has |bz_j - b x_j| < 1, so it lies inside that ball's extent,
    which rounds outward.  A sample outside some W_j is therefore not
    inside every wall; it is dropped at its first such u_j, before any
    float is formed (each u is drawn when first read).  ``exact_checks``
    counts the in-window samples that pass the screen.  The windows cover
    balls only.  Overflow (``_check_range``) and every window are settled
    before the first draw; when a window is empty, nothing is drawn.
    """
    rows = _checked_rows(config, "config")
    if isinstance(sample_count, bool) or not isinstance(sample_count, int):
        raise ValueError("sample_count must be an int, not a bool; got %r" % (sample_count,))
    if sample_count <= 0:
        raise ValueError("sample_count must be positive")
    _check_seed(seed)
    extents = _ball_extents(rows)
    n = len(rows[0]) - 2
    if box is None:  # the union of the ball extents
        if not extents:
            raise ValueError("no interior-bounding circle to derive a sample box from: "
                             "no wall has positive bend")
        box = [(min(Fraction(e[j][0], s) for s, e in extents),
                max(Fraction(e[j][1], s) for s, e in extents)) for j in range(n)]
    box = tuple((Fraction(lo), Fraction(hi)) for lo, hi in box)
    if len(box) != n:
        raise ValueError("box has %d intervals, expected %d" % (len(box), n))
    ratios = _sample_ratios(box)

    frows = [[float(q) for q in r] for r in rows]
    _check_range(ratios, frows)
    balls = [(fr[1], fr[2:]) for fr in frows if fr[1] > 0.0]
    rest = [fr for fr in frows if not fr[1] > 0.0]
    windows = _windows(extents, ratios)
    if any(lo > hi for lo, hi in windows):
        return EmptyInteriorReport(True, sample_count, seed, box, None, 0)
    exact_checks = 0
    for i in range(sample_count):
        first = i * n  # coordinate j is word i*n + j
        us = []
        for j, (lo, hi) in enumerate(windows):
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
    """The float screen of one point: True when every wall passes.  A ball
    (b > 0) passes when 1.0 - sum_j (c_j - b x_j)**2 >= -1e-6, a line when
    sum_j c_j x_j - bh/2 >= -1e-6, a wall with b < 0 when its sum of
    squared terms minus 1.0 is.  Sums run left to right (builtin sum() of
    floats is compensated from CPython 3.12); a ball stops at its first
    rejecting prefix, since terms are >= 0 and float + and - are monotone."""
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
