"""Deterministic SVG figures for planar circle configurations.

Rows with nonzero bend are drawn as circles (center bz/b, radius
1/|b|), bend-zero rows as lines clipped to the viewport.  Output is a
plain SVG 1.1 document, byte-identical across runs: elements are
emitted in a canonical order (generation, then the canonical text of
the exact row, never the text of an input file) and every numeral is
formatted the same way, so diffing two figures is meaningful.

Dedup, every decision and every numeral are exact, and made in
integers.  Every row is one key over one multiquadratic basis
(exactnum._Field): the circles' own keys when they all carry one over a
common field, as an orbit's or a parsed TSV's circles do, else each row
encoded over the field of all the rows.  The canonical text is each
circle's OrbitCircle.text: the file's own row when parse_tsv found all
its literals canonical, else formatted from the key with
exactnum._format, the printer behind str(QNum), each distinct number
once per field.  Dedup is on the key.
With 1/b = w / N for an integer N (_Field.reciprocal: w is a product of
conjugates of b, the unit when b is rational), the center is bz w / N
and the radius sign(b) w / N, integer coefficients over one positive
scale per circle.  Each of cx, cy and r is enclosed once with
exactnum._enclose at p = 55, the first precision QNum.to_float tries,
and its numeral is the float to_float gives for the exact value: the
midpoint of that enclosure when it is narrow enough for to_float
(exactnum._float), else to_float's own refinement of the exact value.
The midpoint is to_float's because the enclosure is linear under
positive integer scaling, negation swaps its ends, and int true division
rounds correctly.  Each circle element is printed with one '%.12g'
format over x + 0.0, which maps -0.0 to 0.0 as _fmt does.

The fitted viewport and the culling compare the same enclosures in
integers; where two overlap, the exact sign of the difference
(exactnum._sign) settles it.  The fitted box finds the four lower bounds
on its extremes in one pass over the circles, then each extreme exactly
among the circles that reach its bound.  It is the extremes padded by 5%
and rounded to floats, and when four exact comparisons show that each
rounded edge lies on or beyond its extreme, no circle can lie outside
it, so only the lines are culled; when they do not (a padding below
float resolution), every circle is culled as in a given viewport.

A viewport must be drawable in floats: RenderOptions refuses one, and
the fitted viewport raises for one, whose edges, width or height are
out of float range, or whose height or stroke width (width / 400) is
zero as a float.
"""
from __future__ import annotations

import math
from fractions import Fraction

from ._record import Record
from .exactnum import _enclose, _Field, _float, _format, _sign
from .orbit import OrbitCircle, PackingOrbit, generate_packing

CLUSTER_COLOR = "#1f6fb2"
COCLUSTER_COLOR = "#c0392b"
LABEL_COLOR = "#111111"

LABEL_MODES = ("none", "bends", "labels")


class RenderOptions(Record):
    """Presentation knobs; everything defaulted is derived from content.

    viewport is an exact rational box ((xlo, xhi), (ylo, yhi)); None
    means fit to the circles present.  cocluster_words routes circles
    (matched by their full word) to COCLUSTER_COLOR, every other circle
    is CLUSTER_COLOR; strokes are width/400 of the viewport.  max_circles
    is None or a positive int, not a bool: only the first that many
    visible rows, in canonical order, are drawn.
    """

    viewport: tuple | None = None
    labels: str = "none"
    cocluster_words: frozenset = frozenset()
    max_circles: int | None = None

    def __post_init__(self):
        if self.labels not in LABEL_MODES:
            raise ValueError(
                "label mode must be one of %s, got %r" % (", ".join(LABEL_MODES), self.labels)
            )
        if self.viewport is not None:
            try:
                (xlo, xhi), (ylo, yhi) = self.viewport
                box = (
                    (Fraction(xlo), Fraction(xhi)),
                    (Fraction(ylo), Fraction(yhi)),
                )
            except (TypeError, ValueError):
                raise ValueError("viewport must be ((xlo, xhi), (ylo, yhi)) rationals") from None
            for lo, hi in box:
                if not lo < hi:
                    raise ValueError("viewport must be a nondegenerate box")
            _check_drawable(box)
            object.__setattr__(self, "viewport", box)
        count = self.max_circles
        if count is not None and (isinstance(count, bool) or not isinstance(count, int) or count < 1):
            raise ValueError("max_circles must be None or a positive int; got %r" % (count,))


def _check_drawable(box):
    """Raise ValueError unless the SVG of this box can be written in
    floats: edges, width and height in float range, and a nonzero
    height and stroke (width / 400)."""
    (xlo, xhi), (ylo, yhi) = box
    try:
        for edge in (xlo, xhi, ylo, yhi):
            float(edge)
        width, height = float(xhi - xlo), float(yhi - ylo)
    except OverflowError:
        raise ValueError("viewport edges, width and height must be within float range") from None
    if not (width / 400.0 > 0 and height > 0):
        raise ValueError("viewport is too small to draw in floats")


def _fmt(x):
    # 12 significant digits, no negative zero
    x = float(x)
    if x == 0.0:
        x = 0.0
    return "%.12g" % x


def _escape(text):
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _as_circles(source):
    if isinstance(source, PackingOrbit):
        return source.circles
    circles = tuple(source)
    for c in circles:
        if not isinstance(c, OrbitCircle):
            raise TypeError("expected OrbitCircle entries, got %r" % (type(c).__name__,))
    return circles


# the first precision of QNum.to_float, whose float is the midpoint of
# the enclosure at _P when that enclosure is narrow enough
_P = 55


def _integer_disk(field, key, reciprocals):
    """(S, center x, center y, radius) for an encoded circle row, each
    value as (coefficients, m): integer coefficients over the field's
    basis and a nonzero integer m, the value being coefficients * m / S
    with S > 0.  reciprocals keeps _Field.reciprocal and the sign of each
    bend's coefficients.

    The key holds the row's coefficients over one denominator D, so with
    1/b = D w / n (_Field.reciprocal of b's coefficients) the center is
    bz w / n and the radius sign(b) D w / n; for a rational b, w is the
    unit and the center's coefficients are bz's own.
    """
    d = field.d
    b, x, y = key[d:2 * d], key[2 * d:3 * d], key[3 * d:4 * d]
    found = reciprocals.get(b)
    if found is None:
        found = reciprocals[b] = field.reciprocal(b) + (_sign(field.radicands, b),)
    w, n, sign = found
    if w is not field.one:
        x, y = tuple(field.multiply(x, w)), tuple(field.multiply(y, w))
    t = 1 if n > 0 else -1
    return abs(n), (x, t), (y, t), (w, t * key[-1] * sign)


def _floats(shape):
    """cx, cy and r of a circle shape as floats: each the one
    QNum.to_float gives for the exact value, the midpoint of its enclosure
    when exactnum._float takes that, else exactnum._float of the exact
    value."""
    scale = shape[3] << (_P + 1)
    floats = []
    for i in (4, 6, 8):
        lo, hi = shape[i], shape[i + 1]
        if (hi - lo) << (_P - 2) <= abs(lo + hi):
            floats.append((lo + hi) / scale)
        else:
            _, key, field, s = shape[:4]
            coeffs, m = _integer_disk(field, key, {})[i // 2 - 1]
            floats.append(_float(field.radicands, [m * c for c in coeffs], s))
    return floats


def _slots(axis, side):
    """Slots (a, b) of a circle shape with side * center + radius along an
    axis in [side * shape[a] + shape[8], side * shape[b] + shape[9]] /
    (shape[3] * 2**_P)."""
    c = 4 + 2 * axis
    return (c, c + 1) if side > 0 else (c + 1, c)


def _exact_reach(shape, axis, side):
    """(S, coefficients) of side * center + radius along an axis, exact."""
    _, key, field = shape[:3]
    scale, *values = _integer_disk(field, key, {})
    (c, mc), (r, mr) = values[axis], values[2]
    return scale, [side * mc * a + mr * e for a, e in zip(c, r)]


def _line_outside(normal, offset, box):
    # no corners strictly on both sides and at most one on the line: it
    # misses the box or only touches a corner, which _clip_line cannot place
    (xlo, xhi), (ylo, yhi) = box
    signs = [
        (normal[0] * cx + normal[1] * cy - offset).sign()
        for cx in (xlo, xhi)
        for cy in (ylo, yhi)
    ]
    return not (1 in signs and -1 in signs) and signs.count(0) < 2


def _clip_line(normal, offset, box):
    # Liang-Barsky on p(t) = p0 + t*d, in floats with no error margin:
    # this only places the ends of a line that _line_outside has already
    # kept in exact arithmetic (lines are few)
    nx, ny = float(normal[0]), float(normal[1])
    off = float(offset)
    norm2 = nx * nx + ny * ny
    p0 = (off * nx / norm2, off * ny / norm2)
    d = (-ny, nx)
    t_lo, t_hi = float("-inf"), float("inf")
    for axis in (0, 1):
        lo, hi = float(box[axis][0]), float(box[axis][1])
        if abs(d[axis]) < 1e-15:
            continue
        a = (lo - p0[axis]) / d[axis]
        b = (hi - p0[axis]) / d[axis]
        if a > b:
            a, b = b, a
        t_lo = max(t_lo, a)
        t_hi = min(t_hi, b)
    if not t_lo < t_hi:
        return None
    return (
        (p0[0] + t_lo * d[0], p0[1] + t_lo * d[1]),
        (p0[0] + t_hi * d[0], p0[1] + t_hi * d[1]),
    )


# the (axis, side) of the fitted box's four edges: xlo, xhi, ylo, yhi
_EDGES = ((0, -1), (0, 1), (1, -1), (1, 1))


def _floors(circles):
    """Per edge of _EDGES, the largest floor, over circle shapes, of the
    lower end of the enclosure of side * center + radius along the axis,
    in units of 2**-_P: a lower bound on that extreme.  All four come from
    one pass, which builds no container per circle."""
    # -inf lies below every floor and compares exactly with ints
    x0 = x1 = y0 = y1 = -math.inf
    for _, _, _, s, xlo, xhi, ylo, yhi, r, _ in circles:
        t = (r - xhi) // s
        if t > x0:
            x0 = t
        t = (xlo + r) // s
        if t > x1:
            x1 = t
        t = (r - yhi) // s
        if t > y0:
            y0 = t
        t = (ylo + r) // s
        if t > y1:
            y1 = t
    return x0, x1, y0, y1


def _extreme(circles, axis, side, floor):
    """The exact min (side -1) of center - radius or max (side +1) of
    center + radius along an axis, over circle shapes.

    floor is the lower bound _floors gives for this extreme: only the
    circles whose enclosure of side * center + radius reaches it can
    attain the extreme, and they alone are compared exactly.
    """
    b = _slots(axis, side)[1]
    field = circles[0][2]
    best = None
    for shape in circles:
        if side * shape[b] + shape[9] >= floor * shape[3]:
            scale, value = _exact_reach(shape, axis, side)
            if best is None or _sign(
                field.radicands, [v * best[0] - u * scale for v, u in zip(value, best[1])]
            ) > 0:
                best = scale, value
    scale, value = best
    return field.number(tuple(side * c for c in value), scale)


def _auto_viewport(shapes):
    """(box, holds): the fitted box, the exact extremes of the circles
    padded by 5% and rounded to floats, and whether it is proved to hold
    every circle.

    It does when each rounded edge lies on or beyond its exact extreme,
    four exact comparisons: then no circle reaches past an edge, so none
    is culled.  Rounding can undo a padding below float resolution, and
    then holds is False.
    """
    circles = [shape for shape in shapes if shape[0] == "circle"]
    if not circles:
        raise ValueError("a viewport is required when the input has no circles")
    xlo, xhi, ylo, yhi = [
        _extreme(circles, axis, side, floor)
        for (axis, side), floor in zip(_EDGES, _floors(circles))
    ]
    # every circle has radius 1/|b| > 0, so both extents are positive
    pad_x = (xhi - xlo) * Fraction(1, 20)
    pad_y = (yhi - ylo) * Fraction(1, 20)
    box = []
    for lo, hi in ((xlo - pad_x, xhi + pad_x), (ylo - pad_y, yhi + pad_y)):
        box.append((Fraction(float(lo)), Fraction(float(hi))))
    box = tuple(box)
    _check_drawable(box)
    (bxlo, bxhi), (bylo, byhi) = box
    holds = xlo >= bxlo and xhi <= bxhi and ylo >= bylo and yhi <= byhi
    return box, holds


def _circle_outside(shape, tests):
    """Whether a circle shape lies outside the box that gives these tests
    (see _visible)."""
    scale = shape[3] << _P
    for axis, side, a, b, p, q in tests:
        # outside when side * center + radius < p / q
        edge = p * scale
        if q * (side * shape[b] + shape[9]) < edge:
            return True
        if q * (side * shape[a] + shape[8]) < edge:  # the enclosure straddles the edge
            s, value = _exact_reach(shape, axis, side)
            value = [q * c for c in value]
            value[0] -= p * s
            if _sign(shape[2].radicands, value) < 0:
                return True
    return False


def render_svg(source, opts=None):
    """Render an orbit or a sequence of OrbitCircle to an SVG 1.1
    document (returned as text)."""
    if opts is None:
        opts = RenderOptions()
    circles = _as_circles(source)
    if not circles:
        raise ValueError("nothing to draw")
    kept = _kept(circles)
    box, holds = opts.viewport, False
    if box is None:
        box, holds = _auto_viewport([shape for _, shape in kept])
    visible = _visible(kept, box, holds)
    if opts.max_circles is not None:
        visible = visible[: opts.max_circles]
    return _document(visible, box, opts)


def _keys(circles):
    """(field, keys): the circles' rows over one field.  These are the
    circles' own keys when they all carry one over a common field (an
    orbit's, supercluster_circles' or a parsed file's); otherwise every
    row is encoded over the field of all the rows."""
    field = circles[0].field
    if field is None or any(c.field is not field for c in circles):
        field = _Field([c.vector for c in circles])
        return field, [field.encode(c.vector) for c in circles]
    return field, [c.key for c in circles]


def _canonical(circles, keys):
    """The positions of the circles in canonical order, one per distinct
    row: by generation, then by the text of the exact row,
    OrbitCircle.text."""
    order = sorted(
        range(len(circles)), key=lambda i: (circles[i].generation, circles[i].text)
    )
    seen = set()
    kept = []
    for i in order:
        if keys[i] not in seen:
            seen.add(keys[i])
            kept.append(i)
    return kept


def _check_planar(n):
    if n != 2:
        raise ValueError("rendering needs ambient dimension 2, got %d" % n)


def _kept(circles):
    """(circle, shape) pairs in canonical order, one per distinct row.

    A line's shape is ("line", normal, offset).  A circle's is the flat
    tuple ("circle", key, field, S, cx lo, cx hi, cy lo, cy hi, r lo,
    r hi): the enclosures at _P of its center and radius over the scale S
    (_integer_disk), all over the one field of _keys.  ValueError for rows
    not in ambient dimension 2, and for a bend-0 row whose normal does not
    have squared length exactly 1, which no line could be drawn from.
    """
    field, keys = _keys(circles)
    d = field.d
    for width in dict.fromkeys(map(len, keys)):
        _check_planar((width - 1) // d - 2)
    reciprocals = {}  # of each distinct bend
    enclosures = {}  # of each distinct coefficient tuple
    shapes = []
    for i in _canonical(circles, keys):
        c, key = circles[i], keys[i]
        if not any(key[d:2 * d]):
            # wall with b = 0: the line {p : p . bz = b^/2}, bz a unit normal
            vector = c.vector
            nx, ny = vector[2:4]
            square = nx * nx + ny * ny
            if square != 1:
                raise ValueError(
                    "bend-0 row %s does not have a unit normal: |n|^2 = %s" % (c.word, square)
                )
            shapes.append((c, ("line", vector[2:4], vector[0] / 2)))
            continue
        scale, *values = _integer_disk(field, key, reciprocals)
        shape = ["circle", key, field, scale]
        for coeffs, m in values:
            lo, hi = enclosures.get(coeffs) or enclosures.setdefault(
                coeffs, _enclose(field.radicands, coeffs, _P)
            )
            # an exact value (lo == hi, as r for a rational b) keeps one int
            low = lo * m
            high = low if hi == lo else hi * m
            shape += (low, high) if m > 0 else (high, low)
        shapes.append((c, tuple(shape)))
    return shapes


def _visible(kept, box, holds=False):
    """The (circle, shape) pairs of kept that reach into the box.  holds
    says the box is proved to hold every circle (_auto_viewport), so only
    the lines are tested."""
    # (axis, side, slots, p, q) for side * center + radius < side * edge = p / q
    tests = [
        (axis, side, *_slots(axis, side), side * edge.numerator, edge.denominator)
        for axis, edges in enumerate(box)
        for side, edge in zip((1, -1), edges)
    ]
    visible = []
    for pair in kept:
        shape = pair[1]
        if shape[0] == "circle":
            outside = not holds and _circle_outside(shape, tests)
        else:
            outside = _line_outside(shape[1], shape[2], box)
        if not outside:
            visible.append(pair)
    return visible


def _document(visible, box, opts):
    """The SVG text of the visible (circle, shape) pairs in this box."""
    (xlo, xhi), (ylo, yhi) = box
    width = float(xhi - xlo)
    height = float(yhi - ylo)
    stroke = width / 400.0

    shapes_out = []
    labels_out = []
    for c, shape in visible:
        color = COCLUSTER_COLOR if c.word in opts.cocluster_words else CLUSTER_COLOR
        kind = shape[0]
        if kind == "circle":
            if opts.labels == "bends":
                key, field = shape[1:3]
                text = _format(field.radicands, key[field.d:2 * field.d], key[-1])
            elif opts.labels == "labels":
                text = c.word
            else:
                text = None
            # one format per element; x + 0.0 maps -0.0 to 0.0, as _fmt does
            cx, cy, r = _floats(shape)
            shapes_out.append(
                '<circle cx="%.12g" cy="%.12g" r="%.12g" stroke="%s"/>'
                % (cx + 0.0, -cy + 0.0, r + 0.0, color)
            )
            if text is not None:
                labels_out.append(
                    '<text x="%.12g" y="%.12g" dy="0.35em" font-size="%.12g">%s</text>'
                    % (cx + 0.0, -cy + 0.0, 0.6 * r + 0.0, _escape(text))
                )
        else:
            ends = _clip_line(shape[1], shape[2], box)
            if ends is None:
                continue
            (x1, y1), (x2, y2) = ends
            shapes_out.append(
                '<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="%s"/>'
                % (_fmt(x1), _fmt(-y1), _fmt(x2), _fmt(-y2), color)
            )

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" viewBox="%s %s %s %s">'
        % (_fmt(xlo), _fmt(-float(yhi)), _fmt(width), _fmt(height)),
        '<g fill="none" stroke-width="%s">' % _fmt(stroke),
    ]
    lines.extend(shapes_out)
    lines.append("</g>")
    if labels_out:
        lines.append(
            '<g font-family="sans-serif" text-anchor="middle" fill="%s">' % LABEL_COLOR
        )
        lines.extend(labels_out)
        lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def supercluster_circles(config, cluster_labels, limits=None):
    """Cluster orbit plus the cocluster rows themselves, for figures
    showing both color classes.

    Returns (circles, cocluster_words); pass the words on through
    RenderOptions so the cocluster rows pick up the second color.
    Cocluster words are "co-<label>" to keep them clear of orbit words.
    """
    _check_planar(config.dim_n)
    cluster, cocluster, _, rest = config.split(cluster_labels)
    orbit = generate_packing(cluster, cocluster, limits=limits)
    # the cocluster rows are keyed over the orbit's field, which spans them
    field = orbit.circles[0].field
    extra = tuple(
        OrbitCircle._encoded(field, field.encode(config.rows[i]), 0, "co-" + config.labels[i])
        for i in rest
    )
    return orbit.circles + extra, frozenset(c.word for c in extra)
