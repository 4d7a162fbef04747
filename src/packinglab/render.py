"""Deterministic SVG figures for planar circle configurations.

Rows with nonzero bend are drawn as circles (center bz/b, radius
1/|b|), bend-zero rows as lines clipped to the viewport.  Output is a
plain SVG 1.1 document, byte-identical across runs: elements are
emitted in a canonical order (generation, then the exact coordinate
text, each shared coordinate object formatted once) and every numeral
is formatted the same way, so diffing two figures is meaningful.

Dedup is exact, and so is every decision and every numeral, but the
exact center and radius are rarely computed.  Each circle's screen
comes straight from its row: b, bx and by as floats with error bounds,
then bx/b, by/b and 1/|b| with one bound each.  The fitted viewport and
the culling compare these floats and decide only when a comparison
clears the bounds, the box edge's own error and the rounding of the
comparison itself.  A numeral is printed from the screen only when it
is unambiguous: _fmt gives the same 12 significant digits at both ends
of an interval that holds both the exact value and the float
QNum.to_float gives for it.  Otherwise (inside a margin, a fitted
extreme that ties in floats, an ambiguous numeral, a bend whose
interval reaches 0, or a value too large for a float) the exact center
and radius are computed (b.inverse() and two products) and settle it.
So the figure is the one exact arithmetic gives.

A viewport must be drawable in floats: RenderOptions refuses one whose
edges, width or height are out of float range, or whose height or
stroke width (width / 400) is zero as a float.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exactnum import _radical_span
from .orbit import OrbitCircle, PackingOrbit, generate_packing

CLUSTER_COLOR = "#1f6fb2"
COCLUSTER_COLOR = "#c0392b"
LABEL_COLOR = "#111111"

LABEL_MODES = ("none", "bends", "labels")


@dataclass(frozen=True)
class RenderOptions:
    """Presentation knobs; everything defaulted is derived from content.

    viewport is an exact rational box ((xlo, xhi), (ylo, yhi)); None
    means fit to the circles present.  cocluster_words routes circles
    (matched by their full word) to COCLUSTER_COLOR, every other circle
    is CLUSTER_COLOR; strokes are width/400 of the viewport.
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
        if self.max_circles is not None and self.max_circles < 1:
            raise ValueError("max_circles must be positive")


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


# Relative slack for the few float operations of a screen (each rounds by
# at most 2**-53 of its result), and an absolute one for subnormals.
_SLACK = 2.0 ** -50
_TINY = 2.0 ** -1060
# QNum.to_float rounds a midpoint within sum_{k>1} |c_k| * 2**-56 of q
_MIDPOINT = 2.0 ** -56


def _approx(q):
    """A float near q = sum_k c_k sqrt(k), a bound on its absolute error,
    and the weighted size sum_k |c_k| sqrt(k) (rounded up).

    Each term is one product of two rounded floats (three roundings) and
    the n terms take n - 1 rounded sums, so the float is off by at most
    (n + 2) * 2**-53 times the weighted size; the bound takes n + 3 for
    the rounding of the size itself, plus an absolute term for subnormal
    results.  OverflowError when a coefficient is out of float range.
    """
    value = weighted = 0.0
    for k, c in q.terms:
        t = c.numerator / c.denominator
        if k != 1:
            t *= math.sqrt(k)
        value += t
        weighted += abs(t)
    n = len(q.terms) + 3
    return value, weighted * n * 2.0 ** -53 + _TINY, weighted * (1 + n * 2.0 ** -53)


def _screen(vector):
    """(cx, cy, r, ex, ey, er, wx, wy) for a circle row: floats of the
    center bx/b, by/b and the radius 1/|b|, a bound on the absolute error
    of each, and the weighted sizes of bx and by (see _approx); None when
    b's interval reaches 0 or a value is out of float range."""
    try:
        (fb, eb, _), (fx, ex, wx), (fy, ey, wy) = map(_approx, vector[1:4])
    except OverflowError:
        return None
    low = abs(fb) - eb  # |b| >= low
    if not low > 0:
        return None
    r = 1.0 / abs(fb)
    cx = fx / fb
    cy = fy / fb
    # |x/b - fx/fb| <= (ex + |fx/fb| eb) / low, and |1/b - 1/fb| <= r eb / low
    grow = 1 + _SLACK
    ex = (ex + abs(cx) * eb) / low * grow + abs(cx) * _SLACK + _TINY
    ey = (ey + abs(cy) * eb) / low * grow + abs(cy) * _SLACK + _TINY
    er = r * eb / low * grow + r * _SLACK + _TINY
    if not math.isfinite(abs(cx) + abs(cy) + r + ex + ey + er):
        return None
    return cx, cy, r, ex, ey, er, wx, wy


def _exact_disk(vector):
    """The exact center and radius of a circle row (b != 0)."""
    signed_radius = vector[1].inverse()
    return (vector[2] * signed_radius, vector[3] * signed_radius), abs(signed_radius)


@lru_cache(maxsize=1024)
def _group_weight(radicands):
    """sum 1/sqrt(k) over the k > 1 of the group the radicands generate
    under k * j / gcd(k, j)**2 (rounded up)."""
    group = _radical_span(radicands)
    return sum(1 / math.sqrt(k) for k in group if k > 1) * (1 + len(group) * _SLACK)


def _inverse_mean(b, bound):
    """An upper bound on the mean of 1/|s| over b's conjugates s (bound,
    an upper bound on 1/|b|, when b is rational); inf when a conjugate's
    interval reaches 0."""
    if b.is_rational():
        return bound
    conjugates = b.conjugates()
    total = 0.0
    for s in conjugates:
        try:
            f, e, _ = _approx(s)
        except OverflowError:
            return math.inf
        low = abs(f) - e
        if not low > 0:
            return math.inf
        total += 1.0 / low
    return total / len(conjugates) * (1 + len(conjugates) * _SLACK)


def _ends(value, width):
    """Floats lo <= hi holding every number within width of value and the
    float nearest to each of them (a rounding to float moves a number by
    at most 2**-53 of its size, or 2**-1075)."""
    width = width * (1 + _SLACK) + abs(value) * _SLACK + _TINY
    return value - width, value + width


def _numerals(vector, screen, font):
    """_fmt of the floats QNum.to_float gives for cx, -cy and r of the
    exact center and radius, and of 0.6 * r when font.

    The screen's float is within its bound of the exact value x/b, and
    to_float's within sum_{k>1} |c_k| * 2**-56 of it plus a rounding.
    Over the group G that the row's radicands generate, c_k sqrt(k) is
    the mean of +-s(x/b) over the automorphisms s, so
    sum_{k>1} |c_k| <= P * mean |s(x)| / |s(b)| with
    P = sum_{k in G, k > 1} 1/sqrt(k), and |s(x)| is at most the weighted
    size of x (the mean over G of 1/|s(b)| is the mean over b's own
    conjugates).  When _fmt gives one text at both ends of that interval
    it is the numeral; otherwise the exact center and radius give it.
    """
    if screen is not None:
        cx, cy, r, ex, ey, er, wx, wy = screen
        b = vector[1]
        radicands = frozenset(k for q in vector[1:4] for k, _ in q.terms)
        scale = _group_weight(radicands) * _inverse_mean(b, r + er) * _MIDPOINT
        rlo, rhi = _ends(r, er + scale)
        ends = [
            _ends(cx, ex + wx * scale) if vector[2] else (0.0, 0.0),  # exact zeros
            _ends(-cy, ey + wy * scale) if vector[3] else (0.0, 0.0),
            (rlo, rhi),
        ]
        if font:
            ends.append((0.6 * rlo, 0.6 * rhi))
        texts = []
        for lo, hi in ends:
            text = _fmt(lo)
            if text != _fmt(hi):
                break
            texts.append(text)
        else:
            return texts
    center, radius = _exact_disk(vector)
    cx, cy, r = float(center[0]), float(center[1]), float(radius)
    texts = [_fmt(cx), _fmt(-cy), _fmt(r)]
    if font:
        texts.append(_fmt(0.6 * r))
    return texts


def _disk_outside(center, radius, box):
    (xlo, xhi), (ylo, yhi) = box
    for axis, (lo, hi) in ((0, (xlo, xhi)), (1, (ylo, yhi))):
        if center[axis] + radius < lo or center[axis] - radius > hi:
            return True
    return False


def _float_box(box):
    """Each box edge as (float, error bound)."""
    return tuple(
        tuple((float(e), abs(float(e)) * 2.0 ** -52 + _TINY) for e in edges)
        for edges in box
    )


def _screened_outside(screen, fbox):
    """True or False when floats settle _disk_outside, None otherwise."""
    if screen is None:
        return None
    cx, cy, r, ex, ey, er = screen[:6]
    settled = True
    for c, ec, ((lo, elo), (hi, ehi)) in ((cx, ex, fbox[0]), (cy, ey, fbox[1])):
        # outside when c + r < lo or c - r > hi
        for gap, edge, eedge in ((c + r - lo, lo, elo), (hi - (c - r), hi, ehi)):
            margin = ec + er + eedge + (abs(c) + r + abs(edge)) * _SLACK
            if gap < -margin:
                return True
            if not gap > margin:
                settled = False  # inside the margin, or not finite
    return False if settled else None


def _line_outside(normal, offset, box):
    # all four corners strictly on one side
    (xlo, xhi), (ylo, yhi) = box
    signs = set()
    for cx in (xlo, xhi):
        for cy in (ylo, yhi):
            signs.add((normal[0] * cx + normal[1] * cy - offset).sign())
    return signs == {1} or signs == {-1}


def _clip_line(normal, offset, box):
    # Liang-Barsky on p(t) = p0 + t*d, in floats with no error margin:
    # this only places the ends of a line that _line_outside has already
    # kept in exact arithmetic (lines are few; only circles are screened)
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


def _extreme(disks, axis, side):
    """Exact min (side -1) of center - radius or max (side +1) of
    center + radius along an axis.

    Only the disks whose float interval reaches the float extreme can
    attain it; they alone are compared exactly.
    """
    best = -math.inf  # the largest lower bound of side * (center +- radius)
    bounds = []
    for _, screen in disks:
        if screen is None:
            bounds.append(math.inf)
            continue
        cx, cy, r, ex, ey, er = screen[:6]
        value = side * (cx, cy)[axis] + r
        spread = (ex, ey)[axis] + er + abs(value) * _SLACK
        best = max(best, value - spread)
        bounds.append(value + spread)
    values = []
    for (vector, _), upper in zip(disks, bounds):
        if upper >= best:
            center, radius = _exact_disk(vector)
            values.append(center[axis] + radius if side > 0 else center[axis] - radius)
    return max(values) if side > 0 else min(values)


def _auto_viewport(shapes):
    disks = [shape[1:] for shape in shapes if shape[0] == "circle"]
    if not disks:
        raise ValueError("a viewport is required when the input has no circles")
    xlo = _extreme(disks, 0, -1)
    xhi = _extreme(disks, 0, 1)
    ylo = _extreme(disks, 1, -1)
    yhi = _extreme(disks, 1, 1)
    pad_x = (xhi - xlo) * Fraction(1, 20)
    pad_y = (yhi - ylo) * Fraction(1, 20)
    if pad_x.sign() == 0:
        pad_x = pad_y
    if pad_y.sign() == 0:
        pad_y = pad_x
    box = []
    for lo, hi in ((xlo - pad_x, xhi + pad_x), (ylo - pad_y, yhi + pad_y)):
        box.append((Fraction(float(lo)), Fraction(float(hi))))
    return tuple(box)


def _outside(shape, fbox, box):
    if shape[0] == "line":
        return _line_outside(shape[1], shape[2], box)
    _, vector, screen = shape
    decided = _screened_outside(screen, fbox)
    if decided is None:
        return _disk_outside(*_exact_disk(vector), box)
    return decided


def _shape(vector):
    if vector[1]:
        return ("circle", vector, _screen(vector))
    # wall with b = 0: the line {p : p . bz = b^/2}, bz a unit normal
    return ("line", vector[2:4], vector[0] / 2)


def render_svg(source, opts=None):
    """Render an orbit or a sequence of OrbitCircle to an SVG 1.1
    document (returned as text)."""
    if opts is None:
        opts = RenderOptions()
    circles = _as_circles(source)
    if not circles:
        raise ValueError("nothing to draw")
    for c in circles:
        if len(c.vector) != 4:
            raise ValueError(
                "rendering needs ambient dimension 2, got %d" % (len(c.vector) - 2,)
            )

    kept = _kept(circles)
    box = opts.viewport
    if box is None:
        box = _auto_viewport([shape for _, shape in kept])
    visible = _visible(kept, box)
    if opts.max_circles is not None:
        visible = visible[: opts.max_circles]
    return _document(visible, box, opts)


def _kept(circles):
    """(circle, shape) pairs in canonical order, one per distinct vector."""
    texts = {}  # id -> str of each coordinate object; parse_tsv shares them

    def coord_text(vector):
        parts = []
        for q in vector:
            text = texts.get(id(q))
            if text is None:
                text = texts[id(q)] = str(q)
            parts.append(text)
        return "(%s)" % ",".join(parts)

    ordered = sorted(circles, key=lambda c: (c.generation, coord_text(c.vector)))
    seen = set()
    kept = []
    for c in ordered:
        if c.vector in seen:
            continue
        seen.add(c.vector)
        kept.append((c, _shape(c.vector)))
    return kept


def _visible(kept, box):
    fbox = _float_box(box)
    return [(c, shape) for c, shape in kept if not _outside(shape, fbox, box)]


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
                text = str(c.vector[1])
            elif opts.labels == "labels":
                text = c.word
            else:
                text = None
            numerals = _numerals(shape[1], shape[2], text is not None)
            shapes_out.append(
                '<circle cx="%s" cy="%s" r="%s" stroke="%s"/>' % (*numerals[:3], color)
            )
            if text is not None:
                x, y, _, size = numerals
                labels_out.append(
                    '<text x="%s" y="%s" dy="0.35em" font-size="%s">%s</text>'
                    % (x, y, size, _escape(text))
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
    cluster, cocluster, _, rest = config.split(cluster_labels)
    orbit = generate_packing(cluster, cocluster, limits=limits)
    extra = tuple(
        OrbitCircle(config.rows[i], 0, "co-" + config.labels[i]) for i in rest
    )
    return orbit.circles + extra, frozenset(c.word for c in extra)
