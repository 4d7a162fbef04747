"""Deterministic SVG figures for planar circle configurations.

Rows with nonzero bend are drawn as circles (center bz/b, radius
1/|b|), bend-zero rows as lines clipped to the viewport.  Output is a
plain SVG 1.1 document, byte-identical across runs: elements are
emitted in a canonical order (generation, then the exact coordinate
text) and every numeral is formatted the same way, so diffing two
figures is meaningful.

Dedup is exact.  The fitted viewport and the culling are screened in
floats: each circle's center and radius are converted once, each with
an absolute error bound (the midpoint error of QNum.to_float plus one
rounding), and a float comparison decides only when it clears the sum
of those bounds, the box edge's own error and the rounding of the
comparison itself.  Inside that margin, or when a value is too large
for a float, the comparison is made in exact arithmetic; for the fitted
viewport, only the circles whose float interval reaches a float extreme
are compared exactly.  So no decision rests on a float alone, and the
figure is the one exact arithmetic gives.  The same floats become the
numerals, at 12 significant digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

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
            object.__setattr__(self, "viewport", box)
        if self.max_circles is not None and self.max_circles < 1:
            raise ValueError("max_circles must be positive")


def _fmt(x):
    # 12 significant digits, no negative zero
    x = float(x)
    if x == 0.0:
        x = 0.0
    return "%.12g" % x


def _escape(text):
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _coord_text(vector):
    return "(%s)" % ",".join(str(q) for q in vector)


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


def _approx(q):
    """q.to_float() and a bound on its absolute error.

    The midpoint to_float rounds is within sum_{k>1} |c_k| * 2**-56 of
    q, and the float within 2**-52 of its own size of the midpoint; the
    bound doubles both, against the rounding of these float sums, and
    adds an absolute term for subnormal results.
    """
    value = q.to_float()
    size = 0.0
    for k, c in q.terms:
        if k != 1:
            size += abs(c.numerator / c.denominator)
    return value, size * 2.0 ** -55 + abs(value) * 2.0 ** -51 + _TINY


def _screen(center, radius):
    """(cx, cy, r, err) with err bounding the error of each of the three
    floats, or None when they are out of float range."""
    try:
        (cx, ex), (cy, ey), (r, er) = _approx(center[0]), _approx(center[1]), _approx(radius)
    except OverflowError:
        return None
    err = max(ex, ey, er)
    if not math.isfinite(abs(cx) + abs(cy) + r + err):
        return None
    return cx, cy, r, err


def _disk_outside(center, radius, box):
    (xlo, xhi), (ylo, yhi) = box
    for axis, (lo, hi) in ((0, (xlo, xhi)), (1, (ylo, yhi))):
        if center[axis] + radius < lo or center[axis] - radius > hi:
            return True
    return False


def _float_box(box):
    """Each box edge as (float, error bound), or None out of float range."""
    try:
        return tuple(
            tuple((float(e), abs(float(e)) * 2.0 ** -52 + _TINY) for e in edges)
            for edges in box
        )
    except OverflowError:
        return None


def _screened_outside(screen, fbox):
    """True or False when floats settle _disk_outside, None otherwise."""
    if screen is None or fbox is None:
        return None
    cx, cy, r, err = screen
    settled = True
    for c, ((lo, elo), (hi, ehi)) in ((cx, fbox[0]), (cy, fbox[1])):
        # outside when c + r < lo or c - r > hi
        for gap, edge, eedge in ((c + r - lo, lo, elo), (hi - (c - r), hi, ehi)):
            margin = 2 * err + eedge + (abs(c) + r + abs(edge)) * _SLACK
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
    for _, _, screen in disks:
        if screen is None:
            bounds.append(math.inf)
            continue
        cx, cy, r, err = screen
        value = side * (cx, cy)[axis] + r
        spread = 2 * err + abs(value) * _SLACK
        best = max(best, value - spread)
        bounds.append(value + spread)
    values = [
        center[axis] + radius if side > 0 else center[axis] - radius
        for (center, radius, _), upper in zip(disks, bounds)
        if upper >= best
    ]
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
    _, center, radius, screen = shape
    decided = _screened_outside(screen, fbox)
    if decided is None:
        return _disk_outside(center, radius, box)
    return decided


def _shape(vector):
    b = vector[1]
    if b.sign() != 0:
        signed_radius = b.inverse()
        center = (vector[2] * signed_radius, vector[3] * signed_radius)
        radius = abs(signed_radius)
        return ("circle", center, radius, _screen(center, radius))
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
    ordered = sorted(circles, key=lambda c: (c.generation, _coord_text(c.vector)))
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
            _, center, radius, screen = shape
            if screen is None:  # out of the screen's range; float() may raise
                cx, cy, r = float(center[0]), float(center[1]), float(radius)
            else:
                cx, cy, r, _ = screen
            shapes_out.append(
                '<circle cx="%s" cy="%s" r="%s" stroke="%s"/>'
                % (_fmt(cx), _fmt(-cy), _fmt(r), color)
            )
            if opts.labels == "bends":
                text = str(c.vector[1])
            elif opts.labels == "labels":
                text = c.word
            else:
                text = None
            if text is not None:
                labels_out.append(
                    '<text x="%s" y="%s" dy="0.35em" font-size="%s">%s</text>'
                    % (_fmt(cx), _fmt(-cy), _fmt(0.6 * r), _escape(text))
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
