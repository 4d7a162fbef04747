"""Deterministic SVG figures for planar circle configurations.

Rows with nonzero bend are drawn as circles (center bz/b, radius
1/|b|), bend-zero rows as lines clipped to the viewport.  Output is a
plain SVG 1.1 document, byte-identical across runs: elements are
emitted in a canonical order (generation, then the exact coordinate
text) and every numeral is formatted the same way, so diffing two
figures is meaningful.

Keep/drop decisions (dedup, viewport culling) happen in exact
arithmetic; floats appear only in the final numerals, at 12 significant
digits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactnum import ONE
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


def _disk_outside(center, radius, box):
    (xlo, xhi), (ylo, yhi) = box
    for axis, (lo, hi) in ((0, (xlo, xhi)), (1, (ylo, yhi))):
        if center[axis] + radius < lo or center[axis] - radius > hi:
            return True
    return False


def _line_outside(normal, offset, box):
    # all four corners strictly on one side
    (xlo, xhi), (ylo, yhi) = box
    signs = set()
    for cx in (xlo, xhi):
        for cy in (ylo, yhi):
            signs.add((normal[0] * cx + normal[1] * cy - offset).sign())
    return signs == {1} or signs == {-1}


def _clip_line(normal, offset, box):
    # Liang-Barsky on p(t) = p0 + t*d, in floats (presentation only;
    # the keep/drop decision was already made exactly)
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


def _auto_viewport(shapes):
    disks = [(c, r) for kind, c, r in shapes if kind == "circle"]
    if not disks:
        raise ValueError("a viewport is required when the input has no circles")
    xlo = min(c[0] - r for c, r in disks)
    xhi = max(c[0] + r for c, r in disks)
    ylo = min(c[1] - r for c, r in disks)
    yhi = max(c[1] + r for c, r in disks)
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


def _shape(vector):
    b = vector[1]
    if b.sign() != 0:
        center = (vector[2] / b, vector[3] / b)
        return ("circle", center, abs(ONE / b))
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

    ordered = sorted(circles, key=lambda c: (c.generation, _coord_text(c.vector)))
    seen = set()
    kept = []
    for c in ordered:
        if c.vector in seen:
            continue
        seen.add(c.vector)
        kept.append((c, _shape(c.vector)))

    box = opts.viewport
    if box is None:
        box = _auto_viewport([shape for _, shape in kept])

    visible = []
    for c, shape in kept:
        kind = shape[0]
        if kind == "circle":
            if _disk_outside(shape[1], shape[2], box):
                continue
        elif _line_outside(shape[1], shape[2], box):
            continue
        visible.append((c, shape))
    if opts.max_circles is not None:
        visible = visible[: opts.max_circles]

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
            center, radius = shape[1], shape[2]
            cx, cy, r = float(center[0]), float(center[1]), float(radius)
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
