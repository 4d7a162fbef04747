import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from packinglab import catalog, exactnum, render
from packinglab import orbit as orbit_module
from packinglab.exactnum import ONE, QNum, sqrt
from packinglab.geometry import as_vector
from packinglab.orbit import OrbitCircle, OrbitLimits, export_tsv, generate_packing, parse_tsv
from packinglab.render import RenderOptions, render_svg, supercluster_circles


def circle_row(bhat, b, x, y):
    return as_vector((QNum(bhat), QNum(b), QNum(x), QNum(y)))


UNIT = OrbitCircle(circle_row(-1, 1, 0, 0), 0, "1")


def test_unit_circle_single_element_label_one():
    svg = render_svg([UNIT], RenderOptions(labels="bends"))
    assert svg.count("<circle") == 1
    assert '<circle cx="0" cy="0" r="1"' in svg
    assert ">1</text>" in svg
    assert svg.startswith('<?xml version="1.0" encoding="UTF-8"?>\n<svg ')
    assert 'version="1.1"' in svg


def test_hyperplane_row_clips_to_viewport():
    wall = OrbitCircle(as_vector((QNum(0), QNum(0), QNum(-1), QNum(0))), 0, "m")
    opts = RenderOptions(viewport=((-1, 3), (-2, 2)))
    svg = render_svg([wall], opts)
    (line,) = re.findall(r"<line [^/]*/>", svg)
    assert 'x1="0"' in line and 'x2="0"' in line
    assert {'y1="-2"', 'y2="-2"'} & set(line.split())
    assert {'y1="2"', 'y2="2"'} & set(line.split())


def test_line_fully_outside_viewport_is_dropped():
    wall = OrbitCircle(as_vector((QNum(20), QNum(0), QNum(1), QNum(0))), 0, "m")
    svg = render_svg([UNIT, wall], RenderOptions(viewport=((-2, 2), (-2, 2))))
    assert "<line" not in svg


def test_line_touching_a_corner_takes_no_circle_slot():
    # x + y = 2 meets the box (0,1)x(0,1) only at its corner (1, 1): it is
    # culled, so with max_circles=1 the slot goes to the circle behind it
    corner = OrbitCircle(as_vector((2 * sqrt(2), QNum(0), sqrt(2) / 2, sqrt(2) / 2)), 0, "m")
    inside = OrbitCircle(circle_row(-3, 4, 2, 2), 1, "1.m")
    box = ((0, 1), (0, 1))
    full = render_svg([corner, inside], RenderOptions(viewport=box))
    assert "<line" not in full and full.count("<circle") == 1
    assert render_svg([corner, inside], RenderOptions(viewport=box, max_circles=1)) == full
    assert render._line_outside(*render._kept([corner])[0][1][1:], box)
    assert render._clip_line(*render._kept([corner])[0][1][1:], box) is None


H = sqrt(2) / 2
EDGE_BOX = ((-1, 1), (0, 1))
UNIT_BOX = ((0, 1), (0, 1))


@pytest.mark.parametrize(
    "row, box, kind",
    [
        # along an edge: two corners on the line
        ((0, 0, 0, 1), EDGE_BOX, "drawn"),
        ((2, 0, 0, 1), EDGE_BOX, "drawn"),
        ((2, 0, 1, 0), EDGE_BOX, "drawn"),
        # through two opposite corners
        ((0, 0, H, -H), UNIT_BOX, "drawn"),
        ((sqrt(2), 0, H, H), UNIT_BOX, "drawn"),
        # through one corner only
        ((0, 0, H, H), UNIT_BOX, "corner"),
        ((2 * sqrt(2), 0, H, H), UNIT_BOX, "corner"),
        ((sqrt(2), 0, H, -H), UNIT_BOX, "corner"),
        ((-sqrt(2), 0, -H, H), UNIT_BOX, "corner"),
        # off the box
        ((4, 0, 1, 0), EDGE_BOX, "missed"),
        ((-1, 0, 0, 1), EDGE_BOX, "missed"),
    ],
)
def test_line_outside_agrees_with_clip(row, box, kind):
    # _visible keeps exactly the lines _clip_line can place: a line that
    # only touches a corner is culled, not kept and dropped later
    wall = OrbitCircle(as_vector(row), 0, "m")
    (_, shape), = render._kept([wall])
    assert render._line_outside(shape[1], shape[2], box) is (kind != "drawn")
    if kind != "missed":
        assert (render._clip_line(shape[1], shape[2], box) is None) is (kind == "corner")
    assert ("<line" in render_svg([wall], RenderOptions(viewport=box))) is (kind == "drawn")


def test_input_order_does_not_matter():
    rows = [
        OrbitCircle(circle_row(-1, 1, 0, 0), 0, "1"),
        OrbitCircle(circle_row(0, 2, 0, 2), 1, "2.1"),
        OrbitCircle(circle_row(0, 2, 2, 0), 1, "3.1"),
        OrbitCircle(circle_row(-2, 1, 0, 1), 2, "2.3.1"),
    ]
    opts = RenderOptions(viewport=((-4, 4), (-4, 4)))
    svg = render_svg(rows, opts)
    assert svg == render_svg(rows[::-1], opts)
    assert svg == render_svg([rows[2], rows[0], rows[3], rows[1]], opts)


def test_duplicate_vectors_render_once():
    twice = [UNIT, OrbitCircle(UNIT.vector, 3, "9.9.1")]
    svg = render_svg(twice, RenderOptions())
    assert svg.count("<circle") == 1


def test_bend_and_count_bounds():
    rows = [
        OrbitCircle(circle_row(-1, 1, 0, 0), 0, "1"),
        OrbitCircle(circle_row(0, 2, 0, 2), 1, "a"),
        OrbitCircle(circle_row(-2, 5, 0, 5), 2, "b"),
    ]
    capped = render_svg(rows, RenderOptions(viewport=((-3, 3), (-3, 3)), max_circles=1))
    assert capped.count("<circle") == 1


def test_offscreen_circle_culled_center_in_viewport_kept():
    inside = UNIT
    outside = OrbitCircle(circle_row(-199, 1, 100, 0), 0, "far")
    svg = render_svg([inside, outside], RenderOptions(viewport=((-2, 2), (-2, 2))))
    assert svg.count("<circle") == 1


def test_nonround_bend_labels_use_exact_grammar():
    irr = OrbitCircle(as_vector((QNum(0), sqrt(2), QNum(1), QNum(0))), 0, "r")
    frac = OrbitCircle(as_vector((QNum(0), QNum.parse("3/2"), QNum(1), QNum(0))), 0, "f")
    svg = render_svg([irr, frac], RenderOptions(labels="bends", viewport=((-3, 3), (-3, 3))))
    assert ">sqrt(2)</text>" in svg
    assert ">3/2</text>" in svg


def test_label_mode_words():
    svg = render_svg([UNIT], RenderOptions(labels="labels"))
    assert ">1</text>" in svg


def test_errors():
    with pytest.raises(ValueError, match="nothing to draw"):
        render_svg([], RenderOptions())
    three_d = OrbitCircle(
        as_vector((QNum(-1), QNum(1), QNum(0), QNum(0), QNum(0))), 0, "1"
    )
    with pytest.raises(ValueError, match="ambient dimension 2"):
        render_svg([three_d], RenderOptions())
    with pytest.raises(ValueError, match="label mode"):
        RenderOptions(labels="curvatures")
    with pytest.raises(ValueError, match="nondegenerate"):
        RenderOptions(viewport=((0, 0), (0, 1)))
    wall_only = OrbitCircle(as_vector((QNum(0), QNum(0), QNum(-1), QNum(0))), 0, "m")
    with pytest.raises(ValueError, match="viewport is required"):
        render_svg([wall_only], RenderOptions())


def bi1_figure():
    cfg = catalog.get_builtin("bi1-cluster3").configuration
    circles, co_words = supercluster_circles(cfg, ["3"], OrbitLimits(max_generation=4))
    opts = RenderOptions(
        viewport=((-3, 3), (-1, 2)), labels="bends", cocluster_words=co_words
    )
    return render_svg(circles, opts)


def test_bi1_cluster3_figure_matches_expected_shape():
    svg = bi1_figure()
    assert svg.count("<line") == 2  # the two bounding walls of the strip
    assert svg.count("<circle") > 30
    assert render.CLUSTER_COLOR in svg and render.COCLUSTER_COLOR in svg
    # one cocluster circle plus the two lines carry the second color
    assert svg.count(render.COCLUSTER_COLOR) == 3
    shown = re.findall(r"<text[^>]*>([^<]+)</text>", svg)
    assert shown and all(re.fullmatch(r"-?\d+", t) for t in shown)


def test_bi1_figure_tsv_roundtrip():
    cfg = catalog.get_builtin("bi1-cluster3").configuration
    orbit = generate_packing(
        [cfg.row("3")],
        [cfg.row("1"), cfg.row("2"), cfg.row("4")],
        OrbitLimits(max_generation=3),
    )
    opts = RenderOptions(viewport=((-2, 2), (-1, 2)))
    direct = render_svg(orbit, opts)
    via_tsv = render_svg(parse_tsv(export_tsv(orbit)), opts)
    assert direct == via_tsv


# -- render against exact QNum arithmetic -----------------------------
#
# The exact QNum shapes, viewport, cull loop and document render used
# before it worked in integers, kept here as the oracle: the order, the
# box, the visible circles and the SVG must come out the same.


def exact_shape(vector):
    b = vector[1]
    if b.sign() != 0:
        signed_radius = b.inverse()
        center = (vector[2] * signed_radius, vector[3] * signed_radius)
        return ("circle", center, abs(signed_radius))
    return ("line", vector[2:4], vector[0] / 2)


def exact_kept(circles):
    def coord_text(vector):
        return "(%s)" % ",".join(str(q) for q in vector)

    ordered = sorted(circles, key=lambda c: (c.generation, coord_text(c.vector)))
    seen = set()
    kept = []
    for c in ordered:
        if c.vector not in seen:
            seen.add(c.vector)
            kept.append((c, exact_shape(c.vector)))
    return kept


def exact_disk_outside(center, radius, box):
    (xlo, xhi), (ylo, yhi) = box
    for axis, (lo, hi) in ((0, (xlo, xhi)), (1, (ylo, yhi))):
        if center[axis] + radius < lo or center[axis] - radius > hi:
            return True
    return False


def exact_viewport(shapes):
    disks = [(s[1], s[2]) for s in shapes if s[0] == "circle"]
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


def exact_visible(kept, box):
    visible = []
    for c, shape in kept:
        if shape[0] == "circle":
            if exact_disk_outside(shape[1], shape[2], box):
                continue
        elif render._line_outside(shape[1], shape[2], box):
            continue
        visible.append((c, shape))
    return visible


def exact_document(visible, box, opts):
    """The SVG of exact shapes, every numeral from float(QNum)."""
    fmt = render._fmt
    (xlo, xhi), (ylo, yhi) = box
    width = float(xhi - xlo)
    height = float(yhi - ylo)
    shapes_out = []
    labels_out = []
    for c, shape in visible:
        color = (
            render.COCLUSTER_COLOR if c.word in opts.cocluster_words else render.CLUSTER_COLOR
        )
        if shape[0] == "circle":
            _, center, radius = shape
            cx, cy, r = float(center[0]), float(center[1]), float(radius)
            shapes_out.append(
                '<circle cx="%s" cy="%s" r="%s" stroke="%s"/>'
                % (fmt(cx), fmt(-cy), fmt(r), color)
            )
            text = {"bends": str(c.vector[1]), "labels": c.word}.get(opts.labels)
            if text is not None:
                labels_out.append(
                    '<text x="%s" y="%s" dy="0.35em" font-size="%s">%s</text>'
                    % (fmt(cx), fmt(-cy), fmt(0.6 * r), render._escape(text))
                )
        else:
            ends = render._clip_line(shape[1], shape[2], box)
            if ends is None:
                continue
            (x1, y1), (x2, y2) = ends
            shapes_out.append(
                '<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="%s"/>'
                % (fmt(x1), fmt(-y1), fmt(x2), fmt(-y2), color)
            )
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" viewBox="%s %s %s %s">'
        % (fmt(xlo), fmt(-float(yhi)), fmt(width), fmt(height)),
        '<g fill="none" stroke-width="%s">' % fmt(width / 400.0),
    ]
    lines.extend(shapes_out)
    lines.append("</g>")
    if labels_out:
        lines.append(
            '<g font-family="sans-serif" text-anchor="middle" fill="%s">' % render.LABEL_COLOR
        )
        lines.extend(labels_out)
        lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def assert_matches_oracle(circles, *options):
    """Check render against the oracle under each RenderOptions (default
    options when none are given); return the last visible list."""
    kept = exact_kept(circles)
    got_kept = render._kept(circles)
    assert [c for c, _ in got_kept] == [c for c, _ in kept]
    for opts in options or (RenderOptions(),):
        box, holds = opts.viewport, False
        if box is None:
            box = exact_viewport([shape for _, shape in kept])
            got_box, holds = render._auto_viewport([shape for _, shape in got_kept])
            assert got_box == box
        want = exact_visible(kept, box)
        got = render._visible(got_kept, box)
        assert [c for c, _ in got] == [c for c, _ in want]
        if holds:
            # a fitted box proved to hold every circle skips their culling,
            # and keeps what culling them keeps
            assert [c for c, s in want if s[0] == "circle"] == [
                c for c, s in got_kept if s[0] == "circle"
            ]
            assert render._visible(got_kept, box, holds) == got
        want_svg = exact_document(want[: opts.max_circles], box, opts)
        assert render_svg(circles, opts) == want_svg
    return want


def circle_at(cx, cy, r, word):
    """The oriented circle with this exact center and radius."""
    cx, cy, r = QNum(cx), QNum(cy), QNum(r)
    b = r.inverse()
    return OrbitCircle(as_vector((b * (cx * cx + cy * cy) - r, b, b * cx, b * cy)), 0, word)


def test_bi1_figure_matches_exact_oracle():
    cfg = catalog.get_builtin("bi1-cluster3").configuration
    circles, words = supercluster_circles(cfg, ["3"], OrbitLimits(max_generation=4))
    assert_matches_oracle(circles, RenderOptions(cocluster_words=words))
    assert_matches_oracle(
        circles,
        RenderOptions(viewport=((-3, 3), (-1, 2)), labels="bends", cocluster_words=words),
    )


@pytest.mark.parametrize(
    "cluster", catalog.get_builtin("bi10-example").clusters, ids=",".join
)
def test_bi10_clusters_match_exact_oracle(cluster):
    cfg = catalog.get_builtin("bi10-example").configuration
    inside, outside, _, _ = cfg.split(cluster)
    orbit = generate_packing(inside, outside, OrbitLimits(max_generation=3))
    visible = assert_matches_oracle(orbit.circles)
    assert len(visible) == len(set(c.vector for c in orbit.circles))


IRRATIONAL_BEND_FIGURES = [
    (entry, cluster)
    for entry in ("d1n3", "d3n3")
    for cluster in catalog.get_builtin(entry).clusters
]


@pytest.mark.parametrize(
    "entry, cluster", IRRATIONAL_BEND_FIGURES, ids=["%s{%s}" % (e, ",".join(c)) for e, c in IRRATIONAL_BEND_FIGURES]
)
def test_irrational_bend_figures_match_exact_oracle(entry, cluster):
    cfg = catalog.get_builtin(entry).configuration
    circles, words = supercluster_circles(cfg, list(cluster), OrbitLimits(max_generation=4))
    assert any(not c.vector[1].is_rational() for c in circles)
    assert_matches_oracle(
        circles,
        RenderOptions(labels="bends", cocluster_words=words),
        RenderOptions(viewport=((-3, 3), (-1, 2)), labels="labels", cocluster_words=words),
    )


def test_negative_bends_match_exact_oracle():
    # oriented circles with b < 0 (bounding circles) have radius -1/b
    circles = [
        circle_at(0, 0, -2, "outer"),
        circle_at(1, 0, 1, "a"),
        circle_at(-1, 0, 1, "b"),
        circle_at(sqrt(2), 1, -1 - sqrt(3), "outer2"),
    ]
    assert all(c.vector[1].sign() < 0 for c in circles[::3])
    visible = assert_matches_oracle(
        circles,
        RenderOptions(labels="bends"),
        RenderOptions(viewport=((Fraction(5, 2), Fraction(7, 2)), (-1, 1)), labels="labels"),
    )
    assert [c.word for c, _ in visible] == ["outer2"]


def test_viewport_edges_tangent_to_circles():
    # every edge of each box touches some circle exactly, with rational
    # and with irrational centers and radii
    circles = [
        UNIT,
        circle_at(3, 0, 1, "a"),
        circle_at(1 - sqrt(2), 0, sqrt(2), "b"),
        circle_at(0, 2 + sqrt(5), sqrt(5) - 1, "c"),
        circle_at(Fraction(1, 3), Fraction(-1, 3), Fraction(2, 3), "d"),
    ]
    for box in [
        ((1, 2), (-1, 1)),  # x = 1 touches UNIT, b and d
        ((-3, -1), (1, 3)),  # x = -1 and y = 1 touch UNIT
        ((2, 4), (-1, 1)),  # x = 2, 4 and y = -1, 1 touch a
        ((-2, 2), (3, 5)),  # y = 3 touches c
        ((-1, 1), (-3, -1)),  # y = -1 touches UNIT and d
    ]:
        visible = assert_matches_oracle(circles, RenderOptions(viewport=box))
        assert visible


def test_irrational_near_ties_at_an_edge():
    # (sqrt2 - 1)**k is 6e-13 at k = 32 and below float resolution from
    # k = 42 on; each circle's right end is 1 +- that, against x = 1
    circles = []
    for k in (32, 36, 42, 44, 46, 50, 60):
        eps = (sqrt(2) - 1) ** k
        for sign in (1, -1):
            word = "%s%d" % ("+-"[sign < 0], k)
            circles.append(circle_at(1 - sqrt(2) + sign * eps, k, sqrt(2), word))
            circles.append(circle_at(2 + sqrt(3) + sign * eps, -k, sqrt(3), "x" + word))
    visible = assert_matches_oracle(circles, RenderOptions(viewport=((1, 2), (-70, 70))))
    assert sorted(c.word for c, _ in visible) == sorted(
        w for k in (32, 36, 42, 44, 46, 50, 60) for w in ("+%d" % k, "x-%d" % k)
    )
    assert_matches_oracle(circles)  # the fitted box's extremes tie too


def test_coordinates_beyond_float_range_take_the_exact_path():
    far = circle_at(10 ** 400, 0, 1, "far")
    huge = circle_at(-(10 ** 401), 0, 10 ** 400, "huge")
    tiny = circle_at(0, 0, Fraction(1, 10 ** 400), "tiny")
    visible = assert_matches_oracle(
        [UNIT, far, huge, tiny], RenderOptions(viewport=((0, 1), (-2, 2)))
    )
    assert [c.word for c, _ in visible] == ["1", "tiny"]
    # the drawing still needs floats for what is kept
    with pytest.raises(OverflowError):
        render_svg([UNIT, circle_at(0, 0, 10 ** 400, "all")], RenderOptions())
    with pytest.raises(OverflowError):
        render_svg([UNIT, far], RenderOptions())
    with pytest.raises(OverflowError):
        exact_viewport([exact_shape(UNIT.vector), exact_shape(far.vector)])
    # a box past float range cannot be drawn, so it is refused up front
    with pytest.raises(ValueError, match="float range"):
        RenderOptions(viewport=((-(10 ** 400), 10 ** 400), (-1, 1)))


def test_viewport_floats_cannot_draw_is_refused():
    for box, message in [
        (((-(10 ** 400), 10 ** 400), (-1, 1)), "float range"),
        (((Fraction(-1, 10 ** 400), 0), (0, 1)), "too small"),
        (((0, 1), (-(10 ** 400), -(10 ** 400) + 1)), "float range"),
        (((-(10 ** 308), 10 ** 308), (0, 1)), "float range"),  # width overflows
        (((0, Fraction(1, 10 ** 400)), (0, Fraction(1, 10 ** 400))), "too small"),
        (((0, Fraction(1, 10 ** 322)), (0, 1)), "too small"),  # width / 400 is 0
        (((0, 1), (0, Fraction(1, 10 ** 330))), "too small"),
    ]:
        with pytest.raises(ValueError, match=message):
            RenderOptions(viewport=box)
    # the smallest drawable stroke and the widest drawable box are accepted
    for box in [((0, Fraction(1, 10 ** 318)), (0, 1)), ((-(10 ** 307), 10 ** 307), (0, 1))]:
        svg = render_svg([UNIT], RenderOptions(viewport=box))
        assert 'stroke-width="0"' not in svg and "inf" not in svg


def test_fitted_viewport_floats_cannot_draw_is_refused():
    # the fitted box of a circle of radius 1e-400 rounds to a point
    tiny = circle_at(0, 0, Fraction(1, 10 ** 400), "tiny")
    with pytest.raises(ValueError, match="too small"):
        render_svg([tiny])
    assert render_svg([tiny], RenderOptions(viewport=((-1, 1), (-1, 1)))).count("<circle") == 1


def test_fitted_box_below_float_resolution_still_culls():
    # floats near y = 2**60 are 128 apart below it and 256 above, so the
    # 5% padding of a figure 200 high rounds away and the fitted box's top
    # edge, 2**60, falls below the extreme 2**60 + 100: the proof fails,
    # and the circle wholly above 2**60 is culled as the oracle culls it
    circles = [
        circle_at(0, 2 ** 60, 100, "a"),
        circle_at(200, 2 ** 60, 100, "b"),
        circle_at(100, 2 ** 60 + 98, 1, "c"),
    ]
    box, holds = render._auto_viewport([s for _, s in render._kept(circles)])
    assert not holds and box[1] == (2 ** 60 - 128, 2 ** 60)
    visible = assert_matches_oracle(circles, RenderOptions(labels="labels"))
    assert [c.word for c, _ in visible] == ["a", "b"]


def test_fitted_extremes_past_a_wide_enclosure():
    # v = 10**15 (3 - 2 sqrt2)**20 is about 0.49 with coefficients near
    # 1e30, so its enclosure at p = 55 is about 3e13 wide; each of the four
    # lower bounds must come from the lower ends, or the circle that
    # attains the extreme is passed over
    v = QNum(10 ** 15) * (3 - 2 * sqrt(2)) ** 20
    circles = [
        circle_at(v, v, 1, "wide"),
        circle_at(Fraction(3, 5), Fraction(3, 5), 1, "high"),
        circle_at(Fraction(3, 10), Fraction(3, 10), 1, "low"),
    ]
    assert_matches_oracle(circles, RenderOptions(labels="labels"))


@given(st.lists(
    st.tuples(
        st.fractions(-10**6, 10**6, max_denominator=10**6),
        st.fractions(-10**6, 10**6, max_denominator=10**6),
        st.fractions(Fraction(1, 10**30), 10**6, max_denominator=10**30),
    ),
    min_size=1, max_size=4,
))
def test_fitted_extents_are_positive_on_both_axes(disks):
    # every circle has radius 1/|b| > 0, so the exact extremes are at least
    # one diameter apart on each axis and both paddings are positive
    circles = [circle_at(x, y, r, str(k)) for k, (x, y, r) in enumerate(disks)]
    shapes = [s for _, s in render._kept(circles) if s[0] == "circle"]
    xlo, xhi, ylo, yhi = [
        render._extreme(shapes, axis, side, floor)
        for (axis, side), floor in zip(render._EDGES, render._floors(shapes))
    ]
    diameter = 2 * max(r for _, _, r in disks)
    assert xhi - xlo >= diameter and yhi - ylo >= diameter


@pytest.mark.parametrize(
    "viewport",
    [((0, 1),), ((0, 1), (0, 1), (0, 1)), ((0, 1, 2), (0, 1)), ((0, "a"), (0, 1)), 5, ((0, None), (0, 1))],
)
def test_malformed_viewport_is_refused(viewport):
    with pytest.raises(ValueError) as err:
        RenderOptions(viewport=viewport)
    assert str(err.value) == "viewport must be ((xlo, xhi), (ylo, yhi)) rationals"


def test_max_circles_is_a_positive_int():
    for bad in (2.5, 1.0, True, False, 0, -3, "3", Fraction(3)):
        with pytest.raises(ValueError, match="max_circles must be None or a positive int"):
            RenderOptions(max_circles=bad)
    assert RenderOptions(max_circles=1).max_circles == 1
    rows = [UNIT, OrbitCircle(circle_row(0, 2, 0, 2), 1, "a")]
    assert render_svg(rows, RenderOptions(max_circles=1)).count("<circle") == 1


def test_one_format_per_element_matches_fmt():
    # the document formats x + 0.0 with %.12g, where _fmt maps -0.0 to 0.0
    for x in (0.0, -0.0, 1.0, -1.5, 1 / 3, -2 / 3, 1e-300, -5e-324, 1.234567890125, -1e300, 2.0 ** 60):
        assert "%.12g" % (x + 0.0) == render._fmt(x)


# -- numerals and decisions at their rounding and tie boundaries -------


def test_pack_planar_figure_matches_exact_oracle():
    cfg = catalog.get_builtin("bi10-example").configuration
    inside, outside, _, _ = cfg.split(["1", "7"])
    orbit = generate_packing(inside, outside, OrbitLimits(max_generation=7))
    circles = parse_tsv(export_tsv(orbit))
    assert len(circles) == 13267
    # the fitted box holds every circle, so render culls only lines
    assert render._auto_viewport([s for _, s in render._kept(circles)])[1]
    visible = assert_matches_oracle(
        circles,
        RenderOptions(viewport=((0, 1), (0, 1)), labels="labels"),
        RenderOptions(),
    )
    assert len(visible) == len(circles)


# halfway between the 12-digit numerals 1.23456789012 and 1.23456789013
TIE = Fraction("1.234567890125")
FAR = ((-10, 10), (-10, 10))  # far from every circle below, so no cull ties
LABELS_SHOWN = ("bends", "labels")  # the modes that print a font size


def tie_circle(where, value):
    """A circle whose cx, -cy, r or 0.6*r is value, the rest well inside."""
    cx, cy, r = Fraction(1, 3), Fraction(-2, 7), Fraction(5, 11)
    if where == "cx":
        cx = value
    elif where == "cy":
        cy = -value
    elif where == "r":
        r = value
    else:
        r = value / Fraction(3, 5)
    return circle_at(cx, cy, r, where)


@pytest.mark.parametrize("labels", LABELS_SHOWN)
@pytest.mark.parametrize("offset", [0, Fraction(1, 10 ** 17), -Fraction(1, 10 ** 17)])
@pytest.mark.parametrize("where", ["cx", "cy", "r", "font"])
def test_numeral_at_a_rounding_boundary_takes_the_exact_route(where, offset, labels):
    circle = tie_circle(where, TIE * (1 + offset))
    assert_matches_oracle([circle], RenderOptions(viewport=FAR, labels=labels))


def test_well_conditioned_circles_stay_on_the_screen():
    # 1e-14 from a boundary on rows without cancellation, and without
    # labels the font size is not printed
    circles = [UNIT, tie_circle("cy", TIE * (1 + Fraction(1, 10 ** 14)))]
    circles += [tie_circle(w, TIE * (1 - Fraction(1, 10 ** 14))) for w in ("cx", "r")]
    assert_matches_oracle(circles, *(RenderOptions(viewport=FAR, labels=m) for m in LABELS_SHOWN))
    assert_matches_oracle([tie_circle("font", TIE)], RenderOptions(viewport=FAR))


def test_radius_with_a_small_conjugate_near_a_boundary():
    # r = K (sqrt10 - 3)**3 has a sqrt(10) coefficient about 9,000 times
    # r, and the midpoint of its enclosure at p = 55 sits 3/4 of half the
    # width above r (about 1.1e-13 here).  Put r 9.3e-14 below TIE: the
    # exact value rounds down, that midpoint rounds up, so to_float must
    # refine it, and only a bound that covers the enclosure's full width
    # sees the tie.
    unit = (sqrt(10) - 3) ** 3
    lo, _ = unit._bounds(200)
    target = TIE - Fraction(93, 10 ** 15)
    r = unit * QNum(Fraction(round(target / lo * 10 ** 40), 10 ** 40))
    assert "%.12g" % float(target) == "1.23456789012"
    assert render._fmt(float(sum(r._bounds(55)) / 2)) == "1.23456789013"
    assert render._fmt(float(r)) == "1.23456789012"
    circle = circle_at(0, 0, r, "r")
    assert_matches_oracle([circle], *(RenderOptions(viewport=FAR, labels=m) for m in LABELS_SHOWN))
    # a radius as ill-conditioned, away from any boundary
    assert_matches_oracle([circle_at(0, 0, unit * 290, "r")], RenderOptions(viewport=FAR))


def test_center_with_cancelling_coordinates_takes_the_exact_route():
    # bx = cx for b = 1 cancels: a float sum of its terms can be off by
    # about 4e-11, more than the 1e-11 between numerals
    unit = (sqrt(10) - 3) ** 3
    lo, _ = unit._bounds(200)
    cx = unit * QNum(Fraction(round(TIE / lo * 10 ** 40), 10 ** 40))
    circle = circle_at(cx, 0, 1, "c")
    assert_matches_oracle([circle], RenderOptions(viewport=FAR, labels="bends"))


def test_near_cancelling_bend_takes_the_exact_route():
    # b = 10**15 (3 - 2 sqrt2)**20 is about 0.49 with coefficients near
    # 1e30, so a float sum of its terms keeps no correct digit
    b = QNum(10 ** 15) * (3 - 2 * sqrt(2)) ** 20
    circle = OrbitCircle(as_vector((QNum(0), b, b * Fraction(1, 3), QNum(0))), 0, "b")
    for opts in (RenderOptions(labels="bends"), RenderOptions(viewport=FAR)):
        assert_matches_oracle([circle], opts)


def test_kept_formats_each_distinct_number_once(monkeypatch):
    # across parse_tsv and render: parse_tsv formats each distinct literal
    # once to check that it is canonical, and render reads the rows' text
    cfg = catalog.get_builtin("bi1-cluster3").configuration
    orbit = generate_packing(
        [cfg.row("3")], [cfg.row("1"), cfg.row("2"), cfg.row("4")], OrbitLimits(4)
    )
    text = export_tsv(orbit)
    formatted = []
    to_text = exactnum._format

    def counted(radicands, coeffs, den):
        formatted.append((coeffs, den))
        return to_text(radicands, coeffs, den)

    monkeypatch.setattr(exactnum, "_format", counted)
    monkeypatch.setattr(orbit_module, "_format", counted)
    circles = parse_tsv(text)
    svg = render_svg(circles)
    kept = render._kept(circles)
    assert len(formatted) == len(set(formatted)) == len({q for c in circles for q in c.vector})
    assert len(formatted) < sum(len(c.vector) for c in circles)
    monkeypatch.undo()
    assert [c for c, _ in kept] == [c for c, _ in exact_kept(circles)]
    assert svg == render_svg(orbit)


def noncanonical(text, line):
    """The same number as text, written with whitespace, a radicand that
    is not squarefree and an unreduced fraction; lines alternate between
    two spellings, so that raw text would sort them differently."""
    if line % 2:
        return " sqrt( 12 ) - 2 * sqrt(3)+%s " % text
    return "2/4 - 1/2 + %s" % text


@pytest.mark.parametrize("labels", render.LABEL_MODES)
def test_noncanonical_literals_render_as_their_canonical_twin(labels):
    cfg = catalog.get_builtin("bi10-example").configuration
    inside, outside, _, _ = cfg.split(["1", "7"])
    canonical = export_tsv(generate_packing(inside, outside, OrbitLimits(max_generation=3)))
    lines = []
    for i, line in enumerate(canonical.splitlines()):
        gen, word, coords = line.split("\t")
        parts = (noncanonical(p, i) for p in coords[1:-1].split(","))
        lines.append("%s\t%s\t(%s)" % (gen, word, ",".join(parts)))
    twin = "\n".join(reversed(lines)) + "\n"
    opts = RenderOptions(labels=labels)
    want = render_svg(parse_tsv(canonical), opts)
    assert render_svg(parse_tsv(twin), opts) == want


def respelled(literal, k):
    """The same number as literal, not canonical: -0 for 0, else with
    whitespace, an unreduced fraction or a radicand that is not
    squarefree, by k."""
    if literal == "0":
        return "-0"
    return (" %s ", "%s+2/4-1/2", "sqrt(12)-2*sqrt(3)+%s")[k % 3] % literal


@pytest.mark.parametrize("labels", render.LABEL_MODES)
def test_rows_mixing_canonical_and_noncanonical_literals(labels):
    cfg = catalog.get_builtin("bi10-example").configuration
    inside, outside, _, _ = cfg.split(["1", "7"])
    canonical = export_tsv(generate_packing(inside, outside, OrbitLimits(max_generation=3)))
    lines, respelt = [], []
    for i, line in enumerate(canonical.splitlines()):
        gen, word, coords = line.split("\t")
        parts = coords[1:-1].split(",")
        if i % 3:  # one literal of the row respelled, the others kept
            j = parts.index("0") if "0" in parts else i % len(parts)
            parts[j] = respelled(parts[j], i // 3)
        lines.append("%s\t%s\t(%s)" % (gen, word, ",".join(parts)))
        respelt.append(lines[-1] != line)
    assert sum(respelt) > len(lines) // 2 and not all(respelt)
    assert any("-0" in line.split("\t")[2].split(",") for line in lines)
    twin = "\n".join(lines) + "\n"
    circles = parse_tsv(twin)
    # export prints the canonical text, never the file's spelling
    assert export_tsv(orbit_module.PackingOrbit(circles, None, "packing")) == canonical
    # a row of canonical literals keeps the file's text, any other is rebuilt
    for c, line, changed in zip(circles, canonical.splitlines(), respelt):
        assert c.text == line.split("\t")[2][1:-1]
        assert (c._text is None) == changed
    opts = RenderOptions(labels=labels)
    want = render_svg(parse_tsv(canonical), opts)
    assert render_svg(circles, opts) == want
    assert render_svg(parse_tsv("\n".join(reversed(lines))), opts) == want


def test_render_reuses_common_keys():
    cfg = catalog.get_builtin("bi1-cluster3").configuration
    circles, words = supercluster_circles(cfg, ["3"], OrbitLimits(max_generation=3))
    assert {c.word: c.vector for c in circles[-len(words):]} == {w: cfg.row(w[3:]) for w in words}
    field, keys = render._keys(circles)
    assert field is circles[0].field and keys == [c.key for c in circles]
    # a circle built from a vector carries no key: every row is encoded
    # over a new field
    mixed = circles + (UNIT,)
    field, keys = render._keys(mixed)
    assert field is not circles[0].field
    assert [field.decode(k) for k in keys] == [c.vector for c in mixed]


# a + c sqrt(k) + e u**n: mixed radicands, and units u whose powers bring
# cancellation into the row and small conjugates into b
coefficients = st.fractions(min_value=-50, max_value=50, max_denominator=1000)


@st.composite
def row_numbers(draw):
    k = draw(st.sampled_from([2, 3, 5, 10]))
    unit = draw(st.sampled_from([ONE, sqrt(2) - 1, sqrt(10) - 3, 2 - sqrt(3)]))
    x = QNum({1: draw(coefficients), k: draw(coefficients)})
    return x + draw(coefficients) * unit ** draw(st.integers(0, 14))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(row_numbers(), row_numbers(), row_numbers()), min_size=1, max_size=4),
       st.sampled_from(render.LABEL_MODES))
def test_random_rows_match_exact_oracle(rows, labels):
    circles = [
        OrbitCircle(as_vector((QNum(0), b, x, y)), 0, "w%d" % i)
        for i, (b, x, y) in enumerate(rows)
        if b
    ]
    assume(circles)
    assert_matches_oracle(
        circles,
        RenderOptions(labels=labels),
        RenderOptions(viewport=((-3, 3), (-2, 2)), labels=labels),
    )
