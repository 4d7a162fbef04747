import re
from fractions import Fraction

import pytest

from packinglab import catalog, render
from packinglab.exactnum import QNum, sqrt
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


# -- the float screen against exact arithmetic ------------------------
#
# The exact viewport and cull loop render used before it screened in
# floats, kept here as the oracle: the box, the visible circles and the
# SVG must come out the same.


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
        # drop the screen, so that the numerals come from float(QNum)
        visible.append((c, shape[:3] + (None,) if shape[0] == "circle" else shape))
    return visible


def assert_matches_oracle(circles, opts=RenderOptions()):
    kept = render._kept(circles)
    box = opts.viewport
    if box is None:
        box = exact_viewport([shape for _, shape in kept])
        assert render._auto_viewport([shape for _, shape in kept]) == box
    want = exact_visible(kept, box)
    got = render._visible(kept, box)
    assert [c for c, _ in got] == [c for c, _ in want]
    want_svg = render._document(want[: opts.max_circles], box, opts)
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
    assert render._shape(far.vector)[3] is None
    assert render._shape(huge.vector)[3] is None
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
        exact_viewport([render._shape(UNIT.vector), render._shape(far.vector)])
    # a box past float range is culled exactly (and cannot be drawn)
    big_box = RenderOptions(viewport=((-(10 ** 400), 10 ** 400), (-1, 1))).viewport
    assert render._float_box(big_box) is None
    kept = render._kept([UNIT, far, huge])
    got = [c.word for c, _ in render._visible(kept, big_box)]
    assert got == [c.word for c, _ in exact_visible(kept, big_box)] == ["1", "far"]
