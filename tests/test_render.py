import re

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
