import itertools

import pytest

from packinglab import polygraph
from packinglab.polygraph import (
    PlanarPolyhedron,
    builtin,
    count_after_glue,
    face_equivalent,
    from_json,
    glue_face,
    glue_vertex,
    list_builtin,
    to_json,
    vertex_equivalent,
)


def isomorphic(a, b):
    # small-instance graph isomorphism with face structure, by backtracking
    if a.counts() != b.counts() or a.face_types() != b.face_types():
        return False
    adj_a = {v: set() for v in a.vertices}
    for x, y in a.edges:
        adj_a[x].add(y)
        adj_a[y].add(x)
    adj_b = {v: set() for v in b.vertices}
    for x, y in b.edges:
        adj_b[x].add(y)
        adj_b[y].add(x)
    deg_a = sorted(len(adj_a[v]) for v in a.vertices)
    deg_b = sorted(len(adj_b[v]) for v in b.vertices)
    if deg_a != deg_b:
        return False
    faces_b = set(frozenset(f) for f in b.faces)

    order = sorted(a.vertices, key=lambda v: -len(adj_a[v]))

    def extend(mapping):
        if len(mapping) == len(order):
            mapped = set(
                frozenset(mapping[v] for v in f) for f in a.faces
            )
            return mapped == faces_b
        v = order[len(mapping)]
        for w in b.vertices:
            if w in mapping.values():
                continue
            if len(adj_a[v]) != len(adj_b[w]):
                continue
            if any(u in mapping and mapping[u] not in adj_b[w] for u in adj_a[v]):
                continue
            mapping[v] = w
            if extend(mapping):
                return True
            del mapping[v]
        return False

    return extend({})


def test_builtin_seeds():
    assert list_builtin() == [
        "6v7f_2",
        "hexagonal_pyramid",
        "square_pyramid",
        "tetrahedron",
    ]
    assert builtin("tetrahedron").counts() == (4, 6, 4)
    assert builtin("square_pyramid").counts() == (5, 8, 5)
    assert builtin("hexagonal_pyramid").counts() == (7, 12, 7)
    assert builtin("6v7f_2").counts() == (6, 11, 7)
    assert builtin("6v7f_2").face_types() == (3, 3, 3, 3, 3, 3, 4)
    with pytest.raises(KeyError, match="cube"):
        builtin("cube")


@pytest.mark.parametrize(
    "name", ["../catalog/bi10-example", "../polyhedra/tetrahedron", "tetrahedron.json", ""]
)
def test_builtin_reads_only_listed_names(name):
    # a name is checked against list_builtin before any file is opened,
    # so a path-like name is the usual "no builtin polyhedron" error
    with pytest.raises(KeyError, match="no builtin polyhedron"):
        builtin(name)


def test_json_round_trip():
    tet = builtin("tetrahedron")
    assert from_json(to_json(tet)) == tet
    # shipped bytes are exactly what the writer produces
    from importlib import resources

    raw = (
        resources.files("packinglab")
        .joinpath("data/polyhedra/tetrahedron.json")
        .read_text(encoding="utf-8")
    )
    assert raw == to_json(tet)


def test_validation_rejects_bad_polyhedra():
    with pytest.raises(ValueError, match="Euler|faces"):
        PlanarPolyhedron("x", ("1", "2", "3"), (("1", "2", "3"),))
    with pytest.raises(ValueError, match="unknown vertex"):
        PlanarPolyhedron("x", ("1", "2", "3"), (("1", "2", "9"),))
    with pytest.raises(ValueError, match="edge list"):
        PlanarPolyhedron(
            "x",
            ("1", "2", "3", "4"),
            (("1", "2", "3"), ("1", "2", "4"), ("1", "3", "4"), ("2", "3", "4")),
            (("1", "2"),),
        )


def test_tetrahedron_faces_equivalent():
    tet = builtin("tetrahedron")
    m = face_equivalent(tet, 0, tet, 3)
    assert m is not None
    assert [p[0] for p in m] == list(tet.faces[0])


def test_mixed_face_not_equivalent():
    sq = builtin("square_pyramid")
    tet = builtin("tetrahedron")
    # both triangles, but the pyramid triangle touches the square base
    assert face_equivalent(sq, 1, tet, 0) is None
    with pytest.raises(ValueError, match="sizes"):
        face_equivalent(sq, 0, tet, 0)


def test_vertex_degree_mismatch():
    sq = builtin("square_pyramid")
    tet = builtin("tetrahedron")
    with pytest.raises(ValueError, match="degrees"):
        vertex_equivalent(sq, "t", tet, "1")


def test_triangular_bipyramid():
    tet = builtin("tetrahedron")
    m = face_equivalent(tet, 0, tet, 0)
    out = glue_face(tet, 0, tet, 0, m)
    assert out.counts() == (5, 9, 6)
    assert out.face_types() == (3,) * 6
    assert count_after_glue("face", (4, 6, 4), (4, 6, 4), 3) == (5, 9, 6)


def test_triangular_prism():
    tet = builtin("tetrahedron")
    m = vertex_equivalent(tet, "1", tet, "1")
    out = glue_vertex(tet, "1", tet, "1", m)
    assert out.counts() == (6, 9, 5)
    assert out.face_types() == (3, 3, 4, 4, 4)
    assert count_after_glue("vertex", (4, 6, 4), (4, 6, 4), 3) == (6, 9, 5)


def test_octahedron():
    sq = builtin("square_pyramid")
    m = face_equivalent(sq, 0, sq, 0)
    out = glue_face(sq, 0, sq, 0, m)
    assert out.counts() == (6, 12, 8)
    assert out.face_types() == (3,) * 8
    assert all(out.vertex_degree(v) == 4 for v in out.vertices)
    assert count_after_glue("face", (5, 8, 5), (5, 8, 5), 4) == (6, 12, 8)


def test_6v8f_three_tets():
    tet = builtin("tetrahedron")
    bip = glue_face(tet, 0, tet, 0, face_equivalent(tet, 0, tet, 0))
    # bipyramid faces are all triangles with neighbor types (3,3,3)
    out = glue_face(bip, 0, tet, 0, face_equivalent(bip, 0, tet, 0))
    assert out.counts() == (6, 12, 8)


def test_7v10f_needs_four_tets():
    # the construction table prints three tetrahedra for the 7v10f rows,
    # but three only reach 6 vertices; a fourth gets to (7, 15, 10)
    tet = builtin("tetrahedron")
    poly = tet
    for _ in range(3):
        poly = glue_face(poly, 0, tet, 0, face_equivalent(poly, 0, tet, 0))
    assert poly.counts() == (7, 15, 10)


def test_7v8f_two_gluings_differ():
    # two square pyramids joined along a slanted triangle give two distinct
    # solids: the type-aligned matching welds apex to apex, while a rotated
    # matching welds the apex onto a base corner
    sq = builtin("square_pyramid")
    cycle = sq.faces[1]  # a slanted triangle, apex t in it
    assert "t" in cycle
    m = face_equivalent(sq, 1, sq, 1)
    assert dict(m)["t"] == "t"
    apex = glue_face(sq, 1, sq, 1, m)
    # the face pair is equivalent, so any cyclic matching is a valid gluing,
    # including the rotation that lands the apex on a base corner
    rot = tuple((cycle[i], cycle[(i + 1) % 3]) for i in range(3))
    skew = glue_face(sq, 1, sq, 1, rot)
    assert apex.counts() == (7, 13, 8)
    assert skew.counts() == (7, 13, 8)
    assert sorted(apex.vertex_degree(v) for v in apex.vertices) == [
        3, 3, 3, 3, 4, 4, 6]
    assert sorted(skew.vertex_degree(v) for v in skew.vertices) == [
        3, 3, 3, 3, 4, 5, 5]
    assert not isomorphic(apex, skew)


def test_aligned_self_matchings_agree():
    # the two type-aligned matchings of a pyramid triangle against itself
    # differ only by the pyramid's own mirror symmetry
    sq = builtin("square_pyramid")
    t, p, q = sq.faces[1]
    assert t == "t"
    out_a = glue_face(sq, 1, sq, 1, ((t, t), (p, p), (q, q)))
    out_b = glue_face(sq, 1, sq, 1, ((t, t), (p, q), (q, p)))
    assert isomorphic(out_a, out_b)


def test_elongated_triangular_pyramid_row():
    # prism triangle against tetrahedron triangle: types (4,4,4) vs (3,3,3)
    tet = builtin("tetrahedron")
    prism = glue_vertex(tet, "1", tet, "1", vertex_equivalent(tet, "1", tet, "1"))
    tri = next(i for i, f in enumerate(prism.faces) if len(f) == 3)
    assert face_equivalent(prism, tri, tet, 0) is None
    cycle = prism.faces[tri]
    matching = tuple(zip(cycle, tet.faces[0]))
    with pytest.raises(ValueError, match="not equivalent"):
        glue_face(prism, tri, tet, 0, matching)
    out = glue_face(prism, tri, tet, 0, matching, require_equivalent=False)
    assert out.counts() == (7, 12, 7)
    assert out.face_types() == (3, 3, 3, 3, 4, 4, 4)


def reference_match(ring_a, types_a, ring_b, types_b):
    # the per-caller search face_equivalent and vertex_equivalent each ran
    # before they shared one helper: rotations, then reflections
    n = len(ring_a)
    maps = [([(r + i) % n for i in range(n)], 1) for r in range(n)]
    maps += [([(r - i) % n for i in range(n)], -1) for r in range(n)]
    for vmap, sign in maps:
        if sign == 1:
            ok = all(types_a[i] == types_b[vmap[i]] for i in range(n))
        else:
            ok = all(types_a[i] == types_b[(vmap[i] - 1) % n] for i in range(n))
        if ok:
            return tuple((ring_a[i], ring_b[vmap[i]]) for i in range(n)), sign
    return None, 0


def test_dihedral_match_agrees_with_reference():
    # no builtin polyhedron, nor any single face gluing of two, needs the
    # reflection branch, so exercise it on chiral type sequences directly
    ring_a, ring_b = "pqrst", "vwxyz"
    reflected = 0
    for n, values in ((3, (3, 4, 5)), (4, (3, 4, 5)), (5, (3, 4))):
        for types_a in itertools.product(values, repeat=n):
            for types_b in itertools.product(values, repeat=n):
                want, sign = reference_match(ring_a[:n], types_a, ring_b[:n], types_b)
                assert polygraph._dihedral_match(
                    ring_a[:n], types_a, ring_b[:n], types_b
                ) == want
                reflected += sign == -1
    assert reflected > 0
    # (3, 4, 5) and (5, 4, 3) are mirror images and not rotations of each other
    assert polygraph._dihedral_match("pqr", (3, 4, 5), "xyz", (5, 4, 3)) == (
        ("p", "x"), ("q", "z"), ("r", "y"),
    )


def test_glue_symmetric_isomorphic():
    tet = builtin("tetrahedron")
    sq = builtin("square_pyramid")
    m = face_equivalent(sq, 0, sq, 0)
    ab = glue_face(sq, 0, sq, 0, m)
    m_rev = tuple((y, x) for x, y in m)
    ba = glue_face(sq, 0, sq, 0, m_rev)
    assert isomorphic(ab, ba)
    mv = vertex_equivalent(tet, "1", tet, "2")
    ab = glue_vertex(tet, "1", tet, "2", mv)
    ba = glue_vertex(tet, "2", tet, "1", tuple((y, x) for x, y in mv))
    assert isomorphic(ab, ba)


def test_euler_on_every_gluing():
    # constructor enforces Euler; spot-check a chain of mixed gluings
    tet = builtin("tetrahedron")
    sq = builtin("square_pyramid")
    poly = glue_face(sq, 0, sq, 0, face_equivalent(sq, 0, sq, 0))
    poly = glue_face(poly, 0, tet, 0, face_equivalent(poly, 0, tet, 0))
    v, e, f = poly.counts()
    assert v - e + f == 2


def test_matching_validation():
    # a triangle admits every bijection (S3 is dihedral), so use the square
    # base: swapping one adjacent pair is not a rotation or reflection
    sq = builtin("square_pyramid")
    base = next(i for i, f in enumerate(sq.faces) if len(f) == 4)
    a, b, c, d = sq.faces[base]
    bad = ((a, a), (b, b), (c, d), (d, c))
    with pytest.raises(ValueError, match="traverse both face cycles"):
        glue_face(sq, base, sq, base, bad)
    tet = builtin("tetrahedron")
    with pytest.raises(ValueError, match="traverse both vertex stars"):
        glue_vertex(tet, "1", tet, "1", (("2", "2"), ("3", "3"), ("1", "4")))


@pytest.mark.parametrize("index", [4, -1, -5])
def test_face_index_outside_the_faces_is_refused(index):
    # -1 must not mean the last face: glue_face would then drop no face
    tet = builtin("tetrahedron")
    message = r"^tetrahedron has no face %d; its faces are 0\.\.3$" % index
    with pytest.raises(ValueError, match=message):
        face_equivalent(tet, index, tet, 0)
    with pytest.raises(ValueError, match=message):
        face_equivalent(tet, 0, tet, index)
    matching = tuple(zip(tet.faces[0], tet.faces[0]))
    with pytest.raises(ValueError, match=message):
        glue_face(tet, index, tet, 0, matching, require_equivalent=False)


def test_unknown_vertex_label_is_refused():
    tet = builtin("tetrahedron")
    message = r"^tetrahedron has no vertex 'zz'$"
    with pytest.raises(ValueError, match=message):
        vertex_equivalent(tet, "zz", tet, "1")
    with pytest.raises(ValueError, match=message):
        vertex_equivalent(tet, "1", tet, "zz")
    matching = (("2", "2"), ("3", "3"), ("4", "4"))
    with pytest.raises(ValueError, match=message):
        glue_vertex(tet, "zz", tet, "1", matching, require_equivalent=False)


def test_count_after_glue_validation():
    with pytest.raises(ValueError, match="at least 3"):
        count_after_glue("face", (4, 6, 4), (4, 6, 4), 2)
    with pytest.raises(ValueError, match="kind"):
        count_after_glue("edge", (4, 6, 4), (4, 6, 4), 3)
    with pytest.raises(ValueError, match="strictly grow"):
        count_after_glue("face", (4, 6, 4), (3, 3, 2), 3)
