"""Combinatorial polyhedra and the face/vertex gluing calculus.

A polyhedron is stored purely combinatorially: labeled vertices, edges,
and faces as cyclic vertex sequences.  Validity means the Euler relation
V - E + F = 2, every edge on exactly two faces, and (checked directly on
instances up to 16 vertices) 3-connectivity.

Two n-gon faces are equivalent when the faces adjacent across their
boundary edges have the same gon counts in the same cyclic order; two
degree-n vertices are equivalent when the faces around them do.  All n
rotations and both orientations are tried.  Gluing along a face drops
both glued faces and identifies their boundaries; gluing at a vertex
joins the edge stars one-to-one and merges incident face pairs.

The paper's own construction table contains one row whose gluing fails
the equivalence test; ``require_equivalent=False`` replays such rows
while still enforcing structural validity of the matching.

Fixtures for the four nondecomposable seeds ship as JSON files
(vertex labels, edge pairs, face cycles) under data/polyhedra/.
"""

from __future__ import annotations

import itertools
import json
from importlib import resources

from ._record import Record


def _edge_key(a, b):
    return (a, b) if a <= b else (b, a)


class PlanarPolyhedron(Record):
    name: str
    vertices: tuple
    faces: tuple
    edges: tuple = ()

    def __post_init__(self):
        vertices = tuple(str(v) for v in self.vertices)
        faces = tuple(tuple(str(v) for v in f) for f in self.faces)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "faces", faces)
        if len(set(vertices)) != len(vertices):
            raise ValueError("duplicate vertex labels")
        known = set(vertices)
        for fi, f in enumerate(faces):
            if len(f) < 3:
                raise ValueError("face %d has fewer than 3 vertices" % fi)
            if len(set(f)) != len(f):
                raise ValueError("face %d repeats a vertex" % fi)
            for v in f:
                if v not in known:
                    raise ValueError("face %d uses unknown vertex %r" % (fi, v))
        derived = self.edge_faces()
        if self.edges:
            given = set(_edge_key(str(x), str(y)) for x, y in self.edges)
            if given != set(derived):
                raise ValueError("edge list disagrees with face boundaries")
        object.__setattr__(self, "edges", tuple(sorted(derived)))
        for e, fs in derived.items():
            if len(fs) != 2:
                raise ValueError(
                    "edge %s lies on %d faces, expected 2" % (e, len(fs))
                )
        if len(vertices) - len(self.edges) + len(faces) != 2:
            raise ValueError(
                "Euler relation fails: V-E+F = %d"
                % (len(vertices) - len(self.edges) + len(faces))
            )
        if len(vertices) <= 16 and not self._three_connected():
            raise ValueError("graph is not 3-connected")

    def _adjacency(self):
        adj = {v: set() for v in self.vertices}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return adj

    def _three_connected(self):
        if len(self.vertices) < 4:
            return False
        adj = self._adjacency()
        for cut in itertools.combinations(self.vertices, 2):
            rest = [v for v in self.vertices if v not in cut]
            seen = {rest[0]}
            stack = [rest[0]]
            while stack:
                for w in adj[stack.pop()]:
                    if w not in cut and w not in seen:
                        seen.add(w)
                        stack.append(w)
            if len(seen) != len(rest):
                return False
        return True

    def face(self, index):
        """The cycle of face ``index``, one of 0 .. F-1 (no index counts
        from the end); ValueError names any other index."""
        if not 0 <= index < len(self.faces):
            raise ValueError("%s has no face %r; its faces are 0..%d"
                             % (self.name, index, len(self.faces) - 1))
        return self.faces[index]

    def _known(self, v):
        if v not in self.vertices:
            raise ValueError("%s has no vertex %r" % (self.name, v))

    def counts(self):
        return (len(self.vertices), len(self.edges), len(self.faces))

    def face_types(self):
        """Multiset of gon counts, sorted."""
        return tuple(sorted(len(f) for f in self.faces))

    def edge_faces(self):
        out = {}
        for fi, f in enumerate(self.faces):
            for i in range(len(f)):
                out.setdefault(_edge_key(f[i], f[(i + 1) % len(f)]), []).append(fi)
        return out

    def vertex_degree(self, v):
        self._known(v)
        return sum(1 for e in self.edges if v in e)

    def vertex_rotation(self, v):
        """Neighbors of v in cyclic order around v (deterministic start)."""
        self._known(v)
        pairs = []
        for f in self.faces:
            if v in f:
                i = f.index(v)
                pairs.append((f[i - 1], f[(i + 1) % len(f)]))
        link = {}
        for a, b in pairs:
            link.setdefault(a, []).append(b)
            link.setdefault(b, []).append(a)
        start = min(link)
        order = [start, min(link[start])]
        while len(order) < len(link):
            a, b = link[order[-1]]
            order.append(a if b == order[-2] else b)
        return tuple(order)

    def face_between(self, v, a, b):
        """Index of the face whose cycle runs a, v, b (in either direction)."""
        for fi, f in enumerate(self.faces):
            if v in f:
                i = f.index(v)
                if {f[i - 1], f[(i + 1) % len(f)]} == {a, b}:
                    return fi
        raise ValueError("no face at %r between %r and %r" % (v, a, b))


def _neighbor_types(poly, face_index):
    f = poly.faces[face_index]
    ef = poly.edge_faces()
    types = []
    for i in range(len(f)):
        pair = ef[_edge_key(f[i], f[(i + 1) % len(f)])]
        other = pair[0] if pair[1] == face_index else pair[1]
        types.append(len(poly.faces[other]))
    return types


def _dihedral_match(ring_a, types_a, ring_b, types_b):
    """Pairs (ring_a[i], ring_b[vmap[i]]) for the first rotation, then
    reflection, i -> vmap[i] of the cycle carrying types_a onto types_b,
    or None.  types[i] sits between positions i and i+1, so under a
    reflection it lands between vmap[i] - 1 and vmap[i]."""
    n = len(ring_a)
    for step, shift in ((1, 0), (-1, 1)):
        for r in range(n):
            vmap = [(r + step * i) % n for i in range(n)]
            if all(types_a[i] == types_b[(vmap[i] - shift) % n] for i in range(n)):
                return tuple((ring_a[i], ring_b[vmap[i]]) for i in range(n))
    return None


def face_equivalent(a, fa, b, fb):
    """Cyclic vertex correspondence making the two faces equivalent, or None."""
    ca, cb = a.face(fa), b.face(fb)
    if len(ca) != len(cb):
        raise ValueError("face sizes differ: %d vs %d" % (len(ca), len(cb)))
    # edge i of A, between ca[i] and ca[i+1], is typed by the face across it
    return _dihedral_match(ca, _neighbor_types(a, fa), cb, _neighbor_types(b, fb))


def vertex_equivalent(a, va, b, vb):
    """Aligned neighbor pairing around two equivalent vertices, or None.

    In the returned matching, consecutive pairs bound paired faces: the
    A face between neighbors i and i+1 merges with the B face between
    the corresponding B neighbors when glued.
    """
    da, db = a.vertex_degree(va), b.vertex_degree(vb)
    if da != db:
        raise ValueError("vertex degrees differ: %d vs %d" % (da, db))
    n = da
    ra = a.vertex_rotation(va)
    rb = b.vertex_rotation(vb)
    types_a = [
        len(a.faces[a.face_between(va, ra[i], ra[(i + 1) % n])]) for i in range(n)
    ]
    types_b = [
        len(b.faces[b.face_between(vb, rb[i], rb[(i + 1) % n])]) for i in range(n)
    ]
    return _dihedral_match(ra, types_a, rb, types_b)


def _is_dihedral_of(sequence, cycle):
    n = len(cycle)
    if len(sequence) != n or set(sequence) != set(cycle):
        return False
    doubled = list(cycle) + list(cycle)
    s = list(sequence)
    for start in range(n):
        if doubled[start : start + n] == s:
            return True
    rev = list(reversed(doubled))
    for start in range(n):
        if rev[start : start + n] == s:
            return True
    return False


def _fresh_names(poly_a, keep_map, poly_b):
    """Names for B's surviving vertices, avoiding collisions with A."""
    used = set(poly_a.vertices)
    rename = dict(keep_map)
    for v in poly_b.vertices:
        if v in rename:
            continue
        name = v
        while name in used:
            name += "'"
        rename[v] = name
        used.add(name)
    return rename


def glue_face(a, fa, b, fb, matching, require_equivalent=True):
    """Glue B onto A along faces fa/fb with the given vertex matching."""
    ca, cb = a.face(fa), b.face(fb)
    a_side = [p[0] for p in matching]
    b_side = [p[1] for p in matching]
    if not (_is_dihedral_of(a_side, ca) and _is_dihedral_of(b_side, cb)):
        raise ValueError("matching does not traverse both face cycles")
    if require_equivalent:
        witness = face_equivalent(a, fa, b, fb)
        if witness is None:
            raise ValueError(
                "faces are not equivalent (adjacent face types differ); "
                "pass require_equivalent=False to force"
            )

    rename = _fresh_names(a, {bv: av for av, bv in matching}, b)
    faces = [f for i, f in enumerate(a.faces) if i != fa]
    faces += [
        tuple(rename[v] for v in f) for i, f in enumerate(b.faces) if i != fb
    ]
    vertices = list(a.vertices) + [
        rename[v] for v in b.vertices if rename[v] not in set(a.vertices)
    ]
    if len(vertices) != len(a.vertices) + len(b.vertices) - len(matching):
        raise ValueError("glued vertex count does not match the matching")
    return PlanarPolyhedron(
        "%s+%s" % (a.name, b.name), tuple(vertices), tuple(faces)
    )


def glue_vertex(a, va, b, vb, matching, require_equivalent=True):
    """Glue B onto A at vertices va/vb, joining edge stars per the matching."""
    n = len(matching)
    a_side = [p[0] for p in matching]
    b_side = [p[1] for p in matching]
    if not (_is_dihedral_of(a_side, a.vertex_rotation(va))
            and _is_dihedral_of(b_side, b.vertex_rotation(vb))):
        raise ValueError("matching does not traverse both vertex stars")
    if require_equivalent:
        if vertex_equivalent(a, va, b, vb) is None:
            raise ValueError(
                "vertices are not equivalent (incident face types differ); "
                "pass require_equivalent=False to force"
            )

    rename = _fresh_names(a, {}, b)
    merged = []
    untouched_a = [f for f in a.faces if va not in f]
    untouched_b = [
        tuple(rename[v] for v in f) for f in b.faces if vb not in f
    ]
    for i in range(n):
        a1, a2 = a_side[i], a_side[(i + 1) % n]
        b1, b2 = b_side[i], b_side[(i + 1) % n]
        fa = a.faces[a.face_between(va, a1, a2)]
        fb = b.faces[b.face_between(vb, b1, b2)]
        pa = _open_path(fa, va, a2, a1)  # a2 ... a1, avoiding va
        pb = _open_path(fb, vb, b1, b2)  # b1 ... b2, avoiding vb
        merged.append(tuple(pa + [rename[v] for v in pb]))
    vertices = [v for v in a.vertices if v != va] + [
        rename[v] for v in b.vertices if v != vb
    ]
    return PlanarPolyhedron(
        "%s+%s" % (a.name, b.name),
        tuple(vertices),
        tuple(untouched_a + untouched_b + merged),
    )


def _open_path(face, drop, start, end):
    """The face cycle as a path start..end once `drop` is removed."""
    cyc = list(face)
    i = cyc.index(drop)
    cyc = cyc[i + 1 :] + cyc[:i]  # open walk, drop removed
    if cyc[0] == start and cyc[-1] == end:
        return cyc
    if cyc[0] == end and cyc[-1] == start:
        return list(reversed(cyc))
    raise ValueError("face %r does not link %r to %r" % (face, start, end))


def to_json(poly):
    doc = {
        "name": poly.name,
        "vertices": list(poly.vertices),
        "edges": [list(e) for e in poly.edges],
        "faces": [list(f) for f in poly.faces],
    }
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def from_json(text):
    doc = json.loads(text)
    return PlanarPolyhedron(
        doc["name"],
        tuple(doc["vertices"]),
        tuple(tuple(f) for f in doc["faces"]),
        tuple(tuple(e) for e in doc.get("edges", [])),
    )


def list_builtin():
    root = resources.files("packinglab").joinpath("data/polyhedra")
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))


def builtin(name):
    """The polyhedron of a listed name; any other name is a KeyError, so a
    name cannot reach a file outside the data directory."""
    available = list_builtin()
    if name not in available:
        raise KeyError("no builtin polyhedron %r (have: %s)"
                       % (name, ", ".join(available)))
    root = resources.files("packinglab").joinpath("data/polyhedra")
    return from_json(root.joinpath(name + ".json").read_text(encoding="utf-8"))
