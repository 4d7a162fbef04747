"""Edge classification, Coxeter diagrams, and cluster enumeration.

A Gram entry g of two walls falls into one of four kinds: 0 means the
walls are orthogonal (no edge), |g| = 1 tangent (thick edge), |g| > 1
disjoint at hyperbolic distance arccosh|g| (dashed edge), and
0 < |g| < 1 an angle pi/n with g = +-cos(pi/n) (n-2 ordinary lines).

Classification is exact equality of QNums, and needs nothing else.
cos(pi/n) generates the real cyclotomic field of degree phi(2n)/2
(Lehmer, Amer. Math. Monthly 40, 1933), whose Galois group is
(Z/2n)^x / {+-1}.  A QNum lies in a multiquadratic field, whose Galois
group has exponent 2, so cos(pi/n) is a QNum only when every unit a mod
2n has a^2 = +-1.  The units mod 2n map onto the units mod each divisor
m of 2n, so one m with a unit whose square is not +-1 mod m rules n
out: a primitive root mod a prime m >= 7, 2 mod 9, 15 or 25, or 3 mod
16 or 20.  What is left is 2n = 10 or 2n dividing 24, so
n in {3, 4, 5, 6, 12}, the orders of _EXACT_COS.  No entry can equal
the cosine of any other order, so an entry matching none of the table
is unclassifiable.

Cluster enumeration follows the separation criterion: a subset S is a
cluster iff every member meets every wall outside S with |g| >= 1 or
g = 0, and the members are pairwise tangent or disjoint (|g| >= 1).
Consequently no member of a cluster can carry an angle entry at all
(its angle partner could live neither inside nor outside S), which
cuts the search to cliques among angle-free vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactnum import QNum, sqrt

__all__ = [
    "Orthogonal",
    "Tangent",
    "Angle",
    "Disjoint",
    "CoxeterDiagram",
    "ClusterReport",
    "classify_entry",
    "diagram",
    "enumerate_clusters",
    "validate_cluster",
    "export_dot",
]


@dataclass(frozen=True)
class Orthogonal:
    pass


@dataclass(frozen=True)
class Tangent:
    sign: int = 1


@dataclass(frozen=True)
class Angle:
    order: int
    sign: int = 1


@dataclass(frozen=True)
class Disjoint:
    separation: QNum  # the signed exact entry; |separation| = cosh(distance)


# cos(pi/n) for every order whose cosine is a QNum (see the module
# docstring for why there are no others)
_EXACT_COS = {
    3: QNum(Fraction(1, 2)),
    4: sqrt(2) / 2,
    5: (1 + sqrt(5)) / 4,
    6: sqrt(3) / 2,
    12: (sqrt(6) + sqrt(2)) / 4,
}


def classify_entry(g: QNum, max_order: int = 12):
    """Kind of a single off-diagonal Gram entry.

    Matching is on |g| with the sign recorded on the kind.  An entry
    with 0 < |g| < 1 is the angle pi/n for the n <= max_order in
    _EXACT_COS whose cosine equals |g| exactly; these are the only
    orders with a cosine in the ring, so ValueError for any other
    entry: that pair is not part of any Coxeter diagram with orders
    up to max_order.
    """
    g = QNum(g)
    s = g.sign()
    if s == 0:
        return Orthogonal()
    a = abs(g)
    if a == 1:
        return Tangent(sign=s)
    if a > 1:
        return Disjoint(separation=g)
    for n, cos in _EXACT_COS.items():
        if n <= max_order and a == cos:
            return Angle(order=n, sign=s)
    raise ValueError(
        f"unclassifiable Gram entry {g}: 0 < |g| < 1 but no cos(pi/n) "
        f"matches for n <= {max_order}"
    )


@dataclass(frozen=True)
class CoxeterDiagram:
    nodes: int
    edges: dict  # (i, j) with i < j -> kind, every off-diagonal pair

    def kind(self, i: int, j: int):
        if i == j:
            raise ValueError("diagonal has no edge")
        return self.edges[(i, j) if i < j else (j, i)]


def diagram(gram, max_order: int = 12) -> CoxeterDiagram:
    """Classify every off-diagonal pair of a Gram matrix.

    ValueError from an unclassifiable entry is re-raised with the
    offending cell attached.
    """
    m = len(gram)
    edges = {}
    for i in range(m):
        for j in range(i + 1, m):
            try:
                edges[(i, j)] = classify_entry(gram[i][j], max_order)
            except ValueError as e:
                raise ValueError(f"at cell ({i}, {j}): {e}") from None
    return CoxeterDiagram(nodes=m, edges=edges)


def _is_thick(g: QNum) -> bool:
    return (abs(g) - 1).sign() >= 0


def enumerate_clusters(gram, max_size: int | None = None):
    """All vertex subsets satisfying the separation criterion.

    Returned as sorted tuples of 0-based indices, in lexicographic
    order.  Internal orthogonal pairs are excluded by the pairwise
    |g| >= 1 rule.
    """
    m = len(gram)
    if max_size is None:
        max_size = m
    # a cluster member cannot have any angle entry: the partner would
    # have to sit inside the cluster, where angles are not allowed
    candidates = [
        i
        for i in range(m)
        if all(
            not gram[i][j] or _is_thick(gram[i][j])
            for j in range(m)
            if j != i
        )
    ]

    def compatible(i: int, j: int) -> bool:
        g = gram[i][j]
        return bool(g) and _is_thick(g)

    out = []

    def grow(prefix, start):
        for pos in range(start, len(candidates)):
            v = candidates[pos]
            if all(compatible(u, v) for u in prefix):
                subset = prefix + [v]
                out.append(tuple(subset))
                if len(subset) < max_size:
                    grow(subset, pos + 1)

    if max_size >= 1:
        grow([], 0)
    out.sort()
    return out


@dataclass(frozen=True)
class ClusterReport:
    cluster: tuple
    cocluster: tuple
    checks: tuple  # (rule, i, j, entry, ok) records
    verdict: bool


def validate_cluster(gram, subset) -> ClusterReport:
    """Itemized check of the separation criterion for one subset.

    Checks the literal conditions pair by pair (not the clique
    shortcut), so this doubles as the oracle for enumerate_clusters.
    """
    m = len(gram)
    s = sorted(set(subset))
    if not s or s[0] < 0 or s[-1] >= m:
        raise ValueError(f"subset {subset!r} out of range for {m} vertices")
    inside = set(s)
    checks = []
    for i in s:
        for j in range(m):
            if j == i:
                continue
            g = gram[i][j]
            if j in inside:
                if j < i:
                    continue
                ok = _is_thick(g) if g else False
                checks.append(("pairwise-thick", i, j, g, ok))
            else:
                ok = (not g) or _is_thick(g)
                checks.append(("separated-or-orthogonal", i, j, g, ok))
    verdict = all(c[4] for c in checks)
    return ClusterReport(
        cluster=tuple(s),
        cocluster=tuple(i for i in range(m) if i not in inside),
        checks=tuple(checks),
        verdict=verdict,
    )


def export_dot(diag: CoxeterDiagram, labels=None) -> str:
    """Deterministic DOT text; orthogonal pairs draw no edge."""
    if labels is not None and len(labels) != diag.nodes:
        raise ValueError("labels length mismatch")
    lines = ["graph coxeter {"]
    for i in range(diag.nodes):
        name = labels[i] if labels is not None else str(i)
        lines.append(f'  n{i} [label="{name}"];')
    for (i, j) in sorted(diag.edges):
        kind = diag.edges[(i, j)]
        if isinstance(kind, Orthogonal):
            continue
        if isinstance(kind, Tangent):
            attr = "style=bold"
        elif isinstance(kind, Disjoint):
            attr = "style=dashed"
        else:
            attr = f'label="{kind.order}"'
        lines.append(f"  n{i} -- n{j} [{attr}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
