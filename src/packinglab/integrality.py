"""Integrality and nonintegrality certificates for packings.

Three certificate families, all exact:

* integral-proven: every bend matrix of the mirror walls is integral
  and the cluster bends over their common factor f are integers, so
  every orbit bend is an integer combination of integers.  The basis is
  not rescaled by f: that conformal rescaling is an isometry, and an
  isometry leaves every bend matrix as it is, B' = B (geometry).
* nonintegral-proven: the left nullspace of an overdetermined
  coordinate matrix, in canonical reduced echelon form, contains an
  irrational entry; the nullspace is then not defined over the
  rationals and no rescaling can clear the bends to integers.
* growth-evidence: denominators of powers of a word in the bend
  matrices grow monotonically over the tail of a finite probe.  This
  is labeled evidence, never proof: unboundedness cannot be decided by
  a finite computation.

Certificates serialize to deterministic JSON with coordinates in the
canonical exact text grammar, so a verdict can be archived and replayed.
"""

from __future__ import annotations

import functools
import json
import math

from ._matrix import as_matrix, mat_inverse, mat_mul, rref, transpose
from ._record import Record
from .exactnum import QNum, sqrt
from .geometry import bend_matrices, reflection_matrix
from .orbit import _check_seed, _checked_rows, _word

VERDICTS = ("integral-proven", "nonintegral-proven", "growth-evidence", "inconclusive")


class IntegralityCertificate(Record):
    verdict: str
    rescale_factor: QNum | None
    witnesses: tuple
    detail: str


def find_integral_rescaling(bend_list):
    """Factor f with bend/f an integer for every bend, or None.

    Handles the documented case: every nonzero bend is q*sqrt(m) for one
    common squarefree m and rational q.  Mixed radical parts (say sqrt(34)
    against sqrt(17)) admit no such factor and return None.
    """
    bend_list = [QNum(b) for b in bend_list]
    if not bend_list:
        raise ValueError("need at least one bend")
    terms = [b.terms for b in bend_list if b]
    if not terms:
        return QNum(1)  # all bends zero
    radicand = terms[0][0][0]
    if any(len(t) != 1 or t[0][0] != radicand for t in terms):
        return None
    return sqrt(radicand) / math.lcm(*(t[0][1].denominator for t in terms))


def _integral_matrix(m):
    return all(e.is_integer() for row in m for e in row)


def _square_rows(basis):
    rows = _checked_rows(basis, "basis")
    if len(rows) != len(rows[0]):
        raise ValueError("basis must be square")
    return rows


def prove_integral(basis, cluster_rows, mirror_rows):
    """Certificate that the packing of the cluster is integral.

    basis: square wall matrix, a Configuration or rows; cluster_rows and
    mirror_rows: 1-based row indices.  Divides the cluster bends by their
    common factor, then demands every one be an integer and every mirror
    bend matrix (which that rescaling leaves as it is) be integral; the
    bend matrices are the replayable witnesses.
    """
    rows = _square_rows(basis)
    for idx in list(cluster_rows) + list(mirror_rows):
        if not 1 <= idx <= len(rows):
            raise ValueError("row index %d out of range" % idx)

    cluster_bends = [rows[i - 1][1] for i in cluster_rows]
    factor = find_integral_rescaling(cluster_bends)
    if factor is None:
        return IntegralityCertificate(
            "inconclusive", None, (),
            "cluster bends mix radical parts; no integral rescaling exists",
        )
    # every bend over the factor is an integer (find_integral_rescaling)
    inv = factor.inverse()
    scaled_bends = [b * inv for b in cluster_bends]
    matrices = bend_matrices(rows, [rows[i - 1] for i in mirror_rows])
    for i, b in zip(mirror_rows, matrices):
        if not _integral_matrix(b):
            return IntegralityCertificate(
                "inconclusive", factor, (),
                "bend matrix of mirror row %d has a non-integral entry" % i,
            )
    return IntegralityCertificate(
        "integral-proven", factor, matrices,
        "mirror rows %s give integral bend matrices; cluster bends %s"
        % (list(mirror_rows), [str(b) for b in scaled_bends]),
    )


def _kernel_basis(reduced, pivots):
    # canonical basis of {x : matrix . x = 0} from the matrix's rref
    cols = len(reduced[0])
    free = [j for j in range(cols) if j not in pivots]
    basis = []
    for f in free:
        vec = [QNum(0)] * cols
        vec[f] = QNum(1)
        for r, p in enumerate(pivots):
            vec[p] = -reduced[r][f]
        basis.append(tuple(vec))
    return tuple(basis)


def prove_nonintegral(rows):
    """Certificate from an m x (n+2) wall matrix, m > n+2: Configuration or rows.

    The left nullspace {g : g.rows = 0} is computed exactly in canonical
    reduced form; an irrational entry there proves the packing admits no
    integral rescaling.  An all-rational canonical basis is inconclusive.
    """
    rows = _checked_rows(rows, "matrix")
    m = len(rows)
    width = len(rows[0])
    if m <= width:
        raise ValueError(
            "need more rows than columns (%d x %d); supplement from the orbit"
            % (m, width)
        )
    columns = transpose(rows)
    reduced, pivots = rref(columns)
    if len(pivots) < width:
        raise ValueError(
            "matrix rank %d < %d; supplement independent orbit rows"
            % (len(pivots), width)
        )
    basis = _kernel_basis(reduced, pivots)
    irrational = [
        (i, j)
        for i, vec in enumerate(basis)
        for j, e in enumerate(vec)
        if not e.is_rational()
    ]
    if irrational:
        i, j = irrational[0]
        return IntegralityCertificate(
            "nonintegral-proven", None, basis,
            "left-nullspace basis vector %d has irrational entry %s at row %d"
            % (i + 1, basis[i][j], j + 1),
        )
    return IntegralityCertificate(
        "inconclusive", None, basis, "left nullspace is defined over the rationals"
    )


def denominator_growth_probe(bend_matrices, word, iterations=12):
    """Track entry denominators of P, P^2, ..., P^K for the word's product.

    Verdict growth-evidence when the maximum denominator strictly
    increases over the last K/2 powers; the trace is the witness.
    """
    if iterations < 2:
        raise ValueError("need at least 2 iterations")
    mats = [as_matrix(m) for m in bend_matrices]
    for k, m in enumerate(mats):
        if not all(e.is_rational() for row in m for e in row):
            raise ValueError("bend matrix %d entries must be rational" % (k + 1))
    for m in mats:
        if len(m) != len(m[0]) or len(m) != len(mats[0]):
            raise ValueError("dimension mismatch among bend matrices")
    word = list(word)
    if not word:
        raise ValueError("empty word")
    for idx in word:
        if not 1 <= idx <= len(mats):
            raise ValueError("word index %d out of range" % idx)
    product = mats[word[0] - 1]
    for idx in word[1:]:
        product = mat_mul(product, mats[idx - 1])

    trace = []
    power = product
    for _ in range(iterations):
        trace.append(max(e.denominator for row in power for e in row))
        power = mat_mul(power, product)
    tail = iterations // 2
    growing = all(trace[k - 1] < trace[k] for k in range(iterations - tail, iterations))
    return IntegralityCertificate(
        "growth-evidence" if growing else "inconclusive",
        None,
        tuple(trace),
        "max denominator per power of word %s" % ".".join(str(i) for i in word),
    )


class BoundedRationalReport(Record):
    derived_bound: int
    observed_max_denominator: int
    word_count: int
    word_length: int
    seed: int

    @property
    def ok(self):
        return self.observed_max_denominator <= self.derived_bound


def check_bounded_rational(basis, mirrors, word_count=20, word_length=5, seed=0):
    """Spot-check that the bend matrices of mirror words stay bounded rational.

    Every bend matrix of a mirror word is V . R_word . V^-1, V the basis
    (a Configuration or rows) and R_word integral.  With L1 = lcm-den(V)
    and L2 = lcm-den(V^-1), L1 V and L2 V^-1 are integral, so L1 L2 times
    the bend matrix is integral and every entry denominator divides
    ``derived_bound`` = L1 * L2 (which can exceed lcm(L1, L2)).  Random seeded
    words (letter j of word t is element t * word_length + j of the
    seed's splitmix64 stream) verify the bound empirically; a word's
    matrix is the product of its letters' bend matrices, B_w =
    B_{i1} ... B_{ik} = V R_w V^-1.  The products run through
    ``_matrix.mat_mul``, on integers over the field of the entries
    (rational for an integral basis, so plain integer arithmetic).  The
    row gate proves basis and mirrors; V^-1 here serves L2 only, R_m
    (``reflection_matrix``) only the integral-R check, and the letters are
    ``bend_matrices``' (its own V^-1 and Gram).  ValueError before any
    draw: a negative word_count or word_length (0 draws nothing), a seed
    outside 0 <= seed < 2**64; then the row gate's refusals of the basis
    (no row, rows of different widths, a row of norm other than -1), a
    non-square or singular basis; the row gate's refusals of the mirrors
    (no mirror, so no letter to draw); a non-integral R_m; in that
    order."""
    for name, value in (("word_count", word_count), ("word_length", word_length)):
        if value < 0:
            raise ValueError("%s must be nonnegative, got %d" % (name, value))
    _check_seed(seed)
    rows = _square_rows(basis)
    v_inv = mat_inverse(rows)
    mirrors = _checked_rows(mirrors, "mirror")
    for k, m in enumerate(mirrors):
        if not _integral_matrix(reflection_matrix(m)):
            raise ValueError("mirror %d has a non-integral reflection matrix" % (k + 1))
    matrices = bend_matrices(rows, mirrors)

    bound = math.lcm(*(e.denominator for row in rows for e in row)) * math.lcm(
        *(e.denominator for row in v_inv for e in row)
    )
    observed = 1
    for t in range(word_count):
        letters = [
            matrices[_word(seed, t * word_length + j) % len(matrices)]
            for j in range(word_length)
        ]
        if letters:
            b = functools.reduce(mat_mul, letters)
            observed = max(observed, *(e.denominator for row in b for e in row))
    return BoundedRationalReport(bound, observed, word_count, word_length, seed)


def _encode(value):
    if isinstance(value, tuple):
        return [_encode(x) for x in value]
    if isinstance(value, QNum):
        return str(value)
    if isinstance(value, int):
        return value
    raise TypeError("cannot serialize %r" % (value,))


def _decode(value):
    if isinstance(value, list):
        return tuple(_decode(x) for x in value)
    if isinstance(value, str):
        return QNum(value)
    if isinstance(value, int):
        return value
    raise TypeError("cannot deserialize %r" % (value,))


def certificate_to_json(cert):
    doc = {
        "verdict": cert.verdict,
        "rescale_factor": None if cert.rescale_factor is None else str(cert.rescale_factor),
        "witnesses": _encode(cert.witnesses),
        "detail": cert.detail,
    }
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def certificate_from_json(text):
    doc = json.loads(text)
    if doc["verdict"] not in VERDICTS:
        raise ValueError("unknown verdict %r" % doc["verdict"])
    factor = doc["rescale_factor"]
    return IntegralityCertificate(
        doc["verdict"],
        None if factor is None else QNum(factor),
        _decode(doc["witnesses"]),
        doc["detail"],
    )
