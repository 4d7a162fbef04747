"""Small dense exact-matrix helpers over QNum.

Matrices are tuples of row tuples of QNum.  Nothing here is meant to
scale: every matrix in the workflow is at most (n+2) x (n+2) with
n <= 12, or a configuration with a couple dozen rows, so plain
Gauss-Jordan with exact arithmetic is the right tool and pivoting is
by first nonzero entry (exact, so there is no stability concern).
`rref` is the one elimination: inversion is `rref` of [A | I].
"""

from __future__ import annotations

from .exactnum import ONE, QNum, ZERO

Matrix = tuple  # of row tuples of QNum


def as_matrix(rows) -> Matrix:
    """Coerce a nested sequence (ints, Fractions, strings, QNums) to a
    rectangular QNum matrix."""
    out = tuple(tuple(QNum(x) for x in row) for row in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("ragged rows")
    return out


def identity(n: int) -> Matrix:
    return tuple(
        tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)
    )


def transpose(a: Matrix) -> Matrix:
    return tuple(tuple(col) for col in zip(*a))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError(f"dimension mismatch: {len(a[0])} vs {len(b)}")
    bt = tuple(zip(*b))
    return tuple(
        tuple(_dot(row, col) for col in bt) for row in a
    )


def _dot(u, v) -> QNum:
    total = ZERO
    for x, y in zip(u, v):
        total = total + x * y
    return total


def row_mat(v, a: Matrix):
    """Row vector times matrix (the right-action convention)."""
    if len(v) != len(a):
        raise ValueError(f"dimension mismatch: {len(v)} vs {len(a)}")
    cols = tuple(zip(*a))
    return tuple(_dot(v, col) for col in cols)


def mat_inverse(a: Matrix) -> Matrix:
    """Exact inverse as the right half of rref([A | I]); ValueError on a
    singular input."""
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("inverse needs a square matrix")
    reduced, pivots = rref(tuple(tuple(row) + e for row, e in zip(a, identity(n))))
    if pivots[:n] != tuple(range(n)):
        raise ValueError("singular matrix")
    return tuple(row[n:] for row in reduced)


def rref(a: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form; returns (matrix, pivot column indices).

    Fully reduced (leading ones, zeros above and below), canonical for
    a given row space, which is what the nullspace-rationality argument
    needs: the canonical basis is rational iff the space is defined
    over Q.
    """
    if not a:
        return a, ()
    rows = [list(r) for r in a]
    ncols = len(rows[0])
    pivots = []
    r = 0
    for col in range(ncols):
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][col].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    return tuple(tuple(row) for row in rows), tuple(pivots)


def mat_rank(a: Matrix) -> int:
    return len(rref(a)[1])
