"""Small dense exact-matrix helpers over QNum, computed on integers.

Matrices are tuples of row tuples of QNum.  Nothing here is meant to
scale: every matrix in the workflow is at most (n+2) x (n+2) with
n <= 12, or a configuration with a couple dozen rows.

QNums go in and canonical QNums come out, but the arithmetic runs on
the integer encoding that ``geometry.gram`` and the orbit use
(``exactnum._Field``): each call fixes one multiquadratic basis, the
closure under products of its entries' radicands, and writes each row
(or column) as integer basis coefficients over one denominator.  A
product accumulates basis coefficients through the field's product
table, skipping zero coefficients, and each output cell is decoded
once.  With r independent radicands among the entries the basis has
d = 2**r elements, so a cell holds d integers and one product of two
cells costs up to d*d integer products: the cost grows with d, and on
rational matrices (d = 1) the kernels are plain integer arithmetic.

There is one multiply, ``mat_mul``, and one elimination, ``rref``:
Gauss-Jordan with pivoting by first nonzero entry (exact, so there is
no stability concern), kept fraction-free.  Each pivot is made rational
by ``_Field.reciprocal``'s conjugate product, each row is reduced by the
gcd of its integers, and only the final rows are divided by their
pivots.  Inversion is `rref` of [A | I].
"""

from __future__ import annotations

from math import gcd, lcm

from .exactnum import ONE, QNum, ZERO, _Field

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


def _cells(position, row):
    """(cells, den): the row's entries over one denominator den, each
    cell the ((basis position, integer coefficient), ...) of its nonzero
    coefficients, () for a zero entry."""
    den = lcm(*[q.den for q in row])
    place = position.__getitem__
    cells = []
    for q in row:
        coeffs = q.coeffs if q.den == den else [c * (den // q.den) for c in q.coeffs]
        cells.append(tuple(zip(map(place, q.radicands), coeffs)))
    return cells, den


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError(f"dimension mismatch: {len(a[0])} vs {len(b)}")
    field = _Field((*a, *b))
    d, product, number, position = field.d, field.product, field.number, field.position
    columns = [_cells(position, col) for col in zip(*b)]
    out = []
    for row in a:
        cells, den = _cells(position, row)
        cells = [(k, xs) for k, xs in enumerate(cells) if xs]
        out_row = []
        for column, col_den in columns:
            acc = [0] * d
            for k, xs in cells:
                ys = column[k]
                if ys:
                    for p, x in xs:
                        table = product[p]
                        for q, y in ys:
                            c, g = table[q]
                            acc[c] += g * x * y
            out_row.append(number(tuple(acc), den * col_den))
        out.append(tuple(out_row))
    return tuple(out)


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


def _reduced(row):
    g = gcd(*row)
    return row if g <= 1 else [x // g for x in row]


def rref(a: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form; returns (matrix, pivot column indices).

    Fully reduced (leading ones, zeros above and below), canonical for
    a given row space, which is what the nullspace-rationality argument
    needs: the canonical basis is rational iff the space is defined
    over Q.

    Rows are kept as integer basis coefficients, any nonzero multiple
    of the true row: a new pivot row is multiplied by the conjugate
    product w of its pivot u (u w = n, a rational) and made positive,
    every other row is replaced by n times itself minus its pivot-column
    entry times the pivot row, and each row is divided by its gcd.  A
    pivot row's pivot entry stays rational and positive to the end,
    which divides the row once.
    """
    if not a:
        return a, ()
    field = _Field(a)
    d, product, multiply = field.d, field.product, field.multiply
    rows = [list(field.encode(row)[:-1]) for row in a]
    ncols = len(a[0])
    pivots = []
    r = 0
    for col in range(ncols):
        if r == len(rows):
            break
        at = col * d
        piv = next((i for i in range(r, len(rows)) if any(rows[i][at:at + d])), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pivot_row = rows[r]
        w, n = field.reciprocal(pivot_row[at:at + d])
        if w != field.one:
            # the cells before col are zero in every row from r on
            pivot_row = pivot_row[:at]
            for j in range(at, ncols * d, d):
                pivot_row += multiply(w, rows[r][j:j + d])
        if n < 0:
            pivot_row = [-x for x in pivot_row]
        pivot_row = rows[r] = _reduced(pivot_row)
        n = pivot_row[at]
        cells = []
        for base in range(at, ncols * d, d):
            ys = [(q, y) for q, y in enumerate(pivot_row[base:base + d]) if y]
            if ys:
                cells.append((base, ys))
        for i, row in enumerate(rows):
            if i == r or not any(row[at:at + d]):
                continue
            f = [(p, x) for p, x in enumerate(row[at:at + d]) if x]
            row = [n * x for x in row]
            for base, ys in cells:
                for p, x in f:
                    table = product[p]
                    for q, y in ys:
                        c, g = table[q]
                        row[base + c] -= g * x * y
            rows[i] = _reduced(row)
        pivots.append(col)
        r += 1
    number = field.number
    out = []
    for i, row in enumerate(rows):
        den = row[pivots[i] * d] if i < len(pivots) else 1
        out.append(tuple(number(tuple(row[j:j + d]), den) for j in range(0, ncols * d, d)))
    return tuple(out), tuple(pivots)
