"""Exact arithmetic over the rationals extended by square roots.

A value is a finite sum ``sum_k c_k * sqrt(k)`` with rational
coefficients ``c_k`` and pairwise distinct squarefree radicands
``k >= 1`` (``k = 1`` is the rational part).  Everything the coordinate
tables need lives in such a ring: entries like ``(sqrt(2)+sqrt(6))/2``
sit in Q(sqrt(2), sqrt(3)) but we never fix a field up front, the
terms just grow the radicands they meet.  A ``QNum`` stores the value
as integers: ascending radicands, nonzero integer coefficients and one
positive denominator, in lowest terms.

Square roots of distinct squarefree integers are linearly independent
over Q, so that form is canonical: two values are equal iff their forms
coincide, and a value is zero iff it has no coefficient.  The exact
(and free) zero test is what sign determination, interior tests, and
orbit dedup all lean on.

Serialization grammar (used by catalog files, CLI output and tests)::

    expr     := term (('+'|'-') term)*
    term     := rational ('*' 'sqrt(' uint ')')? | ['-'] 'sqrt(' uint ')'
    rational := ['-'] uint ('/' uint)?

Printing emits terms by ascending radicand, rational part first, no
whitespace; parsing additionally accepts whitespace between tokens and
non-squarefree radicands (``sqrt(12)`` reduces to ``2*sqrt(3)``).  Both
work on integers: one printer, ``_format``, prints integer coefficients
over a denominator (``str(QNum)``, the orbit TSV and the render's order
all use it), and one scanner, ``_scan``, matches one compiled regular
expression per term and returns the canonical integer form, which a
QNum keeps and the TSV reader encodes directly.  A literal outside the
grammar raises ValueError naming the position where it breaks.

Where a value lies is answered in one way, ``_enclose``: over integer
coefficients it gives integers lo <= hi with the value in
[lo, hi] / 2**p, exact on the rational part and off by less than one
unit per irrational term.  The one exact sign, ``_sign``, doubles p
until the enclosure excludes zero (``QNum.sign`` calls it on the stored
coefficients), ``to_float`` doubles p until the enclosure is narrow
relative to its midpoint and rounds that midpoint once, ``_bounds``
returns the enclosure as Fractions, and orbit generation's bend bound
and the render compare enclosures.

For bulk work on many rows over one field, ``_Field`` fixes a
multiquadratic basis and writes each row as integers over that basis
with one common denominator; orbit generation, the Gram matrix, the
render, the sampler's box and the matrix kernels (``_matrix.mat_mul``
and ``rref``) run on that encoding (the render, the box and the
kernels also multiply and take reciprocals in it).  ``_Field.reciprocal`` is the one inverse:
``QNum.inverse`` runs it over the field of the value's own radicands.
Orbit rows stay encoded through the TSV and the render, and are decoded
to QNums only where a caller asks for them; the Gram decodes each entry
once.  The basis is ``_radical_span`` of the rows' radicands, whose
generator bits say which conjugation flips each basis element.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm

__all__ = ["QNum", "sqrt", "ZERO", "ONE"]


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write n = s*s*f with f squarefree; return (s, f).

    Trial division is plenty: radicands in the bundled data never
    exceed 34, and arithmetic keeps radicands squarefree on its own
    (see __mul__), so this only runs at parse time.
    """
    if n <= 0:
        raise ValueError(f"radicand must be a positive integer, got {n!r}")
    s, f, d = 1, 1, 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            s *= d ** (e // 2)
            if e % 2:
                f *= d
        d += 1
    return s, f * n


@lru_cache(maxsize=1024)
def _isqrt_scaled(k: int, p: int) -> int:
    """floor(sqrt(k) * 2**p)."""
    return isqrt(k << (2 * p))


def _enclose(radicands, coeffs, p: int) -> tuple[int, int]:
    """Integers lo <= hi with sum_a coeffs[a] * sqrt(radicands[a]) in
    [lo, hi] / 2**p, for integer coefficients and squarefree radicands.

    The rational part (radicand 1) is exact; each irrational sqrt(k) lies
    strictly between floor(sqrt(k) * 2**p) and that plus one, so
    hi - lo = sum of |coeffs| over the radicands k > 1.  This is the one
    enclosure behind ``_sign``, ``QNum.to_float``, ``QNum._bounds``, the
    orbit's bend bound and the render's circles.  It is linear under
    positive integer scaling of the coefficients, and negating them
    negates and swaps its ends.
    """
    lo = hi = 0
    for k, c in zip(radicands, coeffs):
        if k == 1:
            lo += c << p
            hi += c << p
        elif c:
            t = c * _isqrt_scaled(k, p)
            if c > 0:
                lo += t
                hi += t + c
            else:
                lo += t + c
                hi += t
    return lo, hi


def _sign(radicands, coeffs) -> int:
    """-1, 0 or +1, the exact sign of sum_a coeffs[a] * sqrt(radicands[a])
    for integer coefficients and distinct squarefree radicands.

    Zero is structural (every coefficient 0).  Otherwise the value is
    enclosed at p = 16, 32, 64, ... until the enclosure excludes zero;
    this terminates because the square roots are linearly independent
    over Q, so a nonzero vector has a nonzero value.
    """
    if not any(coeffs):
        return 0
    p = 16
    while True:
        lo, hi = _enclose(radicands, coeffs, p)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        p *= 2


def _float(radicands, coeffs, den, precision=53) -> float:
    """sum_a coeffs[a] * sqrt(radicands[a]) / den, den > 0, as a float:
    the midpoint of the enclosure at the first of p = precision + 2, 2p,
    4p, ... whose width, times 2**precision, is at most the magnitude of
    lo + hi.

    The midpoint (lo + hi) / (den * 2**(p+1)) is then within a relative
    2**-precision of the exact value.  It is one integer ratio, and int
    true division rounds correctly, as ``float(Fraction)`` does, so the
    result is ``float(sum(QNum._bounds(p)) / 2)``, OverflowError included.
    For a nonzero value the width stays sum_{k>1} |c_k| while lo + hi
    grows with 2**p, so the doubling ends; a rational value is exact at
    once.
    """
    if radicands == (1,):
        return coeffs[0] / den
    p = precision + 2
    while True:
        lo, hi = _enclose(radicands, coeffs, p)
        if (hi - lo) << precision <= abs(lo + hi):
            return (lo + hi) / (den << (p + 1))
        p *= 2


class QNum:
    """Element of Q[sqrt(k) : k squarefree], immutable and hashable.

    The value is ``sum_a coeffs[a] * sqrt(radicands[a]) / den``, stored in
    its canonical integer form: ascending squarefree ``radicands``,
    nonzero integer ``coeffs`` and one denominator ``den > 0``, with
    gcd(den, *coeffs) == 1 (zero is ``(), (), 1``).  Construct from an
    int, a Fraction, a literal string (same grammar as ``parse``), or a
    dict {radicand: coefficient}.
    """

    __slots__ = ("radicands", "coeffs", "den", "_hash")

    def __init__(self, value=None):
        if value is None:
            number = (), (), 1
        elif isinstance(value, QNum):
            number = value.radicands, value.coeffs, value.den
        elif isinstance(value, (int, Fraction)):
            number = ((1,), (value.numerator,), value.denominator) if value else ((), (), 1)
        elif isinstance(value, str):
            number = _scan(value)
        elif isinstance(value, dict):
            acc: dict[int, Fraction] = {}
            for k, c in value.items():
                if not isinstance(k, int):
                    raise TypeError(f"radicand must be int, got {k!r}")
                s, f = squarefree_decompose(k)
                acc[f] = acc.get(f, 0) + Fraction(c) * s
            den = lcm(*[c.denominator for c in acc.values()])
            number = _collected(
                {k: c.numerator * (den // c.denominator) for k, c in acc.items()}, den
            )
        else:
            raise TypeError(f"cannot build QNum from {type(value).__name__}")
        self.radicands, self.coeffs, self.den = number
        self._hash = None

    @classmethod
    def _make(cls, radicands, coeffs, den) -> "QNum":
        # internal fast path: the arguments are already the canonical form
        self = object.__new__(cls)
        self.radicands, self.coeffs, self.den = radicands, coeffs, den
        self._hash = None
        return self

    @classmethod
    def parse(cls, text: str) -> "QNum":
        """Parse the literal grammar; raises ValueError with position."""
        return cls._make(*_scan(text))

    @property
    def terms(self) -> tuple:
        """Canonical term tuple ((radicand, Fraction), ...), ascending."""
        return tuple((k, Fraction(c, self.den)) for k, c in zip(self.radicands, self.coeffs))

    # -- predicates ---------------------------------------------------

    def is_rational(self) -> bool:
        return self.radicands in ((), (1,))

    def is_integer(self) -> bool:
        return self.den == 1 and self.is_rational()

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"not a rational value: {self}")
        return Fraction(self.coeffs[0], self.den) if self.coeffs else Fraction(0)

    @property
    def denominator(self) -> int:
        """lcm of the coefficient denominators (1 for zero)."""
        return self.den

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- ring arithmetic ----------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        # over the lcm of the denominators: self's coefficients times x,
        # other's times y
        den = self.den
        x = y = 1
        if den != other.den:
            g = gcd(den, other.den)
            x, y = other.den // g, den // g
            den *= x
        if self.radicands == other.radicands:
            coeffs = [c * x + e * y for c, e in zip(self.coeffs, other.coeffs)]
            return QNum._make(*_lowest(self.radicands, coeffs, den))
        acc = {k: c * x for k, c in zip(self.radicands, self.coeffs)}
        for k, c in zip(other.radicands, other.coeffs):
            acc[k] = acc.get(k, 0) + c * y
        return QNum._make(*_collected(acc, den))

    __radd__ = __add__

    def __neg__(self):
        return QNum._make(self.radicands, tuple(-c for c in self.coeffs), self.den)

    def __pos__(self):
        return self

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        acc: dict[int, int] = {}
        for k1, c1 in zip(self.radicands, self.coeffs):
            for k2, c2 in zip(other.radicands, other.coeffs):
                # sqrt(k1)*sqrt(k2) = g*sqrt(a*b) with g = gcd, and a, b
                # coprime squarefree, so a*b is squarefree: no refactoring
                g = gcd(k1, k2)
                k = (k1 // g) * (k2 // g)
                acc[k] = acc.get(k, 0) + c1 * c2 * g
        return QNum._make(*_collected(acc, self.den * other.den))

    __rmul__ = __mul__

    def inverse(self) -> "QNum":
        """Exact multiplicative inverse: ``_Field.reciprocal`` over the
        field of this value's radicands."""
        if not self.coeffs:
            raise ZeroDivisionError("QNum division by zero")
        field = _Field.over(self.radicands)
        w, n = field.reciprocal(field.place(self.radicands, self.coeffs, self.den)[0])
        # 1 / (u / den) = den * w / n
        den = self.den if n > 0 else -self.den
        return field.number(tuple([den * x for x in w]), abs(n))

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- order and sign -----------------------------------------------

    def sign(self) -> int:
        """-1, 0 or +1, exact: ``_sign`` on the coefficients."""
        if len(self.coeffs) == 1:
            return 1 if self.coeffs[0] > 0 else -1
        return _sign(self.radicands, self.coeffs)

    def _bounds(self, prec: int) -> tuple[Fraction, Fraction]:
        """The enclosure at ``prec`` as two Fractions: exact on a rational
        value, else of width sum_{k>1} |c_k| * 2**-prec."""
        lo, hi = _enclose(self.radicands, self.coeffs, prec)
        scale = self.den << prec
        return Fraction(lo, scale), Fraction(hi, scale)

    def to_float(self, precision: int = 53) -> float:
        """The value within a relative 2**-precision, rounded once
        (``_float``)."""
        return _float(self.radicands, self.coeffs, self.den, precision)

    def __float__(self) -> float:
        return self.to_float()

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def _cmp(self, other) -> int:
        q = _coerce(other)
        if q is None:
            raise TypeError(f"cannot compare QNum with {type(other).__name__}")
        return (self - q).sign()

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    # -- identity -----------------------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return (
            self.coeffs == other.coeffs
            and self.radicands == other.radicands
            and self.den == other.den
        )

    def __hash__(self):
        if self._hash is None:
            if self.is_rational():
                # agree with hash(int)/hash(Fraction) so x == n implies
                # hash(x) == hash(n)
                self._hash = hash(self.as_fraction())
            else:
                self._hash = hash((self.radicands, self.coeffs, self.den))
        return self._hash

    # -- text ---------------------------------------------------------

    def __str__(self) -> str:
        return _format(self.radicands, self.coeffs, self.den)

    def __repr__(self) -> str:
        return f"QNum({str(self)!r})"

ZERO = QNum()
ONE = QNum(1)


def sqrt(n: int) -> QNum:
    """sqrt of a positive integer as a QNum (radicand reduced)."""
    return QNum({n: 1})


def _format(radicands, coeffs, den) -> str:
    """The literal of sum_a coeffs[a] * sqrt(radicands[a]) / den, for
    integer coefficients, den > 0 and ascending squarefree radicands: the
    one printer (``str(QNum)``, the orbit TSV, the render's order).  Each
    term is reduced on its own, so they need not be in lowest terms."""
    out = ""
    for k, x in zip(radicands, coeffs):
        if not x:
            continue
        n, d = x, den
        if den != 1:
            g = gcd(x, den)
            n, d = x // g, den // g
        if k == 1:
            term = "%d" % n if d == 1 else "%d/%d" % (n, d)
        elif d != 1:
            term = "%d/%d*sqrt(%d)" % (n, d, k)
        elif n == 1:
            term = "sqrt(%d)" % k
        elif n == -1:
            term = "-sqrt(%d)" % k
        else:
            term = "%d*sqrt(%d)" % (n, k)
        out += "+" + term if out and x > 0 else term
    return out or "0"


def _coerce(x):
    if isinstance(x, QNum):
        return x
    if isinstance(x, (int, Fraction)):
        return QNum(x)
    return None


def _squarefree_product(a, b):
    """sqrt(a) * sqrt(b) = g * sqrt(c) for squarefree a, b: return (c, g)."""
    g = gcd(a, b)
    return (a // g) * (b // g), g


def _radical_span(radicands) -> dict:
    """The group that squarefree radicands generate under
    k * j / gcd(k, j)**2 (the radicands of the ring they span), each
    element mapped to the bits of the independent radicands, in order of
    appearance, whose product it is."""
    bits = {1: 0}
    for k in radicands:
        if k not in bits:
            new = len(bits)  # 2**r for r independent radicands so far
            for j, mask in list(bits.items()):
                bits[_squarefree_product(j, k)[0]] = mask | new
    return bits


class _Field:
    """A multiquadratic basis fixed by some rows, and rows encoded over it.

    The radicands of the rows, closed under products, span a ring that
    holds every product of two coordinates, so every inner product of
    two rows and every reflection of one row in another.  A row is encoded
    as its (n+2)*d basis coefficients, coordinate by coordinate, over one
    positive common denominator appended at the end, the whole tuple
    reduced by its gcd; that tuple is canonical, so it is the exact dedup
    key.
    """

    def __init__(self, rows):
        """The field of these rows of QNums."""
        self._span(_radical_span(k for row in rows for q in row for k in q.radicands))

    @classmethod
    def over(cls, radicands):
        """The field of numbers with these squarefree radicands."""
        self = object.__new__(cls)
        self._span(_radical_span(radicands))
        return self

    def _span(self, basis):
        self.radicands = tuple(sorted(basis))
        # the generator bits of each basis element (see _radical_span)
        self.bits = tuple(basis[k] for k in self.radicands)
        self.d = len(self.radicands)
        self.one = (1,) + (0,) * (self.d - 1)
        self.position = {k: a for a, k in enumerate(self.radicands)}
        # product[a][b] = (position of c, g) for sqrt(r_a)*sqrt(r_b) = g*sqrt(c)
        self.product = tuple(
            tuple(
                (self.position[c], g)
                for c, g in (_squarefree_product(ra, rb) for rb in self.radicands)
            )
            for ra in self.radicands
        )
        # caches of the values and the literals of numbers read so far
        self._numbers = {}
        self._literals = {}

    def encode(self, row):
        """The key of a row of QNums."""
        return self.join([self.place(q.radicands, q.coeffs, q.den) for q in row])

    def place(self, radicands, coeffs, den):
        """(coefficients over the basis, den) of the number with these
        integer terms (the form a ``QNum`` stores and ``_scan`` gives)."""
        out = [0] * self.d
        for k, c in zip(radicands, coeffs):
            out[self.position[k]] = c
        return tuple(out), den

    def join(self, numbers):
        """The key of a row given as (coefficients over the basis, den)
        per coordinate, each in lowest terms."""
        # over the lcm of the denominators the tuple is already reduced
        den = lcm(*[e for _, e in numbers])
        key = []
        for coeffs, e in numbers:
            key += coeffs if e == den else [c * (den // e) for c in coeffs]
        key.append(den)
        return tuple(key)

    def multiply(self, u, v):
        """The coefficients of the product of two numbers given by their
        integer coefficients over the basis."""
        out = [0] * self.d
        for a, x in enumerate(u):
            if x:
                row = self.product[a]
                for b, y in enumerate(v):
                    if y:
                        c, g = row[b]
                        out[c] += g * x * y
        return out

    def reciprocal(self, u):
        """(w, n) with 1/u = w / n: integer coefficients w over the basis
        and a nonzero integer n, for integer coefficients u of a nonzero
        number.

        The one inverse (``QNum.inverse`` calls it too) clears one
        generator at a time: the running denominator times its conjugate
        under the flip of a generator it contains is fixed by that flip,
        so free of the generator, and conjugation is a field automorphism,
        so it stays nonzero.  After at most one step per generator the
        denominator is the rational n, and w is the product of the
        conjugates taken.  For a rational u, w is ``one``.
        """
        w, den = self.one, u
        while True:
            present = 0
            for bits, x in zip(self.bits, den):
                if x:
                    present |= bits
            if not present:
                return w, den[0]
            flip = present & -present
            conjugate = [-x if bits & flip else x for bits, x in zip(self.bits, den)]
            w = tuple(self.multiply(w, conjugate))
            den = self.multiply(den, conjugate)

    def decode(self, key):
        d, den = self.d, key[-1]
        return tuple(self.number(key[i:i + d], den) for i in range(0, len(key) - 1, d))

    def number(self, coeffs, den):
        """sum_a coeffs[a] * sqrt(radicands[a]) / den, for a tuple of
        integer coefficients and den > 0, not necessarily in lowest terms,
        as an exact QNum in canonical form."""
        # values repeat a great deal, and QNums are immutable
        q = self._numbers.get((coeffs, den))
        if q is None:
            q = self._numbers[coeffs, den] = QNum._make(*_lowest(self.radicands, coeffs, den))
        return q

    def row_text(self, key):
        """``str`` of each coordinate of an encoded row, joined by commas:
        the row as the orbit TSV prints it.  Each distinct (den,
        coefficients) is formatted once per field."""
        den = key[-1]
        known = self._literals.get(den)
        if known is None:
            known = self._literals[den] = _Literals(self.radicands, den)
        # the coordinates' d-tuples of coefficients, chunked by zip over one
        # iterator; the den slot is cut off first, or at d = 1 it would
        # form a chunk of its own
        return ",".join(map(known.__getitem__, zip(*[iter(key[:-1])] * self.d)))


class _Literals(dict):
    """Coefficients over some radicands -> ``_format`` of them over den,
    each formatted on first lookup."""

    __slots__ = ("radicands", "den")

    def __init__(self, radicands, den):
        self.radicands, self.den = radicands, den

    def __missing__(self, coeffs):
        text = self[coeffs] = _format(self.radicands, coeffs, self.den)
        return text


# -- scanner ----------------------------------------------------------

# One term and the operator after it.  Every part is optional, so the match
# always succeeds without backtracking, and the first missing group says
# where the literal breaks the grammar.  Whitespace is matched only right
# after a token, never by two quantifiers in a row, which would make a long
# run of spaces before a bad character cost quadratic time.
_TERM = re.compile(r"""
    (-\s*)?                         # 1 sign of the term
    (?:(\d+)\s*                     # 2 numerator
        (?:(/\s*)(?:(\d+)\s*)?)?    # 3 slash, 4 denominator
        (\*\s*)?                    # 5 times
    )?
    (?:(sqrt\s*)                    # 6 sqrt
        (?:(\(\s*)                  # 7 open
            (?:((\d+)\s*)(\)\s*)?)?  # 8 radicand with its space, 9 radicand, 10 close
        )?
    )?
    ([+-]\s*)?                      # 11 operator before the next term
""", re.VERBOSE)


def _reject(msg: str, at: int):
    raise ValueError(f"QNum syntax error at position {at}: {msg}")


def _scan(text: str) -> tuple[tuple, tuple, int]:
    """(radicands, coeffs, den) of a literal, scanned one term at a time:
    the canonical form a ``QNum`` stores."""
    if text.isdecimal() or (text[:1] == "-" and text[1:].isdecimal()):
        # a bare integer, the commonest literal; \d matches the same digits
        c = int(text)
        return ((1,), (c,), 1) if c else ((), (), 1)
    acc: dict[int, int] = {}  # radicand -> numerator over scale
    scale = 1
    n = len(text)
    pos = n - len(text.lstrip())
    op = "+"
    while True:
        m = _TERM.match(text, pos)
        sign, num, slash, den, times, root, opening, _, rad, closing, nxt = m.groups()
        if num is None and root is None:
            _reject("expected an unsigned integer", m.end(1) if sign else pos)
        c = d = 1
        if num is not None:
            if slash and den is None:
                _reject("expected an unsigned integer", m.end(3))
            d = int(den) if den else 1
            if not d:
                _reject("zero denominator", m.start(4))
            if times and root is None:
                _reject("expected sqrt(...) after '*'", m.end(5))
            if root is not None and not times:
                _reject("expected '+' or '-', got 's'", m.start(6))
            c = int(num)
        k = 1
        if root is not None:
            if opening is None:
                _reject("expected '(' after sqrt", m.end(6))
            if rad is None:
                _reject("expected an unsigned integer", m.end(7))
            k = int(rad)
            if k == 0:
                _reject("radicand must be positive", m.start(9))
            if closing is None:
                _reject("expected ')'", m.end(8))
        if (sign is not None) ^ (op == "-"):
            c = -c
        s, f = squarefree_decompose(k)
        if c:
            if scale % d:
                up = d // gcd(d, scale)
                for j in acc:
                    acc[j] *= up
                scale *= up
            acc[f] = acc.get(f, 0) + c * s * (scale // d)
        pos = m.end()
        if nxt is None:
            break
        op = nxt[0]
    if pos < n:
        _reject(f"expected '+' or '-', got {text[pos]!r}", pos)
    return _collected(acc, scale)


def _lowest(radicands, coeffs, den) -> tuple[tuple, tuple, int]:
    """The canonical form of ``QNum`` of sum_a coeffs[a] *
    sqrt(radicands[a]) / den, for ascending squarefree radicands and
    den > 0: without zero coefficients and in lowest terms."""
    if not all(coeffs):
        radicands = [k for k, c in zip(radicands, coeffs) if c]
        coeffs = [c for c in coeffs if c]
    g = gcd(den, *coeffs)
    if g != 1:
        return tuple(radicands), tuple([c // g for c in coeffs]), den // g
    return tuple(radicands), tuple(coeffs), den


def _collected(acc, den) -> tuple[tuple, tuple, int]:
    """``_lowest`` of sum_k acc[k] * sqrt(k) / den, for a dict of
    squarefree radicands k."""
    radicands = sorted(acc)
    return _lowest(radicands, [acc[k] for k in radicands], den)
