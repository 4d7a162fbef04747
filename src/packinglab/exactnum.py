"""Exact arithmetic over the rationals extended by square roots.

A value is a finite sum ``sum_k c_k * sqrt(k)`` with rational
coefficients ``c_k`` and pairwise distinct squarefree radicands
``k >= 1`` (``k = 1`` is the rational part).  Everything the coordinate
tables need lives in such a ring: entries like ``(sqrt(2)+sqrt(6))/2``
sit in Q(sqrt(2), sqrt(3)) but we never fix a field up front, the term
map just grows the radicands it meets.

Square roots of distinct squarefree integers are linearly independent
over Q, so the term map is a canonical form: two values are equal iff
their maps coincide, and a value is zero iff its map is empty.  The
exact (and free) zero test is what sign determination, interior tests,
and orbit dedup all lean on.

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
expression per term and returns integer coefficients over one
denominator, which QNum wraps in Fractions and the TSV reader encodes
directly.  A literal outside the grammar raises ValueError naming the
position where it breaks.

Where a value lies is answered in one way, ``_enclose``: over integer
coefficients it gives integers lo <= hi with the value in
[lo, hi] / 2**p, exact on the rational part and off by less than one
unit per irrational term.  The one exact sign, ``_sign``, doubles p
until the enclosure excludes zero (``QNum.sign`` calls it on the
coefficients over their common denominator), ``to_float`` rounds the
midpoint once, ``_bounds`` returns the enclosure as Fractions, and orbit
generation's bend bound and the render compare enclosures.

For bulk work on many rows over one field, ``_Field`` fixes a
multiquadratic basis and writes each row as integers over that basis
with one common denominator; orbit generation, the Gram matrix and the
render run on that encoding (the render also multiplies and takes
reciprocals in it).  Orbit rows stay encoded through the TSV and the
render, and are decoded to QNums only where a caller asks for them; the
Gram decodes each entry once.  The basis is ``_radical_span`` of the
rows' radicands, whose generator bits say which conjugation flips each
basis element.
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


def _least_prime_factor(n: int) -> int:
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


class QNum:
    """Element of Q[sqrt(k) : k squarefree], immutable and hashable.

    Construct from an int, a Fraction, a literal string (same grammar
    as ``parse``), or a dict {radicand: coefficient}.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, value=None):
        if value is None:
            items = ()
        elif isinstance(value, QNum):
            items = value._terms
        elif isinstance(value, (int, Fraction)):
            c = Fraction(value)
            items = ((1, c),) if c else ()
        elif isinstance(value, str):
            items = _fractions(*_scan(value))
        elif isinstance(value, dict):
            acc: dict[int, Fraction] = {}
            for k, c in value.items():
                if not isinstance(k, int):
                    raise TypeError(f"radicand must be int, got {k!r}")
                s, f = squarefree_decompose(k)
                c = Fraction(c) * s
                if c:
                    acc[f] = acc.get(f, Fraction(0)) + c
            items = tuple(sorted((k, c) for k, c in acc.items() if c))
        else:
            raise TypeError(f"cannot build QNum from {type(value).__name__}")
        self._terms = items
        self._hash = None

    @classmethod
    def _make(cls, items: tuple) -> "QNum":
        # internal fast path: items already canonical (sorted, squarefree
        # radicands, no zero coefficients)
        self = object.__new__(cls)
        self._terms = items
        self._hash = None
        return self

    @classmethod
    def parse(cls, text: str) -> "QNum":
        """Parse the literal grammar; raises ValueError with position."""
        return cls._make(_fractions(*_scan(text)))

    @property
    def terms(self) -> tuple:
        """Canonical term tuple ((radicand, Fraction), ...), ascending."""
        return self._terms

    # -- predicates ---------------------------------------------------

    def is_rational(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and self._terms[0][0] == 1)

    def is_integer(self) -> bool:
        if not self._terms:
            return True
        return self.is_rational() and self._terms[0][1].denominator == 1

    def as_fraction(self) -> Fraction:
        if not self._terms:
            return Fraction(0)
        if not self.is_rational():
            raise ValueError(f"not a rational value: {self}")
        return self._terms[0][1]

    @property
    def denominator(self) -> int:
        """lcm of the coefficient denominators (1 for zero)."""
        d = 1
        for _, c in self._terms:
            d = d * c.denominator // gcd(d, c.denominator)
        return d

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- ring arithmetic ----------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        acc = dict(self._terms)
        for k, c in other._terms:
            v = acc.get(k, _F0) + c
            if v:
                acc[k] = v
            elif k in acc:
                del acc[k]
        return QNum._make(tuple(sorted(acc.items())))

    __radd__ = __add__

    def __neg__(self):
        return QNum._make(tuple((k, -c) for k, c in self._terms))

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
        acc: dict[int, Fraction] = {}
        for k1, c1 in self._terms:
            for k2, c2 in other._terms:
                # sqrt(k1)*sqrt(k2) = g*sqrt(a*b) with g = gcd, and a, b
                # coprime squarefree, so a*b is squarefree: no refactoring
                g = gcd(k1, k2)
                k = (k1 // g) * (k2 // g)
                v = acc.get(k, _F0) + c1 * c2 * g
                if v:
                    acc[k] = v
                elif k in acc:
                    del acc[k]
        return QNum._make(tuple(sorted(acc.items())))

    __rmul__ = __mul__

    def inverse(self) -> "QNum":
        """Exact multiplicative inverse.

        Clears one radical prime at a time: multiplying by the
        conjugate that flips every sqrt containing p leaves a value
        free of p (the cross terms square p away), and conjugation is a
        field automorphism so the running denominator stays nonzero.
        """
        if not self._terms:
            raise ZeroDivisionError("QNum division by zero")
        num, den = ONE, self
        while not den.is_rational():
            k = next(k for k, _ in den._terms if k > 1)
            conj = den._conjugate(_least_prime_factor(k))
            num = num * conj
            den = den * conj
        return num * QNum(1 / den._terms[0][1])

    def _conjugate(self, p: int) -> "QNum":
        return QNum._make(
            tuple((k, -c if k % p == 0 else c) for k, c in self._terms)
        )

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
        """-1, 0 or +1, exact: ``_sign`` on the coefficients over their
        least common denominator."""
        terms = self._terms
        if len(terms) == 1:
            return 1 if terms[0][1] > 0 else -1
        radicands, coeffs, _ = self._integer_terms()
        return _sign(radicands, coeffs)

    def _integer_terms(self) -> tuple[list, list, int]:
        """(radicands, coeffs, den): the value is
        sum_a coeffs[a] * sqrt(radicands[a]) / den, with integer
        coefficients over their least common denominator den > 0.  The
        scanner gives a literal in this form too."""
        terms = self._terms
        if len(terms) == 1:  # the commonest value, already in lowest terms
            (k, c), = terms
            return [k], [c.numerator], c.denominator
        dens = [c.denominator for _, c in terms]
        den = lcm(*dens)
        return (
            [k for k, _ in terms],
            [c.numerator * (den // e) for (_, c), e in zip(terms, dens)],
            den,
        )

    def _enclosure(self, prec: int) -> tuple[int, int, int]:
        """Integers (lo, hi, den), den > 0, with the value in
        [lo, hi] / (den * 2**prec): ``_enclose`` on ``_integer_terms``."""
        radicands, coeffs, den = self._integer_terms()
        lo, hi = _enclose(radicands, coeffs, prec)
        return lo, hi, den

    def _bounds(self, prec: int) -> tuple[Fraction, Fraction]:
        """The enclosure at ``prec`` as two Fractions: exact on a rational
        value, else of width sum_{k>1} |c_k| * 2**-prec."""
        lo, hi, den = self._enclosure(prec)
        scale = den << prec
        return Fraction(lo, scale), Fraction(hi, scale)

    def to_float(self, precision: int = 53) -> float:
        """The midpoint of the enclosure at p = precision + 2, correctly
        rounded.

        The midpoint (lo + hi) / (den * 2**(p+1)) lies within
        ``sum_{k>1} |c_k| * 2**-(p+1)`` of the exact value.  It is one
        integer ratio, and int true division rounds correctly, as
        ``float(Fraction)`` does, so the result is that of
        ``float(sum(self._bounds(p)) / 2)``, OverflowError included.
        """
        terms = self._terms
        if len(terms) == 1 and terms[0][0] == 1:
            c = terms[0][1]
            return c.numerator / c.denominator
        p = precision + 2
        lo, hi, den = self._enclosure(p)
        return (lo + hi) / (den << (p + 1))

    def __float__(self) -> float:
        return self.to_float()

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def _cmp(self, other) -> int:
        other = _coerce(other)
        if other is None:
            raise TypeError(f"cannot compare QNum with {type(other).__name__}")
        return (self - other).sign()

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
        if isinstance(other, QNum):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == QNum(other)._terms
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            if self.is_rational():
                # agree with hash(int)/hash(Fraction) so x == n implies
                # hash(x) == hash(n)
                self._hash = hash(self.as_fraction())
            else:
                self._hash = hash(self._terms)
        return self._hash

    # -- text ---------------------------------------------------------

    def __str__(self) -> str:
        return _format(*self._integer_terms())

    def __repr__(self) -> str:
        return f"QNum({str(self)!r})"


_F0 = Fraction(0)

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
        self._span(_radical_span(k for row in rows for q in row for k, _ in q.terms))

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
        self._numbers = {}

    def encode(self, row):
        """The key of a row of QNums."""
        return self.join([self.place(*q._integer_terms()) for q in row])

    def place(self, radicands, coeffs, den):
        """(coefficients over the basis, den) of the number with these
        integer terms (the form of ``_integer_terms`` and ``_scan``)."""
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

        As in ``QNum.inverse``, one generator at a time: the running
        denominator times its conjugate under the flip of a generator it
        contains is fixed by that flip, so free of the generator, and
        conjugation is a field automorphism, so it stays nonzero.  After
        at most one step per generator the denominator is the rational n,
        and w is the product of the conjugates taken.  For a rational u,
        w is ``one``.
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

    def coordinate(self, key, i):
        """Coordinate i of an encoded row, as an exact QNum."""
        return self.number(key[i * self.d:(i + 1) * self.d], key[-1])

    def decode(self, key):
        d, den = self.d, key[-1]
        return tuple(self.number(key[i:i + d], den) for i in range(0, len(key) - 1, d))

    def number(self, coeffs, den):
        """sum_a coeffs[a] * sqrt(radicands[a]) / den, for den > 0, as an
        exact QNum in canonical form."""
        # values repeat a great deal, and QNums are immutable
        q = self._numbers.get((coeffs, den))
        if q is None:
            q = self._numbers[coeffs, den] = QNum._make(tuple(
                (k, Fraction(x, den)) for k, x in zip(self.radicands, coeffs) if x
            ))
        return q

    def row_text(self, key, texts):
        """``str`` of each coordinate of an encoded row, joined by commas.
        texts is the caller's cache, per denominator, of the literals
        formatted so far: each distinct (den, coefficients) is formatted
        once."""
        d, den = self.d, key[-1]
        known = texts.get(den)
        if known is None:
            known = texts[den] = _Literals(self.radicands, den)
        return ",".join([known[key[i:i + d]] for i in range(0, len(key) - 1, d)])


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
    """(radicands, coeffs, den) of a literal, scanned one term at a time,
    in the form ``QNum._integer_terms`` gives: the value is
    sum_a coeffs[a] * sqrt(radicands[a]) / den over ascending squarefree
    radicands, no coefficient zero, in lowest terms over den > 0."""
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
    radicands = tuple(sorted(k for k, c in acc.items() if c))
    coeffs = tuple(acc[k] for k in radicands)
    g = gcd(scale, *coeffs)
    if g != 1:
        coeffs = tuple(c // g for c in coeffs)
    return radicands, coeffs, scale // g


def _fractions(radicands, coeffs, den) -> tuple:
    """QNum terms ((radicand, Fraction), ...) of integer terms over den."""
    return tuple((k, Fraction(c, den)) for k, c in zip(radicands, coeffs))
