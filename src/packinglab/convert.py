"""Convert external quadratic-form coordinates to inversive rows.

Two source conventions are supported.  Bianchi reflection data comes in the
rank-4 form

    -2*x1*x2 + 2*x3**2 + 2*m*x4**2                    m = 1, 2 (mod 4)
    -2*x1*x2 + 2*x3**2 + 2*x3*x4 + (m+1)/2 * x4**2    m = 3 (mod 4)

and higher-dimensional reflection data in -d*x0**2 + sum(xi**2).  Both
converters rescale so the image row has self-inner-product exactly -1 under
the inversive form.  For a Bianchi root the right factor is sqrt(f(x)/2):
after it, f = 2 and the mapped row has norm x1*x2 - x3**2 - m*x4**2 = -f/2
(the m = 3 (mod 4) map folds the cross term into the third slot, landing on
the same identity).  A positive rational always has a representable square
root (sqrt(p/q) = sqrt(p*q)/q), so everything stays exact.

McLeod's published Bi(m) tables carry a handful of known typos; the shipped
patch table (data/mcleod_patches.json) fixes them up during ingestion, keyed
by the source table and vector name.
"""

import json
from fractions import Fraction
from importlib import resources

from ._record import Record
from .exactnum import QNum, sqrt, squarefree_decompose


def _check_positive(name, value):
    # a bool is an int to isinstance, so True would pass as 1
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError("%s must be a positive integer, got %r" % (name, value))


def _fractions(x):
    """The components of x as Fractions.  A bool is refused: Fraction reads
    True as 1."""
    for j, c in enumerate(x):
        if isinstance(c, bool):
            raise ValueError("component %d of x is not a number: %r" % (j, c))
    return tuple(Fraction(c) for c in x)


class BianchiRoot(Record):
    """A space-like root of the rank-4 Bianchi quadratic form."""

    m: int
    x: tuple

    def __post_init__(self):
        _check_positive("m", self.m)
        if squarefree_decompose(self.m)[0] != 1:
            raise ValueError("m must be square-free, got %d" % self.m)
        coords = _fractions(self.x)
        if len(coords) != 4:
            raise ValueError("a Bianchi root has 4 components, got %d" % len(coords))
        object.__setattr__(self, "x", coords)
        if self.form_value() <= 0:
            raise ValueError(
                "form value must be positive (space-like), got %s" % self.form_value()
            )

    def form_value(self) -> Fraction:
        x1, x2, x3, x4 = self.x
        if self.m % 4 == 3:
            return -2 * x1 * x2 + 2 * x3 * x3 + 2 * x3 * x4 + Fraction(self.m + 1, 2) * x4 * x4
        return -2 * x1 * x2 + 2 * x3 * x3 + 2 * self.m * x4 * x4


class VinbergVector(Record):
    """A positive-norm vector of -d*x0**2 + sum(xi**2)."""

    d: int
    x: tuple

    def __post_init__(self):
        _check_positive("d", self.d)
        coords = _fractions(self.x)
        if len(coords) < 3:
            raise ValueError(
                "need at least 3 components (ambient dimension 1), got %d" % len(coords)
            )
        object.__setattr__(self, "x", coords)
        if self.form_value() <= 0:
            raise ValueError(
                "form value must be positive, got %s" % self.form_value()
            )

    def form_value(self) -> Fraction:
        return -self.d * self.x[0] ** 2 + sum(c * c for c in self.x[1:])


def _unit_scale(value: Fraction) -> QNum:
    # 1/sqrt(value) for a positive rational, kept exact
    if value <= 0:
        raise ValueError("scale needs a positive rational, got %s" % value)
    return sqrt(value.numerator * value.denominator) * Fraction(1, value.numerator)


def from_mcleod_bianchi(root: BianchiRoot) -> tuple:
    """Inversive row for a Bianchi root; exact norm -1."""
    scale = _unit_scale(root.form_value() / 2)
    x1, x2, x3, x4 = (c * scale for c in root.x)
    if root.m % 4 == 3:
        return (x1, x2, x3 + x4 * Fraction(1, 2), x4 * sqrt(root.m) * Fraction(1, 2))
    return (x1, x2, x3, x4 * sqrt(root.m))


def from_vinberg_form(v: VinbergVector) -> tuple:
    """Inversive row for a vector of -d*x0**2 + sum(xi**2); exact norm -1."""
    scale = _unit_scale(v.form_value())
    hat = [c * scale for c in v.x]
    lead = hat[0] * sqrt(v.d)
    return (lead + hat[1], lead - hat[1]) + tuple(hat[2:])


def convert_root(item) -> tuple:
    if isinstance(item, BianchiRoot):
        return from_mcleod_bianchi(item)
    if isinstance(item, VinbergVector):
        return from_vinberg_form(item)
    raise TypeError("expected a BianchiRoot or VinbergVector, got %r" % type(item).__name__)


def convert_all(items) -> tuple:
    """Convert a list of roots, preserving order."""
    return tuple(convert_root(i) for i in items)


def _check_entry(entry, where):
    """ValueError naming the entry unless it is a JSON object whose "table"
    and "vector" are not lists or objects (they key the patch table)."""
    if not isinstance(entry, dict):
        raise ValueError("%s must be a JSON object" % where)
    for name in ("table", "vector"):
        if isinstance(entry.get(name), (list, dict)):
            raise ValueError("%s: '%s' must be a name, not a list or an object" % (where, name))


def _coords(x, where):
    """An entry's "x" as a tuple of Fractions; ValueError naming the entry
    when it is not a list or a component is not an exact number (a JSON
    true or false included, which Fraction would read as 1 or 0)."""
    if not isinstance(x, list):
        raise ValueError("%s: 'x' must be a list" % where)
    out = []
    for j, c in enumerate(x):
        try:
            if isinstance(c, bool):
                raise TypeError
            out.append(Fraction(c))
        except (TypeError, ValueError, ZeroDivisionError, OverflowError):
            raise ValueError(
                "%s: component %d of 'x' is not a number: %s" % (where, j, json.dumps(c))
            ) from None
    return tuple(out)


def load_patch_table(path=None):
    """The shipped (or a user-supplied) root corrections table.

    Returns ({(table, vector): component tuple}, notes).  Notes document
    corrections to printed self-products; they change no vector and are
    carried through for reporting only.  A file that is not an object
    with a "patches" list (and, if any, a "notes" list), or a patch that
    is not an object with a list of numbers as "x", raises ValueError
    naming it.
    """
    if path is None:
        text = (
            resources.files("packinglab")
            .joinpath("data/mcleod_patches.json")
            .read_text(encoding="utf-8")
        )
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    doc = json.loads(text)
    if not (
        isinstance(doc, dict)
        and isinstance(doc.get("patches"), list)
        and isinstance(doc.get("notes", []), list)
    ):
        raise ValueError(
            "patch table must be a JSON object with a 'patches' list and an optional 'notes' list"
        )
    patches = {}
    for k, entry in enumerate(doc["patches"]):
        where = "patch %d" % k
        _check_entry(entry, where)
        key = (entry["table"], entry["vector"])
        if key in patches:
            raise ValueError("duplicate patch for table %s vector %s" % key)
        patches[key] = _coords(entry["x"], where)
    return patches, tuple(doc.get("notes", ()))


def read_root_file(path, patches=None):
    """Parse a JSON root file into BianchiRoot/VinbergVector items.

    Entries look like {"m": 2, "x": ["2", "0", "0", "-1"]} (Bianchi) or
    {"d": 3, "x": [...]} (higher-dimensional); exactly one of m/d must be
    present.  An entry may carry "table" and "vector" names identifying its
    row in the source tables, in which case the patch table (the shipped one
    unless a mapping is passed) replaces known-bad components.  An entry
    that is not an object with a list of numbers as "x" raises ValueError
    naming its index, and so does an "m" or "d" the root refuses (a JSON
    true or false included).
    """
    if patches is None:
        patches, _ = load_patch_table()
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, list):
        raise ValueError("root file must be a JSON list of entries")
    out = []
    for k, entry in enumerate(doc):
        where = "entry %d" % k
        _check_entry(entry, where)
        has_m, has_d = "m" in entry, "d" in entry
        if has_m == has_d:
            raise ValueError("%s needs exactly one of 'm' or 'd'" % where)
        coords = _coords(entry["x"], where)
        key = (entry.get("table"), entry.get("vector"))
        if None not in key and key in patches:
            coords = patches[key]
        try:
            out.append(
                BianchiRoot(entry["m"], coords) if has_m else VinbergVector(entry["d"], coords)
            )
        except ValueError as e:
            raise ValueError("%s: %s" % (where, e)) from None
    return out
