"""The catalog load path against per-cell oracles.

``from_json`` scans each distinct literal once, evaluates the Gram on
sparse integer keys and proves row norms on field keys.  The oracles here
are the plain path it replaced: every cell parsed with its own
``QNum(c)``, every norm and Gram cell taken with the QNum ``inner``.
"""

import collections
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from packinglab import catalog, geometry
from packinglab.catalog import CatalogEntry, from_json
from packinglab.exactnum import QNum
from packinglab.geometry import as_vector, inner, is_wall
from packinglab.groupwords import Configuration
from packinglab.orbit import _checked_rows


def inner_gram(rows):
    return tuple(tuple(inner(v, w) for w in rows) for v in rows)


def oracle_from_json(text):
    """from_json with a QNum(c) per cell and inner products throughout;
    the same checks, in the same order, with the same messages."""
    doc = json.loads(text)
    rows = []
    for i, row in enumerate(doc["rows"]):
        try:
            rows.append(tuple(QNum(c) for c in row))
        except ValueError as err:
            raise ValueError("row %d: %s" % (i, err)) from err
    for i, row in enumerate(rows):
        if len(row) != doc["n"] + 2:
            raise ValueError(
                "row %d has %d coordinates; n = %d needs %d"
                % (i, len(row), doc["n"], doc["n"] + 2)
            )
    computed = inner_gram(rows)
    for label, row in zip(doc["labels"], rows):
        if inner(row, row) != -1:
            raise ValueError(f"row {label!r} has norm {inner(row, row)}, not -1")
    stored = None
    if doc["gram"] is not None:
        stored = tuple(tuple(QNum(c) for c in row) for row in doc["gram"])
        if len(stored) != len(rows) or any(len(r) != len(rows) for r in stored):
            raise ValueError("gram matrix shape disagrees with %d rows" % len(rows))
        for i, row in enumerate(stored):
            for j, cell in enumerate(row):
                if cell != computed[i][j]:
                    raise ValueError(
                        "gram mismatch at cell (%d, %d): stored %s, computed %s"
                        % (i, j, cell, computed[i][j])
                    )
    cfg = Configuration(
        name=doc["id"],
        rows=tuple(rows),
        labels=tuple(doc["labels"]),
        form_d=doc["d"],
        defining_words=None if doc["words"] is None else tuple(doc["words"]),
    )
    assert cfg.gram() == computed
    return CatalogEntry(
        id=doc["id"], configuration=cfg, gram=stored,
        clusters=doc["clusters"], source=doc["source"],
    )


def outcome(load, text):
    try:
        return "entry", load(text)
    except ValueError as err:
        return "error", str(err)


def assert_same_load(text):
    got, want = outcome(from_json, text), outcome(oracle_from_json, text)
    assert got[0] == want[0], (got, want)
    if got[0] == "error":
        assert got[1] == want[1]
        return
    entry, expected = got[1], want[1]
    assert entry == expected
    assert entry.configuration.rows == expected.configuration.rows
    assert entry.gram == expected.gram
    assert entry.gram_matrix() == expected.gram_matrix()
    assert catalog.to_json(entry) == catalog.to_json(expected)


def shipped_text(entry_id):
    return catalog._data_dir().joinpath(entry_id + ".json").read_text(encoding="utf-8")


@pytest.mark.parametrize("entry_id", catalog.list_builtin())
def test_load_matches_per_cell_oracle_on_builtins(entry_id):
    text = shipped_text(entry_id)
    entry, expected = from_json(text), oracle_from_json(text)
    assert entry.configuration.rows == expected.configuration.rows
    assert entry.gram == expected.gram
    assert entry.gram_matrix() == inner_gram(expected.configuration.rows)
    assert entry == expected


def test_cells_spelling_one_literal_share_one_qnum():
    entry = from_json(shipped_text("d3n13"))
    cells = [c for row in entry.configuration.rows for c in row]
    cells += [c for row in entry.gram for c in row]
    by_text = {}
    for c in cells:
        by_text.setdefault(str(c), set()).add(id(c))
    assert all(len(ids) == 1 for ids in by_text.values())


# -- generated documents -------------------------------------------------

BASES = ("d3n3", "bi1-cluster3", "d1n3")
BAD_LITERALS = ("sqrt(8)/2", "1/0", "sqrt(-3)", "sqrt(2", "x", "", "1 2", "--1")


@st.composite
def spellings(draw, q):
    """A literal of the value q: canonical, a JSON int, or respelled with
    unreduced fractions, radicands carrying square factors and the terms
    in any order."""
    kind = draw(st.integers(min_value=0, max_value=2))
    if kind == 0:
        return str(q)
    if kind == 1 and q.is_integer():
        return int(q.as_fraction())
    terms = []
    for k, c in q.terms:
        s = draw(st.integers(min_value=1, max_value=3))
        t = draw(st.integers(min_value=1, max_value=3))
        c = c / s  # c sqrt(k) = (c / s) sqrt(k s^2)
        text = "%d/%d" % (abs(c.numerator) * t, c.denominator * t)
        if k * s * s != 1:
            text += "*sqrt(%d)" % (k * s * s)
        terms.append(("-" if c < 0 else "+", text))
    if not terms:
        return draw(st.sampled_from(["0", "-0", "00", "0/5"]))
    terms = draw(st.permutations(terms))
    out = "".join(sign + text for sign, text in terms)
    return out[1:] if out[0] == "+" else out


@st.composite
def documents(draw):
    doc = json.loads(shipped_text(draw(st.sampled_from(BASES))))
    for table in (doc["rows"], doc["gram"]):
        for row in table:
            for j, c in enumerate(row):
                row[j] = draw(spellings(QNum(c)))
    size = len(doc["rows"])
    width = len(doc["rows"][0])
    cell = st.tuples(st.integers(0, size - 1), st.integers(0, width - 1))
    gram_cell = st.tuples(st.integers(0, size - 1), st.integers(0, size - 1))
    if draw(st.booleans()):  # a wrong norm (or, by chance, a wrong Gram)
        i, j = draw(cell)
        doc["rows"][i][j] = str(QNum(doc["rows"][i][j]) + draw(st.sampled_from([1, -1])))
    if draw(st.integers(0, 3)) == 0:
        i, j = draw(cell)
        doc["rows"][i][j] = draw(st.sampled_from(BAD_LITERALS))
    if draw(st.integers(0, 3)) == 0:
        i, j = draw(gram_cell)
        doc["gram"][i][j] = str(QNum(doc["gram"][i][j]) + Fraction(1, 2))
    if draw(st.booleans()):
        i, j = draw(gram_cell)
        doc["gram"][i][j] = draw(st.sampled_from(BAD_LITERALS))
    return json.dumps(doc)


@settings(max_examples=150, deadline=None)
@given(documents())
def test_generated_documents_load_as_the_oracle_does(text):
    assert_same_load(text)


def test_equal_values_spelled_differently_share_nothing_but_the_value():
    doc = json.loads(shipped_text("d3n3"))
    assert doc["rows"][3][0] == "sqrt(2)"
    doc["rows"][3][0] = "1/2*sqrt(8)"
    doc["rows"][0][1] = 0  # a JSON int beside the string "0"
    entry = from_json(json.dumps(doc))
    assert entry == from_json(shipped_text("d3n3"))
    assert catalog.to_json(entry) == shipped_text("d3n3")
    assert_same_load(json.dumps(doc))


def test_norm_error_wins_over_a_bad_gram_literal():
    doc = json.loads(shipped_text("d3n3"))
    doc["rows"][0][2] = "-sqrt(3)"
    doc["gram"][2][1] = "sqrt(8)/2"
    with pytest.raises(ValueError, match=r"^row '5' has norm -13/4, not -1$"):
        from_json(json.dumps(doc))
    assert_same_load(json.dumps(doc))
    doc["rows"][0][2] = "-1/2*sqrt(3)"
    with pytest.raises(ValueError, match=r"^QNum syntax error at position 7"):
        from_json(json.dumps(doc))
    assert_same_load(json.dumps(doc))


def test_a_bad_literal_in_rows_and_gram_reports_the_row():
    doc = json.loads(shipped_text("d3n3"))
    doc["rows"][4][2] = doc["gram"][0][0] = "1/0"
    with pytest.raises(ValueError, match=r"^row 4: QNum syntax error"):
        from_json(json.dumps(doc))


def test_non_literal_cells_are_refused_with_their_row():
    # a cell is a string or an integer; a float, a list, an object, null
    # and a bool are not, though QNum would take some of them
    doc = json.loads(shipped_text("d3n3"))
    doc["rows"][0][1] = 0  # a JSON int that the float 0.0 equals
    assert_same_load(json.dumps(doc))
    for value in (0.0, 1.5, [1], {"2": 1}, None, True, False):
        doc["rows"][6][1] = value
        message = "row 6: a cell must be a string or an integer, not %s" % json.dumps(value)
        with pytest.raises(ValueError) as got:
            from_json(json.dumps(doc))
        assert str(got.value) == message


@pytest.mark.parametrize(
    "name, value",
    [
        ("id", 7), ("n", "2"), ("n", True), ("n", 2.0), ("d", "3"), ("d", False),
        ("rows", {"0": []}), ("rows", ["0", "0", "1", "1"]), ("labels", None),
        ("labels", [5, 6, 7, 8, 9, 10, 11]), ("words", "1.2"), ("words", [1]),
        ("gram", [[True]]), ("gram", [[None]]), ("gram", ["1"]), ("clusters", [["6", 8]]),
        ("clusters", ["6"]), ("source", None),
    ],
)
def test_each_field_of_the_wrong_json_type_is_named(name, value):
    doc = json.loads(shipped_text("d3n3"))
    doc[name] = value
    with pytest.raises(ValueError, match="^field '%s' must be " % name):
        from_json(json.dumps(doc))


@pytest.mark.parametrize(
    "name, value",
    [("d", None), ("words", None), ("words", [None, "1.2"] + [None] * 5),
     ("gram", None), ("clusters", None), ("clusters", [])],
)
def test_fields_take_null_and_empty_lists_where_the_schema_does(name, value):
    doc = json.loads(shipped_text("d3n3"))
    doc[name] = value
    assert_same_load(json.dumps(doc))


def test_entry_takes_qnum_gram_cells_only():
    entry = from_json(shipped_text("bi1-cluster3"))
    text_gram = [[str(c) for c in row] for row in entry.gram]
    with pytest.raises(TypeError, match="gram cells must be QNums"):
        CatalogEntry(id="x", configuration=entry.configuration, gram=text_gram)


# -- the wall check on field keys ----------------------------------------


def oracle_checked_rows(rows, what):
    out = tuple(as_vector(r) for r in rows)
    if not out:
        raise ValueError("%s must have at least one row" % what)
    for r in out:
        if len(r) != len(out[0]):
            raise ValueError("dimension mismatch: %d vs %d" % (len(out[0]), len(r)))
    for i, r in enumerate(out):
        if inner(r, r) != -1:
            raise ValueError("%s row %d does not have norm -1" % (what, i + 1))
    return out


def checked(check, rows):
    try:
        return check(rows, "basis")
    except ValueError as err:
        return str(err)


BUILTIN_ROWS = [r for eid in BASES + ("d3n13", "d3n5") for r in catalog.get_builtin(eid).configuration.rows]


def random_row(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return rng.choice(BUILTIN_ROWS)
    if kind == 1:
        center = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
        return geometry.sphere(center, Fraction(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(1, 3)))
    row = list(rng.choice(BUILTIN_ROWS))
    if kind == 2:
        return tuple(-c for c in row)
    row[rng.randrange(len(row))] += rng.choice([QNum(1), QNum({2: Fraction(1, 2)}), QNum({6: -1})])
    return tuple(row)


def verdict(want):
    if not isinstance(want, str):
        return "walls"
    return next(k for k in ("at least one", "dimension", "norm") if k in want)


def test_checked_rows_match_the_inner_oracle_on_random_rows():
    rng = random.Random(17)
    verdicts = collections.Counter()
    for _ in range(300):
        rows = [random_row(rng) for _ in range(rng.randint(0, 5))]
        # the draw as it is (mostly mixed widths), then its rows of the
        # first row's width, which reach the norm check
        for case in (rows, [r for r in rows if len(r) == len(rows[0])] if rows else rows):
            want = checked(oracle_checked_rows, case)
            assert checked(_checked_rows, case) == want
            verdicts[verdict(want)] += 1
        for r in rows:
            assert is_wall(r) == (inner(as_vector(r), as_vector(r)) == -1)
    # every verdict is exercised
    assert all(verdicts[k] > 40 for k in ("walls", "at least one", "dimension", "norm")), verdicts


def test_checked_rows_edge_cases():
    with pytest.raises(ValueError, match="^basis must have at least one row$"):
        _checked_rows((), "basis")
    short, wide = catalog.get_builtin("d3n3").configuration.rows[0], catalog.get_builtin("d3n13").configuration.rows[0]
    with pytest.raises(ValueError, match="^dimension mismatch: %d vs %d$" % (len(short), len(wide))):
        _checked_rows([short, wide], "basis")
    bad = wide[:-1] + (wide[-1] + 1,)
    # widths are refused before any norm
    with pytest.raises(ValueError, match="^dimension mismatch: "):
        _checked_rows([short, wide, bad], "basis")
    two = catalog.get_builtin("d3n13").configuration.rows[:2]
    assert _checked_rows(list(two), "basis") == two
    with pytest.raises(ValueError, match="^basis row 2 does not have norm -1$"):
        _checked_rows([wide, bad], "basis")
