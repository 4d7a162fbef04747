"""Bundled configuration data, with a canonical JSON interchange format.

A catalog entry wraps a Configuration together with its expected Gram
matrix (exact, optional), its known clusters (by row label, optional), and
a free-text source note.  Entries are validated on construction: every row
must have norm -1, a stored Gram must match the computed one cell for cell,
and cluster labels must name actual rows.

``from_json`` reads a document through one literal table: each distinct
literal (a string, or a JSON int) is scanned once into a QNum, which every
row cell and Gram cell spelling it shares (QNums are immutable).  The table
lives for one call; nothing is cached between loads.  The stored Gram's
literals are scanned only after the rows have been proved, so a bad row
is reported before a bad Gram literal.

The JSON schema is {id, n, d, rows, labels, words, gram, clusters, source},
in that order, and each field's JSON type is checked before any literal
is scanned.  Cells are strings or integers (not bools) in the
exact-literal grammar of exactnum; `n` is the ambient dimension (rows
carry n+2 coordinates); `d` is the quadratic form the data came from,
when there is one.  The writer is canonical (UTF-8, LF, two-space
indent), so save(load(f)) is byte-identical on canonical files.
PACKINGLAB_CATALOG overrides the builtin data directory.
"""

import dataclasses
import json
import os
from importlib import resources
from pathlib import Path

from . import coxeter
from .exactnum import QNum
from .groupwords import Configuration

_NULL = type(None)
# Each schema field's JSON type, in schema order, and its wording.  A type
# is a Python type (a bool is not an int), [t] for a list of t, or a tuple
# of choices.  A row's cells are checked as they are scanned, so that the
# error names the row.
_FIELD_TYPES = {
    "id": (str, "a string"),
    "n": (int, "an integer"),
    "d": ((int, _NULL), "an integer or null"),
    "rows": ([list], "a list of lists"),
    "labels": ([str], "a list of strings"),
    "words": (([(str, _NULL)], _NULL), "a list of strings and nulls, or null"),
    "gram": (([[(str, int)]], _NULL), "a list of lists of strings and integers, or null"),
    "clusters": (([[str]], _NULL), "a list of lists of strings, or null"),
    "source": (str, "a string"),
}
SCHEMA_FIELDS = tuple(_FIELD_TYPES)


def _has_type(value, spec):
    if type(spec) is list:
        return type(value) is list and all(_has_type(v, spec[0]) for v in value)
    if type(spec) is tuple:
        return type(value) in spec or any(
            type(s) is list and _has_type(value, s) for s in spec
        )
    return type(value) is spec


def _gram_mismatch(computed, stored):
    """First cell (i, j) where the stored Gram differs from the computed
    one, or None; j = -1 marks a shape mismatch."""
    if len(stored) != len(computed):
        return (-1, -1)
    for i, row in enumerate(stored):
        if len(row) != len(computed):
            return (i, -1)
        for j, cell in enumerate(row):
            if computed[i][j] != cell:
                return (i, j)
    return None


@dataclasses.dataclass(frozen=True)
class CatalogEntry:
    id: str
    configuration: Configuration
    gram: tuple | None = None
    clusters: tuple | None = None
    source: str = ""

    def __post_init__(self):
        cfg = self.configuration
        if self.gram is not None:
            # the cells are QNums already (from_json scans the literals)
            stored = tuple(tuple(row) for row in self.gram)
            if not all(isinstance(c, QNum) for row in stored for c in row):
                raise TypeError("gram cells must be QNums")
            object.__setattr__(self, "gram", stored)
            computed = cfg.gram()
            bad = _gram_mismatch(computed, stored)
            if bad is not None:
                i, j = bad
                if j < 0:
                    raise ValueError(
                        "gram matrix shape disagrees with %d rows" % len(cfg.rows)
                    )
                raise ValueError(
                    "gram mismatch at cell (%d, %d): stored %s, computed %s"
                    % (i, j, stored[i][j], computed[i][j])
                )
        if self.clusters is not None:
            known = set(cfg.labels)
            clusters = tuple(tuple(c) for c in self.clusters)
            object.__setattr__(self, "clusters", clusters)
            for c in clusters:
                for label in c:
                    if label not in known:
                        raise ValueError(
                            "cluster %r names unknown row %r" % (c, label)
                        )

    def cluster_indices(self, cluster) -> tuple:
        return tuple(self.configuration.position(label) for label in cluster)

    def gram_matrix(self) -> tuple:
        """The Gram matrix the configuration computed on construction (a
        stored one was proved equal to it)."""
        return self.configuration.gram()


def _literal(table, c):
    """QNum(c), scanned once per distinct string or int literal of the
    document whose table this is; any other JSON value is a ValueError."""
    if type(c) is not str and type(c) is not int:
        raise ValueError("a cell must be a string or an integer, not %s" % json.dumps(c))
    q = table.get(c)
    if q is None:
        q = table[c] = QNum(c)
    return q


def _parse_rows(doc, table):
    rows = []
    for i, row in enumerate(doc["rows"]):
        try:
            rows.append(tuple(_literal(table, c) for c in row))
        except ValueError as err:
            raise ValueError("row %d: %s" % (i, err)) from err
    return tuple(rows)


def from_json(text: str) -> CatalogEntry:
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("catalog entry must be a JSON object")
    missing = [k for k in SCHEMA_FIELDS if k not in doc]
    if missing:
        raise ValueError("missing fields: %s" % ", ".join(missing))
    extra = [k for k in doc if k not in SCHEMA_FIELDS]
    if extra:
        raise ValueError("unknown fields: %s" % ", ".join(sorted(extra)))
    for name, (spec, wording) in _FIELD_TYPES.items():
        if not _has_type(doc[name], spec):
            raise ValueError("field %r must be %s" % (name, wording))
    table = {}
    rows = _parse_rows(doc, table)
    for i, row in enumerate(rows):
        if len(row) != doc["n"] + 2:
            raise ValueError(
                "row %d has %d coordinates; n = %d needs %d"
                % (i, len(row), doc["n"], doc["n"] + 2)
            )
    cfg = Configuration(
        name=doc["id"],
        rows=rows,
        labels=tuple(doc["labels"]),
        form_d=doc["d"],
        defining_words=None if doc["words"] is None else tuple(doc["words"]),
    )
    gram = doc["gram"]
    if gram is not None:
        gram = tuple(tuple(_literal(table, c) for c in row) for row in gram)
    return CatalogEntry(
        id=doc["id"],
        configuration=cfg,
        gram=gram,
        clusters=doc["clusters"],
        source=doc["source"],
    )


def load(path) -> CatalogEntry:
    with open(path, encoding="utf-8") as fh:
        return from_json(fh.read())


def to_json(entry: CatalogEntry) -> str:
    cfg = entry.configuration
    doc = {
        "id": entry.id,
        "n": cfg.dim_n,
        "d": cfg.form_d,
        "rows": [[str(c) for c in row] for row in cfg.rows],
        "labels": list(cfg.labels),
        "words": None if cfg.defining_words is None
        else list(cfg.defining_words),
        "gram": None if entry.gram is None
        else [[str(c) for c in row] for row in entry.gram],
        "clusters": None if entry.clusters is None
        else [list(c) for c in entry.clusters],
        "source": entry.source,
    }
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def save(entry: CatalogEntry, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(to_json(entry))


def _data_dir():
    override = os.environ.get("PACKINGLAB_CATALOG")
    if override:
        return Path(override)
    return resources.files("packinglab").joinpath("data/catalog")


def list_builtin() -> tuple:
    """The ids of the data directory's ``<id>.json`` files, sorted."""
    try:
        with os.scandir(_data_dir()) as found:
            names = [p.name for p in found if p.is_file()]
    except (FileNotFoundError, NotADirectoryError):
        return ()
    return tuple(sorted(
        n[:-5] for n in names if n.endswith(".json")
    ))


def get_builtin(entry_id: str) -> CatalogEntry:
    """The entry of a listed id, proved from its file on every call.

    Only ids that ``list_builtin`` lists are read, so an id cannot name
    a path outside the data directory; any other id is a KeyError.
    """
    available = list_builtin()
    if entry_id not in available:
        raise KeyError(
            "no catalog entry %r; available: %s" % (entry_id, ", ".join(available))
        )
    return from_json(_data_dir().joinpath(entry_id + ".json").read_text(encoding="utf-8"))


@dataclasses.dataclass(frozen=True)
class CatalogCheck:
    kind: str
    subject: str
    ok: bool
    detail: str


@dataclasses.dataclass(frozen=True)
class CatalogReport:
    entry_id: str
    checks: tuple

    @property
    def problems(self) -> tuple:
        return tuple(c for c in self.checks if not c.ok)

    @property
    def ok(self) -> bool:
        return not self.problems


def validate(entry: CatalogEntry) -> CatalogReport:
    """Check everything the entry claims; report, never raise.

    Row norms and a stored Gram were already proved when the entry was
    built (a Configuration row has norm -1, a stored Gram equals the
    computed one), so they are reported as checked; clusters are
    revalidated against the entry's Gram.
    """
    cfg = entry.configuration
    checks = [CatalogCheck("row-norm", label, True, "norm -1") for label in cfg.labels]
    if entry.gram is not None:
        size = len(entry.gram)
        checks.append(CatalogCheck(
            "gram", entry.id, True, "%dx%d exact match" % (size, size),
        ))
    if entry.clusters is not None:
        gram = entry.gram_matrix()
        for cluster in entry.clusters:
            report = coxeter.validate_cluster(
                gram, entry.cluster_indices(cluster)
            )
            if report.verdict:
                detail = "cluster revalidates"
            else:
                rule, i, j, g, _ = next(
                    c for c in report.checks if not c[4]
                )
                detail = "%s fails between %s and %s (entry %s)" % (
                    rule, cfg.labels[i], cfg.labels[j], g,
                )
            checks.append(CatalogCheck(
                "cluster", "{%s}" % ",".join(cluster), report.verdict, detail,
            ))
    return CatalogReport(entry_id=entry.id, checks=tuple(checks))
