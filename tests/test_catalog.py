import json

import pytest

from packinglab import catalog, geometry
from packinglab.catalog import CatalogEntry, from_json, to_json
from packinglab.exactnum import QNum, sqrt
from packinglab.groupwords import Configuration

R2 = sqrt(2)

# Four walls with integer coordinates, pairwise product 1: every row is
# tangent to every other, so any singleton is a valid cluster.
TANGENT_ROWS = (
    (0, 0, 0, -1),
    (2, 0, 0, 1),
    (0, 2, 0, 1),
    (2, 2, 2, 1),
)


def tangent_entry(**kw):
    cfg = Configuration(
        name="tangent4",
        rows=tuple(tuple(QNum(c) for c in r) for r in TANGENT_ROWS),
        labels=("1", "2", "3", "4"),
        form_d=None,
    )
    args = dict(id="tangent4", configuration=cfg)
    args.update(kw)
    return CatalogEntry(**args)


def test_entry_accepts_matching_gram():
    gram = geometry.gram(tangent_entry().configuration.rows)
    entry = tangent_entry(gram=gram)
    assert entry.gram[0][1] == QNum(1)
    assert entry.gram[3][3] == QNum(-1)


def test_entry_rejects_wrong_gram_cell():
    gram = [list(r) for r in geometry.gram(tangent_entry().configuration.rows)]
    gram[1][2] = QNum(7)
    with pytest.raises(ValueError, match=r"cell \(1, 2\): stored 7, computed 1"):
        tangent_entry(gram=gram)


def test_entry_rejects_wrong_gram_shape():
    with pytest.raises(ValueError, match="shape disagrees with 4 rows"):
        tangent_entry(gram=((QNum(-1),),))


def test_entry_rejects_unknown_cluster_label():
    with pytest.raises(ValueError, match="unknown row '9'"):
        tangent_entry(clusters=(("1", "9"),))


def test_cluster_indices_follow_labels():
    entry = tangent_entry(clusters=(("4", "2"),))
    assert entry.cluster_indices(("4", "2")) == (3, 1)


def test_json_round_trip_is_byte_stable(tmp_path):
    entry = tangent_entry(
        gram=geometry.gram(tangent_entry().configuration.rows),
        clusters=(("3",),),
        source="synthetic tangent quadruple",
    )
    text = to_json(entry)
    again = from_json(text)
    assert to_json(again) == text
    assert again.clusters == (("3",),)

    path = tmp_path / "tangent4.json"
    catalog.save(entry, path)
    assert catalog.load(path).configuration.rows == entry.configuration.rows
    assert path.read_text(encoding="utf-8") == text


def test_json_field_order_is_schema_order():
    doc = json.loads(to_json(tangent_entry()))
    assert tuple(doc) == catalog.SCHEMA_FIELDS
    # exact literals, not floats
    assert doc["rows"][0] == ["0", "0", "0", "-1"]
    assert doc["gram"] is None and doc["clusters"] is None


def test_from_json_rejects_bad_documents():
    with pytest.raises(ValueError, match="JSON object"):
        from_json("[1, 2]")
    doc = json.loads(to_json(tangent_entry()))
    del doc["rows"]
    with pytest.raises(ValueError, match="missing fields: rows"):
        from_json(json.dumps(doc))
    doc = json.loads(to_json(tangent_entry()))
    doc["extra"] = 1
    with pytest.raises(ValueError, match="unknown fields: extra"):
        from_json(json.dumps(doc))


def test_from_json_reports_row_context():
    doc = json.loads(to_json(tangent_entry()))
    doc["rows"][2][0] = "sqrt(-3)"
    with pytest.raises(ValueError, match="row 2:"):
        from_json(json.dumps(doc))
    doc = json.loads(to_json(tangent_entry()))
    doc["rows"][1] = ["0", "0", "-1"]
    with pytest.raises(ValueError, match="row 1 has 3 coordinates; n = 2 needs 4"):
        from_json(json.dumps(doc))


def test_from_json_reports_bad_gram_cell():
    doc = json.loads(to_json(tangent_entry(
        gram=geometry.gram(tangent_entry().configuration.rows),
    )))
    doc["gram"][1][2] = "1/0"
    with pytest.raises(
        ValueError, match=r"^QNum syntax error at position 2: zero denominator$"
    ):
        from_json(json.dumps(doc))
    doc["gram"][1][2] = "7"
    with pytest.raises(ValueError, match=r"^gram mismatch at cell \(1, 2\)"):
        from_json(json.dumps(doc))


def test_from_json_rejects_bad_norm():
    doc = json.loads(to_json(tangent_entry()))
    doc["rows"][0] = ["0", "0", "0", "-2"]
    with pytest.raises(ValueError, match="norm"):
        from_json(json.dumps(doc))


def test_validate_clean_entry():
    entry = tangent_entry(
        gram=geometry.gram(tangent_entry().configuration.rows),
        clusters=(("1",), ("4",)),
    )
    report = catalog.validate(entry)
    assert report.ok
    assert report.problems == ()
    kinds = [c.kind for c in report.checks]
    assert kinds == ["row-norm"] * 4 + ["gram", "cluster", "cluster"]
    assert report.checks[4].detail == "4x4 exact match"


def test_validate_flags_cluster_that_fails_separation():
    # product 1/2 between the two rows: neither separated nor tangent
    rows = (
        (-R2 / 2, R2 / 2, R2 / 2, QNum(0)),
        (QNum(0), QNum(0), -R2 / 2, R2 / 2),
    )
    cfg = Configuration(name="half", rows=rows, labels=("1", "2"))
    entry = CatalogEntry(id="half", configuration=cfg, clusters=(("1",),))
    report = catalog.validate(entry)
    assert not report.ok
    (problem,) = report.problems
    assert problem.kind == "cluster"
    assert problem.subject == "{1}"
    assert "fails between 1 and 2" in problem.detail
    assert "1/2" in problem.detail


def test_builtin_lookup_uses_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("PACKINGLAB_CATALOG", str(tmp_path))
    assert catalog.list_builtin() == ()
    catalog.save(tangent_entry(), tmp_path / "tangent4.json")
    assert catalog.list_builtin() == ("tangent4",)
    entry = catalog.get_builtin("tangent4")
    assert entry.id == "tangent4"
    with pytest.raises(KeyError, match="no catalog entry 'nope'"):
        catalog.get_builtin("nope")


def test_env_override_replaces_rather_than_extends(tmp_path, monkeypatch):
    monkeypatch.setenv("PACKINGLAB_CATALOG", str(tmp_path / "absent"))
    assert catalog.list_builtin() == ()
