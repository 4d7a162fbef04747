"""Checks on the bundled catalog entries themselves.

These pin down the shipped data files: the inventory, a few anchor
matrices, and the repairs that are easy to get wrong when regenerating.
"""

from fractions import Fraction

from packinglab import catalog, coxeter
from packinglab.exactnum import QNum, sqrt
from packinglab.groupwords import double

R2 = sqrt(2)
R6 = sqrt(6)
HALF = QNum(Fraction(1, 2))
ZERO, ONE = QNum(0), QNum(1)

BUILTINS = (
    "bi1-cluster3", "bi10-example", "bi17-cluster48",
    "d1n3", "d1n3-base",
    "d3n10", "d3n11", "d3n13", "d3n3", "d3n5", "d3n6", "d3n7", "d3n8",
)


def test_builtin_inventory():
    assert catalog.list_builtin() == BUILTINS


def test_builtin_files_are_canonical():
    # the writer reproduces every shipped file byte for byte
    base = catalog._data_dir()
    for eid in BUILTINS:
        text = base.joinpath(eid + ".json").read_text(encoding="utf-8")
        assert catalog.to_json(catalog.get_builtin(eid)) == text, eid


def test_every_builtin_validates():
    for eid in BUILTINS:
        ent = catalog.get_builtin(eid)
        report = catalog.validate(ent)
        assert report.ok, (eid, report.problems)
        assert ent.gram is not None, eid
        for cluster in ent.clusters or ():
            assert ent.cluster_indices(cluster)


def test_d1n3_gram_matches_published_matrix():
    ent = catalog.get_builtin("d1n3")
    h = HALF
    expected = (
        (-ONE, ZERO, h, ZERO, ONE),
        (ZERO, -ONE, h, ONE, ZERO),
        (h, h, -ONE, ZERO, ZERO),
        (ZERO, ONE, ZERO, -ONE, ZERO),
        (ONE, ZERO, ZERO, ZERO, -ONE),
    )
    assert ent.gram == expected
    assert ent.configuration.gram() == expected
    assert ent.configuration.labels == ("2", "3.2", "1", "4", "3.4")
    assert ent.configuration.defining_words == (None, None, "3.1", None, None)


def test_d1n3_base_doubles_back():
    base = catalog.get_builtin("d1n3-base")
    target = catalog.get_builtin("d1n3")
    doubled = double(base.configuration, 3)
    assert set(doubled.rows) == set(target.configuration.rows)
    assert set(doubled.labels) == set(target.configuration.labels)


def test_d3n13_repaired_rows():
    ent = catalog.get_builtin("d3n13")
    cfg = ent.configuration
    assert len(cfg.rows) == 22
    assert cfg.dim_n == 12
    alpha = R2 / 2
    row37 = cfg.row("37")
    assert row37[1] == (R6 - R2) / 2
    assert row37[2:6] == (alpha,) * 4
    row43 = cfg.row("43")
    assert row43[4] == alpha
    assert ent.clusters == (("34",),)


def test_d3n10_repaired_cobends():
    ent = catalog.get_builtin("d3n10")
    fixed = (R6 - R2) / 2
    assert ent.configuration.row("27")[1] == fixed
    assert ent.configuration.row("28")[1] == fixed


def test_bi10_census_is_the_strict_enumeration():
    ent = catalog.get_builtin("bi10-example")
    assert len(ent.clusters) == 24
    assert ("1", "7") in ent.clusters
    labels = ent.configuration.labels
    found = {
        tuple(labels[i] for i in c)
        for c in coxeter.enumerate_clusters(ent.configuration.gram())
    }
    assert found == set(ent.clusters)


def test_quoted_but_failing_clusters_stay_out():
    for eid, blocked in (
        ("d3n6", ("11", "12")),
        ("d3n7", ("13", "14")),
        ("d3n8", ("15", "16")),
        ("d3n10", ("21", "22")),
    ):
        ent = catalog.get_builtin(eid)
        assert ent.clusters == ()
        cfg = ent.configuration
        i, j = (cfg.position(x) for x in blocked)
        assert ent.gram[i][j] == -HALF, eid
