"""The row gate of the sampler and the certificates: ``orbit._checked_rows``
lets a Configuration through, since its constructor proved every row, and
proves raw rows on the diagonal of their one Gram.  Each caller gives the
same result for a Configuration and for its rows.  The orbit proves its
rows on the Gram it builds."""

import contextlib
import io
import sys

import pytest

from packinglab import catalog, cli, orbit
from packinglab.exactnum import QNum
from packinglab.geometry import sphere
from packinglab.groupwords import Configuration
from packinglab.integrality import check_bounded_rational, prove_integral, prove_nonintegral
from packinglab.orbit import _checked_rows, verify_empty_interior

ENTRIES = catalog.list_builtin()

# bi1-cluster3's walls with the second one's last coordinate doubled:
# norm -1 fails on row 2 only
NOT_WALLS = ((0, 0, 0, -1), (2, 0, 0, 2), (0, 2, 0, 1), (2, 2, 2, 1))


def count_grams(monkeypatch):
    """(calling function, row count) of each Gram the orbit module builds:
    the row gate's are ``_checked_rows``', the orbit's ``_split``'s."""
    calls = []
    real = orbit.gram

    def spy(rows):
        calls.append((sys._getframe(1).f_code.co_name, len(rows)))
        return real(rows)

    monkeypatch.setattr(orbit, "gram", spy)
    return calls


def gate_grams(calls):
    return [n for caller, n in calls if caller == "_checked_rows"]


def outcome(f, *args, **kwargs):
    try:
        return "value", f(*args, **kwargs)
    except ValueError as err:
        return "error", str(err)


def test_a_configuration_passes_the_gate_unproved(monkeypatch):
    config = catalog.get_builtin("d3n13").configuration
    calls = count_grams(monkeypatch)
    assert _checked_rows(config, "config") is config.rows
    assert calls == []
    # its rows as a raw list: one Gram of all 22
    assert _checked_rows(list(config.rows), "config") == config.rows
    assert calls == [("_checked_rows", len(config.rows))]


def test_the_spot_check_builds_one_gate_gram_per_raw_list(monkeypatch):
    config = catalog.get_builtin("bi1-cluster3").configuration
    _, cocluster, _, _ = config.split(["3"])
    calls = count_grams(monkeypatch)
    want = check_bounded_rational(config, cocluster, seed=5)
    assert gate_grams(calls) == [3]
    assert check_bounded_rational(list(config.rows), cocluster, seed=5) == want
    assert gate_grams(calls) == [3, 4, 3]


def test_configuration_rows_are_the_vectors_the_gate_returns():
    ints = [(0, 0, 0, -1), (2, 0, 0, 1)]
    config = Configuration(name="ints", rows=ints, labels=("1", "2"))
    assert all(type(c) is QNum for row in config.rows for c in row)
    assert config.rows == _checked_rows(ints, "rows")
    assert _checked_rows(config, "rows") == _checked_rows(ints, "rows")


@pytest.mark.parametrize("entry_id", ENTRIES)
def test_prove_integral_and_spot_check_take_a_configuration_or_its_rows(entry_id):
    entry = catalog.get_builtin(entry_id)
    config = entry.configuration
    for cluster in entry.clusters or [[config.labels[0]]]:
        _, cocluster, positions, rest = config.split(cluster)
        idx = ([p + 1 for p in positions], [p + 1 for p in rest])
        assert outcome(prove_integral, config, *idx) == outcome(
            prove_integral, config.rows, *idx
        )
        assert outcome(check_bounded_rational, config, cocluster, seed=5) == outcome(
            check_bounded_rational, config.rows, cocluster, seed=5
        )


@pytest.mark.parametrize("entry_id", ENTRIES)
def test_prove_nonintegral_and_sampler_take_a_configuration_or_its_rows(entry_id):
    config = catalog.get_builtin(entry_id).configuration
    assert outcome(prove_nonintegral, config) == outcome(prove_nonintegral, config.rows)
    assert verify_empty_interior(config, 300, 7) == verify_empty_interior(config.rows, 300, 7)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda rows: prove_integral(rows, [3], [1, 2, 4]), "basis row 2"),
        (lambda rows: check_bounded_rational(rows, [rows[0]]), "basis row 2"),
        (lambda rows: prove_nonintegral(rows + rows[:1]), "matrix row 2"),
        (lambda rows: verify_empty_interior(rows, 10, 0), "config row 2"),
    ],
)
def test_raw_rows_that_are_not_walls_are_still_refused(call, message):
    with pytest.raises(ValueError, match="^%s does not have norm -1$" % message):
        call(NOT_WALLS)


@pytest.mark.parametrize(
    "argv, proofs",
    [
        # the basis is the loaded Configuration; only the 3 mirrors are proved
        (["check-integrality", "--config", "builtin:bi1-cluster3", "--cluster", "3",
          "--seed", "0"], 3),
        # 22 loaded rows need no supplement, so nothing is proved again
        (["prove-nonintegral", "--config", "builtin:d3n13"], 0),
        # the depth-1 superpacking's 16 circles are orbit images, proved once
        (["prove-nonintegral", "--config", "builtin:bi1-cluster3"], 16),
        # the orbit proves its rows on the Gram it builds, so none of the
        # 22, 9 and 4 cluster + cocluster rows goes through the gate
        (["pack", "--config", "builtin:d3n13", "--cluster", "34", "--generations", "1"], 0),
        (["super", "--config", "builtin:bi10-example", "--cluster", "1,7",
          "--generations", "2"], 0),
        (["render", "--config", "builtin:bi1-cluster3", "--cluster", "3",
          "--generations", "2"], 0),
        # the other two supplements
        (["prove-nonintegral", "--config", "builtin:d1n3"], 11),
        (["prove-nonintegral", "--config", "builtin:d1n3-base"], 9),
    ],
)
def test_cli_proves_only_rows_the_load_did_not(monkeypatch, argv, proofs):
    # a raw list is proved on one Gram of all its rows
    calls = count_grams(monkeypatch)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(argv) == 0
    assert gate_grams(calls) == ([proofs] if proofs else [])


BI1 = catalog.get_builtin("bi1-cluster3").configuration


@pytest.mark.parametrize(
    "generate, cluster, cocluster",
    [
        (orbit.generate_packing, *BI1.split(["3"])[:2]),
        (orbit.generate_superpacking, *BI1.split(["3"])[:2]),
        # a Configuration as the cluster is read through its rows, as
        # prove-nonintegral's superpacking of all the walls does
        (orbit.generate_superpacking, BI1, ()),
    ],
)
def test_each_generate_call_builds_one_gram_and_proves_no_row(monkeypatch, generate, cluster, cocluster):
    limits = orbit.OrbitLimits(max_generation=2)
    rows = cluster.rows if isinstance(cluster, Configuration) else cluster
    want = orbit.export_tsv(generate(list(rows), list(cocluster), limits))
    calls = count_grams(monkeypatch)
    assert orbit.export_tsv(generate(cluster, cocluster, limits)) == want
    assert calls == [("_split", len(rows) + len(cocluster))]


# two unit circles and a sphere: widths 4, 4 and 5
MIXED = (sphere((0, 0), 1), sphere((5, 5), 1), sphere((0, 0, 0), 2))


@pytest.mark.parametrize(
    "call, what",
    [
        (lambda rows: verify_empty_interior(rows, 10, 0, box=((0, 1), (0, 1))), "config"),
        (lambda rows: prove_integral(rows, [1], [2]), "basis"),
        (lambda rows: check_bounded_rational(rows, BI1.rows[:1]), "basis"),
        (lambda rows: check_bounded_rational(BI1.rows, rows), "mirror"),
        (lambda rows: prove_nonintegral(rows), "matrix"),
    ],
    ids=["sampler", "prove_integral", "spot_check_basis", "spot_check_mirrors", "prove_nonintegral"],
)
@pytest.mark.parametrize("kind", ["empty", "mixed-widths"])
def test_empty_and_mixed_width_lists_are_refused(call, what, kind):
    # refused by the gate with ValueError, never an IndexError, a verdict
    # or a certificate of zip-truncated rows
    rows, message = {
        "empty": ((), "^%s must have at least one row$" % what),
        "mixed-widths": (MIXED, "^dimension mismatch: 4 vs 5$"),
    }[kind]
    with pytest.raises(ValueError, match=message):
        call(rows)


def test_prove_nonintegral_refuses_rows_of_another_width():
    # six plane walls and one sphere in space: a row-by-row zip would
    # certify the truncated matrix nonintegral
    rows = catalog.get_builtin("bi10-example").configuration.rows[:6] + (sphere((0, 0, 0), 1),)
    with pytest.raises(ValueError, match="^dimension mismatch: 4 vs 5$"):
        prove_nonintegral(rows)
