"""The one row gate: ``orbit._checked_rows`` lets a Configuration through,
since its constructor proved every row, and proves raw rows.  Each
caller gives the same result for a Configuration and for its rows."""

import contextlib
import io

import pytest

from packinglab import catalog, cli, orbit
from packinglab.exactnum import QNum
from packinglab.groupwords import Configuration
from packinglab.integrality import check_bounded_rational, prove_integral, prove_nonintegral
from packinglab.orbit import _checked_rows, verify_empty_interior

ENTRIES = catalog.list_builtin()

# bi1-cluster3's walls with the second one's last coordinate doubled:
# norm -1 fails on row 2 only
NOT_WALLS = ((0, 0, 0, -1), (2, 0, 0, 2), (0, 2, 0, 1), (2, 2, 2, 1))


def count_proofs(monkeypatch):
    calls = []
    real = orbit.key_is_wall

    def spy(field, key):
        calls.append(key)
        return real(field, key)

    monkeypatch.setattr(orbit, "key_is_wall", spy)
    return calls


def outcome(f, *args, **kwargs):
    try:
        return "value", f(*args, **kwargs)
    except ValueError as err:
        return "error", str(err)


def test_a_configuration_passes_the_gate_unproved(monkeypatch):
    config = catalog.get_builtin("d3n13").configuration
    calls = count_proofs(monkeypatch)
    assert _checked_rows(config, "config") is config.rows
    assert calls == []
    assert _checked_rows(list(config.rows), "config") == config.rows
    assert len(calls) == len(config.rows)


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
    ],
)
def test_cli_proves_only_rows_the_load_did_not(monkeypatch, argv, proofs):
    calls = count_proofs(monkeypatch)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(argv) == 0
    assert len(calls) == proofs
