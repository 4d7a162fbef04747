import json
import math

import pytest

from packinglab import catalog, cli, coxeter
from packinglab.geometry import bend_matrix
from packinglab.integrality import certificate_to_json, denominator_growth_probe
from packinglab.orbit import (
    OrbitLimits,
    export_tsv,
    generate_packing,
    generate_superpacking,
    parse_tsv,
)
from packinglab.render import RenderOptions, render_svg, supercluster_circles

BI1_ARGS = ["--config", "builtin:bi1-cluster3", "--cluster", "3", "--generations", "3"]


def bi1_split():
    config = catalog.get_builtin("bi1-cluster3").configuration
    cluster, cocluster, _, _ = config.split(["3"])
    return cluster, cocluster


@pytest.mark.parametrize(
    "command, generate", [("pack", generate_packing), ("super", generate_superpacking)]
)
def test_orbit_commands_match_library(capsys, command, generate):
    assert cli.run([command] + BI1_ARGS) == 0
    want = export_tsv(generate(*bi1_split(), OrbitLimits(max_generation=3)))
    assert capsys.readouterr().out == want


def test_render_from_tsv_matches_library(capsys, tmp_path):
    tsv = export_tsv(generate_packing(*bi1_split(), OrbitLimits(max_generation=3)))
    path = tmp_path / "bi1.tsv"
    path.write_text(tsv, encoding="utf-8")
    assert cli.run(["render", "--in", str(path)]) == 0
    assert capsys.readouterr().out == render_svg(parse_tsv(tsv))


@pytest.mark.parametrize(
    "options, opts",
    [
        (["--viewport=-1/2,3/2,-1,1"], RenderOptions(viewport=(("-1/2", "3/2"), (-1, 1)))),
        (["--labels", "bends"], RenderOptions(labels="bends")),
        (
            ["--viewport", "0,1,0,1", "--labels", "labels", "--max-circles", "3"],
            RenderOptions(viewport=((0, 1), (0, 1)), labels="labels", max_circles=3),
        ),
    ],
)
def test_render_options_match_library(capsys, tmp_path, options, opts):
    tsv = export_tsv(generate_packing(*bi1_split(), OrbitLimits(max_generation=3)))
    path = tmp_path / "bi1.tsv"
    path.write_text(tsv, encoding="utf-8")
    assert cli.run(["render", "--in", str(path)] + options) == 0
    assert capsys.readouterr().out == render_svg(parse_tsv(tsv), opts)


def test_render_from_config_negative_max_bend_disables_bound(capsys):
    assert cli.run(["render"] + BI1_ARGS + ["--max-bend", "-1"]) == 0
    config = catalog.get_builtin("bi1-cluster3").configuration
    circles, words = supercluster_circles(config, ["3"], OrbitLimits(3, None))
    want = render_svg(circles, RenderOptions(cocluster_words=words))
    assert capsys.readouterr().out == want


@pytest.mark.filterwarnings("ignore:asymptotic expansion used")
def test_lob_methods_agree(capsys):
    values = []
    for method in ("series", "quadrature", "asymptotic"):
        assert cli.run(["lob", "--theta", repr(math.pi / 6), "--method", method]) == 0
        values.append(float(capsys.readouterr().out))
    assert max(values) - min(values) < 1e-9


def test_removed_threads_option_is_a_usage_error(capsys):
    assert cli.run(["pack"] + BI1_ARGS + ["--threads", "2"]) == 2
    assert capsys.readouterr().out == ""


def test_domain_error_is_one_json_line(capsys):
    argv = [
        "check-integrality", "--config", "builtin:bi10-example",
        "--cluster", "1,7", "--seed", "0",
    ]
    assert cli.run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["kind"] == "ValueError"


RATIONAL = "left nullspace is defined over the rationals"


@pytest.mark.parametrize(
    "entry, verdict, witnesses, detail",
    [
        ("bi1-cluster3", "inconclusive", 12, RATIONAL),
        ("d1n3", "inconclusive", 7, RATIONAL),
        (
            "d1n3-base", "nonintegral-proven", 5,
            "left-nullspace basis vector 2 has irrational entry sqrt(2) at row 3",
        ),
    ],
)
def test_prove_nonintegral_supplemented_rows(capsys, entry, verdict, witnesses, detail):
    assert cli.run(["prove-nonintegral", "--config", "builtin:" + entry]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["verdict"], len(doc["witnesses"]), doc["detail"]) == (
        verdict, witnesses, detail,
    )


def test_growth_probe_matches_library(capsys):
    argv = ["growth-probe", "--config", "builtin:bi1-cluster3", "--word", "2.1"]
    assert cli.run(argv) == 0
    rows = catalog.get_builtin("bi1-cluster3").configuration.rows
    cert = denominator_growth_probe([bend_matrix(rows, m) for m in rows], [2, 1])
    assert cert.witnesses == (1,) * 12
    assert capsys.readouterr().out == certificate_to_json(cert) + "\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["prove-nonintegral", "--config", "builtin:bi1-cluster3", "--depth", "0"],
            "need more rows than columns (4 x 4)",
        ),
        (
            ["growth-probe", "--config", "builtin:d1n3-base", "--word", "2.1"],
            "bend matrix 2 entries must be rational",
        ),
    ],
)
def test_certificate_domain_errors(capsys, argv, message):
    assert cli.run(argv) == 1
    assert json.loads(capsys.readouterr().err)["error"].startswith(message)


# -- catalog subcommands against the library ---------------------------

EDGE_TEXT = {
    coxeter.Tangent: lambda k: "tangent" if k.sign > 0 else "tangent(-)",
    coxeter.Angle: lambda k: "angle pi/%d" % k.order,
    coxeter.Disjoint: lambda k: "disjoint %s" % k.separation,
}


def lines_text(lines):
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("entry_id", ["bi1-cluster3", "d3n13"])
def test_catalog_commands_match_library(capsys, entry_id):
    entry = catalog.get_builtin(entry_id)
    config = entry.configuration
    gram = config.gram()  # computed here, not the entry's stored copy
    spec = ["--config", "builtin:" + entry_id]

    assert cli.run(["gram"] + spec) == 0
    want = lines_text("\t".join(str(e) for e in row) for row in gram)
    assert capsys.readouterr().out == want

    diag = coxeter.diagram(gram)
    assert cli.run(["diagram"] + spec) == 0
    want = lines_text(
        "%s %s %s" % (config.labels[i], config.labels[j], EDGE_TEXT[type(kind)](kind))
        for (i, j), kind in sorted(diag.edges.items())
        if not isinstance(kind, coxeter.Orthogonal)
    )
    assert capsys.readouterr().out == want
    assert cli.run(["diagram", "--dot"] + spec) == 0
    assert capsys.readouterr().out == coxeter.export_dot(diag, labels=config.labels)

    assert cli.run(["clusters"] + spec) == 0
    want = lines_text(
        "{%s}" % ",".join(config.labels[i] for i in subset)
        for subset in coxeter.enumerate_clusters(gram)
    )
    assert capsys.readouterr().out == want

    report = catalog.validate(entry)
    assert report.ok
    assert cli.run(["validate"] + spec) == 0
    want = lines_text(
        "ok %s %s: %s" % (c.kind, c.subject, c.detail) for c in report.checks
    )
    assert capsys.readouterr().out == want
