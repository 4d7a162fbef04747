import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from packinglab import catalog, cli, convert, coxeter, polygraph
from packinglab.geometry import bend_matrices, hyperplane, sphere
from packinglab.groupwords import Configuration, double
from packinglab.integrality import (
    certificate_to_json,
    check_bounded_rational,
    denominator_growth_probe,
    prove_integral,
)
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


def test_orbit_commands_call_the_module_attribute(capsys, monkeypatch):
    # pack and super share one handler, which looks generate_packing up
    # when called: a replacement of cli.generate_packing (a tracer's span)
    # sees every pack request and no super request
    calls = []

    def spy(*args):
        calls.append(args)
        return generate_packing(*args)

    monkeypatch.setattr(cli, "generate_packing", spy)
    assert cli.run(["pack"] + BI1_ARGS) == 0
    assert len(calls) == 1
    assert cli.run(["super"] + BI1_ARGS) == 0
    assert len(calls) == 1
    capsys.readouterr()


@pytest.mark.parametrize("config", ["builtin:bi1-cluster3", "no/such/catalog.json"])
def test_validate_samples_without_seed_is_a_usage_error(capsys, config):
    # checked before the entry is loaded, so a missing file is not reached
    assert cli.run(["validate", "--config", config, "--samples", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "packinglab validate: error: --samples requires --seed\n"


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


@pytest.mark.parametrize(
    "viewport, message",
    [("--viewport=-1e400,1e400,-1,1", "float range"), ("--viewport=0,1e-400,0,1e-400", "too small")],
)
def test_render_viewport_floats_cannot_draw_is_a_domain_error(capsys, viewport, message):
    assert cli.run(["render"] + BI1_ARGS + [viewport]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)
    assert error["kind"] == "ValueError" and message in error["error"]


def test_render_fitted_viewport_floats_cannot_draw_is_a_domain_error(capsys, tmp_path):
    # one circle of bend 10**400 at the origin: its fitted box rounds to a point
    path = tmp_path / "tiny.tsv"
    path.write_text("0\ttiny\t(-1/%d,%d,0,0)\n" % (10 ** 400, 10 ** 400), encoding="utf-8")
    assert cli.run(["render", "--in", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)
    assert error["kind"] == "ValueError" and "too small" in error["error"]


@pytest.mark.filterwarnings("ignore:asymptotic expansion used")
def test_lob_methods_agree(capsys):
    values = []
    for method in ("series", "quadrature", "asymptotic"):
        assert cli.run(["lob", "--theta", repr(math.pi / 6), "--method", method]) == 0
        values.append(float(capsys.readouterr().out))
    assert max(values) - min(values) < 1e-9


LAZY_MPMATH = """
import contextlib, io, math, sys
from packinglab import cli
print("mpmath" in sys.modules)
for method in ("series", "quadrature"):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.run(["lob", "--theta", repr(math.pi / 6), "--method", method])
    if rc != 0:  # not an assert: PYTHONOPTIMIZE would strip the call with it
        raise SystemExit("lob --method %s exited %d" % (method, rc))
    print(out.getvalue().strip(), "mpmath" in sys.modules)
"""


def test_cli_import_leaves_mpmath_to_the_quadrature():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    got = subprocess.run(
        [sys.executable, "-c", LAZY_MPMATH],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    ).stdout.split()
    assert got[0] == "False"
    series, series_loaded, quadrature, quadrature_loaded = got[1:]
    assert (series_loaded, quadrature_loaded) == ("False", "True")
    assert abs(float(series) - float(quadrature)) < 2e-9


def test_removed_threads_option_is_a_usage_error(capsys):
    assert cli.run(["pack"] + BI1_ARGS + ["--threads", "2"]) == 2
    assert capsys.readouterr().out == ""


# subcommands with usage errors (exit 2) and domain errors (exit 1)
# between successful runs
MIXED_RUNS = [
    ["catalog"],
    ["pack"] + BI1_ARGS + ["--threads", "2"],
    ["gram", "--config", "builtin:d1n3"],
    ["catalog", "--show", "no-such-entry"],
    ["pack"] + BI1_ARGS,
    ["validate", "--config", "builtin:d1n3", "--samples", "5"],
    ["lob", "--theta", "x"],
    ["clusters", "--config", "builtin:bi1-cluster3"],
    ["render", "--config", "builtin:bi1-cluster3"],
    ["catalog"],
]


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # usage text wraps to the terminal width
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    built = []
    build = cli._build_parser

    def counted():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "_build_parser", counted)
    cli._parser.cache_clear()
    codes = set()
    try:
        for argv in MIXED_RUNS:
            rc = cli.run(argv)
            got = capsys.readouterr()
            fresh = subprocess.run(
                [sys.executable, "-m", "packinglab", *argv],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert (rc, got.out, got.err) == (fresh.returncode, fresh.stdout, fresh.stderr)
            codes.add(rc)
        assert len(built) == 1
    finally:
        cli._parser.cache_clear()
    assert codes == {0, 1, 2}


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


def test_check_integrality_cluster_of_every_row_is_a_domain_error(capsys):
    # no cocluster mirror is left for the spot check's words
    argv = [
        "check-integrality", "--config", "builtin:bi1-cluster3",
        "--cluster", "1,2,3,4", "--seed", "0",
    ]
    assert cli.run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [json.loads(line) for line in captured.err.splitlines()] == [
        {"kind": "ValueError", "error": "need at least one mirror to draw words from"}
    ]


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
    cert = denominator_growth_probe([bend_matrices(rows, [m])[0] for m in rows], [2, 1])
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


@pytest.mark.parametrize("entry_id", catalog.list_builtin())
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


def test_catalog_listing_and_show_match_library(capsys):
    assert cli.run(["catalog"]) == 0
    ids = catalog.list_builtin()
    assert capsys.readouterr().out == lines_text(ids)
    for entry_id in ids:
        assert cli.run(["catalog", "--show", entry_id]) == 0
        assert capsys.readouterr().out == catalog.to_json(catalog.get_builtin(entry_id))


def test_catalog_show_unknown_entry_is_a_domain_error(capsys):
    assert cli.run(["catalog", "--show", "no-such-entry"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["kind"] == "KeyError"


def test_glue_builtin_path_is_unknown_polyhedron(capsys):
    # a builtin: name that walks into the catalog directory is refused by
    # name, not read and then rejected for its contents
    argv = ["glue", "--kind", "face", "--a", "builtin:../catalog/bi10-example",
            "--b", "builtin:tetrahedron", "--at-a", "0", "--at-b", "0"]
    assert cli.run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["kind"] == "KeyError"
    assert err["error"].startswith("no builtin polyhedron '../catalog/bi10-example'")


# -- double, glue, convert, check-integrality against the library ------


def doubled_entry(entry_id, wall, new_id):
    config = catalog.get_builtin(entry_id).configuration
    doubled = double(config, config.position(wall) + 1)
    return catalog.CatalogEntry(
        id=new_id,
        configuration=doubled,
        gram=doubled.gram(),
        clusters=(),
        source="doubled across wall %s of %s" % (wall, entry_id),
    )


def test_double_matches_library(capsys, tmp_path):
    spec = ["double", "--config", "builtin:d1n3-base", "--wall", "3"]
    assert cli.run(spec) == 0
    want = catalog.to_json(doubled_entry("d1n3-base", "3", "d1n3-base-doubled-3"))
    assert capsys.readouterr().out == want

    path = tmp_path / "doubled.json"
    assert cli.run(spec + ["--id", "twice", "--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    want = catalog.to_json(doubled_entry("d1n3-base", "3", "twice"))
    assert path.read_text(encoding="utf-8") == want


@pytest.mark.parametrize(
    "kind, a, at_a, b, at_b",
    [
        ("face", "tetrahedron", "0", "tetrahedron", "0"),
        ("face", "square_pyramid", "0", "square_pyramid", "0"),
        ("vertex", "square_pyramid", "a", "square_pyramid", "a"),
    ],
)
def test_glue_matches_library(capsys, tmp_path, kind, a, at_a, b, at_b):
    pa, pb = polygraph.builtin(a), polygraph.builtin(b)
    if kind == "face":
        fa, fb = int(at_a), int(at_b)
        matching = polygraph.face_equivalent(pa, fa, pb, fb)
        glued = polygraph.glue_face(pa, fa, pb, fb, matching)
    else:
        matching = polygraph.vertex_equivalent(pa, at_a, pb, at_b)
        glued = polygraph.glue_vertex(pa, at_a, pb, at_b, matching)
    path = tmp_path / "glued.json"
    argv = [
        "glue", "--kind", kind, "--a", "builtin:" + a, "--b", "builtin:" + b,
        "--at-a", at_a, "--at-b", at_b, "--out", str(path),
    ]
    assert cli.run(argv) == 0
    assert capsys.readouterr().out == "%s: vertices=%d edges=%d faces=%d\n" % (
        (glued.name,) + glued.counts()
    )
    assert path.read_text(encoding="utf-8") == polygraph.to_json(glued)


def test_glue_without_equivalence_is_a_domain_error(capsys):
    # a side triangle of the hexagonal pyramid borders a hexagon, and no
    # tetrahedron face does
    pa, pb = polygraph.builtin("tetrahedron"), polygraph.builtin("hexagonal_pyramid")
    assert polygraph.face_equivalent(pa, 0, pb, 1) is None
    argv = [
        "glue", "--kind", "face", "--a", "builtin:tetrahedron",
        "--b", "builtin:hexagonal_pyramid", "--at-a", "0", "--at-b", "1",
    ]
    assert cli.run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == (
        "faces are not equivalent; no matching exists"
    )


ROOTS = [
    # the printed row; the shipped patch table replaces it
    {"m": 2, "table": "F.2", "vector": "e4", "x": ["1", "0", "0", "-1"]},
    {"m": 2, "x": ["1", "0", "0", "-1"]},
    {"m": 33, "table": "F.16", "vector": "e3", "x": ["0", "0", "1", "-2"]},
    {"d": 3, "x": ["0", "0", "0", "1"]},
]


@pytest.mark.parametrize(
    "options, patches", [([], None), (["--no-patches"], {})]
)
def test_convert_matches_library(capsys, tmp_path, options, patches):
    path = tmp_path / "roots.json"
    path.write_text(json.dumps(ROOTS), encoding="utf-8")
    assert cli.run(["convert", "--in", str(path)] + options) == 0
    rows = convert.convert_all(convert.read_root_file(path, patches))
    want = lines_text("(%s)" % ",".join(str(q) for q in row) for row in rows)
    assert capsys.readouterr().out == want
    assert len(want.splitlines()) == len(ROOTS)


def test_check_integrality_success_matches_library(capsys):
    argv = [
        "check-integrality", "--config", "builtin:bi1-cluster3",
        "--cluster", "3", "--seed", "0",
    ]
    assert cli.run(argv) == 0
    config = catalog.get_builtin("bi1-cluster3").configuration
    _, cocluster, positions, rest = config.split(["3"])
    cert = prove_integral(
        config.rows, [p + 1 for p in positions], [p + 1 for p in rest]
    )
    spot = check_bounded_rational(
        config.rows, cocluster, word_count=20, word_length=5, seed=0
    )
    assert cert.verdict == "integral-proven" and spot.ok
    doc = {
        "certificate": json.loads(certificate_to_json(cert)),
        "bounded_rational": {
            "ok": spot.ok,
            "derived_bound": spot.derived_bound,
            "observed_max_denominator": spot.observed_max_denominator,
            "word_count": 20,
            "word_length": 5,
            "seed": 0,
        },
    }
    assert capsys.readouterr().out == json.dumps(doc, indent=2) + "\n"


# -- domain errors that used to end in a traceback ----------------------


def one_json_error(capsys):
    """The single JSON line a domain error writes on stderr, parsed, and
    the stdout of the same capture."""
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1, captured.err
    return json.loads(lines[0]), captured.out


def test_validate_samples_past_float_range_is_a_domain_error(capsys, tmp_path):
    # two tangent unit circles centred near x = 10**400: exact rows that
    # load and validate, but whose sample box has no float
    far = 10**400
    config = Configuration(
        name="far",
        rows=(sphere((far, 0), 1), sphere((far + 2, 0), 1)),
        labels=("a", "b"),
    )
    path = tmp_path / "far.json"
    catalog.save(catalog.CatalogEntry(id="far", configuration=config), path)
    assert cli.run(["validate", "--config", str(path)]) == 0
    checks = capsys.readouterr().out
    assert checks == "ok row-norm a: norm -1\nok row-norm b: norm -1\n"
    argv = ["validate", "--config", str(path), "--samples", "10", "--seed", "0"]
    assert cli.run(argv) == 1
    error, out = one_json_error(capsys)
    assert error["kind"] == "OverflowError"
    # the row checks are printed before the sampler raises
    assert out == checks


@pytest.mark.parametrize(
    "a, b, at, message",
    [
        ("tetrahedron", "square_pyramid", ["--at-a", "4", "--at-b", "0"],
         "tetrahedron has no face 4; its faces are 0..3"),
        ("tetrahedron", "tetrahedron", ["--at-a=-1", "--at-b=-1"],
         "tetrahedron has no face -1; its faces are 0..3"),
    ],
)
def test_glue_face_index_outside_the_faces_is_a_domain_error(capsys, a, b, at, message):
    argv = ["glue", "--kind", "face", "--a", "builtin:" + a, "--b", "builtin:" + b]
    assert cli.run(argv + at) == 1
    assert one_json_error(capsys) == ({"kind": "ValueError", "error": message}, "")


def test_glue_unknown_vertex_label_is_a_domain_error(capsys):
    argv = ["glue", "--kind", "vertex", "--a", "builtin:tetrahedron",
            "--b", "builtin:tetrahedron", "--at-a", "zz", "--at-b", "1"]
    assert cli.run(argv) == 1
    assert one_json_error(capsys) == (
        {"kind": "ValueError", "error": "tetrahedron has no vertex 'zz'"}, "",
    )


def _set_cell(doc, value):
    doc["rows"][1][2] = value


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: _set_cell(doc, [1]),
         "row 1: a cell must be a string or an integer, not [1]"),
        (lambda doc: _set_cell(doc, True),
         "row 1: a cell must be a string or an integer, not true"),
        (lambda doc: doc.update(n="2"), "field 'n' must be an integer"),
        (lambda doc: doc.update(labels=None), "field 'labels' must be a list of strings"),
    ],
)
def test_catalog_file_of_wrong_json_types_is_a_domain_error(capsys, tmp_path, edit, message):
    doc = json.loads(catalog._data_dir().joinpath("bi1-cluster3.json").read_text(encoding="utf-8"))
    edit(doc)
    path = tmp_path / "entry.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.run(["validate", "--config", str(path)]) == 1
    assert one_json_error(capsys) == ({"kind": "ValueError", "error": message}, "")


@pytest.mark.parametrize(
    "theta, method, message",
    [
        ("nan", "series", "angle must be finite, got nan"),
        ("inf", "quadrature", "angle must be finite, got inf"),
        ("-inf", "asymptotic", "angle must be finite, got -inf"),
        ("1e308", "asymptotic", "asymptotic expansion to 12 terms overflows at theta = 1e+308"),
    ],
)
def test_lob_never_prints_a_non_finite_value(capsys, theta, method, message):
    assert cli.run(["lob", "--theta=" + theta, "--method", method]) == 1
    assert one_json_error(capsys) == ({"kind": "ValueError", "error": message}, "")


@pytest.mark.parametrize("method", ["series", "quadrature"])
@pytest.mark.parametrize("tol", ["nan", "-nan", "0", "-1e-9"])
def test_lob_refuses_a_tolerance_that_is_not_positive(capsys, method, tol):
    assert cli.run(["lob", "--theta", "1.0", "--tol=" + tol, "--method", method]) == 1
    error, out = one_json_error(capsys)
    assert error["kind"] == "ValueError"
    assert error["error"].startswith("tolerance must be positive, got ")
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["pack", "--config", "builtin:bi10-example", "--cluster", "2"],
        ["render", "--config", "builtin:bi10-example", "--cluster", "2"],
    ],
)
def test_non_cluster_is_a_domain_error(capsys, argv):
    # bi10-example {2}: wall 2 meets cocluster wall 5 at pi/3
    assert cli.run(argv) == 1
    assert one_json_error(capsys) == ({
        "kind": "ValueError",
        "error": "not a cluster: rows 1 and 5 of cluster + cocluster fail "
        "separated-or-orthogonal (Gram entry 1/2)",
    }, "")


def test_nested_cluster_is_a_domain_error(capsys, tmp_path):
    # two concentric circles (radii 1 and 3) and a line through their
    # centre: clusters does not list {a,b}, and pack refuses it
    config = Configuration(
        name="nested",
        rows=(sphere((0, 0), 1), sphere((0, 0), 3), hyperplane((1, 0), 0)),
        labels=("a", "b", "c"),
    )
    path = tmp_path / "nested.json"
    catalog.save(catalog.CatalogEntry(id="nested", configuration=config), path)
    assert cli.run(["clusters", "--config", str(path)]) == 0
    assert capsys.readouterr().out == "{a}\n{b}\n{c}\n"
    assert cli.run(["pack", "--config", str(path), "--cluster", "a,b"]) == 1
    assert one_json_error(capsys) == ({
        "kind": "ValueError",
        "error": "not a cluster: rows 1 and 2 of cluster + cocluster fail "
        "pairwise-thick (Gram entry -5/3)",
    }, "")


def test_repeated_cluster_row_is_a_domain_error(capsys):
    argv = ["pack", "--config", "builtin:bi10-example", "--cluster", "1,1"]
    assert cli.run(argv) == 1
    assert one_json_error(capsys) == ({
        "kind": "ValueError",
        "error": "rows 1 and 2 of cluster + cocluster are the same wall",
    }, "")


def test_removed_max_order_option_is_a_usage_error(capsys):
    assert cli.run(["diagram", "--config", "builtin:d3n3", "--max-order", "12"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["check-integrality", "--config", "builtin:bi1-cluster3", "--cluster", "3",
          "--seed", "0", "--words", "-3"], "word_count must be nonnegative, got -3"),
        (["check-integrality", "--config", "builtin:bi1-cluster3", "--cluster", "3",
          "--seed", "0", "--word-length", "-2"], "word_length must be nonnegative, got -2"),
        (["growth-probe", "--config", "builtin:bi1-cluster3", "--word", "2..1"],
         "word must be dot-joined unsigned integers, got '2..1'"),
        (["growth-probe", "--config", "builtin:bi1-cluster3", "--word", "2.a"],
         "word must be dot-joined unsigned integers, got '2.a'"),
        # int() takes these, and the certificate would name the word 2.1 or 2.10
        (["growth-probe", "--config", "builtin:bi1-cluster3", "--word", "+2.1"],
         "word must be dot-joined unsigned integers, got '+2.1'"),
        (["growth-probe", "--config", "builtin:bi1-cluster3", "--word", " 2.1"],
         "word must be dot-joined unsigned integers, got ' 2.1'"),
        (["growth-probe", "--config", "builtin:bi1-cluster3", "--word", "2.1_0"],
         "word must be dot-joined unsigned integers, got '2.1_0'"),
        (["check-integrality", "--config", "builtin:bi1-cluster3", "--cluster", "3",
          "--seed", "0", "--words", "-1"], "word_count must be nonnegative, got -1"),
    ],
)
def test_negative_word_counts_and_malformed_words_are_domain_errors(capsys, argv, message):
    assert cli.run(argv) == 1
    assert one_json_error(capsys) == ({"kind": "ValueError", "error": message}, "")


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seeds_outside_the_stream_are_domain_errors(capsys, seed):
    message = "seed must be in 0 <= seed < 2**64, got %d" % seed
    want = ({"kind": "ValueError", "error": message}, "")
    argv = ["check-integrality", "--config", "builtin:bi1-cluster3", "--cluster", "3",
            "--seed", str(seed)]
    assert cli.run(argv) == 1
    assert one_json_error(capsys) == want
    # validate prints its catalog check lines first, as for --samples 0
    assert cli.run(["validate", "--config", "builtin:d1n3"]) == 0
    checks = capsys.readouterr().out
    assert cli.run(["validate", "--config", "builtin:d1n3", "--samples", "5", "--seed", str(seed)]) == 1
    assert one_json_error(capsys) == (want[0], checks)


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_seeds_at_the_stream_ends_are_taken(capsys, seed):
    argv = ["check-integrality", "--config", "builtin:bi1-cluster3", "--cluster", "3",
            "--seed", str(seed)]
    assert cli.run(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["bounded_rational"]["seed"] == seed and doc["bounded_rational"]["ok"]
    assert cli.run(["validate", "--config", "builtin:d1n3", "--samples", "5", "--seed", str(seed)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "ok empty-interior d1n3: 5 samples, seed %d, 0 exact checks" % seed
    )


@pytest.mark.parametrize("size", ["0", "-1"])
def test_clusters_refuse_max_size_below_one(capsys, size):
    # these printed nothing and exited 0, as if the entry had no cluster
    assert cli.run(["clusters", "--config", "builtin:d1n3", "--max-size", size]) == 1
    message = "max_size must be None or a positive int; got %s" % size
    assert one_json_error(capsys) == ({"kind": "ValueError", "error": message}, "")
    assert cli.run(["clusters", "--config", "builtin:d1n3", "--max-size", "1"]) == 0
    assert capsys.readouterr().out
