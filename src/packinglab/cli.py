"""Command-line front end.

Every subcommand is a thin pipeline over one module; all numeric output
is in the exact-number grammar (decimal floats only where the quantity
itself is a float, as in `lob`), so output diffs cleanly and can be
parsed back.  Exit codes: 0 success, 1 domain error (a one-line JSON
object on stderr; numbers past float range are one), 2 usage error.

Configurations are addressed as `builtin:<id>` or a path to a catalog
JSON file; the PACKINGLAB_CATALOG environment variable points builtin
lookup at a different directory.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import catalog, convert, coxeter, lobachevsky, polygraph
from .geometry import bend_matrices
from .groupwords import double
from .integrality import (
    certificate_to_json,
    check_bounded_rational,
    denominator_growth_probe,
    prove_integral,
    prove_nonintegral,
)
from .orbit import (
    OrbitLimits,
    export_tsv,
    generate_packing,
    generate_superpacking,
    parse_tsv,
    verify_empty_interior,
)
from .render import RenderOptions, render_svg, supercluster_circles

EPILOG = (
    "Configurations: builtin:<id> or a catalog JSON path.  Set "
    "PACKINGLAB_CATALOG to use a different builtin data directory."
)
# the OrbitLimits contract, for pack, super and render
MAX_BEND_HELP = (
    "keep the circles reached through circles with |bend| <= this; with a "
    "mirror of negative bend that can miss some orbit circles of |bend| <= "
    "it (negative disables the bound)"
)


def _load_entry(spec):
    if spec.startswith("builtin:"):
        return catalog.get_builtin(spec[len("builtin:") :])
    return catalog.load(spec)


def _load_config(spec):
    return _load_entry(spec).configuration


def _emit(text, out_path):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _labels_arg(text):
    labels = [part.strip() for part in text.split(",") if part.strip()]
    if not labels:
        raise argparse.ArgumentTypeError("expected a comma-separated label list")
    return labels


def _limits(args):
    max_bend = args.max_bend
    if max_bend is not None and max_bend < 0:
        max_bend = None
    return OrbitLimits(max_generation=args.generations, max_bend=max_bend)


def _wall_position(config, text):
    try:
        return config.position(text) + 1
    except KeyError:
        pass
    try:
        return int(text)
    except ValueError:
        raise KeyError("no row labeled %r" % (text,)) from None


# -- subcommands ------------------------------------------------------


def _cmd_validate(args):
    if args.samples is not None and args.seed is None:
        sys.stderr.write("packinglab validate: error: --samples requires --seed\n")
        return 2
    entry = _load_entry(args.config)
    report = catalog.validate(entry)
    for c in report.checks:
        print("%s %s %s: %s" % ("ok" if c.ok else "FAIL", c.kind, c.subject, c.detail))
    ok = report.ok
    if args.samples is not None:
        interior = verify_empty_interior(entry.configuration, args.samples, args.seed)
        print(
            "%s empty-interior %s: %d samples, seed %d, %d exact checks"
            % (
                "ok" if interior.verdict else "FAIL",
                entry.id,
                interior.sample_count,
                interior.seed,
                interior.exact_checks,
            )
        )
        if not interior.verdict:
            print("  interior point: (%s)" % ",".join(str(c) for c in interior.counterexample))
        ok = ok and interior.verdict
    if not ok:
        raise ValueError("validation failed for %s" % entry.id)
    return 0


def _cmd_gram(args):
    g = _load_entry(args.config).gram_matrix()
    lines = ["\t".join(str(e) for e in row) for row in g]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _edge_text(kind):
    if isinstance(kind, coxeter.Tangent):
        return "tangent" if kind.sign > 0 else "tangent(-)"
    if isinstance(kind, coxeter.Angle):
        return "angle pi/%d" % kind.order
    return "disjoint %s" % kind.separation


def _cmd_diagram(args):
    entry = _load_entry(args.config)
    config = entry.configuration
    diag = coxeter.diagram(entry.gram_matrix(), max_order=args.max_order)
    if args.dot:
        _emit(coxeter.export_dot(diag, labels=config.labels), args.out)
        return 0
    lines = []
    for (i, j), kind in sorted(diag.edges.items()):
        if isinstance(kind, coxeter.Orthogonal):
            continue
        lines.append(
            "%s %s %s" % (config.labels[i], config.labels[j], _edge_text(kind))
        )
    _emit("\n".join(lines) + ("\n" if lines else ""), args.out)
    return 0


def _cmd_clusters(args):
    entry = _load_entry(args.config)
    config = entry.configuration
    found = coxeter.enumerate_clusters(entry.gram_matrix(), max_size=args.max_size)
    lines = [
        "{%s}" % ",".join(config.labels[i] for i in subset) for subset in found
    ]
    _emit("\n".join(lines) + ("\n" if lines else ""), args.out)
    return 0


def _cmd_orbit(args):
    # pack or super; generate_packing is looked up when called, so a
    # replacement of the module attribute (a tracer's span) takes effect
    generate = generate_packing if args.command == "pack" else generate_superpacking
    config = _load_config(args.config)
    cluster, cocluster, _, _ = config.split(args.cluster)
    orbit = generate(cluster, cocluster, _limits(args))
    _emit(export_tsv(orbit), args.out)
    return 0


def _cmd_check_integrality(args):
    config = _load_config(args.config)
    _, cocluster, positions, rest = config.split(args.cluster)
    cert = prove_integral(
        config,
        [p + 1 for p in positions],
        [p + 1 for p in rest],
    )
    spot = check_bounded_rational(
        config,
        cocluster,
        word_count=args.words,
        word_length=args.word_length,
        seed=args.seed,
    )
    doc = {
        "certificate": json.loads(certificate_to_json(cert)),
        "bounded_rational": {
            "ok": spot.ok,
            "derived_bound": spot.derived_bound,
            "observed_max_denominator": spot.observed_max_denominator,
            "word_count": spot.word_count,
            "word_length": spot.word_length,
            "seed": spot.seed,
        },
    }
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def _cmd_prove_nonintegral(args):
    config = _load_config(args.config)
    # the loaded Configuration (its rows proved on load), or else the orbit
    # of all its walls, one generation deeper at a time, until there are two
    # more rows than columns or the depth runs out; long wall lists (d3n13
    # has 22 rows) must not pay for --depth generations up front
    rows, vectors = config, config.rows
    depth = 0
    while len(vectors) < config.dim_n + 4 and depth < args.depth:
        depth += 1
        orbit = generate_superpacking(config, (), OrbitLimits(depth, None))
        rows = vectors = [c.vector for c in orbit.circles]
    cert = prove_nonintegral(rows)
    _emit(certificate_to_json(cert) + "\n", args.out)
    return 0


def _cmd_growth_probe(args):
    config = _load_config(args.config)
    matrices = bend_matrices(config.rows, config.rows)
    word = [int(part) for part in args.word.split(".")]
    cert = denominator_growth_probe(matrices, word, iterations=args.iterations)
    _emit(certificate_to_json(cert) + "\n", args.out)
    return 0


def _cmd_double(args):
    entry = _load_entry(args.config)
    j = _wall_position(entry.configuration, args.wall)
    doubled = double(entry.configuration, j, enforce_parity=not args.force)
    new_entry = catalog.CatalogEntry(
        id=args.id or "%s-doubled-%s" % (entry.id, args.wall),
        configuration=doubled,
        gram=doubled.gram(),
        clusters=(),
        source="doubled across wall %s of %s" % (args.wall, entry.id),
    )
    _emit(catalog.to_json(new_entry), args.out)
    return 0


def _load_polyhedron(spec):
    if spec.startswith("builtin:"):
        return polygraph.builtin(spec[len("builtin:") :])
    with open(spec, encoding="utf-8") as fh:
        return polygraph.from_json(fh.read())


def _matching_arg(text):
    pairs = []
    for part in text.split(","):
        left, sep, right = part.partition(":")
        if not sep:
            raise argparse.ArgumentTypeError("matching pairs look like a:b,c:d")
        pairs.append((left.strip(), right.strip()))
    return tuple(pairs)


def _cmd_glue(args):
    a = _load_polyhedron(args.a)
    b = _load_polyhedron(args.b)
    if args.kind == "face":
        fa, fb = int(args.at_a), int(args.at_b)
        matching = args.matching or polygraph.face_equivalent(a, fa, b, fb)
        if matching is None:
            raise ValueError("faces are not equivalent; no matching exists")
        glued = polygraph.glue_face(a, fa, b, fb, matching, not args.force)
    else:
        matching = args.matching or polygraph.vertex_equivalent(a, args.at_a, b, args.at_b)
        if matching is None:
            raise ValueError("vertices are not equivalent; no matching exists")
        glued = polygraph.glue_vertex(a, args.at_a, b, args.at_b, matching, not args.force)
    v, e, f = glued.counts()
    print("%s: vertices=%d edges=%d faces=%d" % (glued.name, v, e, f))
    if args.out:
        _emit(polygraph.to_json(glued), args.out)
    return 0


def _cmd_convert(args):
    patches = None
    if args.patch_table:
        patches, _ = convert.load_patch_table(args.patch_table)
    elif args.no_patches:
        patches = {}
    items = convert.read_root_file(args.infile, patches)
    rows = convert.convert_all(items)
    lines = ["(%s)" % ",".join(str(q) for q in row) for row in rows]
    _emit("\n".join(lines) + ("\n" if lines else ""), args.out)
    return 0


def _viewport_arg(text):
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("viewport is xlo,xhi,ylo,yhi")
    try:
        x0, x1, y0, y1 = (Fraction(p.strip()) for p in parts)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError("viewport bounds must be rationals")
    return ((x0, x1), (y0, y1))


def _cmd_render(args):
    if (args.infile is None) == (args.config is None):
        raise ValueError("pass exactly one of --in or --config")
    cocluster_words = frozenset()
    if args.infile is not None:
        with open(args.infile, encoding="utf-8") as fh:
            circles = parse_tsv(fh.read())
    else:
        if not args.cluster:
            raise ValueError("--config rendering needs --cluster")
        config = _load_config(args.config)
        circles, cocluster_words = supercluster_circles(config, args.cluster, _limits(args))
    opts = RenderOptions(
        viewport=args.viewport,
        labels=args.labels,
        cocluster_words=cocluster_words,
        max_circles=args.max_circles,
    )
    _emit(render_svg(circles, opts), args.out)
    return 0


def _cmd_lob(args):
    if args.method == "series":
        value = lobachevsky.lobachevsky(args.theta, tol=args.tol)
    elif args.method == "quadrature":
        value = lobachevsky.lobachevsky_quadrature(args.theta, tol=args.tol)
    else:
        value = lobachevsky.lobachevsky_asymptotic(args.theta, terms=args.terms)
    print("%.15g" % value)
    return 0


def _cmd_catalog(args):
    if args.show:
        _emit(catalog.to_json(catalog.get_builtin(args.show)), args.out)
        return 0
    ids = catalog.list_builtin()
    _emit("\n".join(ids) + ("\n" if ids else ""), args.out)
    return 0


# -- wiring -----------------------------------------------------------


def _add_config(p):
    p.add_argument("--config", required=True, help="builtin:<id> or catalog JSON path")


def _add_out(p):
    p.add_argument("--out", help="write to this file instead of stdout")


def _add_orbit_args(p):
    p.add_argument("--cluster", required=True, type=_labels_arg, help="comma-separated row labels")
    p.add_argument("--generations", type=int, default=6)
    p.add_argument("--max-bend", type=int, default=10_000, help=MAX_BEND_HELP)


def _build_parser():
    parser = argparse.ArgumentParser(prog="packinglab", epilog=EPILOG)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="recheck a catalog entry", epilog=EPILOG)
    _add_config(p)
    p.add_argument("--samples", type=int, help="also sample the cluster interiors")
    p.add_argument("--seed", type=int, help="sampling seed (required with --samples)")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("gram", help="print the Gram matrix")
    _add_config(p)
    _add_out(p)
    p.set_defaults(func=_cmd_gram)

    p = sub.add_parser("diagram", help="classify all wall pairs")
    _add_config(p)
    _add_out(p)
    p.add_argument("--max-order", type=int, default=12)
    p.add_argument("--dot", action="store_true", help="emit Graphviz instead of text")
    p.set_defaults(func=_cmd_diagram)

    p = sub.add_parser("clusters", help="enumerate valid clusters")
    _add_config(p)
    _add_out(p)
    p.add_argument("--max-size", type=int)
    p.set_defaults(func=_cmd_clusters)

    p = sub.add_parser("pack", help="cluster orbit under cocluster reflections")
    _add_config(p)
    _add_orbit_args(p)
    _add_out(p)
    p.set_defaults(func=_cmd_orbit)

    p = sub.add_parser("super", help="cluster orbit under all reflections")
    _add_config(p)
    _add_orbit_args(p)
    _add_out(p)
    p.set_defaults(func=_cmd_orbit)

    p = sub.add_parser("check-integrality", help="integrality certificate for a cluster")
    _add_config(p)
    _add_out(p)
    p.add_argument("--cluster", required=True, type=_labels_arg)
    p.add_argument("--seed", type=int, required=True, help="seed for the spot check words")
    p.add_argument("--words", type=int, default=20)
    p.add_argument("--word-length", type=int, default=5)
    p.set_defaults(func=_cmd_check_integrality)

    p = sub.add_parser("prove-nonintegral", help="left-nullspace nonintegrality certificate")
    _add_config(p)
    _add_out(p)
    p.add_argument(
        "--depth", type=int, default=2,
        help="reflection depth for supplementing short wall lists",
    )
    p.set_defaults(func=_cmd_prove_nonintegral)

    p = sub.add_parser("growth-probe", help="denominator growth along a word")
    _add_config(p)
    _add_out(p)
    p.add_argument("--word", required=True, help="dot-joined 1-based row indices, e.g. 2.1")
    p.add_argument("--iterations", type=int, default=12)
    p.set_defaults(func=_cmd_growth_probe)

    p = sub.add_parser("double", help="double the configuration across a wall")
    _add_config(p)
    _add_out(p)
    p.add_argument("--wall", required=True, help="row label (or 1-based index)")
    p.add_argument("--id", help="id for the emitted entry")
    p.add_argument("--force", action="store_true", help="skip the parity check")
    p.set_defaults(func=_cmd_double)

    p = sub.add_parser("glue", help="glue two polyhedra at a face or vertex")
    p.add_argument("--kind", choices=("face", "vertex"), required=True)
    p.add_argument("--a", required=True, help="builtin:<name> or polyhedron JSON path")
    p.add_argument("--b", required=True)
    p.add_argument("--at-a", required=True, help="face index / vertex label on A")
    p.add_argument("--at-b", required=True, help="face index / vertex label on B")
    p.add_argument("--matching", type=_matching_arg, help="a:b,... vertex pairs (default: derived)")
    p.add_argument("--force", action="store_true", help="skip the equivalence check")
    p.add_argument("--out", help="also write the glued polyhedron JSON here")
    p.set_defaults(func=_cmd_glue)

    p = sub.add_parser("convert", help="convert external root tables to walls")
    p.add_argument("--in", dest="infile", required=True, help="JSON root file")
    p.add_argument("--patch-table", help="corrections table (default: shipped)")
    p.add_argument("--no-patches", action="store_true", help="apply no corrections")
    _add_out(p)
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("render", help="SVG figure from an orbit file or a configuration")
    p.add_argument("--in", dest="infile", help="orbit TSV (from pack/super)")
    p.add_argument("--config", help="render this entry's cluster orbit plus cocluster")
    p.add_argument("--cluster", type=_labels_arg, help="cluster labels for --config mode")
    p.add_argument("--generations", type=int, default=4)
    p.add_argument("--max-bend", type=int, default=10_000, help=MAX_BEND_HELP)
    p.add_argument("--labels", choices=("none", "bends", "labels"), default="none")
    p.add_argument("--viewport", type=_viewport_arg, help="xlo,xhi,ylo,yhi (rationals)")
    p.add_argument("--max-circles", type=int)
    _add_out(p)
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("lob", help="Lobachevsky function at an angle")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-9, help="series and quadrature methods")
    p.add_argument(
        "--method", choices=("series", "asymptotic", "quadrature"), default="series",
        help="series: reduced-angle expansion within --tol; quadrature: the "
        "independent check; asymptotic: unreduced expansion to --terms terms",
    )
    p.add_argument("--terms", type=int, default=12, help="asymptotic method only")
    p.set_defaults(func=_cmd_lob)

    p = sub.add_parser("catalog", help="list builtin entries or show one", epilog=EPILOG)
    p.add_argument("--show", metavar="ID", help="print this entry's JSON")
    _add_out(p)
    p.set_defaults(func=_cmd_catalog)

    return parser


@functools.cache
def _parser():
    # built on the first run, not at import, and reused: parse_args keeps
    # no state between calls
    return _build_parser()


def run(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, OverflowError) as e:
        message = e.args[0] if isinstance(e, KeyError) and e.args else str(e)
        sys.stderr.write(
            json.dumps({"kind": type(e).__name__, "error": str(message)}) + "\n"
        )
        return 1


def main(argv=None):
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
