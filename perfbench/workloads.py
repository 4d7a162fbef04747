"""The benchmark's workloads, each a fixed sequence of CLI requests.

A request is an argv template for `packinglab.cli.run`: "{seed}" becomes
the workload seed and "{tmp}" the run's temporary output directory.  The
template joined by spaces is the request's key in pins.json.  Every
request uses the CLI's default knobs; no request passes --threads.
"""

from __future__ import annotations

from dataclasses import dataclass

FULL = "full"
TINY = "tiny"  # the harness self-test's size

# Circles per generation, generation 0 first.
PACK_PLANAR_COUNTS = (2, 6, 24, 96, 351, 1143, 3281, 8364)
PACK_WIDE_COUNTS = (1, 8, 64, 522, 4244)

PLANAR_GENERATIONS = {FULL: 7, TINY: 3}
WIDE_GENERATIONS = {FULL: 4, TINY: 2}
VALIDATE_SAMPLES = {FULL: 2000, TINY: 50}

# The builtin catalog and its listed clusters as they stood when the
# benchmark was defined; fixed here so that new data does not change
# the workload.
CATALOG_CLUSTERS = {
    "bi1-cluster3": ("3",),
    "bi10-example": (
        "1", "3", "4", "7", "8", "9", "1,7", "1,8", "1,9", "3,4", "3,7", "3,8",
        "3,9", "4,7", "4,8", "4,9", "8,9", "1,8,9", "3,4,7", "3,4,8", "3,4,9",
        "3,8,9", "4,8,9", "3,4,8,9",
    ),
    "bi17-cluster48": (),
    "d1n3": ("4", "3.4"),
    "d1n3-base": (),
    "d3n10": (),
    "d3n11": ("23", "26"),
    "d3n13": ("34",),
    "d3n3": ("6", "8", "10", "11"),
    "d3n5": ("7", "5.7"),
    "d3n6": (),
    "d3n7": (),
    "d3n8": (),
}

# Angles (radians) for the `lob` requests, per method.  The asymptotic
# expansion is only accurate for small angles.
LOB_THETAS = {
    "series": ("0.3", "1.0471975511965976", "2.5"),
    "quadrature": ("0.3", "1.0471975511965976", "2.5"),
    "asymptotic": ("0.05", "0.2", "0.4"),
}


@dataclass(frozen=True)
class Request:
    argv: tuple
    out: str | None = None  # file the request writes under {tmp}; None: stdout
    counts: tuple | None = None  # circles per generation of an orbit TSV

    @property
    def key(self):
        return " ".join(self.argv)

    @property
    def command(self):
        return self.argv[0]

    def option(self, name):
        """Value of an argv option (as in the template), or None."""
        if name in self.argv:
            return self.argv[self.argv.index(name) + 1]
        return None

    @property
    def entry_id(self):
        spec = self.option("--config")
        return None if spec is None else spec[len("builtin:"):]

    def bind(self, seed, tmp):
        return [a.format(seed=seed, tmp=tmp) for a in self.argv]


def _out(cmd, name, *args):
    path = "{tmp}/" + name
    return Request((cmd,) + args + ("--out", path), out=name)


def pack_planar(size):
    g = PLANAR_GENERATIONS[size]
    # file names carry the size, so that request keys differ by size
    tsv = "planar-g%d.tsv" % g
    pack = Request(
        ("pack", "--config", "builtin:bi10-example", "--cluster", "1,7",
         "--generations", str(g), "--out", "{tmp}/" + tsv),
        out=tsv,
        counts=PACK_PLANAR_COUNTS[: g + 1],
    )
    render = _out("render", "planar-g%d.svg" % g, "--in", "{tmp}/" + tsv)
    return (pack, render)


def pack_wide(size):
    g = WIDE_GENERATIONS[size]
    tsv = "wide-g%d.tsv" % g
    return (
        Request(
            ("pack", "--config", "builtin:d3n13", "--cluster", "34",
             "--generations", str(g), "--out", "{tmp}/" + tsv),
            out=tsv,
            counts=PACK_WIDE_COUNTS[: g + 1],
        ),
    )


def catalog_sweep(size):
    samples = str(VALIDATE_SAMPLES[size])
    reqs = []
    for entry_id, clusters in CATALOG_CLUSTERS.items():
        c = "builtin:" + entry_id
        reqs.append(Request(("validate", "--config", c, "--samples", samples, "--seed", "{seed}")))
        reqs.append(_out("gram", "gram-%s.tsv" % entry_id, "--config", c))
        reqs.append(_out("diagram", "diagram-%s.txt" % entry_id, "--config", c))
        reqs.append(_out("clusters", "clusters-%s.txt" % entry_id, "--config", c))
        reqs.append(_out("prove-nonintegral", "nonintegral-%s.json" % entry_id, "--config", c))
        reqs.append(_out("growth-probe", "growth-%s.json" % entry_id, "--config", c, "--word", "2.1"))
    for entry_id, clusters in CATALOG_CLUSTERS.items():
        for cluster in clusters:
            reqs.append(_out(
                "check-integrality", "integrality-%s-%s.json" % (entry_id, cluster),
                "--config", "builtin:" + entry_id, "--cluster", cluster, "--seed", "{seed}",
            ))
    for method, thetas in LOB_THETAS.items():
        for theta in thetas:
            reqs.append(Request(("lob", "--theta", theta, "--method", method)))
    return tuple(reqs)


@dataclass(frozen=True)
class Workload:
    name: str
    requests: object  # size -> tuple of Request
    entries: tuple  # catalog entries the workload's set-up loads
    seed_varies: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "pack-planar", pack_planar, ("bi10-example",),
            "nothing in the requests (their outputs are pinned); in the traced "
            "run, which orbit values the micro-timings sample",
        ),
        Workload(
            "pack-wide", pack_wide, ("d3n13",),
            "nothing in the requests (their outputs are pinned); in the traced "
            "run, which orbit values the micro-timings sample",
        ),
        Workload(
            "catalog-sweep", catalog_sweep, tuple(CATALOG_CLUSTERS),
            "the validate sample points and the check-integrality spot-check "
            "words; in the traced run, which values the micro-timings sample",
        ),
    )
}
