"""Benchmark of the packinglab CLI on its shipped data.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from the
checkout's src/ and nowhere else (without it the run exits with code 2).
One run is one process serving one request at a time (a closed loop with
a single client, no threads).  The last line of stdout is the result:
{"correct", "attempted", "failed", "metrics"}; the lines above it give
the environment, the spread of the job times and the failure ratio.

Workloads (see BENCHMARK.json for why each exists):
  pack-planar    pack bi10-example {1,7} to 7 generations, then render it
  pack-wide      pack d3n13 {34} to 4 generations (n = 12)
  catalog-sweep  validate, gram, diagram, clusters, prove-nonintegral and
                 growth-probe on every builtin entry, check-integrality on
                 every listed cluster, and lob with each method

Requests pinned in pins.json with an error are the workload's known
failures (catalog-sweep has 47).  They are not timed: they run once after
the timed jobs, must fail exactly as pinned (or succeed with a
well-formed certificate), and are reported on their own line.

--trace 0 measures the end-to-end metrics with tracing off:
  setup_s      median over fresh interpreters of importing packinglab.cli
               and loading the workload's catalog entries
  job_s        median over the jobs that fit in --seconds of the time the
               workload's timed requests take
  peak_rss_mb  peak resident set of this process through set-up and the
               first job
setup_s and job_s are seconds normalised to a fixed host speed
(speed.py): on a shared 2-core VM other tenants change the speed of the
same code by up to 2x within seconds, in CPU time as much as in wall
time, so plain seconds spread 0.13 to 0.34 (quartile distance over
median) across ten runs where normalised ones spread about 0.05.  The
plain wall seconds are printed above the result.
The failure ratio of the timed requests (failed / attempted) is printed
above the result; its parts are the result's `failed` and `attempted`.

--trace 1 runs untraced jobs for half of --seconds, then the job once
more with the public functions the CLI calls wrapped in spans
(tracing.py), and reports the per-layer metrics in wall seconds.  The
tracing overhead is the traced job's normalised time minus the untraced
median.  Spans are written to
.perfbench_out/ in the checkout.
Run perfbench/selftest.py to test the harness itself.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import tempfile

import source

SETUP_RUNS = 5
INTEGRALITY_COMMANDS = ("check-integrality", "growth-probe", "prove-nonintegral")


def _result(metrics, units, tally):
    return {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def _untraced(harness, workload, timed, args, tmp):
    probes = harness.setup_runs(workload.entries, SETUP_RUNS)
    setups = [p["setup_s"] for p in probes]
    clocks, peak_mb, tally = harness.measure(timed, args.seed, args.seconds, tmp)
    print("set-up: %d fresh interpreters, normalised seconds %s" % (len(setups), _spread(setups)))
    print("set-up: wall seconds %s" % _spread(p["wall_s"] for p in probes))
    _print_jobs("jobs", timed, clocks)
    metrics = {
        "setup_s": statistics.median(setups),
        "job_s": statistics.median(c.seconds for c in clocks),
        "peak_rss_mb": peak_mb,
    }
    return metrics, tally, None


def _traced(harness, workload, timed, args, tmp):
    import tracing

    setups = harness.setup_runs(workload.entries, SETUP_RUNS, importtime=True)
    clocks, _, tally = harness.measure(timed, args.seed, args.seconds / 2, tmp)
    _print_jobs("untraced jobs", timed, clocks)
    job_s = statistics.median(c.seconds for c in clocks)

    harness.clear(tmp)
    gc.collect()
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        clock, raw = harness.run_job(timed, args.seed, tmp)
    outcomes = [harness.collect(r, x, tmp) for r, x in zip(timed, raw)]
    harness.judge_job(tally, timed, outcomes, args.seed, deep=True)

    metrics = tracing.layer_metrics(tracer, job_s, clock.seconds)
    metrics.update(tracing.micro_timings(tracer, args.seed))
    metrics["cli.import_s"] = statistics.median(s["import_s"] for s in setups)
    metrics["lobachevsky.import_s"] = statistics.median(s["lobachevsky_import_s"] for s in setups)
    print("traced job: normalised seconds %.4f, wall seconds %.4f" % (clock.seconds, clock.wall))
    return metrics, tally, tracer.spans


def _print_jobs(what, timed, clocks):
    print("%s: %d of %d requests, normalised seconds %s" % (
        what, len(clocks), len(timed), _spread(c.seconds for c in clocks)))
    print("%s: wall seconds %s" % (what, _spread(c.wall for c in clocks)))


def _spread(values):
    values = list(values)
    return "median %.4f, min %.4f of %s" % (
        statistics.median(values), min(values), " ".join("%.4f" % v for v in values)
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description="packinglab benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = source.ROOT / "BENCHMARK.json"
    if not spec_path.is_file() or not source.use_checkout_source():
        sys.stderr.write("perfbench: needs BENCHMARK.json and src/packinglab in %s\n" % source.ROOT)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    import harness
    from workloads import FULL, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error("unknown workload %r; choose from %s" % (args.workload, ", ".join(WORKLOADS)))
    workload = WORKLOADS[args.workload]
    timed, known = harness.split_known(workload.requests(FULL))
    env = harness.environment(workload.name, args.seed)
    print("environment: " + json.dumps(env))
    print("the seed varies: " + workload.seed_varies)

    tmp_root = source.ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=tmp_root) as tmp:
        run = _traced if args.trace else _untraced
        metrics, tally, spans = run(harness, workload, timed, args, tmp)
        known_tally = harness.run_known(known, args.seed, tmp)
    tally.problems += known_tally.problems
    tally.notes += known_tally.notes
    metrics["integrality.errors"] = sum(
        known_tally.failed_commands[c] for c in INTEGRALITY_COMMANDS
    )

    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError("metrics not measured: %s" % ", ".join(missing))
    for key, note in tally.problems:
        print("INCORRECT %s: %s" % (key, note))
    for key, note in tally.notes:
        print("note %s: %s" % (key, note))
    print("fail_ratio %d/%d = %.4f ratio of the timed requests"
          % (tally.failed, tally.attempted, tally.failed / tally.attempted))
    if known:
        whole = len(timed) + len(known)
        print("known failures: %d/%d = %.4f ratio of the workload's requests, run once after "
              "the timed jobs; %d of %d fail as pinned"
              % (known_tally.failed, whole, known_tally.failed / whole, known_tally.known, len(known)))
    for name, unit in units.items():
        print("%s %r %s" % (name, metrics[name], unit))
    result = _result(metrics, units, tally)
    if spans is not None:
        out_dir = source.ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / ("spans-%s-seed%d.json" % (workload.name, args.seed))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"environment": env, "result": result, "spans": spans}, fh)
        print("spans: %s" % path.relative_to(source.ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
