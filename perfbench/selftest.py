"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload at its tiny size and checks that the gate passes on
the timed requests and that the known failures fail exactly as pinned;
that a corrupted orbit TSV and a request that errors are both counted as
failed; that a known failure which crashes or changes its error is
incorrect; and that run.py exits with code 2, printing no result, where
there is no packinglab source.
Exits 0 when every check holds.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import source

SEED = 5


class Checks:
    def __init__(self):
        self.failed = 0

    def expect(self, ok, what):
        print("%s %s" % ("ok  " if ok else "FAIL", what))
        self.failed += not ok


def _corrupt(path):
    """Perturb the last coordinate of the second orbit circle."""
    lines = Path(path).read_text(encoding="utf-8").splitlines(keepends=True)
    lines[1] = lines[1].rstrip("\n")[:-1] + "+1)\n"
    Path(path).write_text("".join(lines), encoding="utf-8")


def _tiny_workloads(checks, harness, tmp):
    from workloads import TINY, WORKLOADS

    for workload in WORKLOADS.values():
        timed, known = harness.split_known(workload.requests(TINY))
        _, _, tally = harness.measure(timed, SEED, 0, tmp)
        known_tally = harness.run_known(known, SEED, tmp)
        checks.expect(
            tally.correct and tally.failed == 0 and known_tally.correct
            and known_tally.failed == known_tally.known == len(known),
            "%s (tiny): %d timed requests correct, %d/%d known failures fail as pinned"
            % (workload.name, len(timed), known_tally.known, len(known)),
        )


def _corrupted_tsv(checks, harness, tmp):
    from workloads import TINY, WORKLOADS

    pack, render = WORKLOADS["pack-planar"].requests(TINY)
    harness.clear(tmp)
    _, first = harness.run_job([pack], SEED, tmp)
    _corrupt(Path(tmp) / pack.out)
    _, second = harness.run_job([render], SEED, tmp)
    outcomes = [harness.collect(r, x, tmp) for r, x in zip((pack, render), first + second)]
    tally = harness.Tally()
    harness.judge_job(tally, [pack, render], outcomes, SEED, deep=True)
    checks.expect(
        not tally.correct and tally.failed == 2,
        "corrupted TSV: pack and render both failed (%d/%d)" % (tally.failed, tally.attempted),
    )
    problem = harness._check_orbit(pack, outcomes[0].text)
    checks.expect(
        problem is not None and "norm -1" in problem,
        "corrupted TSV: the exact norm check alone catches it (%s)" % problem,
    )


def _forced_error(checks, harness, tmp):
    from workloads import TINY, WORKLOADS, Request

    bad = Request(
        ("pack", "--config", "builtin:d3n13", "--cluster", "no-such-row", "--out", "{tmp}/bad.tsv"),
        out="bad.tsv",
    )
    requests = WORKLOADS["pack-wide"].requests(TINY) + (bad,)
    _, _, tally = harness.measure(requests, SEED, 0, tmp)
    checks.expect(
        not tally.correct and tally.failed == 1 and tally.problems[0][0] == bad.key,
        "forced error: counted as failed (%d/%d)" % (tally.failed, tally.attempted),
    )


def _judge_known_failures(checks, harness):
    from workloads import TINY, WORKLOADS

    pins = harness.load_pins()
    _, known = harness.split_known(WORKLOADS["catalog-sweep"].requests(TINY))
    req = next(r for r in known if r.command == "check-integrality")
    pin = pins[req.key]
    cases = (
        ("as pinned: known", harness.Outcome(pin["rc"], None, pin["error"]), harness.KNOWN),
        ("with new error text: incorrect", harness.Outcome(1, None, "a new message"), harness.BAD),
        ("crashing: incorrect", harness.Outcome(None, None, "Traceback ..."), harness.BAD),
        ("now giving a certificate: ok",
         harness.Outcome(0, '{"certificate": {"verdict": "inconclusive"}}', None), harness.OK),
    )
    for what, outcome, expected in cases:
        status, _ = harness.judge(req, outcome, pin, SEED, True)
        checks.expect(status == expected, "known failure " + what)


def _no_source(checks, tmp):
    bare = Path(tmp) / "bare"
    shutil.copytree(source.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(source.ROOT / "BENCHMARK.json", bare)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pack-wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    checks.expect(
        done.returncode == 2 and not done.stdout,
        "without src/: exit %d, %d bytes on stdout" % (done.returncode, len(done.stdout)),
    )


def main():
    if not source.use_checkout_source():
        sys.stderr.write("selftest: no packinglab source under %s\n" % source.SRC)
        return 2
    import harness

    checks = Checks()
    tmp_root = source.ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=tmp_root) as tmp:
        out = Path(tmp) / "out"
        out.mkdir()
        _tiny_workloads(checks, harness, out)
        _corrupted_tsv(checks, harness, out)
        _forced_error(checks, harness, out)
        _judge_known_failures(checks, harness)
        _no_source(checks, tmp)
    print("%d check(s) failed" % checks.failed if checks.failed else "all checks passed")
    return 1 if checks.failed else 0


if __name__ == "__main__":
    sys.exit(main())
