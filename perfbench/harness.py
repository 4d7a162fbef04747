"""Run a workload's requests through the CLI and judge their outputs.

Requests run one at a time in this process through `packinglab.cli.run`
(a closed loop with one client), each job timed by a speed.Clock.
Judging happens after each job, outside the timed region: each output is
compared with its pin in pins.json, and the last job's outputs get the
deep checks (every orbit circle re-parsed and checked to have norm -1,
validate's interior point re-checked exactly).

A request fails when it produces no result or when its output fails the
gate.  Requests that failed when the benchmark was defined are pinned
with their error text; they are the workload's known failures.  They are
not part of the timed job: they run once after it (run_known), and fail
as pinned ("known"), succeed with a well-formed certificate, or count as
incorrect.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import hashlib
import io
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from packinglab import catalog, cli
from packinglab.geometry import interior_contains, is_wall
from packinglab.integrality import VERDICTS
from packinglab.orbit import parse_tsv

from source import ROOT, SRC
from speed import Clock

HERE = Path(__file__).resolve().parent
PINS_PATH = HERE / "pins.json"

OK, KNOWN, BAD = "ok", "known", "bad"

# `lob` prints floats; a pinned value is within the CLI's default
# tolerance (1e-9) of the true one, so two correct evaluations agree
# within twice that.  Digits beyond are free to change with the method.
LOB_TOLERANCE = 2e-9

_VALIDATE_INTERIOR = re.compile(
    r"^(ok|FAIL) empty-interior (\S+): (\d+) samples, seed (-?\d+), (\d+) exact checks$"
)
_INTERIOR_POINT = re.compile(r"^  interior point: \((.*)\)$")


@dataclass
class Outcome:
    rc: int | None  # None: the CLI raised instead of returning
    text: str | None  # the output file, or stdout; None when absent
    error: str | None  # the CLI's error text, if it reported one


def run_job(requests, seed, tmp):
    """Run the requests in order; return the job's speed.Clock and the
    raw results."""
    raw = []
    with Clock() as clock:
        for req in requests:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = cli.run(req.bind(seed, tmp))
                except Exception:  # a crash is a failed request, not a dead benchmark
                    rc = None
                    err.write(traceback.format_exc())
            raw.append((rc, out.getvalue(), err.getvalue()))
    return clock, raw


def _error_text(stderr):
    lines = stderr.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])["error"]
    except (ValueError, KeyError, TypeError):
        return stderr.strip()


def collect(req, raw, tmp):
    rc, stdout, stderr = raw
    if req.out is None:
        text = stdout if stdout else None
    else:
        path = Path(tmp) / req.out
        text = path.read_text(encoding="utf-8") if path.is_file() else None
    return Outcome(rc, text, _error_text(stderr))


def clear(tmp):
    for p in Path(tmp).iterdir():
        p.unlink()


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(requests, seed, seconds, tmp):
    """Repeat the job while the next one still fits in `seconds` (at
    least once).

    Each job is judged as soon as it ends, outside the timed region, and
    only the last job's outputs are kept for the deep checks.  Returns
    each job's speed.Clock, the peak RSS in MB through set-up and the
    first job (so it does not depend on how many jobs fit), and the tally.
    """
    tally = Tally()
    clocks, peak_mb, last = [], None, None
    start = time.perf_counter()
    while True:
        clear(tmp)
        gc.collect()
        clock, raw = run_job(requests, seed, tmp)
        if peak_mb is None:
            peak_mb = peak_rss_mb()
        clocks.append(clock)
        if last is not None:
            judge_job(tally, requests, last, seed, deep=False)
        last = [collect(r, x, tmp) for r, x in zip(requests, raw)]
        if time.perf_counter() - start + statistics.median(c.wall for c in clocks) > seconds:
            judge_job(tally, requests, last, seed, deep=True)
            return clocks, peak_mb, tally


def run_known(requests, seed, tmp):
    """Run the known failures once, untimed, and judge them."""
    clear(tmp)
    _, raw = run_job(requests, seed, tmp)
    tally = Tally()
    judge_job(tally, requests, [collect(r, x, tmp) for r, x in zip(requests, raw)], seed, deep=True)
    return tally


# -- the gate ---------------------------------------------------------


@functools.cache
def load_pins():
    with open(PINS_PATH, encoding="utf-8") as fh:
        return json.load(fh)["requests"]


def split_known(requests):
    """(timed, known): the requests pinned with an error are the known
    failures, which run after the timed job."""
    pins = load_pins()
    known = tuple(r for r in requests if r.key in pins and "error" in pins[r.key])
    return tuple(r for r in requests if r not in known), known


def normalized(command, text):
    """The output without the parts the seed changes; those are checked
    on their own in _check_seeded."""
    if command == "validate":
        return "".join(
            line for line in text.splitlines(keepends=True)
            if not (_VALIDATE_INTERIOR.match(line.rstrip("\n"))
                    or _INTERIOR_POINT.match(line.rstrip("\n")))
        )
    if command == "check-integrality":
        doc = json.loads(text)
        del doc["bounded_rational"]["seed"]
        del doc["bounded_rational"]["observed_max_denominator"]
        return json.dumps(doc, sort_keys=True)
    return text


def digest(command, text):
    return hashlib.sha256(normalized(command, text).encode("utf-8")).hexdigest()


def _check_orbit(req, text):
    circles = parse_tsv(text)
    counts = [0] * (max((c.generation for c in circles), default=-1) + 1)
    for c in circles:
        counts[c.generation] += 1
    if tuple(counts) != req.counts:
        return "circles per generation %s, expected %s" % (counts, list(req.counts))
    off = sum(1 for c in circles if not is_wall(c.vector))
    if off:
        return "%d orbit circles do not have norm -1" % off
    return None


def _check_seeded(req, text, pin, seed, deep):
    if req.command == "check-integrality":
        spot = json.loads(text)["bounded_rational"]
        if spot["seed"] != seed:
            return "spot check ran with seed %r" % spot["seed"]
        if not (spot["ok"] and spot["observed_max_denominator"] <= spot["derived_bound"]):
            return "spot check denominator exceeds its bound"
        return None
    lines = text.splitlines()
    found = [m for m in map(_VALIDATE_INTERIOR.match, lines) if m]
    if len(found) != 1:
        return "expected one empty-interior line"
    verdict, entry_id, samples, used_seed, _ = found[0].groups()
    if (entry_id, samples, int(used_seed)) != (req.entry_id, req.option("--samples"), seed):
        return "empty-interior line does not match the request"
    if verdict != pin["interior"]:
        return "empty-interior verdict %s, pinned %s" % (verdict, pin["interior"])
    if verdict == "FAIL" and deep:
        points = [m for m in map(_INTERIOR_POINT.match, lines) if m]
        point = tuple(Fraction(x) for x in points[0].group(1).split(","))
        rows = catalog.get_builtin(entry_id).configuration.rows
        if not all(interior_contains(r, point) for r in rows):
            return "reported interior point is not interior to every wall"
    return None


def _check_result(req, text, pin, seed, deep):
    if req.command == "lob":
        value = float(text)
        if abs(value - pin["value"]) > LOB_TOLERANCE:
            return "L = %r, pinned %r" % (value, pin["value"])
        return None
    if digest(req.command, text) != pin["sha256"]:
        return "sha256 differs from the pin"
    if req.command in ("validate", "check-integrality"):
        return _check_seeded(req, text, pin, seed, deep)
    if req.counts is not None and deep:
        return _check_orbit(req, text)
    return None


def _check_new_result(req, text):
    """A pinned failure that now succeeds: its output cannot be pinned,
    so check that it is a well-formed certificate."""
    if text is None:
        return "exit 0 without output"
    doc = json.loads(text)
    if req.command == "check-integrality":
        doc = doc["certificate"]
    if doc.get("verdict") not in VERDICTS:
        return "output is not a certificate"
    return None


def _judge_known(req, outcome, pin):
    if outcome.rc == 0:
        problem = _check_new_result(req, outcome.text)
        return (BAD, problem) if problem else (OK, "pinned failure now succeeds")
    if outcome.rc != pin["rc"] or outcome.error != pin["error"]:
        return BAD, "exit %s, error %r; pinned exit %s, error %r" % (
            outcome.rc, outcome.error, pin["rc"], pin["error"])
    return KNOWN, None


def judge(req, outcome, pin, seed, deep):
    """(status, note) of one request's outcome against its pin."""
    if pin is None:
        return BAD, "no pin for this request"
    try:
        if "error" in pin:
            return _judge_known(req, outcome, pin)
        if outcome.rc != pin["rc"] or outcome.text is None:
            return BAD, "exit %s, error %r" % (outcome.rc, outcome.error)
        problem = _check_result(req, outcome.text, pin, seed, deep)
    except (ValueError, KeyError, TypeError, IndexError) as e:
        problem = "unreadable output (%s: %s)" % (type(e).__name__, e)
    return (BAD, problem) if problem else (OK, None)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    known: int = 0
    failed_commands: Counter = field(default_factory=Counter)
    problems: list = field(default_factory=list)  # (key, note): incorrect
    notes: list = field(default_factory=list)  # (key, note): worth a look

    @property
    def correct(self):
        return not self.problems


def judge_job(tally, requests, outcomes, seed, deep):
    """Add one job's outcomes to the tally.  The deep checks run on the
    last job only; earlier jobs must match the same digests."""
    pins = load_pins()
    for req, outcome in zip(requests, outcomes):
        status, note = judge(req, outcome, pins.get(req.key), seed, deep)
        tally.attempted += 1
        if status != OK:
            tally.failed += 1
            tally.failed_commands[req.command] += 1
        if status == KNOWN:
            tally.known += 1
        if status == BAD:
            tally.problems.append((req.key, note))
        elif note and deep:
            tally.notes.append((req.key, note))


# -- set-up and environment -------------------------------------------


def setup_runs(entries, count, importtime=False):
    """Run the set-up probe `count` times, each in a fresh interpreter.

    With importtime, each probe also reports the cumulative seconds
    spent importing packinglab.lobachevsky (0 if set-up never imports it).
    """
    cmd = [sys.executable]
    if importtime:
        cmd += ["-X", "importtime"]
    cmd += [str(HERE / "setup_probe.py"), *entries]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # an installed package imports from cached bytecode, so let the probes
    # write and use it whatever the caller's environment says
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    out = []
    for _ in range(count):
        done = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True
        )
        sample = json.loads(done.stdout.strip().splitlines()[-1])
        if importtime:
            sample["lobachevsky_import_s"] = _import_seconds(done.stderr, "packinglab.lobachevsky")
        out.append(sample)
    return out


def _import_seconds(importtime_log, module):
    # lines look like "import time:   self [us] | cumulative | name"
    for line in importtime_log.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == module:
            return int(parts[1]) / 1e6
    return 0.0


def _git_revision():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _source_digest():
    h = hashlib.sha256()
    for p in sorted((SRC / "packinglab").rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(str(p.relative_to(SRC)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform

    return platform.processor() or None


def _version(dist):
    from importlib import metadata

    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def environment(workload, seed):
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": sys.version.split()[0],
        "mpmath": _version("mpmath"),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_revision": _git_revision(),
        "source_sha256": _source_digest(),
    }
