"""Record pins.json: what every request of every workload outputs.

    python3 perfbench/make_pins.py

Runs each workload once at both sizes, at seed 0, and pins, per request key, the
exit code and the SHA-256 of the output with its seeded parts removed
(see harness.normalized), the float printed by `lob`, or the error text
of a request that fails.  Re-run it only on purpose: the pins are the
benchmark's definition of a correct output.
"""

from __future__ import annotations

import json
import sys
import tempfile

import source


def pin(req, outcome, harness):
    if outcome.rc != 0 and outcome.text is None:
        return {"rc": outcome.rc, "error": outcome.error}
    if req.command == "lob":
        return {"rc": outcome.rc, "value": float(outcome.text)}
    entry = {"rc": outcome.rc, "sha256": harness.digest(req.command, outcome.text)}
    if req.command == "validate":
        line = next(m for m in map(harness._VALIDATE_INTERIOR.match, outcome.text.splitlines()) if m)
        entry["interior"] = line.group(1)
    return entry


SEED = 0  # the seeded parts of an output are not pinned (harness.normalized)


def main():
    if not source.use_checkout_source():
        sys.stderr.write("make_pins: no packinglab source under %s\n" % source.SRC)
        return 2
    import harness
    from workloads import FULL, TINY, WORKLOADS

    pins = {}
    tmp_root = source.ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=tmp_root) as tmp:
        for workload in WORKLOADS.values():
            for size in (FULL, TINY):
                requests = workload.requests(size)
                harness.clear(tmp)
                _, raw = harness.run_job(requests, SEED, tmp)
                for req, r in zip(requests, raw):
                    pins[req.key] = pin(req, harness.collect(req, r, tmp), harness)
    failing = sum(1 for p in pins.values() if "error" in p)
    with open(harness.PINS_PATH, "w", encoding="utf-8", newline="\n") as fh:
        json.dump({"seed": SEED, "requests": pins}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("pinned %d requests (%d failing) at seed %d" % (len(pins), failing, SEED))
    return 0


if __name__ == "__main__":
    sys.exit(main())
