"""One cold set-up: import packinglab.cli, then load catalog entries.

Run as `python3 perfbench/setup_probe.py <entry id>...` with the
checkout's src/ on PYTHONPATH.  Prints one JSON object with the seconds
spent importing and loading, normalised to a fixed host speed (speed.py),
and the plain wall time.  The interpreter's own start and the import of
speed.py (signal and math) are excluded.
"""

import json
import sys

from speed import Clock

with Clock() as clock:
    import packinglab.cli  # noqa: F401

    import_s = clock.read()
    from packinglab import catalog

    for entry_id in sys.argv[1:]:
        catalog.get_builtin(entry_id)

print(json.dumps({
    "import_s": import_s,
    "setup_s": clock.seconds,
    "wall_s": clock.wall,
}))
