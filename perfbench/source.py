"""Locate the packinglab source of the checkout the benchmark sits in."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_source():
    """Import packinglab from the checkout's src/; False when there is none.

    The benchmark never falls back to an installed copy: it measures the
    source next to it or nothing.
    """
    if not (SRC / "packinglab" / "cli.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    import packinglab

    if Path(packinglab.__file__).resolve().parent != SRC / "packinglab":
        raise RuntimeError("packinglab was imported from %s" % packinglab.__file__)
    return True
