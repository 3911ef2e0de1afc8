"""The metrics the benchmark reports, as BENCHMARK.json at the root of the
checkout lists them: the one place their names and units are kept.

Every metric is measured in a base unit (seconds for times) and reported in
the unit listed for it; ``scale`` gives the factor.
"""

from __future__ import annotations

import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    _SPEC = json.load(_fh)

#: (name, unit) of every end-to-end metric, printed with --trace 0
END_TO_END = tuple((m["name"], m["unit"]) for m in _SPEC["end_to_end"])
#: (name, unit) of every per-layer metric, printed with --trace 1
PER_LAYER = tuple((m["name"], m["unit"]) for m in _SPEC["per_layer"])

_TIME_UNITS = {"s": 1, "ms": 1e3, "us": 1e6}


def scale(unit: str):
    """Factor from a metric's base unit to ``unit`` (counts stay whole)."""
    return _TIME_UNITS.get(unit, 1)
