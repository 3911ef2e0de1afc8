#!/usr/bin/env python3
"""Write reference.json: each workload's claim reports at the reference seed.

    python3 perfbench/make_reference.py

run.py compares a run at the reference seed against these reports.  Write
them again only when a change means to alter the program's results, and
say so in that change.
"""

from __future__ import annotations

import json
import os
import sys

from run import HERE, SRC, worker
from workloads import REFERENCE_SEED, WORKLOADS


def main():
    if not os.path.isdir(os.path.join(SRC, "umbral_flow")):
        sys.exit(f"no package source at {SRC}/umbral_flow")
    out = {"seed": REFERENCE_SEED, "workloads": {}}
    for w in WORKLOADS.values():
        run = worker("pass", "--workload", w.name, "--seed", REFERENCE_SEED)
        raised = [c["name"] for c in run["claims"] if "error" in c]
        if raised:
            sys.exit(f"{w.name}: claims raised at the reference seed: "
                     f"{raised}")
        out["workloads"][w.name] = {c["name"]: c["report"]
                                    for c in run["claims"]}
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
