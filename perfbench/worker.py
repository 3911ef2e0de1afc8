#!/usr/bin/env python3
"""One fresh process of the benchmark.

    worker.py pass    --workload W --seed N
    worker.py trace   --workload W --seed N [--spans FILE]
    worker.py kernels --seed N

``pass`` builds the field tables and a CarlitzCtx (set-up), then runs the
workload's claims once, one after another, as ``umbral-flow verify`` does,
with the reference loop (refloop.py) timed by a probe while they run.
``trace`` does the same with every traced function wrapped (see
layertrace.py) and without the probe.
``kernels`` times the fixed-size layer kernels.  run.py starts this script
with the checkout's ``src`` on PYTHONPATH; the last stdout line is one JSON
object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import umbral_flow
from umbral_flow.config import Config
from umbral_flow.verify import run_claim

import refloop
import spec
from workloads import REFERENCE_SEED, WORKLOADS

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def run_claims(workload, seed, tracer=None):
    cfg = Config(**workload.config_kwargs(seed))
    # known failures run at the reference seed, so that they fail the same
    # way in every pass and their whole report can be checked
    known_cfg = Config(**workload.config_kwargs(REFERENCE_SEED))
    cfg.carlitz_ctx()  # set-up: field tables, paid before the clock starts
    probe = refloop.Probe()
    if tracer is None:
        probe.start()
    claims = []
    for name in workload.claims:
        claim_cfg = known_cfg if name in workload.known_failures else cfg
        t0 = time.perf_counter()
        try:
            if tracer is None:
                entry = {"report": run_claim(name, claim_cfg).to_json()}
            else:
                with tracer.span(f"verify.{name}"):
                    entry = {"report": run_claim(name, claim_cfg).to_json()}
        except Exception as e:  # a claim that raises is a failed claim
            entry = {"error": f"{type(e).__name__}: {e}"}
        entry.update(name=name, seed=claim_cfg.seed,
                     span=(t0, time.perf_counter()))
        claims.append(entry)
    out = {"seed": seed, "claims": claims,
           "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is None:
        probe.stop()
        for c in claims:
            c["s"], c["ref"] = probe.measure(*c.pop("span"))
        out["wall_ref"] = sum(c["ref"] for c in claims)
    else:
        for c in claims:
            t0, t1 = c.pop("span")
            c["s"] = t1 - t0
    out["wall_s"] = sum(c["s"] for c in claims)
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("pass", "trace", "kernels"))
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spans")
    args = ap.parse_args()
    here = os.path.dirname(os.path.abspath(umbral_flow.__file__))
    if here != os.path.join(SRC, "umbral_flow"):
        sys.exit(f"umbral_flow imported from {here}, not from {SRC}")

    if args.mode == "kernels":
        from kernels import run_kernels
        out = run_kernels(args.seed)
    elif args.mode == "pass":
        out = run_claims(WORKLOADS[args.workload], args.seed)
    else:
        from layertrace import Tracer
        tracer = Tracer()
        tracer.install()
        out = run_claims(WORKLOADS[args.workload], args.seed, tracer)
        out["layers"] = tracer.metrics(name for name, _ in spec.PER_LAYER)
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
