#!/usr/bin/env python3
"""The umbral-flow benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from the root of a checkout; the package is imported from its ``src``.

``--trace 0`` measures the end-to-end metrics: set-up time from a batch of
fresh interpreters, then, for about S seconds, passes over the workload's
claims, each pass in a fresh single-threaded process (a closed loop with
one caller).  ``--trace 1`` runs untraced and traced passes in turn, then
the fixed-size kernels, and reports the per-layer metrics.  Both check every
claim's result (see ``judge``) and print, as the last stdout line, one JSON
object with the keys correct, attempted, failed and metrics.  A summary
for people goes to stderr.  ``--workload all`` runs every workload with
``--trace 0`` and prints only the summaries.  The metrics printed are the
ones BENCHMARK.json lists (see spec.py).  The exit code is 1 when the
verdict is not correct.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import refloop
import spec
from workloads import ALL_CLAIMS, REFERENCE_SEED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPANS_DIR = os.path.join(HERE, "out")

SETUP_SAMPLES = 30  # before the first pass; one more follows each pass
MIN_PASSES = 3
TRACE_PAIRS = 3
CHILD_TIMEOUT_S = 170
# pass i of a run at seed n runs its claims at seed n * PASS_SEED_STRIDE + i:
# a run's median then spans several inputs, so runs at different seeds
# differ less than single inputs do
PASS_SEED_STRIDE = 1000

# printed on stderr next to the metrics of spec.END_TO_END: the times that
# wall_ref, trials_per_ref and setup_s count in reference-loop units, in
# seconds (wall_s less the probe's runs, see refloop.Probe)
IN_SECONDS = (("wall_s", "s"), ("trials_per_s", "1/s"), ("setup_raw_s", "s"))


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    # every pass runs at the package's default Carlitz enumeration cap, as
    # reference.json was made
    env.pop("UMBRAL_FLOW_CAP", None)
    # byte-compiled modules are cached as they are for an installed package
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(argv):
    """Run a fresh interpreter to completion; its last stdout line is JSON."""
    proc = subprocess.run([sys.executable] + argv, cwd=ROOT, env=child_env(),
                          stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S,
                          text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[0]} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def worker(*args):
    return run_child([os.path.join(HERE, "worker.py")]
                     + [str(a) for a in args])


SETUP_CODE = """\
import time
import umbral_flow.cli
from umbral_flow.config import Config
Config(p={p}, d={d}, modulus={modulus}).carlitz_ctx()
ready = time.perf_counter()
import sys
sys.path.insert(0, {here!r})
import json, refloop, statistics
print(json.dumps([ready, statistics.median(refloop.sample())]))
"""


def setup_sample(workload):
    """One set-up in a fresh interpreter.

    Returns the seconds from starting the interpreter to the package
    imported and the field tables and a CarlitzCtx built, and the reference
    loop's time, taken in the same process right after.  The interpreter
    runs without the site module (``-S``): what the .pth files of the
    environment import is not the package's cost.  The child reads the same
    system-wide monotonic clock (CLOCK_MONOTONIC on Linux) as this process.
    """
    code = SETUP_CODE.format(here=HERE, **workload.field)
    t0 = time.perf_counter()
    ready, loop_s = run_child(["-S", "-c", code])
    return ready - t0, loop_s


def fields_match(ref, got):
    """True when every field the reference holds is present in ``got`` and
    equal; fields added to the report later are ignored."""
    if isinstance(ref, dict):
        return isinstance(got, dict) and all(
            k in got and fields_match(v, got[k]) for k, v in ref.items())
    if isinstance(ref, list):
        return (isinstance(got, list) and len(ref) == len(got)
                and all(fields_match(a, b) for a, b in zip(ref, got)))
    return ref == got


def load_reference():
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


def judge(workload, passes):
    """Check every claim of every pass.

    A claim fails when it raises, when its report has passed: false, or
    (when it ran at the reference seed) when a field the stored reference
    holds differs; failed claims make fail_ratio.  An operation (one claim
    run) is failed when its output is wrong: every failed claim but a known
    failure of the workload whose report matches the reference, passed:
    false included.  The output is correct when no operation failed and
    passes at the same seed gave the same reports.
    """
    reference = load_reference()["workloads"][workload.name]
    problems = {}  # claim -> {status other than passed: passes}
    attempted = failed = claims_failed = 0
    for run in passes:
        for claim in run["claims"]:
            name = claim["name"]
            attempted += 1
            if "error" in claim:
                status = "raised " + claim["error"]
            elif (claim["seed"] == REFERENCE_SEED
                  and not fields_match(reference[name], claim["report"])):
                status = "differs from reference"
            elif not claim["report"]["passed"]:
                status = "failed"
            else:
                continue
            claims_failed += 1
            if not (status == "failed" and name in workload.known_failures):
                failed += 1
            counts = problems.setdefault(name, {})
            counts[status] = counts.get(status, 0) + 1
    first = {}
    deterministic = all(
        first.setdefault(run["seed"], reports) == reports
        for run in passes
        for reports in [[c.get("report") for c in run["claims"]]])
    verdict = {"correct": deterministic and failed == 0,
               "attempted": attempted, "failed": failed}
    return verdict, claims_failed, problems, deterministic


def median_of(passes, fn):
    return statistics.median(fn(run) for run in passes)


def trials_of(run):
    return sum(c["report"]["trials"] for c in run["claims"] if "report" in c)


def measure(workload, seed, seconds):
    """Passes and end-to-end metrics of one untraced run."""
    setup_sample(workload)  # warm-up: writes the byte-code caches
    setups = [setup_sample(workload) for _ in range(SETUP_SAMPLES)]
    passes = []
    t_start = time.perf_counter()
    while True:
        passes.append(worker("pass", "--workload", workload.name, "--seed",
                             seed * PASS_SEED_STRIDE + len(passes)))
        # set-ups spread over the run: their median then covers the
        # machine's states over the whole run, not over its first second
        setups.append(setup_sample(workload))
        elapsed = time.perf_counter() - t_start
        if (len(passes) >= MIN_PASSES
                and elapsed * (len(passes) + 1) / len(passes) > seconds):
            break
    metrics = {
        "wall_ref": median_of(passes, lambda r: r["wall_ref"]),
        "trials_per_ref": median_of(passes,
                                    lambda r: trials_of(r) / r["wall_ref"]),
        "wall_s": median_of(passes, lambda r: r["wall_s"]),
        "trials_per_s": median_of(passes,
                                  lambda r: trials_of(r) / r["wall_s"]),
        # in reference loops, like wall_ref, then in seconds at the
        # loop's nominal time
        "setup_s": refloop.NOMINAL_S * statistics.median(
            s / loop_s for s, loop_s in setups),
        "setup_raw_s": statistics.median(s for s, _ in setups),
        "peak_rss_mb": median_of(passes, lambda r: r["peak_rss_kib"] / 1024),
    }
    walls = " ".join(f"{r['wall_s']:.3f}" for r in passes)
    return passes, metrics, f"{len(passes)} passes, wall_s of each: {walls}"


def measure_layers(workload, seed):
    """Per-layer metrics: untraced and traced passes in turn, at one seed,
    then the kernels."""
    claim_seed = seed * PASS_SEED_STRIDE
    os.makedirs(SPANS_DIR, exist_ok=True)
    spans = os.path.join(SPANS_DIR, f"spans-{workload.name}-seed{seed}.json")
    plain, traced = [], []
    for _ in range(TRACE_PAIRS):
        plain.append(worker("pass", "--workload", workload.name, "--seed",
                            claim_seed))
        traced.append(worker("trace", "--workload", workload.name, "--seed",
                             claim_seed, "--spans", spans))
    kernels = worker("kernels", "--seed", seed)
    # layer counts repeat exactly at one seed; their times come from the
    # traced pass of median wall time
    traced_mid = sorted(traced, key=lambda r: r["wall_s"])[TRACE_PAIRS // 2]
    plain_wall = median_of(plain, lambda r: r["wall_s"])
    claim_s = {}
    for run in plain:
        for claim in run["claims"]:
            claim_s.setdefault(claim["name"], []).append(claim["s"])
    metrics = dict(traced_mid["layers"])
    metrics.update({f"verify.{name}.s": statistics.median(claim_s[name])
                    if name in claim_s else 0.0 for name in ALL_CLAIMS})
    metrics.update({
        "trace.untraced_wall_s": plain_wall,
        "trace.traced_wall_s": traced_mid["wall_s"],
        "trace.overhead_s": traced_mid["wall_s"] - plain_wall,
    })
    metrics.update(kernels)
    return (plain + traced, metrics,
            f"{TRACE_PAIRS} untraced and {TRACE_PAIRS} traced passes; "
            f"spans in {os.path.relpath(spans, ROOT)}")


def run_one(workload, seed, seconds, trace):
    """Measure, judge, print the summary; return the result object."""
    if trace:
        passes, metrics, note = measure_layers(workload, seed)
        units = shown = spec.PER_LAYER
    else:
        passes, metrics, note = measure(workload, seed, seconds)
        units = spec.END_TO_END
        shown = units + IN_SECONDS
    verdict, claims_failed, problems, deterministic = judge(workload, passes)
    attempted = verdict["attempted"]
    metrics["pass_ratio"] = 1 - claims_failed / attempted
    missing = [name for name, _ in units if name not in metrics]
    if missing:
        raise SystemExit("BENCHMARK.json lists metrics that are not "
                         f"measured: {', '.join(missing)}")
    # metrics are measured in base units (seconds for times)
    metrics = {name: metrics[name] * spec.scale(unit) for name, unit in shown}

    lines = [f"== {workload.name}: claims {', '.join(workload.claims)} "
             f"(trials {workload.trials}); {note}"]
    for name, unit in shown:
        lines.append(f"  {name:44s} {metrics[name]:>14.6g} {unit}")
    lines.append(f"  {'fail_ratio':44s} {claims_failed / attempted:>14.6g} "
                 f"({claims_failed}/{attempted} claims failed; "
                 f"{verdict['failed']} wrong outputs)")
    for name, counts in problems.items():
        for status, n in counts.items():
            known = (" (known defect)" if status == "failed"
                     and name in workload.known_failures else "")
            lines.append(f"  claim {name}: {status} in {n} of {len(passes)} "
                         f"passes{known}")
    if not deterministic:
        lines.append("  passes at the same seed gave different reports")
    lines.append(f"  correct: {str(verdict['correct']).lower()}")
    print("\n".join(lines), file=sys.stderr)
    return dict(verdict, metrics={
        name: {"value": metrics[name], "unit": unit} for name, unit in units})


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isdir(os.path.join(SRC, "umbral_flow")):
        print(f"error: no package source at {SRC}/umbral_flow; run from the "
              "root of an umbral-flow checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        results = [run_one(w, args.seed, args.seconds, False)
                   for w in WORKLOADS.values()]
        return 0 if all(r["correct"] for r in results) else 1
    result = run_one(WORKLOADS[args.workload], args.seed, args.seconds,
                     args.trace)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
