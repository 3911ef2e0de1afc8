"""Fixed-size layer kernels: repeated timed calls at the sizes the ROADMAP
names, each reported as the median time of one call over several batches.

Inputs come from the benchmark seed.  Nothing here touches module globals:
each kernel runs the code path the package itself picks for its inputs
(the packed convolution at q = 2, the table loop at q = 4).
"""

from __future__ import annotations

import random
import statistics
import time

from umbral_flow.config import Config
from umbral_flow.duality import DualMap, check_duality_diagram
from umbral_flow.series import series_compose
from umbral_flow.umbral import AdditiveMap, apply_flow
from umbral_flow.verify import Sampler, ec_iso

from workloads import F2, F4, SHAPE

BATCHES = 5
BATCH_S = 0.03  # a batch repeats the call until it has run this long


def time_call(fn):
    """Median seconds per call of ``fn`` over BATCHES timed batches."""
    fn()  # warm-up: fills caches that every later call would find full
    t0 = time.perf_counter()
    fn()
    one = max(time.perf_counter() - t0, 1e-7)
    reps = max(1, int(BATCH_S / one))
    per_call = []
    for _ in range(BATCHES):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        per_call.append((time.perf_counter() - t0) / reps)
    return statistics.median(per_call)


def run_kernels(seed: int) -> dict:
    """Metric name -> median seconds per call."""
    rng = random.Random(f"{seed}:kernels")
    out = {}
    for tag, fkw in (("q2", F2), ("q4", F4)):
        ctx = Config(**fkw).field_ctx()
        for n in (64, 1024):
            xs = [rng.randrange(ctx.q) for _ in range(n)]
            ys = [rng.randrange(ctx.q) for _ in range(n)]
            out[f"kernel.fq.convolve.{tag}.{n}x{n}"] = time_call(
                lambda: ctx.convolve(xs, ys))

    cfg = Config(**F2, **SHAPE)
    cctx = cfg.carlitz_ctx()
    smp = Sampler(cctx.field, rng, cfg.prec)
    x = smp.unit_ball(v=0)  # 64 coefficients
    y = smp.unit_ball(v=0)
    out["kernel.laurent.add"] = time_call(lambda: x + y)
    out["kernel.laurent.mul"] = time_call(lambda: x * y)
    out["kernel.laurent.inv"] = time_call(lambda: x.inv())

    for m in (16, 80):
        P = smp.bounded_series(m)
        Q = smp.bounded_series(m)
        out[f"kernel.series.mul.m{m}"] = time_call(lambda: P * Q)
    # the generator of the Carlitz-exponential iso, as the duality claims
    # compose with it (p^4 = 16 covers the truncation)
    iso = ec_iso(cctx, 4, cfg.prec + 32)
    H_ts = iso.generator_ts(cfg.trunc)
    P = smp.bounded_series(cfg.trunc)
    out["kernel.series.compose.m16"] = time_call(
        lambda: series_compose(P, H_ts))

    # a fresh map per call, so moments are computed and not looked up; the
    # iso's caches stay warm, as they are for every x after the first in a
    # claim
    xu = smp.unit_ball()
    out["kernel.umbral.apply_flow"] = time_call(
        lambda: apply_flow(AdditiveMap(cctx, cfg.prec), xu, P))
    k = cfg.basis - 1
    out["kernel.duality.DualMap.moment"] = time_call(
        lambda: DualMap(AdditiveMap(cctx, cfg.prec), iso,
                        prec=cfg.prec).moment(xu, k))
    out["kernel.duality.check_duality_diagram"] = time_call(
        lambda: check_duality_diagram(AdditiveMap(cctx, cfg.prec), iso, xu,
                                      cfg.basis, cfg.trunc, cfg.prec))
    return out
