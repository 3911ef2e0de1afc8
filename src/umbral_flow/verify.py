"""Claim suites: each claim id runs one seeded, parameterized machine check
and returns a DualityReport.

Sampling notes.  Inputs are drawn at working precisions padded above the
claim's target so that every comparison is *decided* at the stated target:
products against moments of negative valuation eat precision, and the pads
are sized so the survivors still carry the full target.  Series are sampled
with coefficients in the integer ring O_F, which is where the bounded-series
theory lives anyway.

Every claim computes each quantity through the package's one
implementation of it, and a family of claims runs one body: ``taylor`` and
``naive-flow`` share the flow-against-Taylor-shift check, and
``binomial-twisted`` and ``dual-binomial`` the binomial check, with its
samples.  ``example58`` sums e_C(1)^(q^k) against the twisted map's basis
e_k(x)/D_k in the loop that stops the Carlitz exponential.
"""

from __future__ import annotations

import random
import sys
import time

from .carlitz import CarlitzCtx
from .config import Config
from .duality import (
    AdditiveIso,
    DualMap,
    DualityReport,
    PerturbedMap,
    check_binomial,
    check_duality_diagram,
    check_geometric_criterion,
    compose_isos,
    merge_reports,
)
from .errors import UmbralFlowError, UnknownClaimError
from .fq import PolyA
from .laurent import INF, LaurentF, agreement_valuation
from .series import (
    AdditiveSeries,
    TruncSeries,
    binom_mod_p,
    hasse_derivative,
    plen,
    series_agreement_valuation,
    taylor_shift,
)
from .umbral import AdditiveMap, NaiveMap, TwistedMap, apply_flow


ZERO_PROB = 0.15


class Sampler:
    """Seeded element sampling; the seed fully determines every draw."""

    def __init__(self, ctx, rng: random.Random, prec: int):
        self.ctx = ctx
        self.rng = rng
        self.prec = prec

    def unit_ball(self, v=1):
        """Random x with v(x) = v exactly (|x| = q^-v), to the sampler's
        precision."""
        q = self.ctx.q
        codes = [self.rng.randrange(1, q)]
        codes += [self.rng.randrange(q) for _ in range(self.prec - v - 1)]
        return LaurentF(self.ctx, v, codes, self.prec)

    def poly(self, max_deg, nonzero=False):
        q = self.ctx.q
        while True:
            p = PolyA(self.ctx, [self.rng.randrange(q)
                                 for _ in range(max_deg + 1)])
            if not nonzero or not p.is_zero():
                return p

    def poly_elem(self, max_deg, nonzero=False):
        return LaurentF.from_poly(self.poly(max_deg, nonzero))

    def bounded_series(self, trunc, v_lo=0):
        """Random bounded series: coefficients of valuation v_lo .. 6 at the
        sampler's precision, each exactly zero with probability
        ``ZERO_PROB``."""
        q = self.ctx.q
        coeffs = []
        for _ in range(trunc):
            if self.rng.random() < ZERO_PROB:
                coeffs.append(LaurentF.zero(self.ctx))
                continue
            v = self.rng.randint(v_lo, 6)
            codes = [self.rng.randrange(1, q)]
            codes += [self.rng.randrange(q) for _ in range(12)]
            coeffs.append(LaurentF(self.ctx, v, codes, self.prec))
        return TruncSeries(self.ctx, coeffs)


def _rng(cfg: Config, claim: str) -> random.Random:
    return random.Random(f"{cfg.seed}:{claim}")


def _at_q_powers(ctx, pc):
    """Coefficients of T^(q^i), i = 0, 1, ..., as a p-power coefficient list:
    T^(q^i) is T^(p^(d*i)), so exact zeros fill the indices in between."""
    if ctx.d == 1:
        return pc
    full = [LaurentF.zero(ctx)] * ((len(pc) - 1) * ctx.d + 1)
    for i, c in enumerate(pc):
        full[i * ctx.d] = c
    return full


def ec_generator(cctx: CarlitzCtx, length: int, prec: int) -> AdditiveSeries:
    """The additive polynomial sum_{i<length} T^(q^i)/D_i: the Carlitz
    exponential's p-power expansion cut to an exact generator."""
    ctx = cctx.field
    pc = [LaurentF.one(ctx)]
    for i in range(1, length):
        # relative precision prec + i q^i; at prec no F_2-F_4 report moves
        pc.append(cctx.dk_inv(i, prec + 2 * i * ctx.q ** i))
    return AdditiveSeries(ctx, _at_q_powers(ctx, pc), exact=True)


def ec_iso(cctx, length, prec):
    return AdditiveIso(ec_generator(cctx, length, prec))


def ex58_series(cctx: CarlitzCtx, length: int, prec: int) -> AdditiveSeries:
    """sum_{i<length} (e_C(1) T)^(q^i): coefficients e_C(1)^(q^i)."""
    ctx = cctx.field
    e1 = cctx.exp_at_one(prec)
    pc = [e1.q_power(i) for i in range(length)]
    return AdditiveSeries(ctx, _at_q_powers(ctx, pc), exact=False)


def ex58_iso(cctx, length, prec):
    """The iso whose dual-moment kernel is the exp-at-one twist series:
    dual moments of the twisted map against it sum to Carlitz exponentials."""
    return AdditiveIso(ex58_series(cctx, length, prec)).inverse_iso()


def _compositions(n, h):
    """All h-tuples of positive integers summing to n."""
    if h == 1:
        yield (n,)
        return
    for first in range(1, n - h + 2):
        for rest in _compositions(n - first, h - 1):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# claims


def _flow_vs_shift(cfg, claim, umap, n_trials, shift) -> DualityReport:
    """The flow of a power map at a unit-ball x against the Taylor shift
    by shift(x), coefficientwise, on seeded bounded series."""
    smp = Sampler(umap.ctx, _rng(cfg, claim), cfg.prec)
    rep = DualityReport(claim, {"prec": cfg.prec, "trunc": cfg.trunc,
                                "trials": n_trials})
    for i in range(n_trials):
        P = smp.bounded_series(cfg.trunc)
        x = smp.unit_ball()
        lhs = apply_flow(umap, x, P)
        rhs = taylor_shift(P, shift(x))
        rep.record(series_agreement_valuation(lhs, rhs), cfg.prec,
                   {"trial": i})
        rep.trials += 1
    return rep


def claim_taylor(cfg: Config) -> DualityReport:
    """Additive flow equals the Taylor shift by x, coefficientwise."""
    S = AdditiveMap(cfg.carlitz_ctx(), cfg.prec)
    return _flow_vs_shift(cfg, "taylor", S, cfg.trials, lambda x: x)


def claim_naive_flow(cfg: Config) -> DualityReport:
    """Naive flow equals the Taylor shift by the Carlitz exponential: the
    map's first moment e_C(x), computed once a trial and read from its
    cache; the shift still reads no other moment."""
    NM = NaiveMap(cfg.carlitz_ctx(), cfg.prec)
    return _flow_vs_shift(cfg, "naive-flow", NM, max(cfg.trials // 2, 1),
                          lambda x: NM.moment(x, 1))


def claim_boundedness(cfg: Config) -> DualityReport:
    """Flow output stays bounded: sup-valuation of the flow is at least
    sup-valuation of P plus the worst moment valuation."""
    cctx = cfg.carlitz_ctx()
    rng = _rng(cfg, "boundedness")
    pad = 64  # at 0 no report over F_2, F_3 or F_4 moves
    smp = Sampler(cctx.field, rng, cfg.prec + pad)
    maps = [AdditiveMap(cctx, cfg.prec), NaiveMap(cctx, cfg.prec),
            TwistedMap(cctx, cfg.prec)]
    n_trials = max(cfg.trials // 2, 1)
    rep = DualityReport("boundedness", {"prec": cfg.prec, "trunc": cfg.trunc,
                                        "trials_per_map": n_trials})
    for umap in maps:
        for i in range(n_trials):
            P = smp.bounded_series(cfg.trunc, v_lo=-2)
            x = smp.unit_ball()
            flowed = apply_flow(umap, x, P)
            bound = P.sup_valuation() + min(
                umap.moment(x, k).val_lower_bound() for k in range(cfg.trunc))
            margin = flowed.sup_valuation() - bound
            rep.record(margin, 0, {"map": umap.name, "trial": i})
            rep.trials += 1
    return rep


def _composition_sum(hasse, n, h):
    """The sum over the compositions of n into h positive parts of the
    product of the matching Hasse derivatives; None for an empty sum."""
    acc = None
    for parts in _compositions(n, h):
        prod = hasse[parts[0]]
        for ij in parts[1:]:
            prod = prod * hasse[ij]
        acc = prod if acc is None else acc + prod
    return acc


def claim_power_rule(cfg: Config) -> DualityReport:
    """Hasse derivative of a power of a series, against the expansion into
    products of lower derivatives."""
    cctx = cfg.carlitz_ctx()
    ctx = cctx.field
    rng = _rng(cfg, "power-rule")
    smp = Sampler(ctx, rng, cfg.prec + 32)  # at + 0 agreement falls to 64
    n_trials = max(cfg.trials // 4, 1)
    rep = DualityReport("power-rule", {"prec": cfg.prec, "trunc": cfg.trunc,
                                       "trials": n_trials})
    for i in range(n_trials):
        P = smp.bounded_series(cfg.trunc)
        powers = {1: P}
        for k in (2, 3, 4):
            powers[k] = powers[k - 1] * P
        hasse = {j: hasse_derivative(P, j) for j in range(1, 5)}
        inners = {}  # (n, h) -> _composition_sum, which is free of k
        for k in (2, 3, 4):
            for n in (1, 2, 3, 4):
                lhs = hasse_derivative(powers[k], n)
                rhs = None
                for h in range(1, k + 1):
                    b = binom_mod_p(k, h, ctx.p)
                    if b == 0:
                        continue
                    if (n, h) not in inners:
                        inners[n, h] = _composition_sum(hasse, n, h)
                    inner = inners[n, h]
                    if inner is None:
                        continue
                    term = inner if k == h else powers[k - h] * inner
                    term = term if b == 1 else term.scale(
                        LaurentF(ctx, 0, (b,), INF))
                    rhs = term if rhs is None else rhs + term
                if rhs is None:
                    rhs = TruncSeries.zero(ctx, lhs.trunc)  # empty sum
                rep.record(series_agreement_valuation(lhs, rhs), cfg.prec,
                           {"trial": i, "n": n, "k": k})
                rep.trials += 1
    return rep


def _binomial_claim(cfg, claim, max_deg, dual) -> DualityReport:
    """Carlitz's binomial theorem at pairs of polynomial points of degree
    at most ``max_deg``, pinned at precision 128 and n up to q^3, for the
    twisted map or for its dual under the exp-at-one twist generator."""
    target = 128
    cctx = cfg.carlitz_ctx()
    # both claims draw from one derived seed, so they share their samples
    # wherever both draw degree 4
    smp = Sampler(cctx.field, _rng(cfg, "binomial-twisted"), target)
    # pads: at 0, each of the three fails a claim over F_2 (116, 114, 116)
    umap = TwistedMap(cctx, target, inv_prec_pad=128)
    if dual:
        umap = DualMap(umap, ex58_iso(cctx, max_deg + 1, target + 128),
                       prec=target, eval_len=target + 64)
    n_pairs = max(cfg.trials // 10, 1)
    reports = []
    for _ in range(n_pairs):
        x = smp.poly_elem(max_deg)
        y = smp.poly_elem(max_deg)
        reports.append(check_binomial(umap, x, y, cfg.q ** 3, target))
    return merge_reports(reports, claim=claim,
                         params={"prec": target, "n_max": cfg.q ** 3,
                                 "pairs": n_pairs, "max_deg": max_deg})


def claim_binomial_twisted(cfg: Config) -> DualityReport:
    """Carlitz's binomial theorem for the twisted moments at polynomial
    points of degree at most 4."""
    return _binomial_claim(cfg, "binomial-twisted", 4, dual=False)


def claim_flow_composition(cfg: Config) -> DualityReport:
    """Twisted flows compose additively: flow(x+y) = flow(x) o flow(y)."""
    cctx = cfg.carlitz_ctx()
    rng = _rng(cfg, "flow-composition")
    # pads: at 0, either one makes the claim fail over F_2 (60)
    smp = Sampler(cctx.field, rng, cfg.prec + 64)
    T = TwistedMap(cctx, cfg.prec, inv_prec_pad=64)
    n_trials = max(cfg.trials // 4, 1)
    rep = DualityReport("flow-composition", {"prec": cfg.prec,
                                             "trunc": cfg.trunc,
                                             "trials": n_trials})
    for i in range(n_trials):
        P = smp.bounded_series(cfg.trunc)
        x = smp.poly_elem(2)
        y = smp.poly_elem(2)
        lhs = apply_flow(T, x + y, P)
        rhs = apply_flow(T, x, apply_flow(T, y, P))
        rep.record(series_agreement_valuation(lhs, rhs), cfg.prec,
                   {"trial": i})
        rep.trials += 1
    return rep


def claim_duality(cfg: Config) -> DualityReport:
    """Duality diagram for (additive, Carlitz-exponential generator) and
    (twisted, exp-at-one twist generator), plus the perturbation contrapositive:
    bumping any single dual moment must break the diagram detectably."""
    cctx = cfg.carlitz_ctx()
    rng = _rng(cfg, "duality")
    smp = Sampler(cctx.field, rng, cfg.prec)
    # the generators count q-powers, interleaved to p-powers for d > 1
    glen = plen(cfg.q, cfg.trunc)
    # pads: at 0, isoA's moves no report; iso58's and T's fail (61, 56)
    isoA = ec_iso(cctx, glen, cfg.prec + 32)
    iso58 = ex58_iso(cctx, glen, cfg.prec + 32)
    S = AdditiveMap(cctx, cfg.prec)
    T = TwistedMap(cctx, cfg.prec, inv_prec_pad=64)
    dualS = DualMap(S, isoA, prec=cfg.prec)
    dualT = DualMap(T, iso58, prec=cfg.prec)
    # one (inner, iso, dual, draw) row per leg; perturbations alternate
    legs = [(S, isoA, dualS, smp.unit_ball),
            (T, iso58, dualT, lambda: smp.poly_elem(glen - 1, nonzero=True))]
    n_x = max(cfg.trials // 4, 1)
    reports = [check_duality_diagram(inner, iso, draw(), cfg.basis,
                                     cfg.trunc, cfg.prec, dual_map=dual)
               for inner, iso, dual, draw in legs for _ in range(n_x)]
    merged = merge_reports(reports, claim="duality", params={
        "prec": cfg.prec, "trunc": cfg.trunc, "basis": cfg.basis,
        "x_per_leg": n_x})
    # contrapositive: a unit bump of one dual moment must be detected
    n_pert = max(cfg.trials // 10, 1)
    one = LaurentF.one(cctx.field)
    undetected = 0
    for i in range(n_pert):
        k_star = rng.randrange(1, cfg.basis)
        inner, iso, dual, draw = legs[i % 2]
        pr = check_duality_diagram(inner, iso, draw(), cfg.basis, cfg.trunc,
                                   cfg.prec,
                                   dual_map=PerturbedMap(dual, k_star, one))
        merged.trials += 1
        if pr.passed:
            undetected += 1
            merged.failures.append({"perturbed_trial": i, "k_star": k_star,
                                    "detected": False})
    merged.params["perturbed_trials"] = n_pert
    merged.notes.append({"perturbations_undetected": undetected})
    return merged


def claim_dual_binomial(cfg: Config) -> DualityReport:
    """The dual of the twisted map under the exp-at-one twist generator
    satisfies the binomial theorem at polynomial points, the twisted
    check's samples wherever both draw degree 4 (q <= 3)."""
    # a dual moment at a point of degree D sums over the twisted map's
    # support, q^(D+1) terms: D is the largest degree whose support fits
    # 256 terms, and at most 4
    max_deg = max(deg for deg in range(5) if cfg.q ** (deg + 1) <= 256)
    return _binomial_claim(cfg, "dual-binomial", max_deg, dual=True)


def claim_geometric(cfg: Config) -> DualityReport:
    """Geometric criterion, both directions: dual-of-additive flows agree
    with the single-moment flow and the additive map is geometric; the
    twisted dual's flows differ at 1 and at nonzero polynomials, where the
    twisted map is not geometric (witness k <= q^2)."""
    cctx = cfg.carlitz_ctx()
    rng = _rng(cfg, "geometric")
    smp = Sampler(cctx.field, rng, cfg.prec)
    glen = plen(cfg.p, cfg.trunc)
    # pads: at 0 only the recorded flow witnesses move
    isoA = ec_iso(cctx, glen, cfg.prec + 32)
    iso58 = ex58_iso(cctx, glen, cfg.prec + 32)
    S = AdditiveMap(cctx, cfg.prec)
    T = TwistedMap(cctx, cfg.prec, inv_prec_pad=64)
    k_max = cfg.geom_k_max
    reports = []
    n_a = max(cfg.trials // 4, 1)
    for _ in range(n_a):
        x = smp.unit_ball()
        r = check_geometric_criterion(S, isoA, x, cfg.basis, cfg.prec, k_max)
        verdict = r.notes[-1]
        if not (verdict["flows_agree"] and verdict["inner_geometric"]):
            r.failures.append({"expected": "agree+geometric",
                               "got": verdict})
        reports.append(r)
    xs = [LaurentF.one(cctx.field)]
    while len(xs) < 11:
        xs.append(smp.poly_elem(glen - 1, nonzero=True))
    # at x = 1, T_k(1) = 1 for k < q and T_q(1) = 0, so the twisted flows
    # differ first at k = q: the basis reaches past it
    basis_t = max(cfg.basis, cfg.q + 1)
    for x in xs:
        r = check_geometric_criterion(T, iso58, x, basis_t, cfg.prec, k_max)
        verdict = r.notes[-1]
        bad_k = verdict["geometric_witness_k"]
        if verdict["flows_agree"] or verdict["inner_geometric"] \
                or bad_k is None or bad_k > cfg.q ** 2:
            r.failures.append({"expected": "differ+non-geometric",
                               "got": verdict})
        reports.append(r)
    return merge_reports(reports, claim="geometric", params={
        "prec": cfg.prec, "basis": cfg.basis, "k_max": k_max,
        "agree_trials": n_a, "differ_trials": len(xs)})


def claim_example57(cfg: Config) -> DualityReport:
    """Rebuilding the naive map as a dual of the additive map: the dual's
    moments match Carlitz-exponential powers and its flow is the shift."""
    cctx = cfg.carlitz_ctx()
    rng = _rng(cfg, "example57")
    smp = Sampler(cctx.field, rng, cfg.prec)
    # the dual's moments track e_C(x)^k only up to the generator's p-range,
    # so the range must clear the target precision, not just the truncation
    glen = max(plen(cfg.p, cfg.trunc), plen(cfg.q, cfg.prec) + 1)
    # the pad: at 0 no report over F_2, F_3 or F_4 moves
    iso_rev = AdditiveIso(ec_generator(cctx, glen, cfg.prec + 32)).inverse_iso()
    S = AdditiveMap(cctx, cfg.prec)
    NM = NaiveMap(cctx, cfg.prec)
    dual = DualMap(S, iso_rev, prec=cfg.prec)
    n_trials = max(cfg.trials // 10, 1)
    rep = DualityReport("example57", {"prec": cfg.prec, "trunc": cfg.trunc,
                                      "trials": n_trials, "k_max": 8})
    for i in range(n_trials):
        x = smp.unit_ball()
        for k in range(9):
            agreement = agreement_valuation(dual.moment(x, k), NM.moment(x, k))
            rep.record(agreement, cfg.prec, {"trial": i, "k": k})
        P = smp.bounded_series(cfg.trunc)
        lhs = apply_flow(dual, x, P)
        rhs = taylor_shift(P, cctx.exp(x, cfg.prec))
        rep.record(series_agreement_valuation(lhs, rhs), cfg.prec,
                   {"trial": i, "part": "flow"})
        rep.trials += 1
    return rep


def claim_example58(cfg: Config) -> DualityReport:
    """Closed identity: sum_k e_C(1)^(q^k) e_k(x)/D_k = e_C(x) at the four
    pinned polynomial points, to precision 48.  The sum runs over the
    twisted map's basis e_k(x)/D_k, stopped by the Carlitz exponential's
    window rule; an exact-zero basis value (k > deg x) is that term."""
    target = 48
    cctx = cfg.carlitz_ctx()
    ctx = cctx.field
    rep = DualityReport("example58", {"prec": target, "window": cfg.window})
    e1 = cctx.exp_at_one(target + 32)  # at + 0 agreement falls to 54
    T = TwistedMap(cctx, target)
    t = PolyA.t(ctx)
    one = PolyA.one(ctx)
    points = [t, t + one, t * t, t * t + t + one]

    def term(x, k):
        b = T.basis_value(x, k)
        return b if b.is_exact_zero() else e1.q_power(k) * b

    for poly in points:
        x = LaurentF.from_poly(poly)
        acc = cctx._window_sum(lambda k: term(x, k), target)
        agreement = agreement_valuation(acc, cctx.exp_sum(x, target))
        rep.record(agreement, target, {"x": repr(poly)})
        rep.trials += 1
    return rep


def claim_iso_roundtrip(cfg: Config) -> DualityReport:
    """Inverse generators round-trip; dual-of-dual restores the original
    moments; composing isos witnesses transitivity of duality."""
    cctx = cfg.carlitz_ctx()
    ctx = cctx.field
    rng = _rng(cfg, "iso-roundtrip")
    smp = Sampler(ctx, rng, cfg.prec)
    rep = DualityReport("iso-roundtrip", {"prec": cfg.prec, "k_max": 8})
    q = ctx.q

    # the pad: at 0 the F_2 round trip fails (60, 62)
    def random_generator(max_len=3):
        length = rng.randint(1, max_len)
        pc = [LaurentF(ctx, 0, [rng.randrange(1, q)] +
                       [rng.randrange(q) for _ in range(10)], cfg.prec + 32)]
        for _ in range(length - 1):
            v = rng.randint(0, 3)
            pc.append(LaurentF(ctx, v, [rng.randrange(1, q)] +
                               [rng.randrange(q) for _ in range(10)],
                               cfg.prec + 32))
        return AdditiveSeries(ctx, pc, exact=True)

    n = max(cfg.trials // 10, 1)
    # (i) composition inverse round-trips to the identity
    for i in range(n):
        H = random_generator()
        inv = H.inverse(length=6)
        for comp in (H.compose(inv), inv.compose(H)):
            agreement = min(
                (agreement_valuation(comp.coeff(k), LaurentF.one(ctx) if k == 0
                                     else LaurentF.zero(ctx))
                 for k in range(min(comp.length, 6))), default=INF)
            rep.record(agreement, cfg.prec, {"part": "inverse", "trial": i})
        rep.trials += 1

    # (ii) dual of dual restores the moments
    S = AdditiveMap(cctx, cfg.prec)
    T = TwistedMap(cctx, cfg.prec, inv_prec_pad=64)  # at 0: fails (60)
    for i in range(n):
        use_twisted = i % 2 == 1
        base = T if use_twisted else S
        iso = AdditiveIso(random_generator())
        once = DualMap(base, iso, prec=cfg.prec)
        back = iso.inverse_iso(length=plen(cfg.p, once.eval_len))
        twice = DualMap(once, back, prec=cfg.prec)
        x = smp.poly_elem(2, nonzero=True) if use_twisted else smp.unit_ball()
        for k in range(9):
            agreement = agreement_valuation(twice.moment(x, k),
                                            base.moment(x, k))
            rep.record(agreement, cfg.prec,
                       {"part": "dual-of-dual", "trial": i, "k": k})
        rep.trials += 1

    # (iii) iterated duals equal the dual under the composite iso
    for i in range(max(n // 2, 1)):
        iso_a = AdditiveIso(random_generator(2))
        iso_b = AdditiveIso(random_generator(2))
        iso_c = compose_isos(iso_a, iso_b)
        step = DualMap(DualMap(S, iso_a, prec=cfg.prec), iso_b, prec=cfg.prec)
        direct = DualMap(S, iso_c, prec=cfg.prec)
        x = smp.unit_ball()
        for k in range(9):
            agreement = agreement_valuation(step.moment(x, k),
                                            direct.moment(x, k))
            rep.record(agreement, cfg.prec,
                       {"part": "compose", "trial": i, "k": k})
        rep.trials += 1
    return rep


CLAIMS = {
    "taylor": claim_taylor,
    "naive-flow": claim_naive_flow,
    "boundedness": claim_boundedness,
    "power-rule": claim_power_rule,
    "binomial-twisted": claim_binomial_twisted,
    "flow-composition": claim_flow_composition,
    "duality": claim_duality,
    "dual-binomial": claim_dual_binomial,
    "geometric": claim_geometric,
    "example57": claim_example57,
    "example58": claim_example58,
    "iso-roundtrip": claim_iso_roundtrip,
}


def run_claim(name: str, cfg: Config) -> DualityReport:
    fn = CLAIMS.get(name)
    if fn is None:
        raise UnknownClaimError(
            f"unknown claim {name!r}; choose from {sorted(CLAIMS)}")
    return fn(cfg)


def run_verify(names, cfg: Config) -> dict:
    """Run claims in order and assemble the deterministic run report; a
    one-line summary per claim goes to stderr as each claim finishes.

    Invalid input (an unknown claim, or a field that does not exist, which
    raises ``ValueError``) ends the run.  A claim that raises a package
    error on valid input is that claim's failure: its entry holds the error
    and ``passed: false``, and the later claims still run."""
    claims = []
    t_all = time.time()
    for name in names:
        t0 = time.time()
        try:
            c = run_claim(name, cfg).to_json()
            summary = (f"trials={c['trials']} "
                       f"min_agreement={c['min_agreement_valuation']}")
        except UnknownClaimError:
            raise
        except UmbralFlowError as e:
            c = {"claim": name, "error": f"{type(e).__name__}: {e}",
                 "passed": False}
            summary = c["error"]
        claims.append(c)
        print(f"[{'pass' if c['passed'] else 'FAIL'}] {name}: {summary} "
              f"({time.time() - t0:.1f}s)", file=sys.stderr)
    print(f"total {time.time() - t_all:.1f}s", file=sys.stderr)
    return {
        "config": cfg.to_json(),
        "claims": claims,
        "passed": all(c["passed"] for c in claims),
    }
