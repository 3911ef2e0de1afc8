"""Additive isomorphisms of the series algebra, dual umbral maps, and the
machine checks for the duality diagram, binomial preservation, and the
geometric criterion.

The isomorphism phi sends P to P(H(T)) for a generator H: an additive series
with unit-norm linear coefficient.  A *truncated* generator is itself a
perfectly good exact generator (a finite additive polynomial), and every
check here treats it that way: with H an exact polynomial and the basis
series T^j exact, both sides of the duality square are finite computations,
so the only approximation anywhere is the working precision of dual moments.
Checks therefore compare at full Laurent precision rather than inheriting
noise from the T-truncation; the reported window stays at the configured
truncation M.

Dual moments follow the composition-inverse formula: the k-th moment of the
dual of F under phi is eval((H^(-1))(F(x))^k), computed as the coefficient
sum of (H^(-1))^k against the inner map's moments out to ``eval_len`` terms.
Precision of a dual moment is capped at ``eval_len`` since the dropped tail
is only heuristically small; every acceptance configuration keeps
``eval_len`` above its target precision.

Both dual-layer sums, ``umbral_eval`` for a dual moment and
``flow_coefficient`` for the diagram's right side, are the one windowed
moment sum of ``umbral``: a term whose valuation bound reaches the window is
never multiplied out.  A dual moment's window is its cap ``eval_len``.  The
duality diagram's dual flow coefficient at T^h has the precision of the left
side's coefficient as its window: the difference of the two is known only
below that precision, so the skipped terms cannot move the agreement it
reports.

An iso is built one way, from its generator.  An iso whose inverse
generator is a given truncated series S is ``AdditiveIso(S).inverse_iso()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .errors import (
    NotAGeneratorError,
    PreconditionFailedError,
    TruncationMismatchError,
)
from .laurent import INF, LaurentF
from .series import (
    AdditiveSeries,
    TruncSeries,
    binom_mod_p,
    plen,
    taylor_shift,
    top_place,
)
from .umbral import (
    UmbralMap,
    admissible_heuristic,
    apply_flow,
    flow_coefficient,
    umbral_eval,
)


class AdditiveIso:
    """phi: P -> P(H(T)) for a generator H, with cached inverse data."""

    def __init__(self, H: AdditiveSeries):
        ok, reason = H.is_generator()
        if not ok:
            raise NotAGeneratorError(reason)
        self.H = H
        self._inv = None
        self._gen_powers = {}
        self._hinv_powers = {}

    @property
    def ctx(self):
        return self.H.ctx

    def degree_bound(self, j: int) -> int:
        """deg(H^j) for an exact generator polynomial."""
        p = self.ctx.p
        return j * p ** (self.H.length - 1)

    def generator_ts(self, trunc: int) -> TruncSeries:
        return self.H.to_trunc_series(trunc)

    def _power(self, tables, base_ts, k: int, trunc: int) -> TruncSeries:
        """B^k mod T^trunc for B = base_ts(trunc), from a table cached in
        ``tables`` per truncation and grown by the top base-p digit:
        B^k = B^(k - p^t) * B^(p^t), where B^(p^t) is a Frobenius twist of B.
        The table keeps B itself, so base_ts (and the precondition it
        checks) runs once per table, whatever k is."""
        table = tables.get(trunc)
        if table is None:
            table = tables[trunc] = (
                [TruncSeries.monomial(self.ctx, 0, trunc)], [base_ts(trunc)])
        powers, twists = table
        while len(powers) <= k:
            n = len(powers)
            t, e = top_place(self.ctx.p, n)
            while len(twists) <= t:
                twists.append(twists[0].frobenius(len(twists)))
            powers.append(twists[t] if n == e else powers[n - e] * twists[t])
        return powers[k]

    def gen_power(self, j: int, trunc: int) -> TruncSeries:
        """H^j mod T^trunc."""
        return self._power(self._gen_powers, self.generator_ts, j, trunc)

    def inverse(self, length=None) -> AdditiveSeries:
        """H^(-1) to the requested p-power length (prefix-stable)."""
        if length is None:
            length = self.H.length
        if self._inv is None or self._inv.length < length:
            self._inv = self.H.inverse(length=length)
        return self._inv if self._inv.length == length else \
            AdditiveSeries(self.ctx, self._inv.pcoeffs[:length],
                           exact=False)

    def inverse_ts(self, trunc: int) -> TruncSeries:
        return self.inverse(plen(self.ctx.p, trunc)).to_trunc_series(trunc)

    def hinv_power(self, k: int, trunc: int) -> TruncSeries:
        """(H^(-1))^k mod T^trunc."""
        return self._power(self._hinv_powers, self.inverse_ts, k, trunc)

    def inverse_iso(self, length=None) -> "AdditiveIso":
        """The iso generated by the composition inverse of H truncated to
        ``length`` and declared exact on that range.  Pick the length long
        enough for the consumer: a dual-of-dual round trip deviates from the
        identity only past p^length.  At the default length this is also
        the iso whose inverse generator is H itself on H's stored range
        (triangular determinacy), which is how an iso is built from a
        truncated inverse series."""
        inv = self.inverse(length if length is not None else self.H.length)
        return AdditiveIso(AdditiveSeries(self.ctx, inv.pcoeffs, exact=True))

    def apply(self, P: TruncSeries) -> TruncSeries:
        """phi(P) = P(H(T)) = sum_j a_j H^j on P's own window."""
        acc = TruncSeries.zero(self.ctx, P.trunc)
        for j, a in P.terms:
            acc = acc + self.gen_power(j, P.trunc).scale(a)
        return acc

    def __repr__(self):
        return f"<additive iso, H = {self.H!r}>"


def compose_isos(a: AdditiveIso, b: AdditiveIso) -> AdditiveIso:
    """The iso c with phi_c = phi_b o phi_a, i.e. generator H_a o H_b;
    iterating duals through a then b equals one dual through c."""
    return AdditiveIso(a.H.compose(b.H))


class DualMap(UmbralMap):
    """Moments eval((H^(-1))(F(x))^k) of the dual of ``inner`` under ``iso``."""

    def __init__(self, inner: UmbralMap, iso: AdditiveIso, prec=None,
                 eval_len=None):
        prec = inner.prec if prec is None else prec
        super().__init__(inner.cctx, prec)
        self.inner = inner
        self.iso = iso
        self.eval_len = (prec + 16) if eval_len is None else eval_len
        self.name = f"dual({inner.name})"
        self._moments = {}

    def moment(self, x, k):
        if k == 0:
            return LaurentF.one(self.ctx)
        if k >= self.eval_len:
            # (H^(-1))^k starts at T^k, past every term we evaluate
            return LaurentF.zero_at(self.ctx, self.eval_len)
        cache = self._moments.setdefault(x, {})
        got = cache.get(k)
        if got is None:
            R = self.iso.hinv_power(k, self.eval_len)
            got = umbral_eval(R, self.inner, x, window=self.eval_len)
            cache[k] = got
        return got


class PerturbedMap(UmbralMap):
    """One moment of a base map shifted by a fixed value; everything else
    delegates.  Used for the contrapositive direction of the duality check."""

    def __init__(self, base: UmbralMap, k_star: int, delta: LaurentF):
        super().__init__(base.cctx, base.prec)
        self.base = base
        self.k_star = k_star
        self.delta = delta
        self.name = f"{base.name}+bump@{k_star}"

    def moment(self, x, k):
        got = self.base.moment(x, k)
        if k == self.k_star:
            got = got + self.delta
        return got


@dataclass
class DualityReport:
    """Outcome of one verification check; ``passed`` iff no failure survived."""

    claim: str
    params: dict
    trials: int = 0
    failures: list = dc_field(default_factory=list)
    min_agreement_valuation: object = INF
    notes: list = dc_field(default_factory=list)

    @property
    def passed(self):
        return not self.failures

    def record(self, agreement, target, where):
        self.min_agreement_valuation = min(self.min_agreement_valuation,
                                           agreement)
        if agreement < target:
            self.failures.append(dict(where, discrepancy_valuation=agreement))

    def to_json(self):
        mav = self.min_agreement_valuation
        return {
            "claim": self.claim,
            "params": self.params,
            "trials": self.trials,
            "failures": self.failures,
            "min_agreement_valuation": None if mav == INF else mav,
            "passed": self.passed,
            "notes": self.notes,
        }


def merge_reports(reports, claim=None, params=None):
    out = DualityReport(claim or (reports[0].claim if reports else "empty"),
                        params or (reports[0].params if reports else {}))
    for r in reports:
        out.trials += r.trials
        out.failures.extend(r.failures)
        out.min_agreement_valuation = min(out.min_agreement_valuation,
                                          r.min_agreement_valuation)
        out.notes.extend(r.notes)
    return out


def _key_of(x: LaurentF):
    """Compact JSON-able tag for a sample point, for failure records."""
    return {"v": x.v, "codes": list(x.codes[:8])}


def check_duality_diagram(inner: UmbralMap, iso: AdditiveIso, x: LaurentF,
                          basis: int, trunc: int, prec: int,
                          dual_map: UmbralMap | None = None) -> DualityReport:
    """Compare phi(flow_inner(x) P) with flow_dual(x)(phi P) for P = T^j.

    With an exact generator polynomial both sides are complete finite sums:
    phi(P) is materialized out to its true degree so the dual flow's
    coefficient sums never silently truncate, and the comparison is reported
    on the T^h window h < trunc.
    """
    dual = dual_map if dual_map is not None else DualMap(inner, iso, prec=prec)
    rep = DualityReport("duality-diagram", {
        "inner": inner.name, "dual": dual.name, "basis": basis,
        "trunc": trunc, "prec": prec, "exact_generator": iso.H.exact,
    })
    for m in (inner, dual):
        if not admissible_heuristic(m, x).apparently_admissible:
            raise PreconditionFailedError(
                f"x not apparently admissible for {m.name}")
    # one truncation for every basis index: products are prefix-stable, and
    # past deg(H^j) the coefficients of H^j are exact zeros, which the dual
    # flow's coefficient sums skip
    if iso.H.exact:
        big = max(iso.degree_bound(basis - 1) + 1, trunc)
    else:
        big = trunc
        if inner.ctx.p ** iso.H.length < trunc:
            raise TruncationMismatchError(
                "truncated generator does not cover the window")
    for j in range(basis):
        P = TruncSeries.monomial(inner.ctx, j, trunc)
        flowed = apply_flow(inner, x, P, require_admissible=False)
        lhs = iso.apply(flowed)
        Q = iso.gen_power(j, big)
        for h in range(trunc):
            # the difference is known only below lhs_h.prec, so rhs terms
            # bounded at or past it cannot move the agreement
            lhs_h = lhs.coeffs[h]
            rhs_h = flow_coefficient(dual, x, Q, h, window=lhs_h.prec)
            agreement = (lhs_h - rhs_h).val_lower_bound()
            rep.record(agreement, prec,
                       {"x": _key_of(x), "basis_j": j, "coefficient": h})
        rep.trials += 1
    return rep


def is_geometric_at(umap: UmbralMap, x: LaurentF, k_max: int, prec: int):
    """(verdict, first failing k): moments vs powers of the first moment."""
    first = umap.moment(x, 1)
    power = first
    for k in range(2, k_max + 1):
        power = power * first
        if (umap.moment(x, k) - power).val_lower_bound() < prec:
            return False, k
    return True, None


def check_geometric_criterion(inner: UmbralMap, iso: AdditiveIso,
                              x: LaurentF, basis: int, prec: int,
                              k_max: int) -> DualityReport:
    """Both flows of the dual map, against the geometricity of the inner map.

    The report passes iff the biconditional holds: the single-moment flow
    e^(F1 D) and the dual flow agree (to prec, over the monomial basis)
    exactly when the inner map is geometric at x.  Admissibility of x for
    inner, dual, and |dual_1(x)| < 1 are recorded, not enforced.
    """
    dual = DualMap(inner, iso, prec=prec)
    f1 = dual.moment(x, 1)
    pre = {
        "inner_admissible": admissible_heuristic(inner, x).apparently_admissible,
        "dual_admissible": admissible_heuristic(dual, x).apparently_admissible,
        "dual_first_moment_small": bool(f1.val_lower_bound() >= 1),
    }
    rep = DualityReport("geometric-criterion", {
        "inner": inner.name, "basis": basis, "prec": prec, "k_max": k_max,
    })
    rep.notes.append(pre)
    flows_agree = True
    witness = None
    for j in range(basis):
        P = TruncSeries.monomial(inner.ctx, j, j + 1)
        shifted = taylor_shift(P, f1)
        for h in range(j + 1):
            rhs_h = flow_coefficient(dual, x, P, h)
            agreement = (shifted.coeffs[h] - rhs_h).val_lower_bound()
            if agreement < prec and flows_agree:
                flows_agree = False
                witness = {"basis_j": j, "coefficient": h,
                           "discrepancy_valuation": agreement}
    geometric, bad_k = is_geometric_at(inner, x, k_max, prec)
    rep.trials = 1
    rep.notes.append({"flows_agree": flows_agree, "flow_witness": witness,
                      "inner_geometric": geometric, "geometric_witness_k": bad_k})
    if flows_agree != geometric:
        rep.failures.append({"x": _key_of(x), "flows_agree": flows_agree,
                             "inner_geometric": geometric})
    return rep


def check_binomial(umap: UmbralMap, x: LaurentF, y: LaurentF, n_max: int,
                   prec: int) -> DualityReport:
    """F_n(x+y) = sum_k C(n,k) F_k(x) F_{n-k}(y) for n <= n_max."""
    for pt in (x, y, x + y):
        if not admissible_heuristic(umap, pt).apparently_admissible:
            raise PreconditionFailedError(
                f"binomial check point not apparently admissible for {umap.name}")
    rep = DualityReport("binomial", {"map": umap.name, "n_max": n_max,
                                     "prec": prec})
    p = umap.ctx.p
    s = x + y
    for n in range(n_max + 1):
        lhs = umap.moment(s, n)
        acc = LaurentF.zero(umap.ctx)
        for k in range(n + 1):
            b = binom_mod_p(n, k, p)
            if b == 0:
                continue
            term = umap.moment(x, k) * umap.moment(y, n - k)
            acc = acc + (term if b == 1 else term.scale(b))
        agreement = (lhs - acc).val_lower_bound()
        rep.record(agreement, prec, {"x": _key_of(x), "y": _key_of(y), "n": n})
        rep.trials += 1
    return rep
