"""Additive isomorphisms of the series algebra, dual umbral maps, and the
machine checks for the duality diagram, binomial preservation, and the
geometric criterion.

The isomorphism phi sends P to P(H(T)) for a generator H: an additive series
with unit-norm linear coefficient.  Every check treats a truncated generator
as the exact additive polynomial it is, so with the basis series T^j exact
both sides of the duality square are finite computations, compared at full
Laurent precision; the only approximation is the working precision of dual
moments, and the reported window stays at the configured truncation M.

Dual moments follow the composition-inverse formula: the k-th moment of the
dual of F under phi is dual_k(x) = eval((H^(-1))(F(x))^k) = sum_(n >= k)
c_(k,n) F_n(x), with c_(k,n) the coefficients of (H^(-1))^k, computed as a
finite sum out to a length L.  The cap, the bound, the rule and the floor
read one fact, that H is exact and integral.  Then every c_(k,n) has
vlb >= 0, computed or not: the inverse's recursion multiplies and adds such
values and divides only by the unit h_0.  With the inner map's tail bound
(``UmbralMap.moment_bound``):

* the length: L is ``eval_len``, or the inner support when that is finite
  and longer, so a sum never drops a non-zero term of a twisted map at a
  polynomial point;
* the cap: a dual moment's precision is at most min(``eval_len``,
  moment_bound(x, L)), since every dropped term c_(k,n) F_n(x), n >= L,
  lies at or past moment_bound(x, L).  For k >= L the whole sum is such a
  tail, so dual_k(x) is zero at the cap;
* the bound and the rule: vlb(dual_m(x)) >= moment_bound(x, n) for every
  m >= n, so ``DualMap.moment_bound`` is the inner bound, and a dual of a
  map with a bound is admissible by an exact rule.  A dual of a dual so
  has a rule and a proven cap too.  Without an integral exact H, or where
  the inner map states no bound (the cap is then ``eval_len`` alone, and
  proves nothing), a dual has no rule and is refused;
* the floor, ``DualMap.moment_floor``, bounds the moments the map
  *computes*, which is what a windowed sum may trust: the cap past L, and
  below it min(cap, the inner floor at n), since each computed term
  c_(k,m) F_m(x) with m >= k >= n keeps vlb at or past that floor.  A
  bumped inner map proves no floor, and then its dual has none either.

The bound comes from the moment definitions alone, never from the duality
or binomial theorems that the checks test.  Two rules use the floor, and
each only drops work whose result is already decided:

* zero past the cap: once the floor at k reaches the cap, every term of
  the sum has its bound at or past its window, the cap, so the windowed
  sum is zero at the cap.  ``DualMap.moment`` returns that without
  building (H^(-1))^k.  This covers k >= L, where the sum has no term;
* skip before asking: a windowed sum skips a term a_j F_k(x) once
  vlb(a_j) + floor(k) reaches its window, before the moment is asked for.

Both dual-layer sums, ``umbral_eval`` for a dual moment and
``flow_coefficients`` for the diagram's right side, are the one windowed
moment sum of ``umbral``: a term whose valuation bound reaches the window is
never multiplied out.  A dual moment's window is its cap.  The
duality diagram's dual flow coefficient at T^h has the precision of the left
side's coefficient as its window: the difference of the two is known only
below that precision, so the skipped terms cannot move the agreement it
reports.  One walk over the terms of H^j gives every coefficient h < trunc
of basis index j.

An iso is built one way, from its generator.  An iso whose inverse
generator is a given truncated series S is ``AdditiveIso(S).inverse_iso()``.
"""

from __future__ import annotations

from .errors import (
    EnumerationCapExceededError,
    NotAGeneratorError,
    TruncationMismatchError,
)
from .laurent import INF, LaurentF, agreement_valuation, product_sum
from .series import (
    AdditiveSeries,
    TruncSeries,
    binom_mod_p,
    plen,
    taylor_shift,
    top_place,
)
from .umbral import (
    AdmissibilityVerdict,
    UmbralMap,
    admissible_heuristic,
    ensure_admissible,
    flow_coefficients,
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
        """phi(P) = P(H(T)) = sum_j a_j H^j on P's own window: one
        ``product_sum`` per output coefficient m over the pairs
        (a_j, [T^m] H^j)."""
        n = P.trunc
        sums = [[] for _ in range(n)]
        for j, a in P.terms:
            for m, c in self.gen_power(j, n).terms:
                sums[m].append((a, c))
        z = LaurentF.zero(self.ctx)
        return TruncSeries(self.ctx, [product_sum(self.ctx, s) if s else z
                                      for s in sums])

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
        # headroom: at prec + 0 only geometric's witnesses move (F_2 to F_4)
        self.eval_len = (prec + 16) if eval_len is None else eval_len
        self.name = f"dual({inner.name})"
        # H^(-1) is integral iff the exact generator H is (h_0 is a unit)
        self._integral = iso.H.exact and all(
            c.val_lower_bound() >= 0 for c in iso.H.pcoeffs)
        self._sums = {}     # x -> (sum length, precision cap)
        self._moments = {}

    def _sum_at(self, x):
        """(L, cap) at x: the sum length and the precision cap (see the
        module docstring)."""
        got = self._sums.get(x)
        if got is None:
            support = self.inner.support(x)
            length = self.eval_len if support == INF \
                else max(self.eval_len, support)
            bound = self.inner.moment_bound(x, length)
            cap = self.eval_len if bound is None else min(self.eval_len, bound)
            got = self._sums[x] = (length, cap)
        return got

    def moment_bound(self, x, n):
        # see the module docstring: the inner bound, under an integral exact H
        return self.inner.moment_bound(x, n) if self._integral else None

    def moment_floor(self, x, n):
        # see the module docstring: the cap past the sum's length, and
        # min(cap, inner floor) under an integral exact H
        length, cap = self._sum_at(x)
        if n >= length:
            return cap
        inner = self.inner.moment_floor(x, n) if self._integral else None
        return None if inner is None else min(cap, inner)

    def moment(self, x, k):
        if k == 0:
            return LaurentF.one(self.ctx)
        cache = self._moments.setdefault(x, {})
        got = cache.get(k)
        if got is None:
            length, cap = self._sum_at(x)
            floor = self.moment_floor(x, k)
            if floor is not None and floor >= cap:
                # every term of the sum is bounded at or past the cap
                got = LaurentF.zero_at(self.ctx, cap)
            else:
                R = self.iso.hinv_power(k, length)
                got = umbral_eval(R, self.inner, x, window=cap)
            cache[k] = got
        return got

    def admissibility_rule(self, x):
        # exact: see the module docstring
        if self.moment_bound(x, self._sum_at(x)[0]) is None:
            return None
        return AdmissibilityVerdict(
            True, "integral inverse generator, inner moments tail-bounded")


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

    def admissibility_rule(self, x):
        # one bumped moment does not change whether F_k(x) -> 0
        return self.base.admissibility_rule(x)


class DualityReport:
    """Outcome of one verification check; ``passed`` iff no failure survived."""

    def __init__(self, claim: str, params: dict):
        self.claim = claim
        self.params = params
        self.trials = 0
        self.failures = []
        self.min_agreement_valuation = INF
        self.notes = []

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
        ensure_admissible(m, x)
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
        lhs = iso.apply(TruncSeries(inner.ctx, flow_coefficients(
            inner, x, P, (INF,) * trunc)))
        # one walk over the terms of H^j gives every coefficient h < trunc;
        # the difference is known only below lhs_h.prec, so rhs terms
        # bounded at or past it cannot move the agreement
        rhs = flow_coefficients(dual, x, iso.gen_power(j, big),
                                [c.prec for c in lhs.coeffs])
        for h in range(trunc):
            rep.record(agreement_valuation(lhs.coeffs[h], rhs[h]), prec,
                       {"x": _key_of(x), "basis_j": j, "coefficient": h})
        rep.trials += 1
    return rep


def is_geometric_at(umap: UmbralMap, x: LaurentF, k_max: int, prec: int):
    """(verdict, first failing k): moments vs powers of the first moment."""
    first = umap.moment(x, 1)
    power = first
    for k in range(2, k_max + 1):
        power = power * first
        if agreement_valuation(umap.moment(x, k), power) < prec:
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
        rhs = flow_coefficients(dual, x, P, (INF,) * (j + 1))
        for h in range(j + 1):
            agreement = agreement_valuation(shifted.coeffs[h], rhs[h])
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
    """F_n(x+y) = sum_k C(n,k) F_k(x) F_{n-k}(y) for n <= n_max.

    The check runs over every pair k <= n <= n_max, an exhaustive
    enumeration held to the context's cap."""
    pairs = (n_max + 1) * (n_max + 2) // 2
    if pairs > umap.cctx.cap:
        raise EnumerationCapExceededError(
            f"{pairs} binomial terms exceed cap {umap.cctx.cap}")
    for pt in (x, y, x + y):
        ensure_admissible(umap, pt)
    rep = DualityReport("binomial", {"map": umap.name, "n_max": n_max,
                                     "prec": prec})
    p = umap.ctx.p
    s = x + y
    for n in range(n_max + 1):
        lhs = umap.moment(s, n)
        acc = product_sum(umap.ctx, [
            (umap.moment(x, k).scale(b), umap.moment(y, n - k))
            for k in range(n + 1) if (b := binom_mod_p(n, k, p))])
        agreement = agreement_valuation(lhs, acc)
        rep.record(agreement, prec, {"x": _key_of(x), "y": _key_of(y), "n": n})
        rep.trials += 1
    return rep
