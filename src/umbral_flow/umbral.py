"""Umbral maps as moment sequences, and the flow operators they induce.

An umbral map is represented extensionally: all anybody can ask of it is its
moment sequence F_k(x), so that is the interface.  The k = 0 moment is 1 for
every map and every x.  A geometric map is given by a plain function g and a
name, with moments g(x)^k.  Flow application is the finite triangular sum

    (flow P)_h = sum_{k < M-h} C(k+h, h) a_{k+h} F_k(x)

over the coefficient window of P; for maps whose moments are powers of the
first one this provably coincides with a Taylor shift, which the test suites
check against as an independent oracle (taylor_shift never goes through
moments).

The flow coefficient at X^h is the umbral evaluation of the h-th Hasse
derivative of P, so ``apply_flow``, ``flow_coefficient``,
``flow_coefficients`` and ``umbral_eval`` (the h = 0 case) run one walk,
``_moment_sums``, and one accumulated convolution, over every p.  The walk
visits the terms a_j of P once for any number of h: each term meets the h
with C(j, h) non-zero mod p (over p = 2, the h whose bits lie under those
of j) and asks for each moment F_(j-h)(x) at most once.  Every product
C(j, h) a_j F_(j-h)(x) it keeps goes, shifted into block h, into one
``FieldCtx.convolve_sum``; each block's precision is a min over its pairs,
which is integer work.  The duality diagram reads every coefficient of one
basis index from that one walk.  A finite window skips every term whose
valuation bound reaches it, and asks the map's floor first, so that a term
the floor already places past the window never computes its moment.

Admissibility (F_k(x) -> 0) is decided by exact rules alone: powers of a
first moment are admissible exactly where |F_1(x)| < 1, the twisted map
everywhere, and the dual of a map with a tail bound under an integral
exact generator wherever that bound holds (see ``duality``).  A map with
no rule at x is refused, not guessed at.

A map may also state a tail bound, ``moment_bound(x, n)``: a lower bound on
vlb(F_m(x)) for every m >= n that grows without limit in n, read off the
moment definitions.  Powers of a first moment g with vlb(g(x)) >= 1 have
n * vlb(g(x)).  The twisted map at a polynomial x has INF from its support
q^(deg x + 1) on, since e_k(x) = 0 for k > deg x.  Dual maps size their sums
and their precision by it.

A map's floor, ``moment_floor(x, n)``, bounds the same valuations of the
moments it *computes*, with their precision loss; the windowed sum trusts
only the floor.  For powers of a first moment it is the tail bound, since
a computed product keeps vlb(a * b) >= vlb(a) + vlb(b); for the twisted
map too, since a computed e_k(x) past deg x is the exact zero.  A map that
proves no floor (a bumped map, see ``duality``) has None.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .carlitz import CarlitzCtx
from .errors import PreconditionFailedError
from .laurent import INF, LaurentF, block_sums
from .series import TruncSeries, binom_mod_p


# immutable; its repr is quoted in "not apparently admissible" errors
AdmissibilityVerdict = namedtuple(
    "AdmissibilityVerdict", "apparently_admissible rule witness_k",
    defaults=(None,))


class UmbralMap:
    """Base: a family of moments F_k(x) over a Carlitz context."""

    name = "abstract"

    def __init__(self, cctx: CarlitzCtx, prec: int):
        self.cctx = cctx
        self.ctx = cctx.field
        self.prec = prec

    def moment(self, x: LaurentF, k: int) -> LaurentF:
        raise NotImplementedError

    def admissibility_rule(self, x: LaurentF):
        """Exact admissibility verdict, or None where no rule is known."""
        return None

    def support(self, x: LaurentF):
        """The least n with F_m(x) an exact zero for every m >= n; INF when
        no such n is known."""
        return INF

    def moment_bound(self, x: LaurentF, n: int):
        """A lower bound on vlb(F_m(x)) for every m >= n, growing without
        limit in n, or None where none is known: INF from the support on."""
        return INF if n >= self.support(x) else None

    def moment_floor(self, x: LaurentF, n: int):
        """A lower bound on vlb of the computed F_m(x) for every m >= n, or
        None where none is proven."""
        return None

    def __repr__(self):
        return f"<{self.name} umbral map, prec={self.prec}>"


class _PowerMomentMap(UmbralMap):
    """Moments F_k(x) = g(x)^k for a scalar function g; caches the powers."""

    def __init__(self, cctx, prec):
        super().__init__(cctx, prec)
        self._powers = {}

    def _base(self, x: LaurentF) -> LaurentF:
        raise NotImplementedError

    def moment(self, x, k):
        if k == 0:
            return LaurentF.one(self.ctx)
        pows = self._powers.get(x)
        if pows is None:
            pows = [LaurentF.one(self.ctx), self._base(x)]
            self._powers[x] = pows
        while len(pows) <= k:
            pows.append(pows[-1] * pows[1])
        return pows[k]

    def admissibility_rule(self, x):
        ok = self.moment_bound(x, 1) is not None
        return AdmissibilityVerdict(ok, f"|{self.name}_1(x)| < 1 test",
                                    None if ok else 1)

    def moment_bound(self, x, n):
        # vlb(a * b) >= vlb(a) + vlb(b), so vlb(g^m) >= m * vlb(g)
        b = self.moment(x, 1).val_lower_bound()
        if b < 1:
            return None
        return n * b if n else 0

    def moment_floor(self, x, n):
        # computed powers keep vlb(a * b) >= vlb(a) + vlb(b)
        return self.moment_bound(x, n)


class AdditiveMap(_PowerMomentMap):
    """S_k(x) = x^k."""

    name = "additive"

    def _base(self, x):
        return x


class NaiveMap(_PowerMomentMap):
    """N_k(x) = e_C(x)^k, the Carlitz exponential's geometric map."""

    name = "naive"

    def _base(self, x):
        return self.cctx.exp(x, self.prec)


class GeometricMap(_PowerMomentMap):
    """F_k(x) = g(x)^k for a supplied function g on Laurent values, named
    ``geometric:<name>``."""

    def __init__(self, cctx, prec, fn, name):
        super().__init__(cctx, prec)
        self.fn = fn
        self.name = f"geometric:{name}"

    def _base(self, x):
        return self.fn(x)


class TwistedMap(UmbralMap):
    """T_n(x) = prod over the q-adic digits n = sum eps_k q^k of
    (e_k(x)/D_k)^eps_k; admissible on all of F.  Each moment is one
    product T_(n - q^k) * (e_k(x)/D_k) of a cached one, k the place of the
    lowest non-zero digit of n: a product's (v, codes, prec) does not
    depend on the order of its factors."""

    name = "twisted"

    def __init__(self, cctx, prec, inv_prec_pad: int = 32):
        super().__init__(cctx, prec)
        self._basis = {}    # x -> list of e_k(x)/D_k
        self._moments = {}  # x -> {n: T_n(x)}, T_0 = 1 included
        # headroom for negative-valuation factors: at 0 only example58 moves
        self._inv_prec = prec + inv_prec_pad

    def basis_value(self, x: LaurentF, k: int) -> LaurentF:
        vals = self._basis.setdefault(x, [])
        while len(vals) <= k:
            j = len(vals)
            ekx = self.cctx.ek(j, x)
            if ekx.is_exact_zero():
                vals.append(ekx)
            else:
                need = self._inv_prec - min(0, ekx.val_lower_bound())
                vals.append(ekx * self.cctx.dk_inv(j, need))
        return vals[k]

    def moment(self, x, n):
        cache = self._moments.get(x)
        if cache is None:
            cache = self._moments[x] = {0: LaurentF.one(self.ctx)}
        # the chain n, n - q^k, ... down to a cached moment, each link with
        # the place k of its lowest non-zero digit; then one product a link
        q, chain, m = self.ctx.q, [], n
        while m not in cache:
            k, e = 0, 1
            while m // e % q == 0:
                k, e = k + 1, e * q
            chain.append((m, k))
            m -= e
        val = cache[m]
        for m, k in reversed(chain):
            val = cache[m] = val * self.basis_value(x, k)
        return val

    def admissibility_rule(self, x):
        return AdmissibilityVerdict(True, "twisted maps are admissible everywhere")

    def support(self, x):
        # at a polynomial x, e_k(x) has the factor x + eps with eps = -x once
        # k > deg x, so T_n(x) = 0 once n has a q-adic digit past deg x; any
        # other x has deg x = INF, and so no support
        return self.ctx.q ** (x.poly_degree() + 1)

    def moment_floor(self, x, n):
        # past the support a computed moment is the exact zero
        return self.moment_bound(x, n)


def admissible_heuristic(umap: UmbralMap,
                         x: LaurentF) -> AdmissibilityVerdict:
    """The map's exact admissibility verdict at x; a map with no rule there
    is refused."""
    verdict = umap.admissibility_rule(x)
    if verdict is None:
        raise PreconditionFailedError(
            f"no admissibility rule for {umap.name} at this x")
    return verdict


def ensure_admissible(umap: UmbralMap, x: LaurentF):
    """Refuse x unless the map's rule admits it."""
    verdict = admissible_heuristic(umap, x)
    if not verdict.apparently_admissible:
        raise PreconditionFailedError(
            f"x not apparently admissible for {umap.name}: {verdict}")


def flow_coefficient(umap: UmbralMap, x: LaurentF, P: TruncSeries,
                     h: int, window=INF) -> LaurentF:
    """eps_h = sum_{k < M-h} C(k+h, h) a_{k+h} F_k(x), an exact finite sum,
    truncated at absolute precision ``window``: the one walk and the one
    accumulated convolution of ``apply_flow``, for the one h (see
    ``_moment_sums``)."""
    return _moment_sums(umap, x, P, (window,), h)[0]


def flow_coefficients(umap: UmbralMap, x: LaurentF, P: TruncSeries,
                      windows) -> list:
    """The flow coefficients eps_h for h < len(windows), eps_h truncated
    at windows[h]: one walk over the terms of P serves every h."""
    return _moment_sums(umap, x, P, windows)


def umbral_eval(Q: TruncSeries, umap: UmbralMap, x: LaurentF,
                window=INF) -> LaurentF:
    """eval of sum_m q_m F(x)^m over the coefficient window of Q, truncated
    at absolute precision ``window``: the flow coefficient at h = 0."""
    return _moment_sums(umap, x, Q, (window,))[0]


@lru_cache(maxsize=1 << 14)
def _binomial_row(j, lo, hi, p):
    """The (h, C(j, h) mod p) with lo <= h < min(j + 1, hi) and the
    binomial non-zero mod p, ascending.  Over p = 2 the binomial is 1 on
    exactly the h whose bits lie under those of j (Lucas's theorem)."""
    hs = range(lo, min(j + 1, hi))
    if p == 2:
        return tuple((h, 1) for h in hs if h & j == h)
    return tuple((h, b) for h in hs if (b := binom_mod_p(j, h, p)))


def _moment_sums(umap, x, P, windows, lo=0):
    # For h = lo, lo + 1, ... (one h per window): the sum over the terms of
    # P of C(j, h) a_j F_(j-h)(x), truncated at windows[h - lo], in one
    # walk over the terms that asks for each moment at most once.  Every
    # term is visited; none is dropped for being small, since term
    # valuations need not be monotone in j.  A term is skipped,
    # unmultiplied, only when its own bound vlb(a_j) + vlb(F_(j-h)(x))
    # reaches its window.  A product's digits and its precision are all at
    # or past the sum of its factors' valuation bounds, so such a term adds
    # only digits that the truncation drops, and a precision at least the
    # window: the truncated sum is the same (v, codes, prec) with or
    # without it.  Below a finite window the map's floor stands in for
    # vlb(F_(j-h)(x)) before the moment is asked for, since it bounds the
    # moment the map would compute.  With an INF window only moments that
    # are exact zeros are skipped, whose products would add nothing.
    #
    # Every sum is one accumulated convolution (``block_sums``): the
    # product of a kept pair lands in block h - lo, which is cut once, at
    # the least of its window and its pairs' precisions
    # min(prec_a + vlb_F, prec_F + vlb_a); F_0 = 1 is exact.
    ctx = P.ctx
    hi = lo + len(windows)
    precs = list(windows)
    kept = []  # (h - lo, codes of C(j, h) a_j, v_a + v_F, codes of F)
    floors, moments = {}, {}
    for j, a in P.terms:
        if j < lo:
            continue
        va = a.val_lower_bound()
        # at h = 0 alone every C(j, 0) is 1, and no binomial is looked up
        row = ((0, 1),) if hi == 1 else _binomial_row(j, lo, hi, ctx.p)
        for h, b in row:
            i = h - lo
            if j > h:
                k, w = j - h, windows[i]
                if w != INF:
                    if k not in floors:
                        floors[k] = umap.moment_floor(x, k)
                    if floors[k] is not None and va + floors[k] >= w:
                        continue
                fk = moments.get(k)
                if fk is None:
                    fk = moments[k] = umap.moment(x, k)
                vf = fk.val_lower_bound()
                if va + vf >= w:
                    continue
                pk = min(a.prec + vf, fk.prec + va)
                fs, v = fk.codes, a.v + fk.v
            else:
                pk, fs, v = a.prec, b"\1", a.v
            if pk < precs[i]:
                precs[i] = pk
            if a.codes and fs:
                kept.append((i, a.codes if b == 1 else ctx.scale(b, a.codes),
                             v, fs))
    return block_sums(ctx, kept, precs)


def apply_flow(umap: UmbralMap, x: LaurentF, P: TruncSeries) -> TruncSeries:
    """Apply the flow operator of ``umap`` at an admissible x to P, on P's
    window: every coefficient from one walk over the terms of P, summed in
    one accumulated convolution (``_moment_sums``), over every field."""
    ensure_admissible(umap, x)
    return TruncSeries(P.ctx, _moment_sums(umap, x, P, (INF,) * P.trunc))
