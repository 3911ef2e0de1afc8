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
derivative of P, so ``flow_coefficient`` and ``umbral_eval`` (its h = 0
case) run one windowed moment sum, ``_moment_sum``, which is one
``laurent.product_sum``.  A finite window skips every term whose valuation
bound reaches it.

``apply_flow`` sums the whole window at once as sum_j a_j row_j, with
row_j = sum_h F_(j-h)(x) X^h over the h whose C(j, h) is odd.  Over
characteristic 2, where adding two code vectors is one XOR, row_j is one
code vector with block h at offset h*W, the products a_j row_j are one
accumulated ``FieldCtx.convolve_sum``, and every output precision is a min
over the same pairs, which is integer work.  Over odd p ``apply_flow``
takes ``flow_coefficient`` per coefficient, which is also the reference
for the packed sum and the windowed single reads of the duality checks.

Admissibility (F_k(x) -> 0) is only semi-decidable at finite precision, so
the heuristic verdict is labeled "apparently"; the maps with an exact rule
(powers of a first moment: |F_1(x)| < 1; twisted: everywhere; the dual of
a map with a tail bound under an integral inverse generator, see
``duality``) bypass the window scan.

A map may also state a tail bound, ``moment_bound(x, n)``: a lower bound on
vlb(F_m(x)) for every m >= n that grows without limit in n, read off the
moment definitions.  Powers of a first moment g with vlb(g(x)) >= 1 have
n * vlb(g(x)).  The twisted map at a polynomial x has INF from its support
q^(deg x + 1) on, since e_k(x) = 0 for k > deg x.  Dual maps size their sums
and their precision by it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .carlitz import CarlitzCtx
from .errors import PreconditionFailedError
from .laurent import INF, LaurentF, product_sum
from .series import TruncSeries, binom_mod_p


@dataclass(frozen=True)
class AdmissibilityVerdict:
    apparently_admissible: bool
    rule: str
    witness_k: int | None = None


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
        """Exact admissibility verdict, or None when only the scan applies."""
        return None

    def support(self, x: LaurentF):
        """The least n with F_m(x) an exact zero for every m >= n; INF when
        no such n is known."""
        return INF

    def moment_bound(self, x: LaurentF, n: int):
        """A lower bound on vlb(F_m(x)) for every m >= n, growing without
        limit in n, or None where none is known: INF from the support on."""
        return INF if n >= self.support(x) else None

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
    (e_k(x)/D_k)^eps_k; admissible on all of F."""

    name = "twisted"

    def __init__(self, cctx, prec, inv_prec_pad: int = 32):
        super().__init__(cctx, prec)
        self._basis = {}    # x -> list of e_k(x)/D_k
        self._moments = {}  # x -> {n: T_n(x)}
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
        if n == 0:
            return LaurentF.one(self.ctx)
        cache = self._moments.setdefault(x, {})
        got = cache.get(n)
        if got is not None:
            return got
        q = self.ctx.q
        val = LaurentF.one(self.ctx)
        m, k = n, 0
        while m:
            m, digit = divmod(m, q)
            if digit:
                val = val * self.basis_value(x, k) ** digit
            k += 1
        cache[n] = val
        return val

    def admissibility_rule(self, x):
        return AdmissibilityVerdict(True, "twisted maps are admissible everywhere")

    def support(self, x):
        # at a polynomial x, e_k(x) has the factor x + eps with eps = -x once
        # k > deg x, so T_n(x) = 0 once n has a q-adic digit past deg x; any
        # other x has deg x = INF, and so no support
        return self.ctx.q ** (x.poly_degree() + 1)


def admissible_heuristic(umap: UmbralMap,
                         x: LaurentF) -> AdmissibilityVerdict:
    """Exact rule when the map has one, else a windowed decay scan: x is
    apparently admissible once 3 consecutive moments reach ``umap.prec``.
    Moments decaying at unit rate need k about prec before they clear that
    bar, so the scan depth follows the precision."""
    exact = umap.admissibility_rule(x)
    if exact is not None:
        return exact
    quiet = 0
    last_bad = None
    for k in range(1, max(32, umap.prec + 8) + 1):
        if umap.moment(x, k).val_lower_bound() >= umap.prec:
            quiet += 1
            if quiet >= 3:
                return AdmissibilityVerdict(True, "windowed decay scan")
        else:
            quiet = 0
            last_bad = k
    return AdmissibilityVerdict(False, "windowed decay scan", last_bad)


def flow_coefficient(umap: UmbralMap, x: LaurentF, P: TruncSeries,
                     h: int, window=INF) -> LaurentF:
    """eps_h = sum_{k < M-h} C(k+h, h) a_{k+h} F_k(x), an exact finite sum,
    truncated at absolute precision ``window``: one ``product_sum`` over
    the terms (see ``_moment_sum``).

    This is ``apply_flow``'s path over odd p and the reference for its
    packed sum.  The duality checks call it directly for the single
    coefficients they read.
    """
    return _moment_sum(umap, x, P, h, window)


def umbral_eval(Q: TruncSeries, umap: UmbralMap, x: LaurentF,
                window=INF) -> LaurentF:
    """eval of sum_m q_m F(x)^m over the coefficient window of Q, truncated
    at absolute precision ``window``: the flow coefficient at h = 0."""
    return _moment_sum(umap, x, Q, 0, window)


def _moment_sum(umap, x, P, h, window):
    # sum_{j >= h} C(j, h) a_j F_(j-h)(x) over the terms of P, truncated at
    # ``window``.  Every term is visited; none is dropped for being small,
    # since term valuations need not be monotone in j.  A term is skipped,
    # unmultiplied, only when its own bound vlb(a_j) + vlb(F_(j-h)(x))
    # reaches the window.  A product's digits and its precision are all at
    # or past the sum of its factors' valuation bounds, so such a term adds
    # only digits that the truncation drops, and a precision at least the
    # window: the truncated sum is the same (v, codes, prec) with or
    # without it.  With the default INF window this skips only moments that
    # are exact zeros, whose products would add nothing.  At h = 0 every
    # C(j, 0) is 1, so no binomial is looked up.
    p = P.ctx.p
    pairs = []
    for j, a in P.terms:
        if h:
            if j < h:
                continue
            b = binom_mod_p(j, h, p)
            if b == 0:
                continue
            if b != 1:
                a = a.scale(b)
        fk = None
        if j > h:
            fk = umap.moment(x, j - h)
            if a.val_lower_bound() + fk.val_lower_bound() >= window:
                continue
        pairs.append((a, fk))
    return product_sum(P.ctx, pairs, window)


@lru_cache(maxsize=None)
def _odd_binomial_rows(n):
    """For each j < n, the h <= j with C(j, h) odd, ascending.  By Lucas's
    theorem these are the h whose bits lie under those of j: 81 in all for
    n = 16."""
    return tuple(tuple(h for h in range(j + 1) if h & j == h)
                 for j in range(n))


def apply_flow(umap: UmbralMap, x: LaurentF, P: TruncSeries,
               require_admissible: bool = True) -> TruncSeries:
    """Apply the flow operator of ``umap`` at x to P, on P's window.

    Over characteristic 2 the window is one packed sum (``_flow_packed``),
    one ``FieldCtx.convolve_sum`` of its rows; over odd p a packed sum
    would add code vectors with a table loop, and the window takes
    ``flow_coefficient`` per coefficient instead.  Both give every
    coefficient the same (v, codes, prec) and ask ``umap`` for the same
    moments.
    """
    if require_admissible:
        verdict = admissible_heuristic(umap, x)
        if not verdict.apparently_admissible:
            raise PreconditionFailedError(
                f"x not apparently admissible for {umap.name}: {verdict}")
    if P.ctx.p == 2:
        return _flow_packed(umap, x, P)
    return TruncSeries(P.ctx, [flow_coefficient(umap, x, P, h)
                               for h in range(P.trunc)])


def _flow_packed(umap, x, P):
    # (flow P) = sum_j a_j row_j, row_j = sum_h F_(j-h)(x) X^h over the h
    # with C(j, h) odd, the only non-zero binomials in characteristic 2.
    # Block h of row_j holds the codes of F_(j-h) at offset
    # h*W + (v_F - v_Fmin), with W the digit span of the coded a_j plus
    # that of the moments they meet, less one, so that one convolution by
    # a_j's codes keeps every block apart.  The loop truncates each sum at
    # the least precision of its terms, so block h is cut at prec_h, the
    # min over pairs (j, h) of min(prec_a + vlb_F, prec_F + vlb_a); F_0 = 1
    # is exact.
    ctx, n = P.ctx, P.trunc
    rows = _odd_binomial_rows(n)
    moments = {0: LaurentF.one(ctx)}
    precs = [INF] * n
    coded = []
    # the digit span of the moments that coded a_j meet, F_0 = 1 among them
    f_lo, f_hi = 0, 1
    for j, a in P.terms:
        pa, va = a.prec, a.val_lower_bound()
        if a.codes:
            coded.append((j, a))
        for h in rows[j]:
            f = moments.get(j - h)
            if f is None:
                f = moments[j - h] = umap.moment(x, j - h)
            ph = min(pa + f.val_lower_bound(), f.prec + va)
            if ph < precs[h]:
                precs[h] = ph
            if a.codes and f.codes:
                f_lo = min(f_lo, f.v)
                f_hi = max(f_hi, f.v + len(f.codes))
    if not coded:
        return TruncSeries(ctx, [LaurentF(ctx, 0, b"", ph) for ph in precs])
    a_lo = min(a.v for _, a in coded)
    a_hi = max(a.v + len(a.codes) for _, a in coded)
    width = a_hi - a_lo + f_hi - f_lo - 1
    triples = []
    for j, a in coded:
        row = bytearray(j * width + f_hi - f_lo)
        for h in rows[j]:
            f = moments[j - h]
            if f.codes:
                at = h * width + f.v - f_lo
                row[at:at + len(f.codes)] = f.codes
        triples.append((bytes(row), a.codes, a.v - a_lo))
    acc = ctx.convolve_sum(triples)
    v = a_lo + f_lo
    return TruncSeries(ctx, [
        LaurentF(ctx, v, acc[h * width:(h + 1) * width], precs[h])
        for h in range(n)])
