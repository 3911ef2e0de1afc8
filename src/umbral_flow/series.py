"""Truncated power series over F = F_q((1/t)) and additive series.

``TruncSeries`` holds the first M coefficients of an element of F[[T]]; all
operations are exact on that window.  ``sup_valuation`` is the integer form
of coefficient boundedness: a lower bound on the valuation of every
coefficient, so "the series is bounded by c" reads sup_valuation >= -log_q c.

A product of two series takes one of two paths with the same result.  A
dense product is a 2-D Kronecker substitution: coefficient i's codes go to
block i of one code vector per operand, one ``FieldCtx.convolve`` call
multiplies them, block k of the result holds the digits of output
coefficient k, and its precision is a min over the term pairs i + j = k,
which is integer work.  A sparse product, and every product over a field
whose convolution does not pack (p^(2d-1) > 256), takes the schoolbook
loop, one ``laurent.product_sum`` per output coefficient.  Dense means that
the packed slot count n*W is at most ``_PACK_SLOTS_PER_PAIR`` times the
number of term pairs: the power-rule products of the flow claims are
dense, the trunc-80 power tables of the duality layer sparse.
``taylor_shift`` reads no moment, so it stays the flows' independent
oracle: the two share only the field kernels.

``AdditiveSeries`` is a separate carrier for series with terms only at
p-power exponents, H(T) = sum_i h_i T^(p^i).  Keeping it structural makes
additivity unviolable and composition a small skew product instead of a
general series composition.  An additive series is either ``exact`` (it IS
the finite additive polynomial its coefficients spell) or a truncation of an
unknown longer series; compositions and conversions track the difference.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import (
    CompositionConstantTermError,
    NotAGeneratorError,
    TruncationMismatchError,
)
from .laurent import INF, LaurentF, json_fields, product_sum


def top_place(p: int, n: int):
    """(t, p^t) for the largest p-power p^t <= n (n >= 1): the place of
    n's top base-p digit."""
    t, e = 0, 1
    while e * p <= n:
        t, e = t + 1, e * p
    return t, e


def plen(p: int, span: int) -> int:
    """Smallest m >= 1 with p^m >= span: the number of p-power terms an
    additive series needs to reach the window T^0 ... T^(span-1)."""
    m = 0
    while p ** m < span:
        m += 1
    return max(m, 1)


# one pass of a benchmark workload looks up at most a few thousand (n, k, p)
# keys; an unbounded cache would keep every pair of a binomial check for
# the life of the process, up to 10^6 entries and about 120 MB
@lru_cache(maxsize=1 << 16)
def binom_mod_p(n, k, p):
    """C(n, k) mod p by Lucas' digitwise rule; never touches big factorials."""
    if k < 0 or k > n:
        return 0
    r = 1
    while k:
        n, nd = divmod(n, p)
        k, kd = divmod(k, p)
        if kd > nd:
            return 0
        if nd and kd:
            num = 1
            den = 1
            for i in range(kd):
                num = num * (nd - i) % p
                den = den * (i + 1) % p
            r = r * num * pow(den, -1, p) % p
    return r


# A product packs when its slot count n*W (n the window, W the block width)
# is at most this many times the number of term pairs the loop would
# multiply.  Measured per product (min of 7 runs, 2-CPU x86-64 VM, CPython
# 3.11) on the 1,115 products of one pass of each benchmark workload at
# seed 1000: over F_2 packing is 2.6x faster at slots/pairs 4-6, 1.8x at
# 8-10, 1.1x at 14-18 and slower from about 20; over F_4 the crossover is
# near 10.  Every flow-claim product has slots/pairs <= 37 and every
# duality-layer product >= 139, where packing is 3-100x slower; the total
# over the flow products is least, and flat, for thresholds 14 to 139.
_PACK_SLOTS_PER_PAIR = 16


def _digit_span(terms, n):
    """(lo, hi): the exponents lo <= e < hi that hold the stored codes of
    the terms below index n; None when none of them stores a code."""
    coded = [c for i, c in terms if i < n and c.codes]
    if not coded:
        return None
    return min(c.v for c in coded), max(c.v + len(c.codes) for c in coded)


def _pair_count(ta, tb, n):
    """The number of term pairs (i, j) with i + j < n, which the schoolbook
    loop multiplies; one pass over each sorted term list."""
    count, k = 0, len(tb)
    for i, _ in ta:
        while k and tb[k - 1][0] + i >= n:
            k -= 1
        if not k:
            break
        count += k
    return count


def _pack(terms, n, lo, width):
    """The codes of the terms below n laid out at offsets i*width + (v - lo)
    of one code vector."""
    buf = bytearray(n * width)
    for i, c in terms:
        if i >= n:
            break
        if c.codes:
            at = i * width + c.v - lo
            buf[at:at + len(c.codes)] = c.codes
    return bytes(buf).rstrip(b"\0")


class TruncSeries:
    """A_0 + a_1 T + ... + a_(M-1) T^(M-1) + O(T^M) with LaurentF coefficients."""

    __slots__ = ("ctx", "coeffs", "_terms")

    def __init__(self, ctx, coeffs):
        self.ctx = ctx
        self.coeffs = tuple(coeffs)
        self._terms = None

    @property
    def trunc(self):
        return len(self.coeffs)

    @property
    def terms(self):
        """The (j, a_j) pairs whose a_j is not an exact zero, in order of j;
        built on first use and kept, since products and flow sums walk the
        same series many times."""
        if self._terms is None:
            self._terms = tuple((j, c) for j, c in enumerate(self.coeffs)
                                if not c.is_exact_zero())
        return self._terms

    @classmethod
    def zero(cls, ctx, trunc):
        z = LaurentF.zero(ctx)
        return cls(ctx, (z,) * trunc)

    @classmethod
    def monomial(cls, ctx, j, trunc, coeff=None):
        """coeff * T^j, exact (all other coefficients are exact zeros)."""
        z = LaurentF.zero(ctx)
        c = LaurentF.one(ctx) if coeff is None else coeff
        coeffs = [z] * trunc
        if j < trunc:
            coeffs[j] = c
        return cls(ctx, coeffs)

    @classmethod
    def from_coeffs(cls, ctx, coeffs, trunc=None):
        coeffs = list(coeffs)
        if trunc is not None:
            z = LaurentF.zero(ctx)
            coeffs = (coeffs + [z] * trunc)[:trunc]
        return cls(ctx, coeffs)

    def coeff(self, j):
        return self.coeffs[j]

    def slice(self, trunc):
        return TruncSeries(self.ctx, self.coeffs[:trunc])

    def sup_valuation(self):
        """min_j of a sound lower bound on v(a_j); INF when all exact zeros."""
        return min((c.val_lower_bound() for c in self.coeffs), default=INF)

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        n = min(self.trunc, other.trunc)
        return TruncSeries(self.ctx,
                           [self.coeffs[j] + other.coeffs[j] for j in range(n)])

    def __neg__(self):
        return TruncSeries(self.ctx, [-c for c in self.coeffs])

    def __sub__(self, other):
        n = min(self.trunc, other.trunc)
        return TruncSeries(self.ctx,
                           [self.coeffs[j] - other.coeffs[j] for j in range(n)])

    def scale(self, c: LaurentF):
        return TruncSeries(self.ctx, [c * a for a in self.coeffs])

    def __mul__(self, other):
        """The product on the common window.  A dense product takes one
        packed convolution (``_mul_packed``), a sparse one the schoolbook
        loop (``_mul_loop``); both give every coefficient the same (v,
        codes, prec)."""
        n = min(self.trunc, other.trunc)
        if self.ctx.packs:
            sa = _digit_span(self.terms, n)
            sb = _digit_span(other.terms, n)
            if sa and sb and n * (sa[1] - sa[0] + sb[1] - sb[0] - 1) <= \
                    _PACK_SLOTS_PER_PAIR * _pair_count(self.terms,
                                                       other.terms, n):
                return self._mul_packed(other, n, sa, sb)
        return self._mul_loop(other)

    def _mul_loop(self, other):
        # the sparse path and the reference for the packed one: one
        # product_sum per output coefficient k over the term pairs i + j = k
        n = min(self.trunc, other.trunc)
        z = LaurentF.zero(self.ctx)
        sums = [[] for _ in range(n)]
        bs = other.terms
        for i, a in self.terms:
            if i >= n:
                break
            for j, b in bs:
                if i + j >= n:
                    break
                sums[i + j].append((a, b))
        return TruncSeries(self.ctx, [product_sum(self.ctx, s) if s else z
                                      for s in sums])

    def _mul_packed(self, other, n, sa, sb):
        # 2-D Kronecker substitution on the window n, with sa and sb the
        # operands' digit spans there (both coded): term i's codes go to
        # offset i*W + (v_i - v_min) of one code vector per operand, with W
        # the sum of the two digit spans less one, so that the digits of
        # output coefficient k fill block k of one convolution and no block
        # spills into the next.  The schoolbook sum truncates at the least
        # precision of its pair products, so block k is cut at prec_k, the
        # min over pairs i + j = k of min(prec_i + vlb_j, prec_j + vlb_i).
        ctx = self.ctx
        width = sa[1] - sa[0] + sb[1] - sb[0] - 1
        digits = ctx.convolve(_pack(self.terms, n, sa[0], width),
                              _pack(other.terms, n, sb[0], width))
        v = sa[0] + sb[0]
        precs = [INF] * n
        bs = [(j, b.prec, b.val_lower_bound()) for j, b in other.terms]
        for i, a in self.terms:
            if i >= n:
                break
            pa, va = a.prec, a.val_lower_bound()
            for j, pb, vb in bs:
                k = i + j
                if k >= n:
                    break
                pk = min(pa + vb, pb + va)
                if pk < precs[k]:
                    precs[k] = pk
        return TruncSeries(ctx, [
            LaurentF(ctx, v, digits[k * width:(k + 1) * width], precs[k])
            for k in range(n)])

    def frobenius(self, t):
        """B^(p^t) = sum_j c_j^(p^t) T^(j p^t) in characteristic p: each
        coefficient moves, none is multiplied, and the gaps are exact zeros.

        A moved coefficient keeps the precision the product route gives
        c^e (e = p^t), prec + (e - 1) v, rather than the e * prec of
        ``frob_power``; truncation only gives up known digits, and the
        longer code lists would slow every later product."""
        if t == 0:
            return self
        e = self.ctx.p ** t
        z = LaurentF.zero(self.ctx)
        out = [z] * self.trunc
        for j, c in self.terms:
            if j * e >= self.trunc:
                break
            cap = c.prec + (e - 1) * c.val_lower_bound()
            out[j * e] = c.frob_power(t).truncate(cap)
        return TruncSeries(self.ctx, out)

    def __eq__(self, other):
        return (isinstance(other, TruncSeries) and self.ctx is other.ctx
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((id(self.ctx), self.coeffs))

    def __repr__(self):
        parts = []
        for j, c in enumerate(self.coeffs[:8]):
            if not c.is_zero_at_prec():
                parts.append(f"({c!r})T^{j}" if j else f"({c!r})")
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O(T^{self.trunc})"

    def to_json(self):
        return {"trunc": self.trunc, "coeffs": [c.to_json() for c in self.coeffs]}

    @classmethod
    def from_json(cls, ctx, obj):
        coeffs, trunc = json_fields(obj, "series", coeffs=list, trunc=int)
        return cls(ctx, [LaurentF.from_json(ctx, c) for c in coeffs][:trunc])


def hasse_derivative(P: TruncSeries, k: int) -> TruncSeries:
    """k-th Hasse derivative: T^n -> C(n, k) T^(n-k); truncation shrinks by k."""
    if k == 0:
        return P
    ctx = P.ctx
    p = ctx.p
    n = max(P.trunc - k, 0)
    out = []
    for j in range(n):
        b = binom_mod_p(j + k, k, p)
        a = P.coeffs[j + k]
        out.append(a.scale(b) if b != 1 else a)
    return TruncSeries(ctx, out)


def taylor_shift(P: TruncSeries, c: LaurentF) -> TruncSeries:
    """The coefficient window of P(T + c): exact binomial re-expansion,
    sum_k C(j+k, k) a_(j+k) c^k at T^j.

    Independent of the flow machinery on purpose: this is the oracle that
    flow results are compared against.
    """
    ctx = P.ctx
    p = ctx.p
    M = P.trunc
    cpows = [None, c]  # c^k by the chain c^(k-1) * c; None is c^0 = 1
    while len(cpows) < M:
        cpows.append(cpows[-1] * c)
    out = []
    for j in range(M):
        pairs = []
        for k in range(M - j):
            a = P.coeffs[j + k]
            if a.is_exact_zero():
                continue
            b = binom_mod_p(j + k, k, p)
            if b == 0:
                continue
            pairs.append((a if b == 1 else a.scale(b), cpows[k]))
        out.append(product_sum(ctx, pairs))
    return TruncSeries(ctx, out)


def series_compose(P: TruncSeries, Q: TruncSeries) -> TruncSeries:
    """P(Q(T)) on the common window; Q must have exact zero constant term."""
    q0 = Q.coeffs[0] if Q.trunc else None
    if q0 is None or not q0.is_exact_zero():
        raise CompositionConstantTermError("composition needs Q(0) = 0 exactly")
    n = min(P.trunc, Q.trunc)
    Qs = Q.slice(n)
    acc = TruncSeries.monomial(P.ctx, 0, n, P.coeffs[n - 1]) if n else \
        TruncSeries.zero(P.ctx, 0)
    for j in range(n - 2, -1, -1):
        acc = acc * Qs
        acc = TruncSeries(P.ctx,
                          (acc.coeffs[0] + P.coeffs[j],) + acc.coeffs[1:])
    return acc


class AdditiveSeries:
    """H(T) = sum_i h_i T^(p^i), stored as the list h_0 ... h_(m-1).

    ``exact`` declares the series to BE this additive polynomial; otherwise
    the coefficients beyond p^(m-1) are unknown (truncated at exponent p^m).
    """

    __slots__ = ("ctx", "pcoeffs", "exact")

    def __init__(self, ctx, pcoeffs, exact=True):
        self.ctx = ctx
        self.pcoeffs = tuple(pcoeffs)
        self.exact = exact

    @property
    def length(self):
        return len(self.pcoeffs)

    @classmethod
    def identity(cls, ctx):
        return cls(ctx, (LaurentF.one(ctx),), exact=True)

    @classmethod
    def linear(cls, gamma: LaurentF, length=1):
        z = LaurentF.zero(gamma.ctx)
        return cls(gamma.ctx, (gamma,) + (z,) * (length - 1), exact=True)

    def coeff(self, i):
        return self.pcoeffs[i]

    def is_generator(self):
        """(ok, reason): unit linear coefficient plus bounded coefficients.

        Boundedness is automatic at finite truncation; the only way to fail
        it here is a coefficient whose valuation is unknown (precision loss).
        """
        h0 = self.pcoeffs[0] if self.pcoeffs else None
        if h0 is None or h0.is_zero_at_prec():
            return False, "linear coefficient is zero (or zero at precision)"
        if h0.v != 0:
            return False, f"linear coefficient has valuation {h0.v}, not 0"
        return True, "ok"

    def compose(self, other: "AdditiveSeries") -> "AdditiveSeries":
        """H(G(T)): skew product c_k = sum_{i+j=k} h_i * g_j^(p^i)."""
        ctx = self.ctx
        if self.exact and other.exact:
            n = self.length + other.length - 1
            exact = True
        else:
            n = min(self.length if not self.exact else INF,
                    other.length if not other.exact else INF)
            n = int(n)
            exact = False
        sums = [[] for _ in range(n)]
        for i, h in enumerate(self.pcoeffs):
            if h.is_exact_zero():
                continue
            for j, g in enumerate(other.pcoeffs):
                k = i + j
                if k >= n:
                    break
                if g.is_exact_zero():
                    continue
                sums[k].append((h, g.frob_power(i)))
        return AdditiveSeries(ctx, [product_sum(ctx, s) for s in sums],
                              exact=exact)

    def inverse(self, length=None) -> "AdditiveSeries":
        """Composition inverse, solved triangularly; needs a generator.

        For an exact H any length can be requested; a truncated H only
        determines its inverse to its own length.
        """
        ok, reason = self.is_generator()
        if not ok:
            raise NotAGeneratorError(reason)
        if length is None:
            length = self.length
        if not self.exact and length > self.length:
            raise TruncationMismatchError(
                "inverse beyond the stored truncation of a non-exact series")
        ctx = self.ctx
        h0 = self.pcoeffs[0]
        exact_unit = h0.prec == INF and len(h0.codes) == 1
        h0_inv = h0.inv() if (h0.prec != INF or exact_unit) \
            else h0.inv(prec=_EXACT_INV_PREC)
        cs = [h0_inv]
        for k in range(1, length):
            acc = product_sum(ctx, [
                (h, cs[k - i].frob_power(i))
                for i, h in enumerate(self.pcoeffs[1:k + 1], 1)
                if not h.is_exact_zero()])
            cs.append(-(h0_inv * acc))
        exact = self.exact and self.length == 1
        return AdditiveSeries(ctx, cs, exact=exact)

    def to_trunc_series(self, trunc) -> TruncSeries:
        """Materialize as a TruncSeries of the given truncation.

        Errors if a stored term would be dropped (p^(m-1) >= trunc) or, for
        non-exact series, if the truncation is not covered (p^m < trunc).
        """
        p = self.ctx.p
        m = self.length
        if m and p ** (m - 1) >= trunc:
            raise TruncationMismatchError(
                f"stored term T^(p^{m - 1}) does not fit below T^{trunc}")
        if not self.exact and p ** m < trunc:
            raise TruncationMismatchError(
                f"p-power truncation p^{m} does not cover T^{trunc}")
        z = LaurentF.zero(self.ctx)
        coeffs = [z] * trunc
        e = 1
        for h in self.pcoeffs:
            coeffs[e] = h
            e *= p
        return TruncSeries(self.ctx, coeffs)

    def __eq__(self, other):
        return (isinstance(other, AdditiveSeries) and self.ctx is other.ctx
                and self.pcoeffs == other.pcoeffs and self.exact == other.exact)

    def __hash__(self):
        return hash((id(self.ctx), self.pcoeffs, self.exact))

    def __repr__(self):
        p = self.ctx.p
        parts = []
        for i, h in enumerate(self.pcoeffs):
            if not h.is_zero_at_prec():
                parts.append(f"({h!r})T^{p ** i}" if i else f"({h!r})T")
        tag = "" if self.exact else f" + O(T^{p ** self.length})"
        return (" + ".join(parts) if parts else "0") + tag

    def to_json(self):
        return {"pcoeffs": [h.to_json() for h in self.pcoeffs],
                "exact": self.exact}

    @classmethod
    def from_json(cls, ctx, obj):
        pcoeffs, = json_fields(obj, "additive series", pcoeffs=list)
        return cls(ctx, [LaurentF.from_json(ctx, h) for h in pcoeffs],
                   exact=obj.get("exact", True))


_EXACT_INV_PREC = 4 * 64  # fallback precision when inverting exact unit coeffs


def series_agreement_valuation(P: TruncSeries, Q: TruncSeries):
    """min over shared coefficients of a lower bound on v(P_h - Q_h)."""
    n = min(P.trunc, Q.trunc)
    return min(((P.coeffs[h] - Q.coeffs[h]).val_lower_bound()
                for h in range(n)), default=INF)
