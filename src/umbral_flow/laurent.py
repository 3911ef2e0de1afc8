"""Precision-tracked Laurent series in F = F_q((1/t)).

A value is stored as (v, codes, prec): the series sum_{i>=v} c_i s^i in the
uniformizer s = 1/t, where codes is the ``bytes`` code vector c_v ...
c_{v+len-1} (one F_q code per byte, q <= 256) and every coefficient at
exponents beyond the stored window but below ``prec`` is an exact zero.
``prec`` is the absolute precision: coefficients at exponents >= prec are
unknown.  ``prec`` may be ``INF`` for exact values (embedded
polynomials, exact zero), which is how exactness propagates through the
Carlitz products.

The non-Archimedean norm is never materialized: |x| = q^(-v) is carried by
the integer valuation alone, so every norm comparison in the package is an
integer comparison.  Membership tests: x in O_F iff v >= 0; x in O_F^x iff
v == 0; |x| < 1 iff v >= 1.

Three states:

* exact zero          -- no codes, prec == INF, valuation() == INF
* zero at precision   -- no codes, finite prec; the valuation is unknown
                         (only >= prec is known) and valuation() raises
* nonzero             -- codes[0] != 0, codes[-1] != 0, v + len(codes) <= prec

The constructor normalizes any code sequence to that form with
``lstrip``/``rstrip`` of zero bytes, and the ring operations and sums of
products (``product_sum``) hand whole code vectors to the ``FieldCtx``
kernels, C-level bytes and big-int operations wherever the field allows.
"""

from __future__ import annotations

import math

from .errors import ParseError, PrecisionLossError, ZeroInverseError
from .fq import FqElem, PolyA

INF = math.inf


class LaurentF:
    """One element of F_q((1/t)) known to absolute precision ``prec``."""

    __slots__ = ("ctx", "v", "codes", "prec")

    def __init__(self, ctx, v, codes, prec):
        # normalize: strip zero edges, drop coefficients at/above prec
        codes = bytes(codes)
        body = codes.lstrip(b"\0")
        v += len(codes) - len(body)
        if prec != INF and v + len(body) > prec:
            body = body[:max(0, prec - v)]
        body = body.rstrip(b"\0")
        self.ctx = ctx
        self.v = v if body else 0
        self.codes = body
        self.prec = prec

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, ctx):
        return cls(ctx, 0, (), INF)

    @classmethod
    def one(cls, ctx, prec=INF):
        return cls(ctx, 0, (1,), prec)

    @classmethod
    def from_poly(cls, poly: PolyA, prec=INF):
        """Embed a polynomial in t: degree n lands at valuation -n, exactly."""
        return cls(poly.ctx, -poly.degree if poly.codes else 0,
                   poly.codes[::-1], prec)

    @classmethod
    def zero_at(cls, ctx, prec):
        """Known to vanish below ``prec``, unknown beyond."""
        return cls(ctx, 0, (), prec)

    # -- state predicates ----------------------------------------------------

    def is_exact_zero(self):
        return not self.codes and self.prec == INF

    def is_zero_at_prec(self):
        """True when no nonzero coefficient is stored (exact or not)."""
        return not self.codes

    def valuation(self):
        """The valuation; INF for exact zero.

        Raises PrecisionLossError for a value that is zero at stored
        precision without being exactly zero: its valuation is unknown.
        """
        if self.codes:
            return self.v
        if self.prec == INF:
            return INF
        raise PrecisionLossError(
            f"valuation unknown: zero at precision {self.prec}")

    def val_lower_bound(self):
        """A sound lower bound on the valuation, never raising."""
        if self.codes:
            return self.v
        return self.prec

    def poly_degree(self):
        """The degree in t of an exact polynomial, -1 for the exact zero;
        INF, bounded by no degree, when the value is no exact polynomial."""
        if self.prec != INF or self.v + len(self.codes) > 1:
            return INF
        return -self.v if self.codes else -1

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        if not self.codes and self.prec == INF:
            return other
        if not other.codes and other.prec == INF:
            return self
        prec = min(self.prec, other.prec)
        if not self.codes or not other.codes:
            # a zero-at-precision operand only caps the precision
            nz = self if self.codes else other
            return LaurentF(self.ctx, nz.v, nz.codes, prec)
        lo, hi = (self, other) if self.v <= other.v else (other, self)
        return LaurentF(self.ctx, lo.v,
                        self.ctx.add(lo.codes, hi.codes, hi.v - lo.v), prec)

    def __neg__(self):
        return LaurentF(self.ctx, self.v, self.ctx.neg(self.codes), self.prec)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        ctx = self.ctx
        prec = min(self.prec + other.val_lower_bound(),
                   other.prec + self.val_lower_bound())
        if not self.codes or not other.codes:
            return LaurentF(ctx, 0, (), prec)
        return LaurentF(ctx, self.v + other.v,
                        ctx.convolve(self.codes, other.codes), prec)

    def scale(self, s):
        code = s.code if isinstance(s, FqElem) else s
        if code == 0:
            return LaurentF.zero(self.ctx) if self.prec == INF \
                else LaurentF.zero_at(self.ctx, self.prec)
        return LaurentF(self.ctx, self.v, self.ctx.scale(code, self.codes),
                        self.prec)

    def inv(self, prec=None):
        """Multiplicative inverse.

        Result precision is prec(x) - 2 v(x); for exact inputs (infinite
        precision) the target must be supplied via ``prec``.
        """
        if not self.codes:
            raise ZeroInverseError("inverse of (effective) zero in F")
        if len(self.codes) == 1 and self.prec == INF:
            # exact monomials invert exactly; extra precision is always sound
            inv0 = self.ctx.inv_c(self.codes[0])
            return LaurentF(self.ctx, -self.v, (inv0,), INF)
        out_prec = self.prec - 2 * self.v if self.prec != INF else INF
        if prec is not None:
            out_prec = min(out_prec, prec)
        if out_prec == INF:
            raise ZeroInverseError(
                "inverse of an exact value needs an explicit target precision")
        length = out_prec + self.v  # number of coefficients from -v upward
        if length <= 0:
            return LaurentF.zero_at(self.ctx, out_prec)
        codes = _series_inv(self.ctx, self.codes, length)
        return LaurentF(self.ctx, -self.v, codes, out_prec)

    def __pow__(self, n):
        if n < 0:
            raise ValueError("use inv() for negative powers")
        if n == 0:
            return LaurentF.one(self.ctx)
        r = None
        b = self
        while n:
            if n & 1:
                r = b if r is None else r * b
            n >>= 1
            if n:
                b = b * b
        return r

    def frob_power(self, i):
        """x^(p^i), computed coefficientwise; exact precision gain p^i."""
        if i == 0 or not self.codes:
            if not self.codes and self.prec != INF:
                return LaurentF.zero_at(self.ctx, self.prec * self.ctx.p ** i)
            return self
        e = self.ctx.p ** i
        out = bytearray((len(self.codes) - 1) * e + 1)
        out[::e] = self.ctx.frob(self.codes, i)
        prec = self.prec if self.prec == INF else self.prec * e
        return LaurentF(self.ctx, self.v * e, out, prec)

    def q_power(self, k):
        """x^(q^k) via k*d Frobenius steps."""
        return self.frob_power(self.ctx.d * k)

    def truncate(self, prec):
        if prec >= self.prec:
            return self
        return LaurentF(self.ctx, self.v, self.codes, prec)

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, LaurentF) and self.ctx is other.ctx
                and self.v == other.v and self.codes == other.codes
                and self.prec == other.prec)

    def __hash__(self):
        return hash((id(self.ctx), self.v, self.codes, self.prec))

    def __repr__(self):
        terms = []
        for j, c in enumerate(self.codes[:12]):
            if c == 0:
                continue
            e = -(self.v + j)
            coef = "" if c == 1 and e != 0 else repr(FqElem(self.ctx, c))
            if e == 0:
                terms.append(coef or "1")
            elif e == 1:
                terms.append(f"{coef}t")
            else:
                terms.append(f"{coef}t^{e}")
        if len(self.codes) > 12:
            terms.append("...")
        body = " + ".join(terms) if terms else "0"
        if self.prec == INF:
            return body
        return f"{body} + O(t^{-self.prec})"

    def to_json(self):
        return {"v": self.v,
                "coeffs": [list(self.ctx.dec(c)) for c in self.codes],
                "prec": None if self.prec == INF else self.prec,
                "zero": self.is_exact_zero()}

    @classmethod
    def from_json(cls, ctx, obj):
        """Inverse of to_json; a malformed literal raises ParseError."""
        v, coeffs = json_fields(obj, "Laurent", v=int, coeffs=list)
        prec = obj.get("prec")
        if not (prec is None or isinstance(prec, int)) or not all(
                isinstance(c, list) and len(c) <= ctx.d
                and all(isinstance(a, int) for a in c) for c in coeffs):
            raise ParseError(f"bad Laurent literal: 'prec' must be int or "
                             f"null, each coefficient a list of <= {ctx.d} "
                             f"ints")
        return cls(ctx, v, [ctx.enc(c) for c in coeffs],
                   INF if prec is None else prec)


def json_fields(obj, what, **kinds):
    """The values of a JSON object at the given keys, each checked to be an
    instance of its kind; ParseError names the ``what`` literal otherwise."""
    try:
        vals = [obj[k] for k in kinds]
    except (KeyError, TypeError):
        raise ParseError(f"bad {what} literal: needs the keys "
                         f"{', '.join(kinds)}") from None
    for (k, kind), val in zip(kinds.items(), vals):
        if not isinstance(val, kind):
            raise ParseError(f"bad {what} literal: {k!r} must be "
                             f"{kind.__name__}")
    return vals


def product_sum(ctx, pairs, window=INF):
    """sum of a*b over the (a, b) pairs, b None meaning 1, truncated at
    ``window``: the (v, codes, prec) of acc = acc + a*b from the exact zero,
    then acc.truncate(window).  Each product's digits are exact, so the sum
    is cut once, at the least of ``window`` and the products' precisions
    min(prec_a + vlb_b, prec_b + vlb_a); its codes are one product or one
    ``FieldCtx.convolve_sum``."""
    prec, triples = window, []
    for a, b in pairs:
        if b is None:
            pk, ys, vb = a.prec, b"\1", 0
        else:
            pk = min(a.prec + b.val_lower_bound(),
                     b.prec + a.val_lower_bound())
            ys, vb = b.codes, b.v
        prec = min(prec, pk)
        if a.codes and ys:
            triples.append((a.codes, ys, a.v + vb))
    if len(triples) > 1:
        lo = min(v for _, _, v in triples)
        return LaurentF(ctx, lo, ctx.convolve_sum(
            [(xs, ys, v - lo) for xs, ys, v in triples]), prec)
    xs, ys, v = triples[0] if triples else (b"", b"", 0)
    return LaurentF(ctx, v, ctx.convolve(xs, ys), prec)


def _series_inv(ctx, codes, length):
    """Inverse of a unit power series in s given by codes (codes[0] != 0),
    to ``length`` coefficients, by Newton iteration (valid in any
    characteristic in the form g <- g + g*(1 - a*g))."""
    g = bytes([ctx.inv_c(codes[0])])
    while len(g) < length:
        m = min(2 * len(g), length)
        ag = ctx.convolve(codes[:m].ljust(m, b"\0"), g)[:m]
        e = ctx.add(b"\1", ctx.neg(ag))  # 1 - a*g
        g = ctx.add(g, ctx.convolve(g, e)[:m])
    return g[:length]


def agreement_valuation(x: LaurentF, y: LaurentF):
    """Lower bound on v(x - y): INF means identical as exact values."""
    return (x - y).val_lower_bound()

