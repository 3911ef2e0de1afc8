"""Carlitz-module quantities: the factorials D_k, the additive polynomials
e_k(x), and the truncated Carlitz exponential.

D_k and e_k are computed by direct enumeration products over all monic
polynomials of degree k (resp. all polynomials of degree < k).  That is the
defining formula; the classical recursions are used only as oracles in the
test suite.  Both are multiplied as one balanced product tree, e_k(x) at
any x.  The index set {eps : deg(eps) < k} contains the zero polynomial
for every k >= 1 and is {0} for k = 0 (deg(0) = NEG_INF), which forces
e_0(x) = x.

A ``CarlitzCtx`` is single-threaded: its caches of D_k and 1/D_k are filled
without a lock, and the package starts no thread.  Every claim builds its
own context.
"""

from __future__ import annotations

from .errors import (
    EnumerationCapExceededError,
    NoConvergenceDetectedError,
    OutsideConvergenceDomainError,
)
from .fq import DEFAULT_ENUM_CAP, PolyA, enumerate_polys
from .laurent import LaurentF

DEFAULT_WINDOW = 3
K_MAX = 64  # the last index k of a Carlitz-exponential sum


def _product_tree(level):
    """The product of the factors in ``level``, neighbours multiplied
    pairwise, level by level, until one is left: the work sits in a few
    products of equal-sized halves, each one convolution, instead of one
    product of the running product by a small factor per factor."""
    while len(level) > 1:
        pairs = [a * b for a, b in zip(level[::2], level[1::2])]
        level = pairs + level[len(pairs) * 2:]
    return level[0]


class CarlitzCtx:
    """Field context plus caches for D_k and their Laurent inverses."""

    def __init__(self, field_ctx, cap=DEFAULT_ENUM_CAP,
                 window=DEFAULT_WINDOW):
        self.field = field_ctx
        self.cap = cap
        self.window = window
        self._dk = [PolyA.one(field_ctx)]  # D_0 = 1, the empty product
        self._dk_inv = {}

    def dk(self, k: int) -> PolyA:
        """Product of all monic polynomials of degree k; monic of degree k*q^k,
        multiplied as a balanced product tree (``_product_tree``)."""
        # check k once: the per-degree cap check in enumerate_polys would
        # only fire after every smaller degree's product was built
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        if k >= len(self._dk) and self.field.q ** (k + 1) > self.cap:
            raise EnumerationCapExceededError(
                f"q^(k+1) = {self.field.q ** (k + 1)} exceeds cap {self.cap}")
        while len(self._dk) <= k:
            self._dk.append(_product_tree(enumerate_polys(
                self.field, len(self._dk), True, cap=self.cap)))
        return self._dk[k]

    def dk_inv(self, k: int, prec: int) -> LaurentF:
        """1/D_k as a Laurent value accurate to at least ``prec``.

        D_k is monic of degree k*q^k, so 1/D_k has valuation k*q^k and is
        zero below any ``prec`` up to that: D_k is then not built, whatever
        the enumeration cap.  The cap bounds only a D_k that is built."""
        if prec <= k * self.field.q ** k:
            return LaurentF.zero_at(self.field, prec)
        key = (k, prec)
        got = self._dk_inv.get(key)
        if got is None:
            got = LaurentF.from_poly(self.dk(k)).inv(prec=prec)
            self._dk_inv[key] = got
        return got

    def ek(self, k: int, x: LaurentF) -> LaurentF:
        """e_k(x) = prod over deg(eps) < k of (x + eps); e_0(x) = x: the
        exact zero, from no factor, at a polynomial x of degree < k.
        Multiplied as a balanced product tree, as ``dk``: past that zero no
        factor is an exact zero, and a product of the others has the same
        (v, codes, prec) in any order."""
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        if x.poly_degree() < k:
            return LaurentF.zero(self.field)
        return _product_tree([x + LaurentF.from_poly(eps) for eps in
                              enumerate_polys(self.field, k, False,
                                              cap=self.cap)])

    def exp_sum(self, x: LaurentF, prec: int) -> LaurentF:
        """sum_k x^(q^k) / D_k for k <= K_MAX, stopped by the window rule of
        ``_window_sum``.  No domain restriction: term valuations
        q^k (v(x) + k) eventually increase for every x, so the window rule
        is a sound stopping criterion even when |x| >= 1.  A term whose 1/D_k
        is a zero at its precision is that product's zero, and x^(q^k), whose
        codes lie q^k apart, is not built.
        """
        if x.is_exact_zero():
            return x
        q = self.field.q
        vx = x.val_lower_bound()

        def term(k):
            qk = q ** k
            # 1/D_k accurate enough that the whole term is accurate to prec;
            # the + 8 is headroom: without it example58 agrees at 48, not 56
            inv = self.dk_inv(k, max(prec, prec - qk * vx) + 8)
            if not inv.codes:
                # the product's zero: its precision min(prec_x q^k + P',
                # P' + q^k vx) is the second, as vx <= prec_x
                return LaurentF.zero_at(self.field, inv.prec + qk * vx)
            return x.q_power(k) * inv

        return self._window_sum(term, prec)

    def _window_sum(self, term, prec: int) -> LaurentF:
        """sum_k term(k) for k <= K_MAX, stopped once ``window`` consecutive
        terms sit at valuation >= prec (an exact zero among them)."""
        acc = LaurentF.zero(self.field)
        quiet = 0
        for k in range(K_MAX + 1):
            tk = term(k)
            acc = acc + tk
            if tk.val_lower_bound() >= prec:
                quiet += 1
                if quiet >= self.window:
                    return acc
            else:
                quiet = 0
        raise NoConvergenceDetectedError(
            f"carlitz exponential did not settle below 2^-{prec} by k={K_MAX}")

    def exp(self, x: LaurentF, prec: int) -> LaurentF:
        """The Carlitz exponential on the open unit ball, |x| < 1.

        Outside that ball |e_C(x)| < 1 fails and the flow use-cases break;
        callers that need the entire-function sum use exp_sum directly.
        """
        if x.val_lower_bound() < 1:
            raise OutsideConvergenceDomainError(
                f"carlitz exp needs v(x) >= 1, got {x.val_lower_bound()}")
        return self.exp_sum(x, prec)

    def exp_at_one(self, prec: int) -> LaurentF:
        """e_C(1) = sum_k 1/D_k by direct summation (|1| = 1 is outside the
        unit ball, so this is not an ``exp`` call)."""
        return self.exp_sum(LaurentF.one(self.field), prec)

