"""Carlitz-module quantities: the factorials D_k, the additive polynomials
e_k(x), and the truncated Carlitz exponential.

D_k and e_k are computed by direct enumeration products over all monic
polynomials of degree k (resp. all polynomials of degree < k).  That is the
defining formula; the classical recursions are used only as oracles in the
test suite.  The index set {eps : deg(eps) < k} contains the zero polynomial
for every k >= 1 and is {0} for k = 0 (deg(0) = NEG_INF), which forces
e_0(x) = x.
"""

from __future__ import annotations

import threading

from .errors import (
    EnumerationCapExceededError,
    NoConvergenceDetectedError,
    OutsideConvergenceDomainError,
)
from .fq import DEFAULT_ENUM_CAP, PolyA, enumerate_polys
from .laurent import LaurentF

DEFAULT_WINDOW = 3
K_MAX = 64  # the last index k of a Carlitz-exponential sum


class CarlitzCtx:
    """Field context plus caches for D_k and their Laurent inverses."""

    def __init__(self, field_ctx, cap=DEFAULT_ENUM_CAP,
                 window=DEFAULT_WINDOW):
        self.field = field_ctx
        self.cap = cap
        self.window = window
        self._dk = [PolyA.one(field_ctx)]  # D_0 = 1, the empty product
        self._dk_inv = {}
        self._lock = threading.Lock()

    def dk(self, k: int) -> PolyA:
        """Product of all monic polynomials of degree k; monic of degree k*q^k.

        The enumeration is multiplied as a balanced product tree: neighbours
        pairwise, level by level, until one polynomial is left.  Same
        factors, exact arithmetic, so the same D_k as left to right; but the
        work sits in a few products of equal-sized halves, each one packed
        big-int multiply, instead of q^k products of the running product by
        a degree-k factor.
        """
        # check k once: the per-degree cap check in enumerate_polys would
        # only fire after every smaller degree's product was built
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        if k >= len(self._dk) and self.field.q ** (k + 1) > self.cap:
            raise EnumerationCapExceededError(
                f"q^(k+1) = {self.field.q ** (k + 1)} exceeds cap {self.cap}")
        with self._lock:
            while len(self._dk) <= k:
                level = enumerate_polys(self.field, len(self._dk), True,
                                        cap=self.cap)
                while len(level) > 1:
                    pairs = [a * b for a, b in zip(level[::2], level[1::2])]
                    level = pairs + level[len(pairs) * 2:]
                self._dk.append(level[0])
            return self._dk[k]

    def dk_inv(self, k: int, prec: int) -> LaurentF:
        """1/D_k as a Laurent value accurate to at least ``prec``.

        D_k is monic of degree k*q^k, so 1/D_k has valuation k*q^k and is
        zero below any ``prec`` up to that: D_k is then not built.  A k
        past the enumeration cap still raises, as building D_k would, so the
        cap still bounds how far a Carlitz sum reaches."""
        q = self.field.q
        if prec <= k * q ** k and q ** (k + 1) <= self.cap:
            return LaurentF.zero_at(self.field, prec)
        key = (k, prec)
        with self._lock:
            got = self._dk_inv.get(key)
        if got is not None:
            return got
        val = LaurentF.from_poly(self.dk(k)).inv(prec=prec)
        with self._lock:
            self._dk_inv[key] = val
        return val

    def ek(self, k: int, x: LaurentF) -> LaurentF:
        """e_k(x) = prod over deg(eps) < k of (x + eps); e_0(x) = x: the
        exact zero, from no factor, at a polynomial x of degree < k."""
        if x.poly_degree() < k and self.field.q ** (k + 1) <= self.cap:
            return LaurentF.zero(self.field)
        prod = None
        for eps in enumerate_polys(self.field, k, False, cap=self.cap):
            factor = x + LaurentF.from_poly(eps)
            prod = factor if prod is None else prod * factor
            if prod.is_exact_zero():
                return prod
        return prod

    def exp_sum(self, x: LaurentF, prec: int) -> LaurentF:
        """sum_k x^(q^k) / D_k for k <= K_MAX, stopped by the window rule of
        ``_window_sum``.  No domain restriction: term valuations
        q^k (v(x) + k) eventually increase for every x, so the window rule
        is a sound stopping criterion even when |x| >= 1.
        """
        if x.is_exact_zero():
            return x
        q = self.field.q
        vx = x.val_lower_bound()
        # 1/D_k accurate enough that the whole term is accurate to prec
        return self._window_sum(lambda k: x.q_power(k) * self.dk_inv(
            k, max(prec, prec - q ** k * vx) + 8), prec)

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

