"""Exact arithmetic in small finite fields F_q (q = p^d) and in A = F_q[t].

Field elements are integer codes in ``range(q)``: the base-p digits of a code
are the coordinates on the power basis 1, u, ..., u^(d-1) of F_p[u]/(f(u)).
All element arithmetic is table-driven.  The constructor rejects q > 256, so
that every code fits one byte; that also keeps the exhaustive
irreducibility check small, which is the intended scale of the whole
package.

Code vectors are ``bytes``, one code per byte, lowest index first, and the
``FieldCtx`` vector kernels run as C-level bytes and big-int operations:

* add is one big-int XOR for p = 2 (the base-2 digits of a code are its
  bits).  The other fields take a per-coefficient table loop, also the
  reference the XOR path is tested against;
* neg, scale and Frobenius are one ``translate`` by a 256-byte table each;
* products (``convolve``) go through Kronecker substitution, big-int
  multiplies on byte slots, for every field with p^(2d-1) <= 256: the
  prime fields F_p with p < 256, and F_4, F_8, F_16, F_9, F_27 and F_25.
  Slots are wide enough that none overflows, sized from the operands'
  counts of non-zero codes.  For p = 2 each operand splits into d bit
  planes; the d^2 plane products combine by XOR into 2d-1 product planes,
  which u^d = sum_(i<d) f_i u^i folds down to d, and one mask reads each
  slot's low bit.  For odd p each code's base-p digits share one integer;
  a slot wider than one byte is read through tables of 256^j mod p, and
  the unreduced product digits of one coefficient fold into one byte that
  a 256-entry table reduces mod f(u).  Short products and larger fields
  take the per-coefficient table loop, the reference for the packed paths;
* ``convolve_sum`` over p = 2 XORs all its shifted plane products into one
  set of 2d-1 big ints, unpacked once; other fields add one at a time.

Polynomials in t carry their coefficients as a code vector, lowest degree
first, with no trailing zeros.  The degree of the zero polynomial is the
sentinel ``NEG_INF`` which compares below every integer; this convention is
load-bearing: it puts the zero polynomial inside every index set
``{eps : deg(eps) < k}``, including k = 0... see ``enumerate_polys``.
"""

from __future__ import annotations

import array
import itertools
import sys

from .errors import EnumerationCapExceededError, ZeroInverseError

NEG_INF = float("-inf")

DEFAULT_ENUM_CAP = 10 ** 6

# A single product (``convolve``) of fewer coefficient pairs takes the table
# loop; sums over p = 2 pack every product.  Measured with bytes inputs,
# packing wins from about 4 pairs for d = 1 (F_2, F_3), from about 30-40
# pairs for F_4 (2 bit planes a side, 4 multiplies) and from about 50-64 for
# F_8.  Over the products below 128 pairs recorded in one pass of each
# benchmark workload at seed 1000, lowering the threshold saves at most 4 ms
# a pass over F_2 but costs F_4 up to 9 ms, and 40-48 give F_4 the least
# total time of the thresholds tried (1 to 64).
_PACK_MIN_OPS = 48

# Kronecker slot widths in bytes, narrowest first -> array typecode of an
# unsigned slot of that width
_SLOT_FMT = {array.array(c).itemsize: c for c in "BHIQ"}


def is_prime(n):
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


# ---------------------------------------------------------------------------
# F_p[u] helpers used only to validate the field modulus.  Coefficient lists
# of ints mod p, lowest degree first, trailing zeros stripped.

def _fp_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _fp_mod(a, b, p):
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    lb_inv = pow(lb, -1, p)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i] % p
        if c == 0:
            continue
        factor = (c * lb_inv) % p
        for j in range(db + 1):
            a[i - db + j] = (a[i - db + j] - factor * b[j]) % p
    return _fp_trim([c % p for c in a[:db]])


def _fp_is_irreducible(f, p):
    """Exhaustive check: no monic divisor of degree 1..deg(f)//2 over F_p."""
    d = len(f) - 1
    if d == 1:
        return True
    for deg in range(1, d // 2 + 1):
        for tail in itertools.product(range(p), repeat=deg):
            g = list(tail) + [1]
            if not _fp_mod(f, g, p):
                return False
    return True


class FieldCtx:
    """The finite field F_q = F_p[u]/(f(u)), q = p^d, with arithmetic tables.

    Instances are interned by :func:`field`; identity comparison is the
    intended notion of context equality.
    """

    def __init__(self, p, d=1, modulus=None):
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if d < 1:
            raise ValueError("extension degree must be >= 1")
        if p ** d > 256:
            raise ValueError(f"field F_{p}^{d} too large: q = p^d must be "
                             f"<= 256, one code per byte")
        if modulus is None:
            if d != 1:
                raise ValueError("an irreducible modulus is required for d > 1")
            modulus = (0, 1)  # f(u) = u, i.e. F_p itself
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != d + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree d")
        if not _fp_is_irreducible(list(modulus), p):
            raise ValueError("modulus is reducible over F_p")
        self.p = p
        self.d = d
        self.q = p ** d
        self.modulus = modulus
        self._build_tables()

    # -- table construction -------------------------------------------------

    def _build_tables(self):
        p, d, q = self.p, self.d, self.q
        self._add = add = [0] * (q * q)
        self._mul = mul = [0] * (q * q)
        neg = [0] * q
        self._inv = inv = [None] * q

        def dec(c, n=d):
            out = []
            for _ in range(n):
                c, r = divmod(c, p)
                out.append(r)
            return out

        def enc(coords):
            c = 0
            for x in reversed(coords):
                c = c * p + x
            return c

        red = list(self.modulus[:-1])  # u^d = -red (monic modulus)

        def reduce_mod_f(prod):
            # coordinates of an F_p[u] element of degree <= 2d-2 -> code mod f
            prod = list(prod)
            for i in range(2 * d - 2, d - 1, -1):
                c = prod[i]
                if c:
                    prod[i] = 0
                    for j in range(d):
                        prod[i - d + j] = (prod[i - d + j] - c * red[j]) % p
            return enc(prod[:d])

        self._dec_table = [tuple(dec(c)) for c in range(q)]
        for a in range(q):
            ca = self._dec_table[a]
            for b in range(q):
                cb = self._dec_table[b]
                add[a * q + b] = enc([(x + y) % p for x, y in zip(ca, cb)])
                prod = [0] * (2 * d - 1)
                for i, x in enumerate(ca):
                    if x:
                        for j, y in enumerate(cb):
                            prod[i + j] = (prod[i + j] + x * y) % p
                mul[a * q + b] = reduce_mod_f(prod)
            neg[a] = enc([(-x) % p for x in ca])
        for a in range(1, q):
            for b in range(1, q):
                if mul[a * q + b] == 1:
                    inv[a] = b
                    break

        # 256-byte tables, indexed by a code or used by ``bytes.translate``
        # on a code vector: _neg[c] = -c, _scale[s][c] = s*c and
        # _frob[i][c] = c^(p^i)
        def table(codes):
            return bytes(codes).ljust(256, b"\0")

        self._neg = table(neg)
        self._scale = [table(mul[s * q:(s + 1) * q]) for s in range(q)]
        frob1 = [self.pow_c(a, p) for a in range(q)]
        frob = [list(range(q))]
        for _ in range(1, d):
            frob.append([frob1[c] for c in frob[-1]])
        self._frob = [table(f) for f in frob]

        # Kronecker-packing tables, for fields whose unreduced products
        # (2d-1 digits base p) fit one byte: _digit[k] maps a code to its
        # k-th base-p digit, for p = 2 its bit k, the table of bit plane k.
        # For p = 2, _taps lists the i < d with f_i = 1, so that u^d is the
        # sum of those u^i.  For odd p, _read[k] maps a slot byte to
        # (byte mod p) * p^k, and _fold the folded digits sum_k e_k p^k to
        # the code of sum e_k u^k mod f(u).  ``packs`` says whether the
        # field has them; they are None when p^(2d-1) > 256, and the table
        # path serves those fields.
        s = 2 * d - 1
        self._digit = self._taps = self._read = self._fold = None
        self.packs = p ** s <= 256
        if self.packs:
            self._digit = [bytes(c // p ** k % p for c in range(256))
                           for k in range(d)]
            if p == 2:
                self._taps = tuple(i for i in range(d) if self.modulus[i])
            else:
                self._read = [bytes(b % p * p ** k for b in range(256))
                              for k in range(s)]
                self._fold = bytes(reduce_mod_f(dec(m, s))
                                   for m in range(256))
                self._slot_read = [bytes(b * 256 ** j % p for b in range(256))
                                   for j in range(max(_SLOT_FMT))]

    # -- element (code) arithmetic ------------------------------------------

    def add_c(self, a, b):
        return self._add[a * self.q + b]

    def sub_c(self, a, b):
        return self._add[a * self.q + self._neg[b]]

    def mul_c(self, a, b):
        return self._mul[a * self.q + b]

    def neg_c(self, a):
        return self._neg[a]

    def inv_c(self, a):
        if a == 0:
            raise ZeroInverseError("inverse of zero in F_q")
        return self._inv[a]

    def pow_c(self, a, n):
        if n < 0:
            a, n = self.inv_c(a), -n
        r = 1
        while n:
            if n & 1:
                r = self._mul[r * self.q + a]
            a = self._mul[a * self.q + a]
            n >>= 1
        return r

    def frob_c(self, a, i):
        """a^(p^i); periodic in i with period d."""
        return self._frob[i % self.d][a]

    def enc(self, coords):
        c = 0
        for x in reversed(list(coords)):
            c = c * self.p + x % self.p
        return c

    def dec(self, code):
        return self._dec_table[code]

    # -- vector kernels ------------------------------------------------------
    # Code vectors are bytes, one code per byte; these are the hot paths
    # shared by polynomial and truncated-Laurent arithmetic.

    def add(self, xs, ys, k=0):
        """The coefficientwise sum of xs and ys moved up k places (k >= 0):
        out[i] = xs[i] + ys[i - k], of length max(len(xs), k + len(ys))."""
        n = max(len(xs), k + len(ys))
        if self.p == 2:  # the base-2 digits of a code are its bits
            return (int.from_bytes(xs, "little")
                    ^ (int.from_bytes(ys, "little") << 8 * k)
                    ).to_bytes(n, "little")
        return self._add_table(xs, ys, k)

    def _add_table(self, xs, ys, k=0):
        # the reference path: one table lookup per nonzero coefficient
        add, q = self._add, self.q
        out = bytearray(max(len(xs), k + len(ys)))
        out[:len(xs)] = xs
        for j, y in enumerate(ys, k):
            if y:
                out[j] = add[out[j] * q + y]
        return bytes(out)

    def neg(self, xs):
        return xs.translate(self._neg)

    def scale(self, s, xs):
        """s * xs for the code s."""
        if s == 0:
            return bytes(len(xs))
        return xs if s == 1 else xs.translate(self._scale[s])

    def frob(self, xs, i):
        """xs^(p^i) coefficientwise."""
        return xs.translate(self._frob[i % self.d])

    def convolve(self, xs, ys):
        """Cauchy product of two code vectors."""
        if not xs or not ys:
            return b""
        if self.packs and len(xs) * len(ys) >= _PACK_MIN_OPS:
            nb = self._slot_width(xs, ys)
            if self.p == 2:
                return self._convolve_planes(((xs, ys, 0),), nb,
                                             len(xs) + len(ys) - 1)
            return self._convolve_packed(xs, ys, nb)
        return self._convolve_table(xs, ys)

    def convolve_sum(self, triples):
        """The code vector that acc = add(acc, convolve(xs, ys), k) gives
        from acc = b"" over the (xs, ys, k) triples.  Over p = 2, in a field
        that packs, one bit-plane sum at its widest product's slot width."""
        if self._taps is None or not triples:
            acc = b""
            for xs, ys, k in triples:
                acc = self.add(acc, self.convolve(xs, ys), k)
            return acc
        n = max(k + len(xs) + len(ys) - 1 if xs and ys else k
                for xs, ys, k in triples)
        nb = max(self._slot_width(xs, ys) for xs, ys, _ in triples)
        return self._convolve_planes(triples, nb, n)

    def _slot_width(self, xs, ys):
        # the narrowest slot, in bytes, that no slot of xs*ys overflows: one
        # sums at most min(nnz) products (nnz: an operand's non-zero codes),
        # each of two bits for p = 2 (one bit plane pair per multiply), and
        # of d products of two digits <= p-1 for odd p; the counts are taken
        # only when min(len) does not already give one byte
        top = 1 if self.p == 2 else self.d * (self.p - 1) ** 2
        bound = min(len(xs), len(ys)) * top
        if bound > 255:
            bound = min(len(xs) - xs.count(0), len(ys) - ys.count(0)) * top
        return 1 if bound < 256 else min(
            nb for nb in _SLOT_FMT if bound < 1 << 8 * nb)

    def _convolve_table(self, xs, ys):
        # the reference path: one table lookup per nonzero coefficient pair
        mul, add, q = self._mul, self._add, self.q
        out = [0] * (len(xs) + len(ys) - 1)
        for i, x in enumerate(xs):
            if x == 0:
                continue
            row = x * q
            for j, y in enumerate(ys):
                if y:
                    k = i + j
                    out[k] = add[out[k] * q + mul[row + y]]
        return bytes(out)

    def _convolve_planes(self, triples, nb, n):
        # p = 2, Kronecker substitution on bit planes: plane k of a vector
        # holds bit k of coefficient i in slot i of nb bytes.  Plane
        # products combined by XOR keep each slot's parity, and slots never
        # carry, so the low bit of slot i of c_m = XOR_{k+l=m} a_k * b_l is
        # the u^m digit of output coefficient i, also with each triple's
        # products moved up k slots.  u^d = sum_{taps} u^i folds planes
        # 2d-2 .. d down, and one mask reads the low bits of n slots.
        d = self.d
        if d == 1 and nb == 1:  # F_2 at one-byte slots: codes are the plane
            acc = 0
            for xs, ys, k in triples:
                acc ^= (int.from_bytes(xs, "little")
                        * int.from_bytes(ys, "little")) << 8 * k
            return acc.to_bytes(n, "little").translate(self._digit[0])

        def planes(vs, k=0):
            codes = bytes(vs)
            out = []
            for tab in self._digit:
                bits = codes.translate(tab)
                if nb > 1:
                    buf = bytearray(len(codes) * nb)
                    buf[::nb] = bits
                    bits = buf
                out.append(int.from_bytes(bits, "little") << 8 * nb * k)
            return out

        c = [0] * (2 * d - 1)
        for xs, ys, k in triples:
            bs = planes(ys)
            for i, a in enumerate(planes(xs, k)):
                for m, b in enumerate(bs, i):
                    c[m] ^= a * b
        for m in range(2 * d - 2, d - 1, -1):
            for i in self._taps:
                c[m - d + i] ^= c[m]
        mask = int.from_bytes(b"\1".ljust(nb, b"\0") * n, "little")
        acc = 0
        for k in range(d):
            acc |= (c[k] & mask) << k
        return acc.to_bytes(n * nb, "little")[::nb]

    def _convolve_packed(self, xs, ys, nb):
        # odd p, Kronecker substitution on digits: coefficient i's d base-p
        # digits go into slots i*(2d-1) .. i*(2d-1)+d-1 of nb bytes each,
        # so the digit products of one output coefficient land in its own
        # 2d-1 slots without carries.  One big-int multiply in C; then one
        # byte per slot that is congruent to it mod p, folded with p-adic
        # weights into one byte per coefficient and reduced mod f(u) by
        # table.
        p, s = self.p, 2 * self.d - 1
        n = len(xs) + len(ys) - 1
        step = s * nb

        def pack(vs):
            if step == 1:  # d = 1, 1-byte slots: the codes are the slots
                return int.from_bytes(vs, "little")
            buf = bytearray(len(vs) * step)
            codes = bytes(vs)
            for k, tab in enumerate(self._digit):
                buf[k * nb::step] = codes.translate(tab)
            return int.from_bytes(buf, "little")

        raw = (pack(xs) * pack(ys)).to_bytes(n * step, "little")
        if nb == 1:
            low = raw
        elif nb * (p - 1) < 256:
            # byte j of each slot read as byte * 256^j mod p: a slot's nb
            # digits add up in one byte, so the strides add as big ints
            low = sum(int.from_bytes(raw[j::nb].translate(tab), "little")
                      for j, tab in enumerate(self._slot_read[:nb])
                      ).to_bytes(n * s, "little")
        else:
            slots = array.array(_SLOT_FMT[nb], raw)
            if sys.byteorder == "big":
                slots.byteswap()
            low = bytes([v % p for v in slots])
        if s == 1:  # d = 1: one slot per coefficient, nothing to fold
            return low.translate(self._read[0])
        acc = 0
        for k, tab in enumerate(self._read):
            acc += int.from_bytes(low[k::s].translate(tab), "little")
        return acc.to_bytes(n, "little").translate(self._fold)

    def __repr__(self):
        if self.d == 1:
            return f"F_{self.p}"
        return f"F_{self.q} (p={self.p}, modulus={list(self.modulus)})"

    def to_json(self):
        return {"p": self.p, "d": self.d, "q": self.q,
                "modulus": list(self.modulus)}


# interned contexts: identity of FieldCtx objects is context equality
_FIELD_CACHE = {}


def field(p, d=1, modulus=None):
    key = (p, d, tuple(c % p for c in modulus) if modulus is not None else None)
    ctx = _FIELD_CACHE.get(key)
    if ctx is None:
        ctx = FieldCtx(p, d, modulus)
        _FIELD_CACHE[key] = ctx
    return ctx


class FqElem:
    """An element of F_q: a context plus an integer code."""

    __slots__ = ("ctx", "code")

    def __init__(self, ctx, code):
        self.ctx = ctx
        self.code = code

    @classmethod
    def from_coeffs(cls, ctx, coords):
        return cls(ctx, ctx.enc(coords))

    @property
    def coeffs(self):
        return self.ctx.dec(self.code)

    def is_zero(self):
        return self.code == 0

    def inverse(self):
        return FqElem(self.ctx, self.ctx.inv_c(self.code))

    def frobenius(self, i):
        return FqElem(self.ctx, self.ctx.frob_c(self.code, i))

    def __add__(self, other):
        return FqElem(self.ctx, self.ctx.add_c(self.code, other.code))

    def __sub__(self, other):
        return FqElem(self.ctx, self.ctx.sub_c(self.code, other.code))

    def __neg__(self):
        return FqElem(self.ctx, self.ctx.neg_c(self.code))

    def __mul__(self, other):
        return FqElem(self.ctx, self.ctx.mul_c(self.code, other.code))

    def __pow__(self, n):
        return FqElem(self.ctx, self.ctx.pow_c(self.code, n))

    def __eq__(self, other):
        return (isinstance(other, FqElem) and self.ctx is other.ctx
                and self.code == other.code)

    def __hash__(self):
        return hash((id(self.ctx), self.code))

    def __repr__(self):
        if self.ctx.d == 1:
            return str(self.code)
        coords = self.coeffs
        terms = []
        for i in range(self.ctx.d - 1, -1, -1):
            c = coords[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                head = "" if c == 1 else str(c)
                terms.append(f"{head}u" if i == 1 else f"{head}u^{i}")
        return "+".join(terms) if terms else "0"


class PolyA:
    """Element of A = F_q[t]: codes lowest degree first, no trailing zeros."""

    __slots__ = ("ctx", "codes")

    def __init__(self, ctx, codes):
        self.ctx = ctx
        self.codes = bytes(codes).rstrip(b"\0")

    @classmethod
    def from_coeffs(cls, ctx, coeffs):
        """coeffs: sequence of FqElem, coordinate tuples, or bare integers
        (bare integers land in the prime subfield, reduced mod p)."""
        codes = []
        for c in coeffs:
            if isinstance(c, FqElem):
                codes.append(c.code)
            elif isinstance(c, (list, tuple)):
                codes.append(ctx.enc(c))
            else:
                # bare integers are reduced mod p into the prime subfield
                codes.append(ctx.enc([int(c)]))
        return cls(ctx, codes)

    @classmethod
    def zero(cls, ctx):
        return cls(ctx, ())

    @classmethod
    def one(cls, ctx):
        return cls(ctx, (1,))

    @classmethod
    def t(cls, ctx):
        return cls(ctx, (0, 1))

    @classmethod
    def monomial(cls, ctx, k, coeff=1):
        code = coeff.code if isinstance(coeff, FqElem) else coeff
        return cls(ctx, [0] * k + [code])

    @property
    def degree(self):
        return len(self.codes) - 1 if self.codes else NEG_INF

    def is_zero(self):
        return not self.codes

    def coeff(self, i):
        code = self.codes[i] if 0 <= i < len(self.codes) else 0
        return FqElem(self.ctx, code)

    def __add__(self, other):
        return PolyA(self.ctx, self.ctx.add(self.codes, other.codes))

    def __neg__(self):
        return PolyA(self.ctx, self.ctx.neg(self.codes))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return PolyA(self.ctx, self.ctx.convolve(self.codes, other.codes))

    def scale(self, s):
        code = s.code if isinstance(s, FqElem) else s
        return PolyA(self.ctx, self.ctx.scale(code, self.codes))

    def __pow__(self, n):
        r = PolyA.one(self.ctx)
        b = self
        while n:
            if n & 1:
                r = r * b
            b = b * b
            n >>= 1
        return r

    def __eq__(self, other):
        return (isinstance(other, PolyA) and self.ctx is other.ctx
                and self.codes == other.codes)

    def __hash__(self):
        return hash((id(self.ctx), self.codes))

    def __repr__(self):
        return format_poly(self)

    def to_json(self):
        return {"coeffs": [list(self.ctx.dec(c)) for c in self.codes]}

    @classmethod
    def from_json(cls, ctx, obj):
        return cls(ctx, [ctx.enc(c) for c in obj["coeffs"]])


def format_poly(poly: PolyA) -> str:
    ctx = poly.ctx
    if poly.is_zero():
        return "0"
    terms = []
    for k in range(len(poly.codes) - 1, -1, -1):
        code = poly.codes[k]
        if code == 0:
            continue
        if ctx.d == 1:
            head = "" if (code == 1 and k > 0) else str(code)
        else:
            txt = repr(FqElem(ctx, code))
            head = "" if (code == 1 and k > 0) else (
                f"({txt})*" if ("+" in txt and k > 0) else (txt + "*" if k > 0 else txt))
        if k == 0:
            terms.append(head)
        elif k == 1:
            terms.append(f"{head}t")
        else:
            terms.append(f"{head}t^{k}")
    return "+".join(terms)


def enumerate_polys(ctx, max_deg, monic_only, cap=DEFAULT_ENUM_CAP):
    """All monic polynomials of degree exactly max_deg, or all polynomials of
    degree < max_deg (including zero: deg 0 = NEG_INF < max_deg).

    Either branch yields exactly q^max_deg pairwise distinct polynomials.
    """
    q = ctx.q
    if q ** (max_deg + 1) > cap:
        raise EnumerationCapExceededError(
            f"q^(max_deg+1) = {q ** (max_deg + 1)} exceeds cap {cap}")
    out = []
    if monic_only:
        for tail in itertools.product(range(q), repeat=max_deg):
            out.append(PolyA(ctx, bytes(tail) + b"\1"))
    else:
        for tail in itertools.product(range(q), repeat=max_deg):
            out.append(PolyA(ctx, tail))
    return out
