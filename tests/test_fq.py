import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umbral_flow.errors import EnumerationCapExceededError, ZeroInverseError
from umbral_flow.fq import (
    NEG_INF,
    FieldCtx,
    FqElem,
    PolyA,
    enumerate_polys,
    field,
    is_prime,
)


def test_field_rejects_bad_parameters():
    with pytest.raises(ValueError):
        field(4)  # not prime
    with pytest.raises(ValueError):
        field(2, 2, (0, 0, 1))  # u^2 is reducible
    with pytest.raises(ValueError):
        field(2, 2, (1, 1))  # degree mismatch


def test_field_rejects_q_over_256():
    # codes are stored one per byte
    for args in ((257,), (2, 9, (1, 0, 0, 0, 1, 0, 0, 0, 0, 1)),
                 (17, 2, (3, 0, 1))):
        with pytest.raises(ValueError, match="<= 256"):
            field(*args)


def test_is_prime_small():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_ff_inv_examples(F2, F3, F4):
    assert FqElem(F2, 1).inverse().code == 1
    # 2*2 = 4 = 1 mod 3, found by exhaustive search at table build time
    assert FqElem(F3, 2).inverse().code == 2
    u = FqElem.from_coeffs(F4, (0, 1))
    assert u.inverse().coeffs == (1, 1)  # u*(u+1) = u^2+u = 1
    with pytest.raises(ZeroInverseError):
        FqElem(F2, 0).inverse()


def test_frobenius_examples(F2, F4):
    for code in range(2):
        assert FqElem(F2, code).frobenius(1).code == code
        assert FqElem(F2, code).frobenius(5).code == code
    u = FqElem.from_coeffs(F4, (0, 1))
    assert u.frobenius(1).coeffs == (1, 1)  # u^2 = u+1 mod u^2+u+1
    assert u.frobenius(0) == u


@pytest.mark.parametrize("ctx_name", ["F2", "F3", "F4"])
def test_field_axioms_random(ctx_name, request):
    ctx = request.getfixturevalue(ctx_name)
    rng = random.Random(1234)
    q = ctx.q
    for _ in range(1000):
        a, b, c = (rng.randrange(q) for _ in range(3))
        assert ctx.mul_c(a, ctx.mul_c(b, c)) == ctx.mul_c(ctx.mul_c(a, b), c)
        assert ctx.add_c(a, ctx.add_c(b, c)) == ctx.add_c(ctx.add_c(a, b), c)
        assert ctx.mul_c(a, ctx.add_c(b, c)) == \
            ctx.add_c(ctx.mul_c(a, b), ctx.mul_c(a, c))
        if a:
            assert ctx.mul_c(a, ctx.inv_c(a)) == 1


@pytest.mark.parametrize("ctx_name", ["F2", "F3", "F4"])
def test_frobenius_is_additive(ctx_name, request):
    ctx = request.getfixturevalue(ctx_name)
    for a in range(ctx.q):
        for b in range(ctx.q):
            lhs = ctx.frob_c(ctx.add_c(a, b), 1)
            rhs = ctx.add_c(ctx.frob_c(a, 1), ctx.frob_c(b, 1))
            assert lhs == rhs


def _is_monic(poly):
    return bool(poly.codes) and poly.codes[-1] == 1


def _divrem(a, b):
    """(quotient, remainder) of schoolbook long division, deg(remainder) <
    deg(b): the oracle that checks products through q * b + r == a."""
    if b.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    ctx = a.ctx
    rem = bytearray(a.codes)
    db = len(b.codes) - 1
    if len(rem) - 1 < db:
        return PolyA.zero(ctx), a
    lead_inv = ctx.inv_c(b.codes[-1])
    quot = bytearray(len(rem) - db)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        f = ctx.mul_c(c, lead_inv)
        quot[i - db] = f
        for j, bc in enumerate(b.codes):
            if bc:
                rem[i - db + j] = ctx.sub_c(rem[i - db + j], ctx.mul_c(f, bc))
    return PolyA(ctx, quot), PolyA(ctx, rem)


def test_poly_divrem_examples(F2):
    t = PolyA.t(F2)
    q, r = _divrem(t * t + t, t)
    assert q == t + PolyA.one(F2) and r.is_zero()
    q, r = _divrem(t, t * t)
    assert q.is_zero() and r == t
    q, r = _divrem(PolyA.zero(F2), t + PolyA.one(F2))
    assert q.is_zero() and r.is_zero()
    with pytest.raises(ZeroDivisionError):
        _divrem(t, PolyA.zero(F2))


@pytest.mark.parametrize("ctx_name", ["F2", "F3", "F4"])
def test_poly_divrem_roundtrip_random(ctx_name, request):
    ctx = request.getfixturevalue(ctx_name)
    rng = random.Random(99)
    for _ in range(500):
        a = PolyA(ctx, [rng.randrange(ctx.q) for _ in range(rng.randint(0, 8))])
        b = PolyA(ctx, [rng.randrange(ctx.q) for _ in range(rng.randint(1, 5))])
        if b.is_zero():
            continue
        q, r = _divrem(a, b)
        assert q * b + r == a
        assert r.degree < b.degree


def test_zero_polynomial_degree_sentinel(F2):
    z = PolyA.zero(F2)
    assert z.degree == NEG_INF
    assert NEG_INF < -10 ** 9
    assert NEG_INF < 0


@pytest.mark.parametrize("ctx_name,k", [("F2", 1), ("F2", 3), ("F3", 2),
                                        ("F4", 1), ("F4", 2)])
def test_enumerate_counts_and_distinct(ctx_name, k, request):
    ctx = request.getfixturevalue(ctx_name)
    monic = enumerate_polys(ctx, k, True)
    assert len(monic) == ctx.q ** k
    assert len(set(monic)) == len(monic)
    assert all(_is_monic(p) and p.degree == k for p in monic)
    small = enumerate_polys(ctx, k, False)
    assert len(small) == ctx.q ** k
    assert len(set(small)) == len(small)
    assert all(p.degree < k for p in small)
    assert any(p.is_zero() for p in small)


def test_enumerate_degree_zero_index_set(F2, F3):
    # {eps : deg(eps) < 0} = {0}, forced by deg(0) = NEG_INF
    for ctx in (F2, F3):
        polys = enumerate_polys(ctx, 0, False)
        assert len(polys) == 1 and polys[0].is_zero()


def test_enumerate_monic_deg1_f2(F2):
    got = {repr(p) for p in enumerate_polys(F2, 1, True)}
    assert got == {"t", "t+1"}


def test_enumerate_cap(F2):
    with pytest.raises(EnumerationCapExceededError):
        enumerate_polys(F2, 10, True, cap=100)


@given(st.lists(st.integers(0, 2), max_size=8),
       st.lists(st.integers(0, 2), max_size=8))
@settings(max_examples=60, deadline=None)
def test_poly_ring_commutativity_f3(xs, ys):
    ctx = field(3)
    a = PolyA(ctx, xs)
    b = PolyA(ctx, ys)
    assert a * b == b * a
    assert a + b == b + a


def test_poly_json_roundtrip(F4):
    u = FqElem.from_coeffs(F4, (0, 1))
    p = PolyA.from_coeffs(F4, [u, FqElem(F4, 1), u + FqElem(F4, 1)])
    assert PolyA.from_json(F4, p.to_json()) == p


# Kronecker-packed convolution against the table path.  For p = 2 the
# products run on bit planes, whose slots sum at most min(len) products of
# two bits, and odd p on digit slots, which sum at most min(len) * d * (p-1)^2
# products' worth.  One-byte slots hold while that bound stays below 256,
# and otherwise the narrowest slot that holds the bound recounted with
# min(nnz), nnz an operand's count of non-zero codes; "edge" below is the
# longest min(len), and the largest min(nnz), that still fits one-byte
# slots: 255 for every p = 2 field.
_PACK_FIELDS = {
    "F2": (2, 1, None),
    "F3": (3, 1, None),
    "F4": (2, 2, (1, 1, 1)),
    "F8": (2, 3, (1, 1, 0, 1)),
    "F9": (3, 2, (1, 0, 1)),
}

# every p = 2 field that packs (2^(2d-1) <= 256), with each irreducible
# modulus of F_8 and two of F_16, so that every reduction tap is exercised
_PLANE_FIELDS = {
    "F2": (2, 1, None),
    "F4": (2, 2, (1, 1, 1)),
    "F8": (2, 3, (1, 1, 0, 1)),
    "F8b": (2, 3, (1, 0, 1, 1)),
    "F16": (2, 4, (1, 1, 0, 0, 1)),
    "F16b": (2, 4, (1, 1, 1, 1, 1)),
}


def _one_byte_edge(ctx):
    if ctx.p == 2:
        return 255
    return 255 // (ctx.d * (ctx.p - 1) ** 2)


@st.composite
def _packed_case(draw, ctx):
    edge = _one_byte_edge(ctx)
    kind = draw(st.sampled_from(["random", "sparse", "top", "gaps",
                                 "unit"]))
    # "unit": a length-1 side against a side long enough to pack
    m = 1 if kind == "unit" else draw(st.sampled_from([edge, edge + 1]))
    lo = 64 if m == 1 else m  # m * n >= 64 pairs: the packed path
    n = draw(st.integers(lo, lo + 24))
    rng = draw(st.randoms(use_true_random=False))
    q = ctx.q

    def vec(size):
        if kind in ("top", "gaps"):  # every digit p-1: the largest sums
            return [q - 1] * size
        if kind == "sparse":
            return [rng.randrange(1, q) if rng.random() < 0.1 else 0
                    for _ in range(size)]
        return [rng.randrange(q) for _ in range(size)]

    xs, ys = vec(m), vec(n)
    if kind == "gaps":
        # zero codes spread through the short side: its length passes the
        # edge, but it still meets the long all-(p-1) side in m products
        for _ in range(draw(st.integers(1, m))):
            xs.insert(rng.randrange(len(xs) + 1), 0)
        ys += [q - 1] * (len(xs) - m)
    if draw(st.booleans()):
        xs, ys = ys, xs
    return ctx, xs, ys


@given(st.sampled_from(sorted(_PACK_FIELDS)).flatmap(
    lambda name: _packed_case(field(*_PACK_FIELDS[name]))))
@settings(max_examples=120, deadline=None)
def test_convolve_packed_matches_table(case):
    ctx, xs, ys = case
    assert ctx.convolve(xs, ys) == ctx._convolve_table(xs, ys)


@pytest.mark.parametrize("name", sorted(_PLANE_FIELDS))
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_convolve_planes_matches_table(name, data):
    # the bit-plane kernel at every slot width the overflow bound allows,
    # and ``convolve`` at the one it picks
    ctx, xs, ys = data.draw(_packed_case(field(*_PLANE_FIELDS[name])))
    expect = ctx._convolve_table(xs, ys)
    assert ctx.convolve(xs, ys) == expect
    nnz = min(len(xs) - xs.count(0), len(ys) - ys.count(0))
    for nb in (1, 2) if nnz <= _one_byte_edge(ctx) else (2,):
        assert ctx._convolve_planes(((bytes(xs), bytes(ys), 0),), nb,
                                    len(xs) + len(ys) - 1) == expect


def _spy_packed(monkeypatch, calls):
    """Record (path, slot width) of each packed convolution in calls."""
    def planes(self, triples, nb, n, _fn=FieldCtx._convolve_planes):
        calls.append(("_convolve_planes", nb))
        return _fn(self, triples, nb, n)

    def packed(self, xs, ys, nb, _fn=FieldCtx._convolve_packed):
        calls.append(("_convolve_packed", nb))
        return _fn(self, xs, ys, nb)

    monkeypatch.setattr(FieldCtx, "_convolve_planes", planes)
    monkeypatch.setattr(FieldCtx, "_convolve_packed", packed)


def test_convolve_dispatch(monkeypatch):
    # every field with p^(2d-1) <= 256 packs, d > 1 included, p = 2 on bit
    # planes and odd p on digit slots, with the slot width switching
    # exactly at the overflow bound: at min(len) for vectors without zero
    # codes, and at min(nnz) for a vector longer than the edge that has
    # zero codes.  F_32 (2^9 > 256) stays on the table path
    calls = []

    def refuse(self, xs, ys):
        raise AssertionError("table path")

    rng = random.Random(7)
    cases = []
    fields = [field(*args) for args in {**_PACK_FIELDS,
                                        **_PLANE_FIELDS}.values()]
    for ctx in fields:
        edge = _one_byte_edge(ctx)
        ys = [rng.randrange(1, ctx.q) for _ in range(edge + 1)]
        nonzero = [[rng.randrange(1, ctx.q) for _ in range(m)]
                   for m in (edge, edge + 1)]
        # edge + 1 codes, one of them zero; 4 * edge codes, edge non-zero
        one_zero = nonzero[1][:]
        one_zero[rng.randrange(edge + 1)] = 0
        sparse = [0] * (4 * edge)
        for i in rng.sample(range(4 * edge), edge):
            sparse[i] = rng.randrange(1, ctx.q)
        for xs in (*nonzero, one_zero, sparse):
            cases.append((ctx, xs, ys, ctx._convolve_table(xs, ys)))
    F4 = field(2, 2, (1, 1, 1))
    xs = [rng.randrange(4) for _ in range(64)]
    ys = [rng.randrange(4) for _ in range(64)]
    expect = F4._convolve_table(xs, ys)

    _spy_packed(monkeypatch, calls)
    monkeypatch.setattr(FieldCtx, "_convolve_table", refuse)
    assert F4.convolve(xs, ys) == expect
    assert calls == [("_convolve_planes", 1)]
    for ctx, xs, ys, expect in cases:
        assert ctx.convolve(xs, ys) == expect
    assert calls[1:] == [
        ("_convolve_planes" if ctx.p == 2 else "_convolve_packed", nb)
        for ctx in fields for nb in (1, 2, 1, 1)]
    F32 = field(2, 5, (1, 0, 1, 0, 0, 1))
    with pytest.raises(AssertionError, match="table path"):
        F32.convolve([1] * 64, [1] * 64)


def _convolve_sum_loop(ctx, triples):
    """The reference for ``convolve_sum``: one table product and one table
    sum per triple."""
    acc = b""
    for xs, ys, k in triples:
        prod = ctx._convolve_table(xs, ys) if xs and ys else b""
        acc = ctx._add_table(acc, prod, k)
    return acc


def _sum_case(rng, ctx, wide):
    """Up to five (xs, ys, k) triples at mixed shifts, empty operands and
    shared xs among them; with ``wide``, one product of two operands with 300 non-zero
    codes, past one-byte slots for p = 2."""
    def vec():
        n = rng.choice([0, 1, 2, 5, 17, 40])
        return bytes(rng.randrange(ctx.q) for _ in range(n))

    triples = []
    for _ in range(rng.randrange(0, 5)):
        # a later triple may share an earlier one's xs
        xs = rng.choice(triples)[0] if triples and rng.random() < 0.3 \
            else vec()
        triples.append((xs, vec(), rng.randrange(0, 60)))
    if wide:
        xs, ys = (bytes(rng.randrange(1, ctx.q) for _ in range(300))
                  for _ in range(2))
        triples.insert(rng.randrange(len(triples) + 1),
                       (xs, ys, rng.randrange(0, 60)))
    return triples


@pytest.mark.parametrize("name", ["F2", "F4", "F8"])
@pytest.mark.parametrize("wide", [False, True])
def test_convolve_sum_matches_loop(name, wide, monkeypatch):
    # over p = 2 every sum with a product is one bit-plane sum, at the slot
    # width of its widest product: one byte, or two for 300 x 300 codes
    ctx = field(*_PLANE_FIELDS[name])
    widths = []
    planes = FieldCtx._convolve_planes

    def spy(self, triples, nb, n):
        widths.append(nb)
        return planes(self, triples, nb, n)

    monkeypatch.setattr(FieldCtx, "_convolve_planes", spy)
    rng = random.Random(f"{name}-{wide}")
    for _ in range(40):
        triples = _sum_case(rng, ctx, wide)
        del widths[:]
        got = ctx.convolve_sum(triples)
        assert type(got) is bytes
        assert got == _convolve_sum_loop(ctx, triples)
        assert widths == ([2 if wide else 1] if triples else [])


@pytest.mark.parametrize("name", ["F2", "F4", "F8"])
def test_convolve_sum_shared_xs_slot_width(name, monkeypatch):
    # for d > 1 the triples that share xs make one product, xs by the sum
    # of their ys: eight ys of 40 non-zero codes, 40 places apart, sum to
    # 320 non-zero codes, so with an xs of 300 non-zero codes that product
    # needs 2-byte slots, where each triple's product alone fits one byte.
    # F_2 multiplies each triple alone
    ctx = field(*_PLANE_FIELDS[name])
    rng = random.Random(name)
    widths = []
    planes = FieldCtx._convolve_planes

    def spy(self, triples, nb, n):
        widths.append(nb)
        return planes(self, triples, nb, n)

    monkeypatch.setattr(FieldCtx, "_convolve_planes", spy)
    xs = bytes(rng.randrange(1, ctx.q) for _ in range(300))
    triples = [(xs, bytes(rng.randrange(1, ctx.q) for _ in range(40)),
                5 + 40 * i) for i in range(8)]
    assert ctx.convolve_sum(triples) == _convolve_sum_loop(ctx, triples)
    assert widths == [1 if ctx.d == 1 else 2]


@pytest.mark.parametrize("args", [(3, 1, None), (2, 5, (1, 0, 1, 0, 0, 1))])
def test_convolve_sum_loop_over_odd_p_and_unpacked_fields(args, monkeypatch):
    # F_3 (odd p) and F_32 (2^9 > 256) add one product at a time
    ctx = field(*args)

    def refuse(self, *args):
        raise AssertionError("bit-plane sum")

    monkeypatch.setattr(FieldCtx, "_convolve_planes", refuse)
    rng = random.Random(3)
    for _ in range(30):
        triples = _sum_case(rng, ctx, rng.random() < 0.2)
        assert ctx.convolve_sum(triples) == _convolve_sum_loop(ctx, triples)


@pytest.mark.parametrize("args", [(3, 1, None), (5, 1, None), (7, 1, None),
                                  (3, 2, (1, 0, 1)), (131, 1, None)])
@pytest.mark.parametrize("nb", [2, 4, 8])
def test_convolve_packed_wide_slots_match_table(args, nb):
    # slots of nb > 1 bytes read through the 256^j mod p tables when
    # nb * (p - 1) < 256, and by % p otherwise (F_131 at 4 and 8 bytes);
    # the all-(p-1) operands put digits in every slot's second byte.  A
    # product that could overflow nb-byte slots is not a valid input
    ctx = field(*args)
    rng = random.Random(nb)
    for m, n in ((64, 64), (70, 200), (1, 90), (130, 9)):
        for xs, ys in ((bytes([ctx.q - 1]) * m, bytes([ctx.q - 1]) * n),
                       (bytes(rng.randrange(ctx.q) for _ in range(m)),
                        bytes(rng.randrange(ctx.q) for _ in range(n)))):
            if ctx._slot_width(xs, ys) > nb:
                continue
            assert ctx._convolve_packed(xs, ys, nb) == \
                ctx._convolve_table(xs, ys)


# Element-wise kernels on bytes code vectors against per-coefficient
# lookups.  F_127 and F_131 are large prime fields whose digit sums reach
# 252 and 260, one on each side of a byte.
_VEC_FIELDS = {
    **_PACK_FIELDS,
    "F127": (127, 1, None),
    "F131": (131, 1, None),
}


@st.composite
def _vec_case(draw):
    ctx = field(*_VEC_FIELDS[draw(st.sampled_from(sorted(_VEC_FIELDS)))])
    q = ctx.q

    def vec():
        kind = draw(st.sampled_from(["random", "zeros", "top", "empty"]))
        n = 0 if kind == "empty" else draw(st.integers(1, 40))
        if kind == "zeros":
            return bytes(n)
        if kind == "top":  # every digit p-1
            return bytes([q - 1]) * n
        return bytes(draw(st.lists(st.integers(0, q - 1), min_size=n,
                                   max_size=n)))

    return ctx, vec(), vec(), draw(st.integers(0, 12)), \
        draw(st.integers(0, q - 1)), draw(st.integers(0, 2 * ctx.d))


@given(_vec_case())
@settings(max_examples=200, deadline=None)
def test_vector_kernels_match_tables(case):
    ctx, xs, ys, k, s, i = case
    padded = list(xs) + [0] * (max(len(xs), k + len(ys)) - len(xs))
    for j, y in enumerate(ys, k):
        padded[j] = ctx.add_c(padded[j], y)
    got = ctx.add(xs, ys, k)
    assert type(got) is bytes
    assert got == ctx._add_table(xs, ys, k) == bytes(padded)
    assert ctx.neg(xs) == bytes(ctx.neg_c(x) for x in xs)
    assert ctx.scale(s, xs) == bytes(ctx.mul_c(s, x) for x in xs)
    assert ctx.frob(xs, i) == bytes(ctx.frob_c(x, i) for x in xs)
    if xs and ys:
        assert ctx.convolve(xs, ys) == ctx._convolve_table(xs, ys)
