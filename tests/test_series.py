import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umbral_flow.errors import (
    CompositionConstantTermError,
    NotAGeneratorError,
    TruncationMismatchError,
)
from umbral_flow import series
from umbral_flow.fq import FieldCtx, PolyA, field
from umbral_flow.laurent import INF, LaurentF, product_sum
from umbral_flow.series import (
    AdditiveSeries,
    TruncSeries,
    binom_mod_p,
    hasse_derivative,
    series_agreement_valuation,
    series_compose,
    taylor_shift,
    top_place,
)

M = 12


def _rand_series(ctx, rng, trunc=M, prec=48, v_lo=0, v_hi=5):
    coeffs = []
    for _ in range(trunc):
        if rng.random() < 0.2:
            coeffs.append(LaurentF.zero(ctx))
        else:
            v = rng.randint(v_lo, v_hi)
            codes = [rng.randrange(1, ctx.q)]
            codes += [rng.randrange(ctx.q) for _ in range(8)]
            coeffs.append(LaurentF(ctx, v, codes, prec))
    return TruncSeries(ctx, coeffs)


# -- binomials ---------------------------------------------------------------

@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_binomials_against_factorials(p):
    # integer-factorial oracle for every n <= 64
    for n in range(65):
        for k in range(n + 2):
            assert binom_mod_p(n, k, p) == math.comb(n, k) % p if k <= n \
                else binom_mod_p(n, k, p) == 0


def test_binomial_examples():
    assert binom_mod_p(3, 1, 2) == 1
    assert binom_mod_p(4, 2, 2) == 0  # C(4,2) = 6
    for n in (0, 5, 100, 12345):
        assert binom_mod_p(n, 0, 7) == 1


def test_binom_mod_p_cache_is_bounded():
    bound = binom_mod_p.cache_info().maxsize
    assert bound is not None
    for n in range(10 ** 7, 10 ** 7 + bound + 100):
        binom_mod_p(n, 3, 2)
    assert binom_mod_p.cache_info().currsize == bound


# -- Hasse derivatives and Taylor shifts ---------------------------------------

def test_hasse_examples(F2):
    P = TruncSeries.monomial(F2, 2, M)
    assert hasse_derivative(P, 1).is_zero()  # coefficient 2 = 0 in char 2
    P3 = TruncSeries.monomial(F2, 3, M)
    d = hasse_derivative(P3, 2)
    assert d.trunc == M - 2
    assert not d.coeffs[1].is_zero_at_prec()  # C(3,2) = 1 mod 2: result is T
    assert all(c.is_exact_zero() for j, c in enumerate(d.coeffs) if j != 1)
    assert hasse_derivative(P3, M).is_zero()
    assert hasse_derivative(P3, 0) is P3


def test_taylor_shift_cube(F2):
    # (T+c)^3 = T^3 + cT^2 + c^2 T + c^3 in char 2
    c = LaurentF(F2, 1, [1], INF)
    P = TruncSeries.monomial(F2, 3, M)
    out = taylor_shift(P, c)
    for h, expect in [(0, c * c * c), (1, c * c), (2, c), (3, LaurentF.one(F2))]:
        assert (out.coeffs[h] - expect).is_exact_zero()
    for h in range(4, M):
        assert out.coeffs[h].is_exact_zero()


def test_taylor_shift_trivial_cases(F2):
    rng = random.Random(0)
    P = _rand_series(F2, rng)
    assert taylor_shift(P, LaurentF.zero(F2)) == P
    T = TruncSeries.monomial(F2, 1, M)
    c = LaurentF(F2, 1, [1], INF)
    out = taylor_shift(T, c)
    assert (out.coeffs[0] - c).is_exact_zero()
    assert (out.coeffs[1] - LaurentF.one(F2)).is_exact_zero()


def _taylor_per_coefficient(P, c):
    # the reference: one product_sum per output coefficient j over the
    # pairs (C(j+k, k) a_(j+k), c^k), c^0 = 1 given as None
    ctx, M = P.ctx, P.trunc
    cpows = [None, c]
    while len(cpows) < M:
        cpows.append(cpows[-1] * c)
    out = []
    for j in range(M):
        pairs = []
        for k in range(M - j):
            a = P.coeffs[j + k]
            b = binom_mod_p(j + k, k, ctx.p)
            if b and not a.is_exact_zero():
                pairs.append((a if b == 1 else a.scale(b), cpows[k]))
        out.append(product_sum(ctx, pairs))
    return out


@pytest.mark.parametrize("p,d,modulus", [
    (2, 1, None), (3, 1, None), (2, 2, (1, 1, 1)), (2, 3, (1, 1, 0, 1)),
    (3, 2, (1, 0, 1)), (5, 1, None),
], ids=["F2", "F3", "F4", "F8", "F9", "F5"])
def test_taylor_shift_matches_per_coefficient_sums(p, d, modulus):
    # one accumulated convolution gives every coefficient the (v, codes,
    # prec) of one product_sum per coefficient: series with exact zeros,
    # zeros at precision and negative valuations, shifted by an exact, a
    # finite-precision, a zero-at-precision and the exact-zero c
    ctx = field(p, d, modulus)
    rng = random.Random(p * 10 + d)
    cs = [LaurentF(ctx, 1, [1, 0, rng.randrange(1, ctx.q)], INF),
          LaurentF(ctx, 1, [rng.randrange(1, ctx.q)] +
                   [rng.randrange(ctx.q) for _ in range(20)], 30),
          LaurentF.zero_at(ctx, 7), LaurentF.zero(ctx)]
    for trunc in (1, 2, 5, M, 20):
        P = _rand_series(ctx, rng, trunc=trunc, v_lo=-3)
        coeffs = list(P.coeffs)
        for j in range(0, trunc, 3):
            coeffs[j] = LaurentF.zero_at(ctx, rng.randint(2, 40))
        for P in (P, TruncSeries(ctx, coeffs)):
            for c in cs:
                got = taylor_shift(P, c).coeffs
                want = _taylor_per_coefficient(P, c)
                assert [(z.v, z.codes, z.prec) for z in got] == \
                    [(z.v, z.codes, z.prec) for z in want], (trunc, c)


@pytest.mark.parametrize("ctx_name", ["F2", "F3"])
def test_taylor_shift_homomorphism(ctx_name, request):
    # product rule needs the product to fit inside the window, so use
    # polynomials of degree < M/2; the additivity in c holds for any input
    ctx = request.getfixturevalue(ctx_name)
    rng = random.Random(3)
    zero = LaurentF.zero(ctx)
    for _ in range(20):
        P = _rand_series(ctx, rng, trunc=M // 2)
        Q = _rand_series(ctx, rng, trunc=M // 2)
        P = TruncSeries(ctx, P.coeffs + (zero,) * (M - P.trunc))
        Q = TruncSeries(ctx, Q.coeffs + (zero,) * (M - Q.trunc))
        c = LaurentF(ctx, 1, [rng.randrange(1, ctx.q)] +
                     [rng.randrange(ctx.q) for _ in range(6)], 48)
        c2 = LaurentF(ctx, 2, [rng.randrange(1, ctx.q)], 48)
        lhs = taylor_shift(P._mul_loop(Q), c)
        rhs = taylor_shift(P, c)._mul_loop(taylor_shift(Q, c))
        assert series_agreement_valuation(lhs, rhs) >= 40
        R = _rand_series(ctx, rng)
        lhs2 = taylor_shift(taylor_shift(R, c), c2)
        rhs2 = taylor_shift(R, c + c2)
        assert series_agreement_valuation(lhs2, rhs2) >= 40


# -- products, powers, composition --------------------------------------------

def test_frobenius_square_product(F2):
    one = TruncSeries.monomial(F2, 0, M)
    T = TruncSeries.monomial(F2, 1, M)
    sq = (one + T) * (one + T)
    assert not sq.coeffs[0].is_zero_at_prec()
    assert sq.coeffs[1].is_exact_zero()
    assert not sq.coeffs[2].is_zero_at_prec()


def test_series_pow_monomial(F2):
    T = TruncSeries.monomial(F2, 1, M)
    p5 = _product_power(T, 5)
    assert not p5.coeffs[5].is_zero_at_prec()
    assert _product_power(TruncSeries.monomial(F2, 1, 4), 5).is_zero()


def _product_power(P, n):
    """P^n by n - 1 schoolbook series products: the reference for powers,
    kept off the packed path that ``*`` may take."""
    r = P
    for _ in range(n - 1):
        r = r._mul_loop(P)
    return r


@pytest.mark.parametrize("ctx_name", ["F2", "F3", "F4"])
def test_frobenius_matches_repeated_products(ctx_name, request,
                                             assert_refines):
    # P^(p^t) as a coefficient twist against t rounds of p-fold products,
    # with negative valuations and some exact-zero coefficients
    ctx = request.getfixturevalue(ctx_name)
    rng = random.Random(31)
    for _ in range(6):
        P = _rand_series(ctx, rng, v_lo=-3, v_hi=4)
        ref = P
        t = 1
        while ctx.p ** t < M:
            ref = _product_power(ref, ctx.p)
            assert_refines(P.frobenius(t), ref)
            t += 1


@pytest.mark.parametrize("ctx_name", ["F2", "F3", "F4"])
def test_frobenius_keeps_product_precision(ctx_name, request):
    # a moved coefficient keeps exactly the precision c^e has by products,
    # prec + (e - 1) v, not the e * prec a coefficientwise power could claim
    ctx = request.getfixturevalue(ctx_name)
    for v in (-2, 0, 3):
        c = LaurentF(ctx, v, [1, 1, 0, 1], 30)
        P = TruncSeries.monomial(ctx, 1, M, c)
        for t in (1, 2):
            e = ctx.p ** t
            got = P.frobenius(t).coeffs[e]
            assert got.prec == 30 + (e - 1) * v
            assert got == _product_power(P, e).coeffs[e]


@pytest.mark.parametrize("ctx_name", ["F2", "F3", "F4"])
def test_series_pow_digits_match_products(ctx_name, request, assert_refines):
    # P^n as a product of Frobenius twists, one per unit of n's base-p
    # digits (the route AdditiveIso's power tables take), against n - 1
    # plain products
    ctx = request.getfixturevalue(ctx_name)
    rng = random.Random(32)
    P = _rand_series(ctx, rng, v_lo=-2, v_hi=3)
    for n in range(1, 14):
        r, m = None, n
        while m:
            t, e = top_place(ctx.p, m)
            r = P.frobenius(t) if r is None else r * P.frobenius(t)
            m -= e
        assert_refines(r, _product_power(P, n))


# -- packed products against the schoolbook loop ------------------------------
# The fields whose convolution packs (p^(2d-1) <= 256).  ``convolve`` gives a
# packed vector one-byte slots while min(len) * top < 256, or else while
# min(nnz) * top < 256, nnz an operand's count of non-zero codes and top 1
# for p = 2 (bit planes) and d * (p-1)^2 for odd p (digit slots).
_PACK_FIELDS = {
    "F2": (2, 1, None),
    "F3": (3, 1, None),
    "F4": (2, 2, (1, 1, 1)),
    "F8": (2, 3, (1, 1, 0, 1)),
    "F9": (3, 2, (1, 0, 1)),
}


def _one_byte_edge(ctx):
    if ctx.p == 2:
        return 255
    return 255 // (ctx.d * (ctx.p - 1) ** 2)


@st.composite
def _laurent(draw, ctx, width):
    kind = draw(st.sampled_from(["exact zero", "zero at prec", "exact",
                                 "finite"]))
    if kind == "exact zero":
        return LaurentF.zero(ctx)
    v = draw(st.integers(-6, 6))
    if kind == "zero at prec":
        return LaurentF.zero_at(ctx, v)
    codes = draw(st.lists(st.integers(0, ctx.q - 1), min_size=1,
                          max_size=width))
    # a finite precision may cut the stored codes
    prec = INF if kind == "exact" else v + draw(st.integers(0, width + 3))
    return LaurentF(ctx, v, codes, prec)


@st.composite
def _product_case(draw):
    ctx = field(*_PACK_FIELDS[draw(st.sampled_from(sorted(_PACK_FIELDS)))])
    width = draw(st.sampled_from([3, 12, 40]))

    def series():
        n = draw(st.integers(0, 10))
        return TruncSeries(ctx, [draw(_laurent(ctx, width))
                                 for _ in range(n)])

    a, b = series(), series()
    if a.trunc >= 2 and b.trunc >= 2 and draw(st.booleans()):
        # b = u * (a_1, -a_0, ...): coefficient 1 of a * b cancels, to an
        # exact zero or to a zero at precision
        u = draw(_laurent(ctx, width))
        b = TruncSeries(ctx, (a.coeffs[1] * u, -(a.coeffs[0] * u))
                        + b.coeffs[2:])
    return a, b


@given(_product_case())
@settings(max_examples=300, deadline=None)
def test_packed_product_matches_loop(case):
    # a product with no coded term on one side never reaches the packed
    # path; it is checked through * alone
    a, b = case
    ref = a._mul_loop(b)
    n, sa, sb = _spans(a, b)
    if sa and sb:
        assert a._mul_packed(b, n, sa, sb) == ref
    assert a * b == ref


def _spans(a, b):
    n = min(a.trunc, b.trunc)
    return n, series._digit_span(a.terms, n), series._digit_span(b.terms, n)


def _packed(a, b):
    """a._mul_packed(b) with the window and digit spans that * passes it."""
    return a._mul_packed(b, *_spans(a, b))


def _span_codes(ctx, rng, span):
    """A random code vector of length span with nonzero ends."""
    if span == 1:
        return [rng.randrange(1, ctx.q)]
    return [rng.randrange(1, ctx.q)] + \
        [rng.randrange(ctx.q) for _ in range(span - 2)] + [1]


@pytest.mark.parametrize("name", sorted(_PACK_FIELDS))
def test_packed_product_slot_widths(name, monkeypatch):
    # a = x_0 + x_1 T and b = y_0 + y_1 T with L non-zero codes each pack
    # to 3L - 1 codes, 2L of them non-zero: the L - 1 codes between the
    # blocks are zero.  L is chosen on each side of the longest packed
    # vector, and then of the most non-zero codes, that ``convolve`` still
    # gives one-byte slots; a packed vector longer than the edge with few
    # enough non-zero codes keeps one-byte slots
    ctx = field(*_PACK_FIELDS[name])
    edge = _one_byte_edge(ctx)
    rng = random.Random(11)
    widths = []
    path = "_convolve_planes" if ctx.p == 2 else "_convolve_packed"
    packed = getattr(FieldCtx, path)

    if ctx.p == 2:
        def spy(self, triples, nb, n):
            xs, ys, _ = triples[0]
            widths.append((min(len(xs), len(ys)), nb))
            return packed(self, triples, nb, n)
    else:
        def spy(self, xs, ys, nb):
            widths.append((min(len(xs), len(ys)), nb))
            return packed(self, xs, ys, nb)

    monkeypatch.setattr(FieldCtx, path, spy)
    for L, nb in (((edge + 1) // 3, 1), ((edge + 1) // 3 + 1, 1),
                  (edge // 2, 1), (edge // 2 + 1, 2)):
        a, b = (TruncSeries(ctx, [
            LaurentF(ctx, 0, [rng.randrange(1, ctx.q) for _ in range(L)],
                     INF) for _ in range(2)]) for _ in range(2))
        del widths[:]
        got = _packed(a, b)
        assert widths[0] == (3 * L - 1, nb)
        assert got == a._mul_loop(b)


def test_series_mul_dispatch(monkeypatch):
    # a dense product takes the packed path and a sparse one the loop, with
    # the switch exactly at _PACK_SLOTS_PER_PAIR slots per term pair; a
    # field whose convolution does not pack (F_32: 2^9 > 256) never packs
    def refuse(path):
        def mul(self, *args):
            raise AssertionError(path)
        return mul

    rng = random.Random(5)

    def dense(ctx, span):
        return TruncSeries(ctx, [
            LaurentF(ctx, rng.randint(-3, 3), _span_codes(ctx, rng, span), 50)
            for _ in range(16)])

    F2 = field(2)
    zero = LaurentF.zero(F2)
    sparse_b = TruncSeries(F2, [
        LaurentF(F2, rng.randint(-3, 3), _span_codes(F2, rng, 9), 50)
        if j % 20 == 0 else zero for j in range(80)])
    sparse_a = TruncSeries.monomial(
        F2, 0, 80, LaurentF(F2, 0, _span_codes(F2, rng, 30), 50))
    # window 2 and three term pairs: a one-code a_j against a b_0 of span W
    # gives block width W, so the widest block that packs is 3 * threshold
    # // 2
    top = 3 * series._PACK_SLOTS_PER_PAIR // 2
    one = LaurentF.one(F2)
    edge_a = TruncSeries(F2, [one, one])

    def edge_b(span):
        return TruncSeries(F2, [LaurentF(F2, 0, [1] * span, INF), one])

    F32 = field(2, 5, (1, 0, 1, 0, 0, 1))
    packs = [(dense(F2, 8), dense(F2, 8)), (edge_a, edge_b(top))]
    loops = [(sparse_a, sparse_b), (edge_a, edge_b(top + 1)),
             (dense(F32, 4), dense(F32, 4))]
    for path, cases in (("_mul_loop", packs), ("_mul_packed", loops)):
        expect = [a._mul_loop(b) for a, b in cases]
        with monkeypatch.context() as m:
            m.setattr(TruncSeries, path, refuse(path))
            assert [a * b for a, b in cases] == expect


def test_compose_example(F2):
    inner = TruncSeries.monomial(F2, 1, M) + TruncSeries.monomial(F2, 2, M)
    out = series_compose(TruncSeries.monomial(F2, 2, M), inner)
    hot = [j for j, c in enumerate(out.coeffs) if not c.is_zero_at_prec()]
    assert hot == [2, 4]  # (T+T^2)^2 in char 2


def test_compose_requires_zero_constant(F2):
    bad = TruncSeries.monomial(F2, 0, M)
    with pytest.raises(CompositionConstantTermError):
        series_compose(bad, bad)


def test_sup_valuation_boundedness_under_hasse(F2):
    # derivative coefficients are sums of copies of original ones, so their
    # valuations cannot drop below the original bound
    rng = random.Random(5)
    for _ in range(30):
        P = _rand_series(F2, rng, v_lo=-3)
        sup = P.sup_valuation()
        for k in range(M):
            assert hasse_derivative(P, k).sup_valuation() >= sup


@given(st.integers(1, 3), st.integers(2, 4))
@settings(max_examples=30, deadline=None)
def test_power_rule_small_hypothesis(n, k):
    ctx = field(2)
    rng = random.Random(n * 10 + k)
    P = _rand_series(ctx, rng, trunc=8)
    lhs = hasse_derivative(_product_power(P, k), n)
    # brute expansion of the product rule
    rhs = None
    from umbral_flow.series import binom_mod_p as bm

    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(1, total - parts + 2):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    for h in range(1, k + 1):
        b = bm(k, h, 2)
        if b == 0:
            continue
        inner = None
        for ii in compositions(n, h):
            prod = hasse_derivative(P, ii[0])
            for i2 in ii[1:]:
                prod = prod * hasse_derivative(P, i2)
            inner = prod if inner is None else inner + prod
        if inner is None:
            continue
        term = inner if h == k else _product_power(P, k - h) * inner
        rhs = term if rhs is None else rhs + term
    if rhs is None:
        rhs = TruncSeries.zero(ctx, lhs.trunc)
    assert series_agreement_valuation(lhs, rhs) >= 40


# -- additive series -----------------------------------------------------------

def test_additive_compose_example(F2):
    one = LaurentF.one(F2)
    H = AdditiveSeries(F2, [one, one])  # T + T^2
    HH = H.compose(H)
    assert (HH.coeff(0) - one).is_exact_zero()
    assert HH.coeff(1).is_exact_zero()       # middle terms cancel in char 2
    assert (HH.coeff(2) - one).is_exact_zero()  # T^4 survives


def test_additive_compose_identity_and_scalars(F2, F3):
    one = LaurentF.one(F2)
    H = AdditiveSeries(F2, [one, one])
    ident = AdditiveSeries.identity(F2)
    got = H.compose(ident)
    assert all((got.coeff(i) - H.coeff(i)).is_exact_zero() for i in range(2))
    g = LaurentF(F3, 0, [2], INF)
    d = LaurentF(F3, 0, [2], INF)
    comp = AdditiveSeries.linear(g).compose(AdditiveSeries.linear(d))
    assert comp.coeff(0).codes == b"\1"  # 2*2 = 4 = 1 in F_3


def test_additive_inverse_all_ones(F2):
    one = LaurentF.one(F2)
    H = AdditiveSeries(F2, [one, one])
    inv = H.inverse(length=6)
    for i in range(6):
        assert (inv.coeff(i) - one).is_exact_zero()
    for comp in (H.compose(inv), inv.compose(H)):
        assert (comp.coeff(0) - one).is_exact_zero()
        for k in range(1, comp.length):
            assert comp.coeff(k).is_exact_zero()


def test_additive_inverse_linear_and_identity(F3):
    g = LaurentF(F3, 0, [2], INF)
    inv = AdditiveSeries.linear(g).inverse()
    assert inv.coeff(0).codes == b"\2"  # 2 is its own inverse in F_3
    ident = AdditiveSeries.identity(F3)
    got = ident.inverse()
    assert (got.coeff(0) - LaurentF.one(F3)).is_exact_zero()


def test_is_generator_cases(F2):
    one = LaurentF.one(F2)
    s = LaurentF(F2, 1, [1], INF)  # 1/t, valuation 1
    assert AdditiveSeries(F2, [one, one]).is_generator()[0]
    assert AdditiveSeries(F2, [one, s]).is_generator()[0]  # T + (1/t)T^2
    ok, reason = AdditiveSeries(F2, [s]).is_generator()
    assert not ok and "valuation" in reason
    with pytest.raises(NotAGeneratorError):
        AdditiveSeries(F2, [s]).inverse()


def test_to_trunc_series_rules(F2):
    one = LaurentF.one(F2)
    H = AdditiveSeries(F2, [one, one, one], exact=True)  # T+T^2+T^4
    ts = H.to_trunc_series(8)
    hot = [j for j, c in enumerate(ts.coeffs) if not c.is_zero_at_prec()]
    assert hot == [1, 2, 4]
    with pytest.raises(TruncationMismatchError):
        H.to_trunc_series(4)  # stored T^4 would be dropped
    Htrunc = AdditiveSeries(F2, [one, one, one], exact=False)
    with pytest.raises(TruncationMismatchError):
        Htrunc.to_trunc_series(16)  # p^3 = 8 does not cover T^16
    assert Htrunc.to_trunc_series(8).trunc == 8


def test_composition_with_generator_stays_bounded(F2):
    # automorphism of the bounded algebra: composing a bounded series with a
    # generator cannot push coefficient valuations below the input's bound
    # plus the generator's own worst coefficient contribution
    rng = random.Random(12)
    one = LaurentF.one(F2)
    s = LaurentF(F2, 1, [1], INF)
    H = AdditiveSeries(F2, [one, s, s * s], exact=True)
    H_ts = H.to_trunc_series(M)
    h_min = min(c.val_lower_bound() for c in H.pcoeffs)
    assert h_min >= 0
    for _ in range(40):
        P = _rand_series(F2, rng, v_lo=-2)
        out = series_compose(P, H_ts)
        assert out.sup_valuation() >= P.sup_valuation() + min(0, h_min) * (M - 1)


def test_additive_json_roundtrip(F2):
    one = LaurentF.one(F2)
    H = AdditiveSeries(F2, [one, LaurentF(F2, 1, [1], INF)], exact=False)
    got = AdditiveSeries.from_json(F2, H.to_json())
    assert got == H


def test_trunc_series_json_roundtrip(F2):
    rng = random.Random(77)
    P = _rand_series(F2, rng)
    assert TruncSeries.from_json(F2, P.to_json()) == P
