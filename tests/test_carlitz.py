import random

import pytest

from umbral_flow import carlitz
from umbral_flow.carlitz import CarlitzCtx
from umbral_flow.errors import (
    EnumerationCapExceededError,
    OutsideConvergenceDomainError,
)
from umbral_flow.fq import PolyA, enumerate_polys
from umbral_flow.laurent import LaurentF, agreement_valuation


def test_dk_base_cases(cc2):
    assert cc2.dk(0) == PolyA.one(cc2.field)
    t = PolyA.t(cc2.field)
    assert cc2.dk(1) == t * t + t  # t(t+1)


@pytest.mark.parametrize("cc_name", ["cc2", "cc3", "cc4"])
def test_d1_is_tq_minus_t(cc_name, request):
    cc = request.getfixturevalue(cc_name)
    t = PolyA.t(cc.field)
    assert cc.dk(1) == t ** cc.field.q - t


@pytest.mark.parametrize("cc_name,kmax", [("cc2", 3), ("cc3", 2)])
def test_dk_degree_and_monic(cc_name, kmax, request):
    cc = request.getfixturevalue(cc_name)
    q = cc.field.q
    for k in range(kmax + 1):
        dk = cc.dk(k)
        assert dk.codes[-1:] == b"\1"  # monic
        assert dk.degree == k * q ** k
        assert LaurentF.from_poly(dk).valuation() == -k * q ** k


@pytest.mark.parametrize("cc_name", ["cc2", "cc3"])
def test_dk_classical_recursion_crosscheck(cc_name, request):
    # D_k = (t^(q^k) - t) * D_{k-1}^q: an oracle independent of the
    # enumeration product
    cc = request.getfixturevalue(cc_name)
    q = cc.field.q
    t = PolyA.t(cc.field)
    for k in (1, 2):
        expect = (t ** (q ** k) - t) * cc.dk(k - 1) ** q
        assert cc.dk(k) == expect


@pytest.mark.parametrize("cc_name,kmax", [("cc2", 4), ("cc3", 3),
                                          ("cc4", 3)])
def test_dk_tree_matches_left_to_right(cc_name, kmax, request):
    # the product tree multiplies the same enumeration as the definition
    field_ctx = request.getfixturevalue(cc_name).field
    cc = CarlitzCtx(field_ctx)
    for k in range(kmax + 1):
        expect = PolyA.one(field_ctx)
        for g in enumerate_polys(field_ctx, k, True):
            expect = expect * g
        assert cc.dk(k) == expect, k


def test_ek_base_cases(cc2):
    x = LaurentF.from_poly(PolyA.t(cc2.field) ** 3)
    assert (cc2.ek(0, x) - x).is_exact_zero()
    # e_1(x) = x(x+1) = x^2+x over F_2
    assert (cc2.ek(1, x) - (x * x + x)).is_exact_zero()


def test_e2_closed_form(cc2):
    # brute-squared oracle: e_2(x) = x^4 + (t^2+t+1) x^2 + (t^2+t) x over F_2
    t = PolyA.t(cc2.field)
    one = PolyA.one(cc2.field)
    c2 = LaurentF.from_poly(t * t + t + one)
    c1 = LaurentF.from_poly(t * t + t)
    for xp in (t ** 3, t * t + one, t ** 4 + t):
        x = LaurentF.from_poly(xp)
        expect = x ** 4 + c2 * x * x + c1 * x
        assert (cc2.ek(2, x) - expect).is_exact_zero()


@pytest.mark.parametrize("cc_name", ["cc2", "cc3", "cc4"])
def test_ek_vanishes_on_small_degrees(cc_name, request):
    cc = request.getfixturevalue(cc_name)
    for k in (1, 2):
        for eps in enumerate_polys(cc.field, k, False):
            assert cc.ek(k, LaurentF.from_poly(eps)).is_exact_zero()


@pytest.mark.parametrize("cc_name", ["cc2", "cc3"])
def test_ek_past_a_polynomials_degree_enumerates_nothing(cc_name, request,
                                                       monkeypatch):
    # at a polynomial x of degree < k, e_k(x) is the exact zero that the
    # product over deg(eps) < k gives, since it meets eps = -x, and no
    # polynomial is enumerated for it; a k past the cap still raises
    cc = request.getfixturevalue(cc_name)
    ctx = cc.field
    points = [LaurentF.zero(ctx), LaurentF.one(ctx),
              LaurentF.from_poly(PolyA.from_coeffs(ctx, [1, 0, 1]))]
    for x in points:
        deg = x.poly_degree()
        for k in range(max(deg + 1, 1), 3):
            prod = LaurentF.one(ctx)
            for eps in enumerate_polys(ctx, k, False):
                prod = prod * (x + LaurentF.from_poly(eps))
            assert prod.is_exact_zero()
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return enumerate_polys(*args, **kwargs)

    monkeypatch.setattr(carlitz, "enumerate_polys", spy)
    for x in points:
        deg = x.poly_degree()
        for k in range(deg + 1, deg + 5):
            assert cc.ek(k, x) == LaurentF.zero(ctx)
    assert calls == []
    assert not cc.ek(2, points[2]).is_zero_at_prec()  # k = deg x: a product
    assert calls
    capped = CarlitzCtx(ctx, cap=ctx.q ** 3)
    with pytest.raises(EnumerationCapExceededError):
        capped.ek(3, points[2])  # q^4 > cap


@pytest.mark.parametrize("cc_name", ["cc2", "cc3"])
def test_ek_is_fq_linear(cc_name, request):
    cc = request.getfixturevalue(cc_name)
    ctx = cc.field
    rng = random.Random(21)
    for _ in range(10):
        a = LaurentF(ctx, rng.randint(-3, 2),
                     [rng.randrange(1, ctx.q)] +
                     [rng.randrange(ctx.q) for _ in range(8)], 48)
        b = LaurentF(ctx, rng.randint(-3, 2),
                     [rng.randrange(1, ctx.q)] +
                     [rng.randrange(ctx.q) for _ in range(8)], 48)
        for k in (1, 2):
            lhs = cc.ek(k, a + b)
            rhs = cc.ek(k, a) + cc.ek(k, b)
            assert agreement_valuation(lhs, rhs) >= min(lhs.prec, rhs.prec)
            for c in range(1, ctx.q):
                lhs = cc.ek(k, a.scale(c))
                rhs = cc.ek(k, a).scale(c)
                assert agreement_valuation(lhs, rhs) >= min(lhs.prec, rhs.prec)


def test_exp_zero_and_domain(cc2):
    z = LaurentF.zero(cc2.field)
    assert cc2.exp(z, 16).is_exact_zero()
    t = LaurentF.from_poly(PolyA.t(cc2.field))
    with pytest.raises(OutsideConvergenceDomainError):
        cc2.exp(t, 16)
    one = LaurentF.one(cc2.field)
    with pytest.raises(OutsideConvergenceDomainError):
        cc2.exp(one, 16)


def test_exp_leading_term(cc2):
    # e_C(x) = x + x^2/D_1 + ...: the first term dominates for v(x) >= 1
    s = LaurentF(cc2.field, 1, [1], 40)
    out = cc2.exp(s, 32)
    assert out.valuation() == 1
    assert out.prec >= 32
    # second term: x^2/D_1 has valuation 2 + 2 = 4; check the coefficient
    # of t^-4 against the direct series of 1/(t^2+t)
    d1_inv = LaurentF.from_poly(cc2.dk(1)).inv(prec=32)
    expect = s + (s * s) * d1_inv
    assert agreement_valuation(out, expect) >= 8  # next term enters at q^2(1+2)=12


def test_exp_is_additive(cc2):
    rng = random.Random(31)
    ctx = cc2.field
    for _ in range(10):
        a = LaurentF(ctx, 1, [1] + [rng.randrange(2) for _ in range(20)], 40)
        b = LaurentF(ctx, 2, [1] + [rng.randrange(2) for _ in range(20)], 40)
        lhs = cc2.exp(a + b, 32)
        rhs = cc2.exp(a, 32) + cc2.exp(b, 32)
        assert agreement_valuation(lhs, rhs) >= 32


def test_exp_contracts_unit_ball(cc2):
    # |e_C(x)| < 1 whenever |x| < 1
    rng = random.Random(41)
    ctx = cc2.field
    for _ in range(100):
        v = rng.randint(1, 6)
        x = LaurentF(ctx, v, [1] + [rng.randrange(2) for _ in range(12)], 40)
        assert cc2.exp(x, 24).valuation() >= 1


def test_exp_at_one_direct_sum(cc2):
    # e_C(1) = sum 1/D_k: valuation 0, first correction at k*q^k = 2
    e1 = cc2.exp_at_one(32)
    assert e1.valuation() == 0
    one = LaurentF.one(cc2.field)
    d1_inv = LaurentF.from_poly(cc2.dk(1)).inv(prec=34)
    d2_inv = LaurentF.from_poly(cc2.dk(2)).inv(prec=40)
    expect = one + d1_inv + d2_inv
    assert agreement_valuation(e1, expect) >= 24  # next term at 3*8 = 24


def test_exp_sum_entire_at_polynomials(cc2):
    # the series converges for every x; spot the valuation pattern at t
    t = LaurentF.from_poly(PolyA.t(cc2.field))
    out = cc2.exp_sum(t, 32)
    assert out.valuation() == -1
    assert out.prec >= 32


@pytest.mark.parametrize("p", [2, 3])
def test_example58_builds_no_q_power_past_the_points(p, monkeypatch):
    # the closed identity sums e_C(1)^(q^k) e_k(x)/D_k, and e_k(x) is an
    # exact zero for k past deg x, at most 2 at the pinned points.  Such a
    # term is that zero, so e_C(1)^(q^k), whose codes lie q^k apart, is
    # built only for k <= 2, not up to the end of the window
    from umbral_flow.config import Config
    from umbral_flow.verify import run_claim

    cfg = Config(p=p, trials=8)
    e1 = cfg.carlitz_ctx().exp_at_one(48 + 32)
    q_power = LaurentF.q_power
    ks = []

    def spy(self, k):
        if (self.v, self.codes, self.prec) == (e1.v, e1.codes, e1.prec):
            ks.append(k)
        return q_power(self, k)

    monkeypatch.setattr(LaurentF, "q_power", spy)
    assert run_claim("example58", cfg).passed
    assert ks and max(ks) <= 2


def test_enumeration_cap_propagates(F2):
    cc = CarlitzCtx(F2, cap=8)
    with pytest.raises(EnumerationCapExceededError):
        cc.dk(3)


@pytest.mark.parametrize("cc_name,kmax", [("cc2", 3), ("cc3", 2),
                                          ("cc4", 2)])
def test_dk_inv_below_valuation_matches_built_inverse(cc_name, kmax,
                                                      request):
    # 1/D_k lies at valuation k*q^k: below that precision dk_inv returns
    # the zero that inverting the built D_k gives, and above it the inverse
    field_ctx = request.getfixturevalue(cc_name).field
    q = field_ctx.q
    for k in range(kmax + 1):
        fresh = CarlitzCtx(field_ctx)
        built = LaurentF.from_poly(fresh.dk(k))
        for prec in range(1, k * q ** k + 6):
            got = CarlitzCtx(field_ctx).dk_inv(k, prec)
            want = built.inv(prec=prec)
            assert (got.v, got.codes, got.prec) == \
                (want.v, want.codes, want.prec), (k, prec)


def test_dk_inv_below_valuation_builds_nothing(F2, monkeypatch):
    # a zero 1/D_k needs no D_k; a k past the enumeration cap still raises,
    # as building its D_k would
    cc = CarlitzCtx(F2, cap=64)

    def unbuilt(k):
        raise AssertionError(f"D_{k} built")

    monkeypatch.setattr(cc, "dk", unbuilt)
    assert cc.dk_inv(5, 100) == LaurentF.zero_at(F2, 100)  # 5 * 2^5 = 160
    monkeypatch.undo()
    with pytest.raises(EnumerationCapExceededError):
        cc.dk_inv(6, 100)  # 2^7 = 128 > 64
    with pytest.raises(EnumerationCapExceededError):
        cc.dk(40)
