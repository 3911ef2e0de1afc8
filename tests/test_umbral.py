import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umbral_flow.carlitz import CarlitzCtx
from umbral_flow.duality import AdditiveIso, DualMap, PerturbedMap
from umbral_flow.errors import PreconditionFailedError
from umbral_flow.fq import PolyA, field
from umbral_flow.laurent import INF, LaurentF, agreement_valuation
from umbral_flow.series import (
    AdditiveSeries,
    TruncSeries,
    binom_mod_p,
    series_agreement_valuation,
    taylor_shift,
)
from umbral_flow.umbral import (
    AdditiveMap,
    GeometricMap,
    NaiveMap,
    TwistedMap,
    admissible_heuristic,
    apply_flow,
    flow_coefficient,
    flow_coefficients,
    umbral_eval,
)

N = 48
M = 12


def _rand_series(ctx, rng, trunc=M, prec=N):
    coeffs = []
    for _ in range(trunc):
        if rng.random() < 0.2:
            coeffs.append(LaurentF.zero(ctx))
        else:
            coeffs.append(LaurentF(ctx, rng.randint(0, 5),
                                   [rng.randrange(1, ctx.q)] +
                                   [rng.randrange(ctx.q) for _ in range(8)],
                                   prec))
    return TruncSeries(ctx, coeffs)


def _unit_x(ctx, rng, prec=N):
    return LaurentF(ctx, 1, [rng.randrange(1, ctx.q)] +
                    [rng.randrange(ctx.q) for _ in range(prec - 2)], prec)


def test_zeroth_moment_is_one(cc2):
    rng = random.Random(1)
    maps = [AdditiveMap(cc2, N), NaiveMap(cc2, N), TwistedMap(cc2, N),
            GeometricMap(cc2, N, lambda x: x, "identity")]
    one = LaurentF.one(cc2.field)
    for umap in maps:
        x = _unit_x(cc2.field, rng)
        assert (umap.moment(x, 0) - one).is_exact_zero()


def test_additive_moments_are_powers(cc2):
    S = AdditiveMap(cc2, N)
    x = LaurentF.from_poly(PolyA.t(cc2.field) ** 2)
    assert (S.moment(x, 3) - x * x * x).is_exact_zero()


def test_twisted_moment_digit_example(cc2):
    # n = 2 has digits (0, 1) base 2: T_2(x) = e_1(x)/D_1 = (x^2+x)/(t^2+t)
    T = TwistedMap(cc2, N)
    x = LaurentF.from_poly(PolyA.t(cc2.field) ** 3)
    d1_inv = LaurentF.from_poly(cc2.dk(1)).inv(prec=N + 40)
    expect = (x * x + x) * d1_inv
    got = T.moment(x, 2)
    assert agreement_valuation(got, expect) >= N


def test_twisted_moment_at_one_vanishes(cc2):
    # e_1(1) = 1*(1+1) = 0, so every n with a digit above position 0 dies
    T = TwistedMap(cc2, N)
    one = LaurentF.one(cc2.field)
    assert T.moment(one, 2).is_exact_zero()
    assert T.moment(one, 5).is_exact_zero()
    assert (T.moment(one, 1) - one).is_exact_zero()


def test_twisted_moments_vanish_beyond_degree_support(cc2):
    T = TwistedMap(cc2, N)
    x = LaurentF.from_poly(PolyA.t(cc2.field))  # degree 1
    for n in (4, 5, 9, 12):  # any digit at position >= 2
        assert T.moment(x, n).is_exact_zero()
    assert not T.moment(x, 3).is_zero_at_prec()


def _digit_product(T, x, n):
    # the reference: T_n(x) from 1, times (e_k(x)/D_k)^eps_k for every
    # non-zero q-adic digit eps_k of n, lowest place first
    q, val, k = T.ctx.q, LaurentF.one(T.ctx), 0
    while n:
        n, digit = divmod(n, q)
        if digit:
            val = val * T.basis_value(x, k) ** digit
        k += 1
    return val


@pytest.mark.parametrize("p,d,modulus", [
    (2, 1, None), (3, 1, None), (2, 2, (1, 1, 1)), (2, 3, (1, 1, 0, 1)),
    (7, 2, (1, 0, 1)),
], ids=["F2", "F3", "F4", "F8", "F49"])
def test_twisted_moment_matches_digit_product(p, d, modulus):
    # each moment is one product from a cached one, and equals the digit
    # product of the definition in (v, codes, prec), with n up to q^3 asked
    # for in descending order: at polynomial points, with exact zeros past
    # the support, and at a unit-ball point, also under a prec so low that
    # the basis values past e_0(x)/D_0 are zeros at precision.  Over F_49
    # the n are a sample, and the points stop where D_2 would be built.
    ctx = field(p, d, modulus)
    q = ctx.q
    cc = CarlitzCtx(ctx)
    rng = random.Random(q)

    def poly(deg):
        return LaurentF.from_poly(PolyA(ctx, [rng.randrange(ctx.q)
                                              for _ in range(deg)] + [1]))

    unit = _unit_x(ctx, rng)
    cases = [(N, poly(1), q ** 3), (N, unit, q ** 2 - 1),
             (q, unit, q ** 2 - 1)]
    if q < 49:
        cases += [(N, poly(2), q ** 3), (N, unit, q ** 3 - 1),
                  (q, unit, q ** 3 - 1)]
    for prec, x, top in cases:
        pad = 32 if prec == N else 0
        T, R = TwistedMap(cc, prec, pad), TwistedMap(cc, prec, pad)
        ns = range(top, -1, -1)
        if top > 1000:
            ns = sorted({n for n in (q * q, q * q - 1, q, 1, 0) if n < top}
                        | {top} | set(rng.sample(range(top), 60)),
                        reverse=True)
        for n in ns:
            got, want = T.moment(x, n), _digit_product(R, x, n)
            assert (got.v, got.codes, got.prec) == \
                (want.v, want.codes, want.prec), (x, n)
        if x is not unit:
            assert T.moment(x, top).is_exact_zero()
        elif prec == q:
            b = R.basis_value(x, 1)
            assert not b.codes and b.prec != INF


@pytest.mark.parametrize("cc_name", ["cc2", "cc3", "cc4"])
def test_twisted_support_is_tight(cc_name, request):
    # T_n(x) = 0 for every n >= q^(deg x + 1) and not at the last n below;
    # the tail bound is INF exactly from there on
    cctx = request.getfixturevalue(cc_name)
    ctx, q = cctx.field, cctx.field.q
    T = TwistedMap(cctx, N)
    t, one = PolyA.t(ctx), PolyA.one(ctx)
    for poly, deg in ((PolyA.zero(ctx), -1), (one, 0), (t + one, 1),
                      (t * t, 2)):
        x = LaurentF.from_poly(poly)
        support = q ** (deg + 1)
        assert T.support(x) == support
        assert T.moment_bound(x, support) == INF
        assert T.moment_bound(x, support - 1) is None
        if support > 1:
            assert not T.moment(x, support - 1).is_zero_at_prec()
        for n in range(support, support + 2 * q):
            assert T.moment(x, n).is_exact_zero(), n
    # no support at a point that is not an exact polynomial
    assert T.support(LaurentF.from_poly(t, prec=40)) == INF
    assert T.support(LaurentF(ctx, 1, [1], INF)) == INF  # 1/t
    assert T.moment_bound(LaurentF(ctx, 1, [1], INF), 10 ** 6) is None


def test_power_map_tail_bound(cc2):
    # n * vlb(g(x)) bounds every later moment, and only in the unit ball
    rng = random.Random(41)
    S = AdditiveMap(cc2, N)
    G = GeometricMap(cc2, N, lambda x: x * x + x, "square-plus-x")
    for umap in (S, G):
        x = LaurentF(cc2.field, rng.randint(1, 3), [1] +
                     [rng.randrange(2) for _ in range(N)], N)
        b = umap.moment(x, 1).val_lower_bound()
        assert umap.moment_bound(x, 0) == 0
        for n in range(1, 12):
            assert umap.moment_bound(x, n) == n * b
            for m in range(n, 14):
                assert umap.moment(x, m).val_lower_bound() >= \
                    umap.moment_bound(x, n), (n, m)
    t = LaurentF.from_poly(PolyA.t(cc2.field))
    assert S.moment_bound(t, 5) is None
    assert S.moment_bound(LaurentF.one(cc2.field), 5) is None


def test_geometric_map_structural_powers(cc2):
    G = GeometricMap(cc2, N, lambda x: x * x + x, "square-plus-x")
    rng = random.Random(5)
    x = _unit_x(cc2.field, rng)
    g1 = G.moment(x, 1)
    for k in (2, 3, 5):
        d = G.moment(x, k) - g1 ** k
        assert d.is_zero_at_prec() and d.val_lower_bound() >= N


def test_naive_matches_carlitz_exp_powers(cc2):
    NM = NaiveMap(cc2, N)
    rng = random.Random(6)
    x = _unit_x(cc2.field, rng)
    e = cc2.exp(x, N)
    assert agreement_valuation(NM.moment(x, 2), e * e) >= N


def test_admissibility_exact_rules(cc2):
    S = AdditiveMap(cc2, N)
    s = LaurentF(cc2.field, 1, [1], N)  # 1/t
    t = LaurentF.from_poly(PolyA.t(cc2.field))
    assert admissible_heuristic(S, s).apparently_admissible
    v = admissible_heuristic(S, t)
    assert not v.apparently_admissible
    T = TwistedMap(cc2, N)
    one = LaurentF.one(cc2.field)
    assert admissible_heuristic(T, one).apparently_admissible
    assert admissible_heuristic(T, t).apparently_admissible


def test_admissibility_without_a_rule_refuses(cc2):
    # a map with no exact rule is refused, whether its moments decay at x or
    # not, and no moment is computed to guess at a verdict
    class Ruleless(AdditiveMap):
        def admissibility_rule(self, x):
            return None

        def moment(self, x, k):
            raise AssertionError("no moment is asked for")

    D = Ruleless(cc2, 24)
    rng = random.Random(7)
    t = LaurentF.from_poly(PolyA.t(cc2.field), prec=64)
    P = TruncSeries.monomial(cc2.field, 1, M)
    for x in (_unit_x(cc2.field, rng, prec=32), t):
        with pytest.raises(PreconditionFailedError,
                           match="no admissibility rule for additive"):
            admissible_heuristic(D, x)
        with pytest.raises(PreconditionFailedError):
            apply_flow(D, x, P)


def test_flow_coefficient_examples(cc2):
    S = AdditiveMap(cc2, N)
    rng = random.Random(8)
    x = _unit_x(cc2.field, rng)
    P2 = TruncSeries.monomial(cc2.field, 2, M)
    # h=1: C(2,1) = 0 mod 2
    assert flow_coefficient(S, x, P2, 1).is_zero_at_prec()
    # h=0: the x^2 term
    assert agreement_valuation(flow_coefficient(S, x, P2, 0), x * x) >= N
    # h >= trunc: empty sum
    assert flow_coefficient(S, x, P2, M).is_exact_zero()


def test_apply_flow_taylor_equivalence(cc2):
    rng = random.Random(9)
    S = AdditiveMap(cc2, N)
    for _ in range(25):
        P = _rand_series(cc2.field, rng)
        x = _unit_x(cc2.field, rng)
        assert series_agreement_valuation(
            apply_flow(S, x, P), taylor_shift(P, x)) >= N


def test_apply_flow_identity_when_moments_vanish(cc2):
    S = AdditiveMap(cc2, N)
    z = LaurentF.zero(cc2.field)
    rng = random.Random(10)
    P = _rand_series(cc2.field, rng)
    out = apply_flow(S, z, P)
    assert out == P  # moments of 0 vanish for k >= 1; identity flow


def test_naive_flow_is_shift_by_exp(cc2):
    rng = random.Random(11)
    NM = NaiveMap(cc2, N)
    for _ in range(10):
        P = _rand_series(cc2.field, rng)
        x = _unit_x(cc2.field, rng)
        assert series_agreement_valuation(
            apply_flow(NM, x, P), taylor_shift(P, cc2.exp(x, N))) >= N


def test_flow_requires_admissibility(cc2):
    S = AdditiveMap(cc2, N)
    t = LaurentF.from_poly(PolyA.t(cc2.field))
    P = TruncSeries.monomial(cc2.field, 1, M)
    with pytest.raises(PreconditionFailedError):
        apply_flow(S, t, P)
    out = flow_coefficients(S, t, P, (INF,) * P.trunc)
    assert agreement_valuation(out[0], t) == INF


def test_flow_double_sum_brute_force(cc2):
    # re-sum eval(P(T + F(x))) as sum_k a_k sum_m C(k,m) F_m(x) T^(k-m)
    rng = random.Random(12)
    S = AdditiveMap(cc2, N)
    T = TwistedMap(cc2, N)
    p = cc2.field.p
    for umap in (S, T):
        for _ in range(6):
            trunc = 8
            P = _rand_series(cc2.field, rng, trunc=trunc)
            x = (_unit_x(cc2.field, rng) if umap is S
                 else LaurentF.from_poly(PolyA.t(cc2.field)))
            flowed = apply_flow(umap, x, P)
            z = LaurentF.zero(cc2.field)
            acc = [z] * trunc
            for k in range(trunc):
                a = P.coeffs[k]
                if a.is_exact_zero():
                    continue
                for m in range(k + 1):
                    b = binom_mod_p(k, m, p)
                    if b == 0:
                        continue
                    term = a.scale(b) * umap.moment(x, m)
                    acc[k - m] = acc[k - m] + term
            brute = TruncSeries(cc2.field, acc)
            assert series_agreement_valuation(flowed, brute) >= N - 8


def test_flow_boundedness_inequality(cc2):
    rng = random.Random(13)
    maps = [AdditiveMap(cc2, N), NaiveMap(cc2, N), TwistedMap(cc2, N)]
    for umap in maps:
        for _ in range(15):
            P = _rand_series(cc2.field, rng, prec=N + 64)
            x = _unit_x(cc2.field, rng, prec=N + 64)
            flowed = apply_flow(umap, x, P)
            bound = P.sup_valuation() + min(
                umap.moment(x, k).val_lower_bound() for k in range(M))
            assert flowed.sup_valuation() >= bound


def test_twisted_flow_composes_additively(cc2):
    rng = random.Random(14)
    T = TwistedMap(cc2, N, inv_prec_pad=64)
    ctx = cc2.field
    for _ in range(8):
        P = _rand_series(ctx, rng, prec=N + 64)
        x = LaurentF.from_poly(PolyA(ctx, [rng.randrange(2) for _ in range(3)]))
        y = LaurentF.from_poly(PolyA(ctx, [rng.randrange(2) for _ in range(3)]))
        lhs = apply_flow(T, x + y, P)
        rhs = apply_flow(T, x, apply_flow(T, y, P))
        assert series_agreement_valuation(lhs, rhs) >= N


def test_twisted_binomial_small(cc2):
    T = TwistedMap(cc2, N, inv_prec_pad=64)
    ctx = cc2.field
    p = ctx.p
    t = PolyA.t(ctx)
    x = LaurentF.from_poly(t)
    y = LaurentF.from_poly(t + PolyA.one(ctx))
    s = x + y
    for n in range(9):
        lhs = T.moment(s, n)
        acc = LaurentF.zero(ctx)
        for k in range(n + 1):
            b = binom_mod_p(n, k, p)
            if b:
                acc = acc + (T.moment(x, k) * T.moment(y, n - k)).scale(b)
        assert agreement_valuation(lhs, acc) >= N


def test_umbral_eval_examples(cc2):
    S = AdditiveMap(cc2, N)
    rng = random.Random(15)
    x = _unit_x(cc2.field, rng)
    one = LaurentF.one(cc2.field)
    # 1 + T evaluates to 1 + x
    Q = TruncSeries.from_coeffs(cc2.field, [one, one], trunc=4)
    assert agreement_valuation(umbral_eval(Q, S, x), one + x) >= N
    # T^k evaluates to the k-th moment
    for k in (2, 5):
        Tk = TruncSeries.monomial(cc2.field, k, 8)
        assert umbral_eval(Tk, S, x) == S.moment(x, k)


def test_umbral_eval_geometric_collapses(cc2):
    # for a geometric map, eval(Q(F(x))) = Q(F_1(x))
    G = GeometricMap(cc2, N, lambda x: cc2.exp(x, N), "carlitz-exp")
    rng = random.Random(16)
    x = _unit_x(cc2.field, rng)
    Q = _rand_series(cc2.field, rng, trunc=8)
    g1 = G.moment(x, 1)
    direct = umbral_eval(Q, G, x)
    horner = LaurentF.zero(cc2.field)
    for c in reversed(Q.coeffs):
        horner = horner * g1 + c
    assert agreement_valuation(direct, horner) >= N


def test_umbral_eval_power_collapses_for_geometric(cc2):
    # eval of a power of an admissible series equals the power of its eval
    # when the map is geometric; the two routes differ only past the window
    G = GeometricMap(cc2, N, lambda x: x, "identity")
    rng = random.Random(17)
    x = _unit_x(cc2.field, rng)
    Q = _rand_series(cc2.field, rng, trunc=6)
    Qpad = TruncSeries(cc2.field, Q.coeffs +
                       (LaurentF.zero(cc2.field),) * 14)
    # Q^k fits inside the padded window, so both routes are exact
    for k in (2, 3):
        Qk = Qpad
        for _ in range(k - 1):
            Qk = Qk * Qpad
        lhs = umbral_eval(Qk, G, x)
        rhs = umbral_eval(Q, G, x) ** k
        assert agreement_valuation(lhs, rhs) >= N


# -- the flow sum against its definition ---------------------------------------
# apply_flow takes one walk and one accumulated convolution over every field:
# F_2, F_4 and F_8 pack bit planes, F_3 packs digits, and F_32 takes the table
# loop (2^9 > 256).
_FLOW_FIELDS = {
    "F2": (2, 1, None),
    "F3": (3, 1, None),
    "F4": (2, 2, (1, 1, 1)),
    "F8": (2, 3, (1, 1, 0, 1)),
    "F32": (2, 5, (1, 0, 1, 0, 0, 1)),
}


@lru_cache(maxsize=None)
def _carlitz(name):
    return CarlitzCtx(field(*_FLOW_FIELDS[name]))


def _loop_flow(umap, x, P):
    """The flow by its definition, the reference for apply_flow: eps_h is
    acc = acc + C(j, h) a_j F_(j-h)(x) over j >= h from the exact zero, one
    Laurent product and one sum a term; apply_flow's window is INF, so
    nothing is truncated.  F_0 = 1 for every map, and an exact-zero a_j
    adds nothing, so neither asks for a moment."""
    ctx, one = P.ctx, LaurentF.one(P.ctx)
    out = []
    for h in range(P.trunc):
        acc = LaurentF.zero(ctx)
        for j in range(h, P.trunc):
            a, b = P.coeffs[j], binom_mod_p(j, h, ctx.p)
            if b and not a.is_exact_zero():
                f = one if j == h else umap.moment(x, j - h)
                acc = acc + a.scale(b) * f
        out.append(acc)
    return TruncSeries(ctx, out)


def _states(P):
    return [(c.v, c.codes, c.prec) for c in P.coeffs]


def _flow(umap, x, P):
    """The flow of P with no admissibility check: maps and points outside
    the admissible domain still have their finite sums."""
    return TruncSeries(P.ctx, flow_coefficients(umap, x, P, (INF,) * P.trunc))


@st.composite
def _coefficient(draw, ctx, width=12):
    kind = draw(st.sampled_from(["exact zero", "zero at prec", "exact",
                                 "finite"]))
    if kind == "exact zero":
        return LaurentF.zero(ctx)
    v = draw(st.integers(-4, 6))
    if kind == "zero at prec":
        return LaurentF.zero_at(ctx, v)
    codes = draw(st.lists(st.integers(0, ctx.q - 1), min_size=1,
                          max_size=width))
    # a finite precision may cut the stored codes
    prec = INF if kind == "exact" else v + draw(st.integers(0, width + 3))
    return LaurentF(ctx, v, codes, prec)


@st.composite
def _flow_case(draw):
    cctx = _carlitz(draw(st.sampled_from(sorted(_FLOW_FIELDS))))
    ctx = cctx.field
    n = draw(st.sampled_from([0, 1, 5, 16, 17]))
    P = TruncSeries(ctx, [draw(_coefficient(ctx)) for _ in range(n)])
    kind = draw(st.sampled_from(["additive", "twisted", "dual",
                                 "perturbed"]))
    if kind == "twisted":
        # moments of negative valuation at a polynomial point
        x = LaurentF.from_poly(PolyA(ctx, draw(st.lists(
            st.integers(0, ctx.q - 1), max_size=3))))
        return TwistedMap(cctx, 32), x, P
    x = draw(_coefficient(ctx, width=6))
    additive = AdditiveMap(cctx, 32)
    if kind == "additive":
        return additive, x, P
    if kind == "perturbed":
        bump = draw(_coefficient(ctx, width=6))
        return PerturbedMap(additive, draw(st.integers(0, 17)), bump), x, P
    # a short evaluation window: every moment from eval_len on is a zero at
    # precision, and the evaluated ones may be too
    eval_len = draw(st.integers(2, 12))
    unit = LaurentF(ctx, 0, [draw(st.integers(1, ctx.q - 1))], INF)
    H = AdditiveSeries(ctx, [unit] + [draw(_coefficient(ctx, width=4))
                                      for _ in range(2)])
    return DualMap(additive, AdditiveIso(H), prec=32, eval_len=eval_len), \
        x, P


@given(_flow_case())
@settings(max_examples=200, deadline=None)
def test_packed_flow_matches_loop(case):
    umap, x, P = case
    got = _flow(umap, x, P)
    assert _states(got) == _states(_loop_flow(umap, x, P))


def test_flow_asks_the_reference_moments():
    # every field asks for the same distinct moments as the definition
    rng = random.Random(21)
    asked = []

    def spy_map(umap):
        moment = umap.moment

        def spy(x, k):
            asked.append(k)
            return moment(x, k)
        umap.moment = spy
        return umap

    for name in sorted(_FLOW_FIELDS):
        cctx = _carlitz(name)
        for P in (_rand_series(cctx.field, rng, trunc=16),
                  TruncSeries.monomial(cctx.field, 5, 16)):
            x = _unit_x(cctx.field, rng)
            del asked[:]
            want = _loop_flow(spy_map(AdditiveMap(cctx, N)), x, P)
            ks = set(asked)
            del asked[:]
            got = _flow(spy_map(AdditiveMap(cctx, N)), x, P)
            assert _states(got) == _states(want)
            assert set(asked) == ks
