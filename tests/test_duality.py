import random

import pytest

from umbral_flow.duality import (
    AdditiveIso,
    DualMap,
    PerturbedMap,
    check_binomial,
    check_duality_diagram,
    check_geometric_criterion,
    compose_isos,
    is_geometric_at,
    merge_reports,
)
from umbral_flow.errors import (
    NotAGeneratorError,
    PreconditionFailedError,
    TruncationMismatchError,
)
from umbral_flow.fq import PolyA
from umbral_flow.laurent import (
    INF,
    LaurentF,
    agreement_valuation,
    product_sum,
)
from umbral_flow.series import (
    AdditiveSeries,
    TruncSeries,
    binom_mod_p,
    plen,
    series_compose,
)
from umbral_flow.umbral import (
    AdditiveMap,
    GeometricMap,
    NaiveMap,
    TwistedMap,
    apply_flow,
    flow_coefficient,
    flow_coefficients,
    umbral_eval,
)
from umbral_flow.verify import ec_generator, ec_iso, ex58_iso, ex58_series

N = 48
M = 12
J = 8


def _unit_x(ctx, rng, prec=N):
    return LaurentF(ctx, 1, [rng.randrange(1, ctx.q)] +
                    [rng.randrange(ctx.q) for _ in range(prec - 2)], prec)


def _rand_series(ctx, rng, trunc=M, prec=N, v_lo=0):
    return TruncSeries(ctx, [
        LaurentF(ctx, rng.randint(v_lo, 4), [rng.randrange(1, ctx.q)] +
                 [rng.randrange(ctx.q) for _ in range(6)], prec)
        for _ in range(trunc)])


def test_iso_requires_generator(F2):
    s = LaurentF(F2, 1, [1], INF)  # valuation 1: not a unit
    with pytest.raises(NotAGeneratorError):
        AdditiveIso(AdditiveSeries(F2, [s]))


def test_iso_from_truncated_inverse(cc2):
    # AdditiveIso(S).inverse_iso() is generated by S^(-1) on S's range,
    # declared exact, so its inverse generator is S again on that range
    S = ex58_series(cc2, 4, N + 32)
    iso = AdditiveIso(S).inverse_iso()
    assert iso.H.exact and iso.H.length == S.length
    for got, want in zip(iso.inverse().pcoeffs, S.pcoeffs, strict=True):
        assert agreement_valuation(got, want) >= N


def test_apply_iso_scaling(F3):
    # generator gamma*T scales coefficient j by gamma^j
    gamma = LaurentF(F3, 0, [2], INF)
    iso = AdditiveIso(AdditiveSeries.linear(gamma))
    rng = random.Random(1)
    P = _rand_series(F3, rng)
    out = iso.apply(P)
    g = LaurentF.one(F3)
    for j in range(M):
        d = out.coeffs[j] - P.coeffs[j] * g
        assert d.is_zero_at_prec()
        g = g * gamma


def test_apply_iso_identity(F2):
    iso = AdditiveIso(AdditiveSeries.identity(F2))
    rng = random.Random(2)
    P = _rand_series(F2, rng)
    out = iso.apply(P)
    assert all((out.coeffs[j] - P.coeffs[j]).is_zero_at_prec()
               for j in range(M))


def test_apply_iso_t_plus_t2(F2):
    one = LaurentF.one(F2)
    iso = AdditiveIso(AdditiveSeries(F2, [one, one]))
    out = iso.apply(TruncSeries.monomial(F2, 2, M))
    hot = [j for j, c in enumerate(out.coeffs) if not c.is_zero_at_prec()]
    assert hot == [2, 4]  # (T+T^2)^2 in char 2


def _rand_generator(ctx, rng, length, prec=N + 32):
    """An exact generator: a unit linear coefficient, then coefficients of
    valuation down to -1."""
    pc = [LaurentF(ctx, 0, [rng.randrange(1, ctx.q)] +
                   [rng.randrange(ctx.q) for _ in range(6)], prec)]
    for _ in range(length - 1):
        pc.append(LaurentF(ctx, rng.randint(-1, 3), [rng.randrange(1, ctx.q)] +
                           [rng.randrange(ctx.q) for _ in range(6)], prec))
    return AdditiveSeries(ctx, pc, exact=True)


def _test_isos(cctx, rng, trunc):
    """ec_iso plus two random exact generators, all fitting below T^trunc."""
    ctx = cctx.field
    return [ec_iso(cctx, plen(ctx.q, trunc), N + 32)] + [
        AdditiveIso(_rand_generator(ctx, rng, plen(ctx.p, trunc)))
        for _ in range(2)]


@pytest.mark.parametrize("cc_name", ["cc2", "cc3", "cc4"])
def test_apply_iso_matches_compose(cc_name, request, assert_refines):
    # phi(P) from the cached power table against the Horner composition
    cctx = request.getfixturevalue(cc_name)
    rng = random.Random(17)
    for iso in _test_isos(cctx, rng, M):
        for _ in range(3):
            P = _rand_series(cctx.field, rng, v_lo=-2)
            assert_refines(iso.apply(P),
                           series_compose(P, iso.generator_ts(M)))


@pytest.mark.parametrize("cc_name", ["cc2", "cc3", "cc4"])
def test_hinv_power_matches_repeated_products(cc_name, request,
                                              assert_refines):
    # (H^(-1))^k grown by base-p digits against k plain products
    cctx = request.getfixturevalue(cc_name)
    rng = random.Random(18)
    trunc = 80
    for iso in _test_isos(cctx, rng, M):
        step = iso.inverse_ts(trunc)
        ref = TruncSeries.monomial(cctx.field, 0, trunc)
        for k in range(1, 28):
            ref = ref * step
            assert_refines(iso.hinv_power(k, trunc), ref)


def _apply_scale_add(iso, P):
    """phi(P) as the sum of the scaled powers a_j H^j: one series scale
    and one series add per term."""
    acc = TruncSeries.zero(P.ctx, P.trunc)
    for j, a in P.terms:
        acc = acc + iso.gen_power(j, P.trunc).scale(a)
    return acc


@pytest.mark.parametrize("cc_name", ["cc2", "cc3", "cc4"])
def test_apply_iso_matches_scale_and_add(cc_name, request):
    # one product sum per output coefficient against the scale-and-add
    # loop, on random P with exact zeros, zeros at precision and exact
    # coefficients among the finite ones
    cctx = request.getfixturevalue(cc_name)
    ctx = cctx.field
    rng = random.Random(19)
    for iso in _test_isos(cctx, rng, M):
        for _ in range(4):
            coeffs = list(_rand_series(ctx, rng, v_lo=-2).coeffs)
            for j in rng.sample(range(M), 5):
                coeffs[j] = rng.choice([
                    LaurentF.zero(ctx), LaurentF.zero_at(ctx, N // 2),
                    LaurentF.one(ctx), LaurentF(ctx, -1, [1, 0, 1], INF)])
            P = TruncSeries(ctx, coeffs)
            got, want = iso.apply(P), _apply_scale_add(iso, P)
            assert [_state(c) for c in got.coeffs] == \
                [_state(c) for c in want.coeffs]


def test_apply_iso_needs_generator_in_window(F2):
    # T^8 is past the window T^0 ... T^7: the power table's base raises
    one = LaurentF.one(F2)
    iso = AdditiveIso(AdditiveSeries(F2, [one] * 4))
    with pytest.raises(TruncationMismatchError):
        iso.apply(TruncSeries.monomial(F2, 1, 8))


def _full_eval(R, umap, x):
    """sum_m R[m] F_m(x) over every coefficient, nothing skipped."""
    acc = LaurentF.zero(R.ctx)
    for m, c in enumerate(R.coeffs):
        acc = acc + (c * umap.moment(x, m) if m else c)
    return acc


def _full_flow_coefficient(umap, x, P, h):
    """sum_k C(k+h, h) a_(k+h) F_k(x), skipping only exactly-zero terms."""
    acc = LaurentF.zero(P.ctx)
    for k in range(P.trunc - h):
        a = P.coeffs[k + h]
        b = binom_mod_p(k + h, h, P.ctx.p)
        if b and not a.is_exact_zero():
            a = a.scale(b)
            acc = acc + (a * umap.moment(x, k) if k else a)
    return acc


def _state(x):
    return x.v, x.codes, x.prec


@pytest.mark.parametrize("cc_name", ["cc2", "cc3", "cc4"])
def test_windowed_umbral_eval_matches_truncated_sum(cc_name, request):
    # skipping terms bounded at or past the window changes no digit and no
    # precision of the truncated sum, whatever the map or the point
    cctx = request.getfixturevalue(cc_name)
    ctx = cctx.field
    rng = random.Random(31)
    far = LaurentF(ctx, 200, [1], INF)  # every term bounded past the window
    bump = LaurentF(ctx, -3, [rng.randrange(1, ctx.q)] * 5, 30)
    maps = [AdditiveMap(cctx, N), TwistedMap(cctx, N),
            PerturbedMap(AdditiveMap(cctx, N), 2, bump)]
    skipped = kept = 0
    for iso in _test_isos(cctx, rng, M):
        for x in (_unit_x(ctx, rng), LaurentF.from_poly(PolyA.t(ctx)), far):
            for umap in maps:
                for window in (24, 48):
                    for k in (1, 2, 3, 5):
                        R = iso.hinv_power(k, 40)
                        got = umbral_eval(R, umap, x, window=window)
                        want = _full_eval(R, umap, x).truncate(window)
                        assert _state(got) == _state(want), (k, window)
                        cut = [c.val_lower_bound() +
                               umap.moment(x, m).val_lower_bound() >= window
                               for m, c in R.terms if m]
                        if x is far and umap is maps[0]:
                            assert all(cut)
                        skipped += sum(cut)
                        kept += len(cut) - sum(cut)
    assert skipped and kept


@pytest.mark.parametrize("cc_name", ["cc2", "cc3", "cc4"])
def test_windowed_dual_moment_matches_truncated_sum(cc_name, request):
    cctx = request.getfixturevalue(cc_name)
    rng = random.Random(32)
    for iso in _test_isos(cctx, rng, M):
        x = _unit_x(cctx.field, rng)
        inner = AdditiveMap(cctx, N)
        dual = DualMap(inner, iso, prec=N, eval_len=40)
        for k in range(1, 12):
            want = _full_eval(iso.hinv_power(k, 40), inner, x).truncate(40)
            assert _state(dual.moment(x, k)) == _state(want), k


@pytest.mark.parametrize("cc_name", ["cc2", "cc3", "cc4"])
def test_windowed_flow_coefficient_keeps_agreement(cc_name, request):
    # the duality diagram reads flow_coefficient only through
    # vlb(lhs_h - rhs_h); with window = lhs_h.prec that value is the full
    # sum's, for a finite-precision lhs (the diagram's own, and cut shorter
    # so that more term bounds fall next to the window) and an exact one
    cctx = request.getfixturevalue(cc_name)
    ctx = cctx.field
    rng = random.Random(33)
    inner = AdditiveMap(cctx, N)
    basis = 4
    finite = 0
    for iso in _test_isos(cctx, rng, M):
        x = _unit_x(ctx, rng)
        base = DualMap(inner, iso, prec=N)
        big = max(iso.degree_bound(basis - 1) + 1, M)
        for dual in (base, PerturbedMap(base, 3, LaurentF.one(ctx))):
            for j in range(basis):
                lhs = iso.apply(TruncSeries(ctx, flow_coefficients(
                    inner, x, TruncSeries.monomial(ctx, j, M), (INF,) * M)))
                Q = iso.gen_power(j, big)
                for h in range(M):
                    full = _full_flow_coefficient(dual, x, Q, h)
                    for lhs_h in (lhs.coeffs[h], LaurentF.one(ctx),
                                  *(lhs.coeffs[h].truncate(w)
                                    for w in (6, 12, 20, 30))):
                        got = flow_coefficient(dual, x, Q, h,
                                               window=lhs_h.prec)
                        assert ((lhs_h - got).val_lower_bound() ==
                                (lhs_h - full).val_lower_bound()), (j, h)
                        finite += lhs_h.prec != INF
                    # no window: the full sum itself
                    assert _state(flow_coefficient(dual, x, Q, h)) == \
                        _state(full)
    assert finite


def test_dual_moment_k0(cc2):
    iso = ec_iso(cc2, 3, N + 16)
    S = AdditiveMap(cc2, N)
    one = LaurentF.one(cc2.field)
    rng = random.Random(3)
    assert (DualMap(S, iso).moment(_unit_x(cc2.field, rng), 0) - one).is_exact_zero()


def test_dual_of_additive_reverse_gives_naive(cc2):
    # generator = composition inverse of the Carlitz-exponential truncation:
    # the dual's moments are e_C(x)^k
    iso_rev = AdditiveIso(ec_generator(cc2, 7, N + 32)).inverse_iso()
    S = AdditiveMap(cc2, N)
    NM = NaiveMap(cc2, N)
    dual = DualMap(S, iso_rev, prec=N)
    rng = random.Random(4)
    for _ in range(5):
        x = _unit_x(cc2.field, rng)
        for k in (1, 2, 4):
            assert agreement_valuation(dual.moment(x, k), NM.moment(x, k)) >= N


def test_ex58_dual_first_moment_is_carlitz_exp(cc2):
    iso = ex58_iso(cc2, 4, N + 32)
    T = TwistedMap(cc2, N)
    for poly in (PolyA.t(cc2.field), PolyA.t(cc2.field) ** 2):
        x = LaurentF.from_poly(poly)
        f1 = DualMap(T, iso, prec=N).moment(x, 1)
        assert agreement_valuation(f1, cc2.exp_sum(x, N)) >= N


def test_duality_diagram_identity_iso_exact(cc2):
    # phi = id makes both sides literally the same computation
    iso = AdditiveIso(AdditiveSeries.identity(cc2.field))
    S = AdditiveMap(cc2, N)
    rng = random.Random(5)
    rep = check_duality_diagram(S, iso, _unit_x(cc2.field, rng), J, M, N)
    assert rep.passed


def test_duality_diagram_additive_ec(cc2):
    iso = ec_iso(cc2, 4, N + 32)
    S = AdditiveMap(cc2, N)
    rng = random.Random(6)
    for _ in range(3):
        rep = check_duality_diagram(S, iso, _unit_x(cc2.field, rng), J, M, N)
        assert rep.passed, rep.failures[:3]
        assert rep.min_agreement_valuation >= N


def test_duality_diagram_twisted_ex58(cc2):
    iso = ex58_iso(cc2, 4, N + 32)
    T = TwistedMap(cc2, N, inv_prec_pad=64)
    rng = random.Random(7)
    for _ in range(3):
        x = LaurentF.from_poly(
            PolyA(cc2.field, [rng.randrange(2) for _ in range(4)]))
        rep = check_duality_diagram(T, iso, x, J, M, N)
        assert rep.passed, rep.failures[:3]


def test_duality_diagram_detects_perturbation(cc2):
    iso = ec_iso(cc2, 4, N + 32)
    S = AdditiveMap(cc2, N)
    rng = random.Random(8)
    x = _unit_x(cc2.field, rng)
    base = DualMap(S, iso, prec=N)
    for k_star in (1, 3, J - 1):
        bumped = PerturbedMap(base, k_star, LaurentF.one(cc2.field))
        rep = check_duality_diagram(S, iso, x, J, M, N, dual_map=bumped)
        assert not rep.passed
        assert any(f["discrepancy_valuation"] < N for f in rep.failures)


def test_geometric_criterion_additive_direction(cc2):
    iso = ec_iso(cc2, 4, N + 32)
    S = AdditiveMap(cc2, N)
    rng = random.Random(9)
    rep = check_geometric_criterion(S, iso, _unit_x(cc2.field, rng), J, N, 4)
    verdict = rep.notes[-1]
    assert rep.passed and verdict["flows_agree"] and verdict["inner_geometric"]


def test_geometric_criterion_twisted_direction(cc2):
    iso = ex58_iso(cc2, 4, N + 32)
    T = TwistedMap(cc2, N, inv_prec_pad=64)
    one = LaurentF.one(cc2.field)
    rep = check_geometric_criterion(T, iso, one, J, N, 4)
    verdict = rep.notes[-1]
    assert rep.passed  # biconditional: flows differ AND not geometric
    assert not verdict["flows_agree"] and not verdict["inner_geometric"]
    assert verdict["geometric_witness_k"] == 2  # T_2(1) = 0 != 1 = T_1(1)^2


def test_geometric_criterion_trivial_geometric(cc2):
    iso = AdditiveIso(AdditiveSeries.identity(cc2.field))
    G = GeometricMap(cc2, N, lambda x: x, "identity")
    rng = random.Random(10)
    rep = check_geometric_criterion(G, iso, _unit_x(cc2.field, rng), J, N, 4)
    verdict = rep.notes[-1]
    assert rep.passed and verdict["flows_agree"] and verdict["inner_geometric"]


def test_is_geometric_at_cases(cc2):
    S = AdditiveMap(cc2, N)
    T = TwistedMap(cc2, N)
    rng = random.Random(11)
    x = _unit_x(cc2.field, rng)
    assert is_geometric_at(S, x, 6, N) == (True, None)
    one = LaurentF.one(cc2.field)
    ok, k = is_geometric_at(T, one, 6, N)
    assert not ok and k == 2


def test_check_binomial_additive_and_twisted(cc2):
    S = AdditiveMap(cc2, N)
    rng = random.Random(12)
    x, y = _unit_x(cc2.field, rng), _unit_x(cc2.field, rng)
    assert check_binomial(S, x, y, 6, N).passed
    T = TwistedMap(cc2, N, inv_prec_pad=64)
    t = PolyA.t(cc2.field)
    rep = check_binomial(T, LaurentF.from_poly(t),
                         LaurentF.from_poly(t + PolyA.one(cc2.field)), 8, N)
    assert rep.passed


def test_check_binomial_precondition(cc2):
    S = AdditiveMap(cc2, N)
    t = LaurentF.from_poly(PolyA.t(cc2.field))
    rng = random.Random(13)
    with pytest.raises(PreconditionFailedError):
        check_binomial(S, t, _unit_x(cc2.field, rng), 4, N)


def test_check_binomial_held_to_cap(F2):
    # (n_max + 1)(n_max + 2)/2 moment products: 231 for n_max = 20
    from umbral_flow.carlitz import CarlitzCtx
    from umbral_flow.errors import EnumerationCapExceededError

    S = AdditiveMap(CarlitzCtx(F2, cap=230), N)
    x = LaurentF(F2, 1, [1], N)
    assert check_binomial(S, x, x, 19, N).passed  # 210 pairs
    with pytest.raises(EnumerationCapExceededError):
        check_binomial(S, x, x, 20, N)


def test_dual_binomial_preserved(cc2):
    iso = ex58_iso(cc2, 4, N + 32)
    T = TwistedMap(cc2, N, inv_prec_pad=64)
    dual = DualMap(T, iso, prec=N, eval_len=N + 32)
    t = PolyA.t(cc2.field)
    x = LaurentF.from_poly(t)
    y = LaurentF.from_poly(t + PolyA.one(cc2.field))
    assert check_binomial(dual, x, y, 8, N).passed


def test_compose_isos_scalars(F3):
    g = LaurentF(F3, 0, [2], INF)
    d = LaurentF(F3, 0, [2], INF)
    a = AdditiveIso(AdditiveSeries.linear(g))
    b = AdditiveIso(AdditiveSeries.linear(d))
    c = compose_isos(a, b)
    assert c.H.coeff(0).codes == b"\1"  # 2*2 = 1 in F_3
    ident = AdditiveIso(AdditiveSeries.identity(F3))
    ca = compose_isos(ident, a)
    assert (ca.H.coeff(0) - a.H.coeff(0)).is_exact_zero()


def test_compose_isos_transitivity_on_duals(cc2):
    # Dual(Dual(F, a), b) has the same moments as Dual(F, compose(a, b)),
    # including for non-commuting generators
    ctx = cc2.field
    one = LaurentF.one(ctx)
    s = LaurentF(ctx, 1, [1], INF)
    iso_a = AdditiveIso(AdditiveSeries(ctx, [one, one]))
    iso_b = AdditiveIso(AdditiveSeries(ctx, [one, s]))
    iso_c = compose_isos(iso_a, iso_b)
    S = AdditiveMap(cc2, N)
    step = DualMap(DualMap(S, iso_a, prec=N), iso_b, prec=N)
    direct = DualMap(S, iso_c, prec=N)
    rng = random.Random(14)
    x = _unit_x(ctx, rng)
    for k in range(7):
        assert agreement_valuation(step.moment(x, k),
                                   direct.moment(x, k)) >= N


def test_dual_of_dual_restores_moments(cc2):
    ctx = cc2.field
    one = LaurentF.one(ctx)
    s = LaurentF(ctx, 1, [1], INF)
    iso = AdditiveIso(AdditiveSeries(ctx, [one, s, one]))
    back = iso.inverse_iso(length=7)  # p^7 = 128 >= eval range
    S = AdditiveMap(cc2, N)
    twice = DualMap(DualMap(S, iso, prec=N), back, prec=N)
    rng = random.Random(15)
    x = _unit_x(ctx, rng)
    for k in range(7):
        assert agreement_valuation(twice.moment(x, k), S.moment(x, k)) >= N


def test_merge_reports(cc2):
    iso = AdditiveIso(AdditiveSeries.identity(cc2.field))
    S = AdditiveMap(cc2, N)
    rng = random.Random(16)
    reps = [check_duality_diagram(S, iso, _unit_x(cc2.field, rng), 4, M, N)
            for _ in range(3)]
    merged = merge_reports(reps, claim="combined")
    assert merged.trials == sum(r.trials for r in reps)
    assert merged.passed
    js = merged.to_json()
    assert js["claim"] == "combined" and js["passed"]


def test_duality_claim_over_f4():
    # d > 1: the claim's generators count q-powers, which interleave to
    # d times as many p-powers
    from umbral_flow.config import Config
    from umbral_flow.verify import run_claim

    rep = run_claim("duality", Config(p=2, d=2, modulus=(1, 1, 1), trials=4))
    assert rep.passed


def test_dual_twisted_moment_at_eval_len_over_f9():
    # over F_9 the twisted map at a degree-1 point has support q^2 = 81, one
    # past the default eval_len of 80: the k = 80 dual moment is
    # c_(80,80) T_80(x), at valuation -8, not a zero at precision 80
    from umbral_flow.carlitz import CarlitzCtx
    from umbral_flow.fq import field

    cctx = CarlitzCtx(field(3, 2, (2, 2, 1)))
    ctx = cctx.field
    iso = ex58_iso(cctx, plen(ctx.q, 16), 64 + 32)
    T = TwistedMap(cctx, 64, inv_prec_pad=64)
    x = LaurentF.from_poly(PolyA.t(ctx) + PolyA.one(ctx))
    dual = DualMap(T, iso, prec=64)
    assert dual.eval_len == 80
    got = dual.moment(x, 80)
    want = DualMap(T, iso, prec=64, eval_len=200).moment(x, 80)
    assert got.val_lower_bound() == want.val_lower_bound() == -8
    assert (got - want).val_lower_bound() >= got.prec == 80


def test_dual_first_moment_at_degree_4_over_f4(cc4):
    # over F_4 the twisted map at a degree-4 point has support 4^5 = 1024,
    # past eval_len 192: every sum runs to the support, so the value agrees
    # with a longer eval_len's below its stated precision
    T = TwistedMap(cc4, 128, inv_prec_pad=128)
    iso = ex58_iso(cc4, 5, 256)
    t = PolyA.t(cc4.field)
    x = LaurentF.from_poly(t ** 4 + t + PolyA.one(cc4.field))
    got = DualMap(T, iso, prec=128, eval_len=192).moment(x, 1)
    want = DualMap(T, iso, prec=128, eval_len=400).moment(x, 1)
    assert got.prec == 192
    assert (got - want).val_lower_bound() >= got.prec


def test_dual_rule_needs_integral_generator_and_tail_bound(cc2):
    ctx = cc2.field
    one = LaurentF.one(ctx)
    S = AdditiveMap(cc2, N)
    rng = random.Random(34)
    x = _unit_x(ctx, rng)
    integral = AdditiveIso(AdditiveSeries(ctx, [one, one]))
    verdict = DualMap(S, integral, prec=N).admissibility_rule(x)
    assert verdict.apparently_admissible
    # a coefficient t makes H^(-1) non-integral: no rule, and the dual is
    # refused
    t = LaurentF.from_poly(PolyA.t(ctx))
    wild = AdditiveIso(AdditiveSeries(ctx, [one, t]))
    assert DualMap(S, wild, prec=N).admissibility_rule(x) is None
    with pytest.raises(PreconditionFailedError, match=r"dual\(additive\)"):
        apply_flow(DualMap(S, wild, prec=N), x,
                   TruncSeries.monomial(ctx, 1, M))
    # an inner map without a tail bound: no rule either
    bumped = PerturbedMap(S, 2, one)
    assert bumped.moment_bound(x, 10) is None
    assert DualMap(bumped, integral, prec=N).admissibility_rule(x) is None
    # outside the unit ball the additive map has no bound, nor its dual a rule
    assert DualMap(S, integral, prec=N).admissibility_rule(t) is None


def test_dual_of_dual_has_an_exact_rule(cc2):
    # a dual under an integral exact generator states the inner map's tail
    # bound, so a dual of it has an exact rule and a cap from that bound
    ctx = cc2.field
    one = LaurentF.one(ctx)
    s = LaurentF(ctx, 1, [1], INF)
    iso_a = AdditiveIso(AdditiveSeries(ctx, [one, one]))
    iso_b = AdditiveIso(AdditiveSeries(ctx, [one, s]))
    S = AdditiveMap(cc2, N)
    once = DualMap(S, iso_a, prec=N)
    twice = DualMap(once, iso_b, prec=N)
    x = _unit_x(ctx, random.Random(36))
    assert once.moment_bound(x, 7) == S.moment_bound(x, 7) == 7
    verdict = twice.admissibility_rule(x)
    assert verdict is not None and verdict.apparently_admissible
    assert verdict.apparently_admissible == _decay_scan(twice, x)
    length, cap = twice._sum_at(x)
    assert cap == min(twice.eval_len, once.moment_bound(x, length))
    # a non-integral generator states no bound, so its dual has no rule
    t = LaurentF.from_poly(PolyA.t(ctx))
    wild = DualMap(S, AdditiveIso(AdditiveSeries(ctx, [one, t])), prec=N)
    assert wild.moment_bound(x, 7) is None
    assert DualMap(wild, iso_b, prec=N).admissibility_rule(x) is None


def _decay_scan(umap, x):
    """The window scan, kept as the oracle for the exact rules: x passes
    once 3 consecutive moments F_k(x), k <= max(32, prec + 8), reach the
    map's precision."""
    quiet = 0
    for k in range(1, max(32, umap.prec + 8) + 1):
        quiet = quiet + 1 if umap.moment(x, k).val_lower_bound() >= \
            umap.prec else 0
        if quiet >= 3:
            return True
    return False


def test_dual_rule_matches_forced_scan(monkeypatch):
    # at every sample point of the F_2 duality, geometric, dual-binomial and
    # example57 claims, the exact rule of a dual (or bumped dual) map gives
    # the verdict that the window scan gives
    from umbral_flow import duality, umbral
    from umbral_flow.config import Config
    from umbral_flow.verify import run_claim

    rule_of = umbral.admissible_heuristic
    seen = {}

    def both(umap, x):
        got = rule_of(umap, x)
        if isinstance(umap, (DualMap, PerturbedMap)):
            assert got.apparently_admissible == _decay_scan(umap, x)
            seen[umap.name] = seen.get(umap.name, 0) + 1
        return got

    for module in (duality, umbral):
        monkeypatch.setattr(module, "admissible_heuristic", both)
    cfg = Config(p=2, prec=64, trunc=16, basis=12, trials=20, seed=0)
    for claim in ("duality", "geometric", "dual-binomial", "example57"):
        assert run_claim(claim, cfg).passed
    assert seen == {"dual(additive)": 12, "dual(twisted)": 22,
                    "dual(additive)+bump@5": 1, "dual(twisted)+bump@6": 1}


def test_dual_moment_counts_pinned(monkeypatch):
    # the dual moments each dual-map claim computes at a small F_2 config.
    # With the window scan deciding dual admissibility, duality computed
    # 131 and geometric 146.  Before moment floors (every dual moment a
    # windowed sum asked for computed, and zero past the cap only from the
    # sum's length on) the counts were duality 70, geometric 65,
    # dual-binomial 16, example57 8 and iso-roundtrip 96
    from umbral_flow import duality
    from umbral_flow.config import Config
    from umbral_flow.verify import run_claim

    calls = [0]
    umbral_eval_of = duality.umbral_eval

    def counted(*args, **kwargs):
        calls[0] += 1
        return umbral_eval_of(*args, **kwargs)

    monkeypatch.setattr(duality, "umbral_eval", counted)
    cfg = Config(p=2, prec=32, trunc=8, basis=6, trials=8, seed=0)
    got = {}
    for claim in ("duality", "geometric", "dual-binomial", "example57",
                  "iso-roundtrip"):
        calls[0] = 0
        run_claim(claim, cfg)
        got[claim] = calls[0]
    assert got == {"duality": 43, "geometric": 43, "dual-binomial": 3,
                   "example57": 8, "iso-roundtrip": 63}


def _ref_moment_sum(umap, x, P, h, window):
    """The windowed moment sum without floors: every moment a term meets is
    computed, and the term skipped only when its computed bound
    vlb(a_j) + vlb(F_(j-h)(x)) reaches the window."""
    pairs = []
    for j, a in P.terms:
        b = binom_mod_p(j, h, P.ctx.p)
        if b == 0:
            continue
        a = a.scale(b)
        fk = None
        if j > h:
            fk = umap.moment(x, j - h)
            if a.val_lower_bound() + fk.val_lower_bound() >= window:
                continue
        pairs.append((a, fk))
    return product_sum(P.ctx, pairs, window)


def _ref_dual_moment(dual, x, k):
    """A dual moment summed by the reference loop: every term below the
    sum's length, zero at the cap only from that length on."""
    length, cap = dual._sum_at(x)
    if k == 0:
        return LaurentF.one(dual.ctx)
    if k >= length:
        return LaurentF.zero_at(dual.ctx, cap)
    return _ref_moment_sum(dual.inner, x, dual.iso.hinv_power(k, length), 0,
                           cap)


class _RefDual(DualMap):
    """A dual map whose moments come from the reference loop alone."""

    def moment_floor(self, x, n):
        return None

    def moment(self, x, k):
        cache = self._moments.setdefault(x, {})
        if k not in cache:
            cache[k] = _ref_dual_moment(self, x, k)
        return cache[k]


def _floor_cases(cctx, rng):
    """(name, map, reference twin, point): both duality legs, a bumped dual
    of each, a dual under a generator whose inverse is not integral, and a
    dual of a dual."""
    ctx = cctx.field
    glen = plen(ctx.q, M)
    isoA = ec_iso(cctx, glen, N + 32)
    iso58 = ex58_iso(cctx, glen, N + 32)
    # H = T + t^2 T^p: the inverse's coefficients fall without limit
    t = PolyA.t(ctx)
    wild = AdditiveIso(AdditiveSeries(ctx, [LaurentF.one(ctx),
                                            LaurentF.from_poly(t * t)]))
    S = AdditiveMap(cctx, N)
    T = TwistedMap(cctx, N, inv_prec_pad=64)
    xs = _unit_x(ctx, rng)
    xt = LaurentF.from_poly(PolyA(ctx, [rng.randrange(ctx.q)
                                        for _ in range(glen - 1)] + [1]))
    bump = LaurentF(ctx, -1, [1, 1], 40)
    cases = []
    for name, inner, iso, x in (("additive", S, isoA, xs),
                                ("twisted", T, iso58, xt),
                                ("wild", S, wild, xs)):
        new, ref = DualMap(inner, iso, prec=N), _RefDual(inner, iso, prec=N)
        cases.append((name, new, ref, x))
        if name != "wild":
            k = rng.randrange(1, 8)
            cases.append((name + "+bump", PerturbedMap(new, k, bump),
                          PerturbedMap(ref, k, bump), x))
    once = DualMap(S, isoA, prec=N)
    back = isoA.inverse_iso(length=plen(ctx.p, once.eval_len))
    cases.append(("dual-of-dual", DualMap(once, back, prec=N),
                  _RefDual(_RefDual(S, isoA, prec=N), back, prec=N), xs))
    return cases


@pytest.mark.parametrize("cc_name", ["cc2", "cc3", "cc4"])
def test_floored_sums_match_reference_loop(cc_name, request):
    # the windowed sums with moment floors against the loop that computes
    # every moment, (v, codes, prec), at random windows: one walk for all
    # h, one h, and h = 0; then every dual moment up to the length + 2
    cctx = request.getfixturevalue(cc_name)
    ctx = cctx.field
    rng = random.Random(35)
    asked = {"new": 0, "ref": 0}
    for name, new, ref, x in _floor_cases(cctx, rng):
        dual = new.base if isinstance(new, PerturbedMap) else new
        iso = dual.iso
        big = max(iso.degree_bound(3) + 1, M)
        series = [iso.gen_power(j, big) for j in (1, 2, 3)] + \
            [_rand_series(ctx, rng, trunc=20, v_lo=-2)]
        for Q in series:
            windows = [rng.choice([INF, rng.randint(-8, 90)])
                       for _ in range(M)]
            got = flow_coefficients(new, x, Q, windows)
            for h, w in enumerate(windows):
                want = _ref_moment_sum(ref, x, Q, h, w)
                assert _state(got[h]) == _state(want), (name, h, w)
                assert _state(flow_coefficient(new, x, Q, h, w)) == \
                    _state(want), (name, h, w)
            w = rng.randint(0, 90)
            assert _state(umbral_eval(Q, new, x, w)) == \
                _state(_ref_moment_sum(ref, x, Q, 0, w)), (name, w)
        if not isinstance(new, PerturbedMap):
            asked["new"] += len(new._moments[x])
            asked["ref"] += len(ref._moments[x])
        length = dual._sum_at(x)[0]
        for k in range(length + 3):
            assert _state(new.moment(x, k)) == _state(ref.moment(x, k)), \
                (name, k)
    # the floors decided some terms before their moments were asked for
    assert asked["new"] < asked["ref"]


@pytest.mark.parametrize("fld", [{"p": 2}, {"p": 3},
                                 {"p": 2, "d": 2, "modulus": (1, 1, 1)}],
                         ids=["F2", "F3", "F4"])
def test_moment_floor_bounds_computed_moments(fld, monkeypatch):
    # at the sample points of the dual-map claims, every dual moment up to
    # the sum's length + 2, as DualMap computes it and as the reference
    # loop computes it, lies at or past the map's floor
    from umbral_flow.config import Config
    from umbral_flow.verify import run_claim

    seen = {}
    sum_at = DualMap._sum_at

    def spy(self, x):
        seen.setdefault((id(self), x), (self, x))
        return sum_at(self, x)

    monkeypatch.setattr(DualMap, "_sum_at", spy)
    cfg = Config(**fld, prec=32, trunc=8, basis=6, trials=4, seed=0)
    for claim in ("duality", "geometric", "example57", "iso-roundtrip"):
        run_claim(claim, cfg)
    monkeypatch.setattr(DualMap, "_sum_at", sum_at)
    floored = 0
    for dual, x in seen.values():
        length, cap = dual._sum_at(x)
        for k in range(length + 3):
            floor = dual.moment_floor(x, k)
            if floor is None:
                continue
            floored += 1
            assert dual.moment(x, k).val_lower_bound() >= floor, k
            assert _ref_dual_moment(dual, x, k).val_lower_bound() >= floor, k
    assert floored


@pytest.mark.parametrize("fld", [{"p": 2}, {"p": 3},
                                 {"p": 2, "d": 2, "modulus": (1, 1, 1)}],
                         ids=["F2", "F3", "F4"])
def test_moment_bound_bounds_dual_of_dual_moments(fld, monkeypatch):
    # at the sample points of the iso-roundtrip claim, every computed
    # moment of a dual of a dual up to the sum's length + 2 is a zero at
    # its precision or has valuation at or past the map's tail bound at
    # each n <= k where it states one
    from umbral_flow.config import Config
    from umbral_flow.verify import run_claim

    seen = {}
    sum_at = DualMap._sum_at

    def spy(self, x):
        seen.setdefault((id(self), x), (self, x))
        return sum_at(self, x)

    monkeypatch.setattr(DualMap, "_sum_at", spy)
    run_claim("iso-roundtrip",
              Config(**fld, prec=32, trunc=8, basis=6, trials=20, seed=0))
    monkeypatch.setattr(DualMap, "_sum_at", sum_at)
    bounded = 0
    for dual, x in seen.values():
        if not isinstance(dual.inner, DualMap):
            continue
        for k in range(dual._sum_at(x)[0] + 3):
            got = dual.moment(x, k)
            for n in range(k + 1):
                bound = dual.moment_bound(x, n)
                if bound is None:  # the twisted map below its support
                    continue
                bounded += 1
                assert got.val_lower_bound() >= min(bound, got.prec), (k, n)
    assert bounded


def test_integral_generator_has_integral_computed_inverse():
    # the floor of a dual map reads the integrality of H alone: for an
    # exact H with every coefficient at vlb >= 0, every computed
    # coefficient of H^(-1), and of its powers, keeps vlb >= 0
    from umbral_flow.carlitz import CarlitzCtx
    from umbral_flow.fq import field

    rng = random.Random(37)
    for p, d, modulus in ((2, 1, None), (3, 1, None), (2, 2, (1, 1, 1))):
        ctx = field(p, d, modulus)
        for _ in range(6):
            pc = [LaurentF(ctx, 0, [rng.randrange(1, ctx.q)] +
                           [rng.randrange(ctx.q) for _ in range(5)],
                           rng.choice([INF, 12]))]
            for _ in range(rng.randint(1, 3)):
                pc.append(LaurentF(ctx, rng.randint(0, 3),
                                   [rng.randrange(ctx.q) for _ in range(6)],
                                   rng.choice([INF, rng.randint(0, 12)])))
            iso = AdditiveIso(AdditiveSeries(ctx, pc, exact=True))
            assert DualMap(AdditiveMap(CarlitzCtx(ctx), N), iso)._integral
            assert all(c.val_lower_bound() >= 0
                       for c in iso.inverse(6).pcoeffs)
            for k in (1, 2, 5):
                assert all(c.val_lower_bound() >= 0
                           for c in iso.hinv_power(k, 40).coeffs)


def test_duality_diagram_counts_at_benchmark_shape(monkeypatch):
    # one diagram per leg of the duality claim at the benchmark's shape
    # (F_2, prec 64, trunc 16, basis 12), at each leg's first sample point:
    # the dual moments computed and the (H^(-1))^k rows built.  Computing
    # every dual moment the sums met, the additive leg computed 52 moments
    # and built 76 rows, the twisted leg (support 8) 52 and 76
    from umbral_flow import duality
    from umbral_flow.config import Config
    from umbral_flow.verify import Sampler, _rng

    calls = [0]
    umbral_eval_of = duality.umbral_eval

    def counted(*args, **kwargs):
        calls[0] += 1
        return umbral_eval_of(*args, **kwargs)

    monkeypatch.setattr(duality, "umbral_eval", counted)
    cfg = Config(p=2, prec=64, trunc=16, basis=12, trials=20, seed=0)
    cctx = cfg.carlitz_ctx()
    smp = Sampler(cctx.field, _rng(cfg, "duality"), cfg.prec)
    glen = plen(cfg.q, cfg.trunc)
    legs = [(AdditiveMap(cctx, cfg.prec), ec_iso(cctx, glen, cfg.prec + 32),
             smp.unit_ball()),
            (TwistedMap(cctx, cfg.prec, inv_prec_pad=64),
             ex58_iso(cctx, glen, cfg.prec + 32),
             smp.poly_elem(glen - 1, nonzero=True))]
    got = {}
    for inner, iso, x in legs:
        calls[0] = 0
        rep = check_duality_diagram(inner, iso, x, cfg.basis, cfg.trunc,
                                    cfg.prec)
        assert rep.passed
        got[inner.name] = (calls[0], {length: len(powers) - 1 for length,
                                      (powers, _) in iso._hinv_powers.items()})
    assert got == {"additive": (25, {80: 28}), "twisted": (7, {80: 7})}
