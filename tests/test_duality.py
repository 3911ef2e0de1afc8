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
from umbral_flow.laurent import INF, LaurentF, agreement_valuation
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
    IdentityFn,
    NaiveMap,
    TwistedMap,
    apply_flow,
    flow_coefficient,
    umbral_eval,
)
from umbral_flow.verify import ec_generator, ec_iso, ex58_iso

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
                lhs = iso.apply(apply_flow(
                    inner, x, TruncSeries.monomial(ctx, j, M),
                    require_admissible=False))
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
    iso_rev = AdditiveIso.from_inverse(ec_generator(cc2, 7, N + 32))
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
    G = GeometricMap(cc2, N, IdentityFn())
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
