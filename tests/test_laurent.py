import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umbral_flow.errors import PrecisionLossError, ZeroInverseError
from umbral_flow.fq import PolyA, field
from umbral_flow.laurent import (
    INF,
    LaurentF,
    agreement_valuation,
    product_sum,
)


def _rand_laurent(ctx, rng, prec=32, allow_zero=True):
    if allow_zero and rng.random() < 0.05:
        return LaurentF.zero(ctx)
    v = rng.randint(-6, 6)
    codes = [rng.randrange(1, ctx.q)]
    codes += [rng.randrange(ctx.q) for _ in range(rng.randint(0, 20))]
    return LaurentF(ctx, v, codes, prec)


def test_char2_cancellation(F2):
    t = LaurentF(F2, -1, [1], INF)
    assert (t + t).is_exact_zero()


def test_leading_term_valuation(F2):
    t = PolyA.t(F2)
    x = LaurentF.from_poly(t * t + t)
    assert x.valuation() == -2


def test_addition_precision_rule(F2):
    x = LaurentF(F2, 0, [1, 1], 10)
    y = LaurentF(F2, 1, [1], 5)
    assert (x + y).prec == 5


def test_mul_examples(F2):
    t = LaurentF(F2, -1, [1], INF)
    assert (t * t).valuation() == -2
    z = LaurentF.zero(F2)
    assert (t * z).is_exact_zero()
    s = LaurentF(F2, 1, [1], INF)
    assert (s * s).valuation() == 2


def test_valuation_states(F2):
    assert LaurentF.zero(F2).valuation() == INF
    za = LaurentF.zero_at(F2, 12)
    with pytest.raises(PrecisionLossError):
        za.valuation()
    assert za.val_lower_bound() == 12


def test_inv_examples(F2):
    t = LaurentF(F2, -1, [1], INF)
    ti = t.inv()
    assert ti.valuation() == 1 and ti.codes == b"\1"
    one = LaurentF.one(F2)
    assert one.inv() == one
    with pytest.raises(ZeroInverseError):
        LaurentF.zero(F2).inv()
    # 1/(t^2+t) = sum_{i>=2} (1/t)^i over F_2: check by multiplying back
    x = LaurentF.from_poly(PolyA.t(F2) * PolyA.t(F2) + PolyA.t(F2))
    xi = x.inv(prec=20)
    assert xi.valuation() == 2
    assert xi.codes == b"\1" * len(xi.codes)
    assert agreement_valuation(x * xi, one) >= 18


def test_inv_precision_contract(F2):
    x = LaurentF(F2, -3, [1, 0, 1], 11)
    xi = x.inv()
    assert xi.prec == 11 - 2 * (-3)
    assert xi.valuation() == 3


def test_unit_norm_and_integer_ring(F2):
    t = LaurentF(F2, -1, [1], INF)
    s = LaurentF(F2, 1, [1], INF)
    one = LaurentF.one(F2)
    # x in O_F iff v >= 0; x in O_F^x iff x is nonzero with v == 0
    assert t.val_lower_bound() < 0
    assert s.val_lower_bound() >= 0 and s.codes and s.v != 0
    assert one.val_lower_bound() >= 0 and one.codes and one.v == 0
    assert s.valuation() >= 1  # |1/t| < 1


@pytest.mark.parametrize("ctx_name", ["F2", "F3", "F4"])
def test_ultrametric_random(ctx_name, request):
    ctx = request.getfixturevalue(ctx_name)
    rng = random.Random(7)
    for _ in range(1000):
        x = _rand_laurent(ctx, rng)
        y = _rand_laurent(ctx, rng)
        s = x + y
        bound = min(x.val_lower_bound(), y.val_lower_bound())
        assert s.val_lower_bound() >= bound
        if (not x.is_zero_at_prec() and not y.is_zero_at_prec()
                and x.valuation() != y.valuation()):
            assert s.valuation() == min(x.valuation(), y.valuation())


@pytest.mark.parametrize("ctx_name", ["F2", "F3", "F4"])
def test_multiplicativity_random(ctx_name, request):
    ctx = request.getfixturevalue(ctx_name)
    rng = random.Random(8)
    for _ in range(1000):
        x = _rand_laurent(ctx, rng, allow_zero=False)
        y = _rand_laurent(ctx, rng, allow_zero=False)
        assert (x * y).valuation() == x.valuation() + y.valuation()


@pytest.mark.parametrize("ctx_name", ["F2", "F3"])
def test_inv_roundtrip_random(ctx_name, request):
    ctx = request.getfixturevalue(ctx_name)
    rng = random.Random(9)
    one = LaurentF.one(ctx)
    for _ in range(200):
        x = _rand_laurent(ctx, rng, prec=40, allow_zero=False)
        xi = x.inv()
        prod = x * xi
        assert agreement_valuation(prod, one) >= prod.prec
        assert prod.v == 0 and prod.codes[:1] == b"\1"


@pytest.mark.parametrize("ctx_name", ["F2", "F3", "F4"])
def test_embedding_is_ring_homomorphism(ctx_name, request):
    ctx = request.getfixturevalue(ctx_name)
    rng = random.Random(10)
    for _ in range(200):
        a = PolyA(ctx, [rng.randrange(ctx.q) for _ in range(rng.randint(0, 6))])
        b = PolyA(ctx, [rng.randrange(ctx.q) for _ in range(rng.randint(0, 6))])
        ea, eb = LaurentF.from_poly(a), LaurentF.from_poly(b)
        assert (ea + eb - LaurentF.from_poly(a + b)).is_exact_zero()
        assert (ea * eb - LaurentF.from_poly(a * b)).is_exact_zero()


def test_frobenius_power_matches_mul(F3):
    rng = random.Random(11)
    for _ in range(50):
        x = _rand_laurent(F3, rng, prec=30, allow_zero=False)
        cubed = x * x * x
        frob = x.frob_power(1)
        assert agreement_valuation(cubed, frob) >= cubed.prec
        assert frob.prec == 3 * 30


@given(st.integers(-5, 5), st.lists(st.integers(0, 1), min_size=1, max_size=9),
       st.integers(-5, 5), st.lists(st.integers(0, 1), min_size=1, max_size=9))
@settings(max_examples=80, deadline=None)
def test_distributivity_hypothesis(v1, c1, v2, c2):
    ctx = field(2)
    x = LaurentF(ctx, v1, c1, 40)
    y = LaurentF(ctx, v2, c2, 40)
    z = LaurentF(ctx, 0, [1, 1], 40)
    lhs = z * (x + y)
    rhs = z * x + z * y
    assert agreement_valuation(lhs, rhs) >= min(lhs.prec, rhs.prec)


# Bytes-coded LaurentF arithmetic against a per-coefficient model: a value
# is {exponent: nonzero code} below its precision, and every operation is
# written out with the field's element tables.  F_127 and F_131 are large
# prime fields whose digit sums reach 252 and 260, one on each side of a
# byte.
_DIFF_FIELDS = {
    "F2": (2, 1, None),
    "F3": (3, 1, None),
    "F4": (2, 2, (1, 1, 1)),
    "F8": (2, 3, (1, 1, 0, 1)),
    "F9": (3, 2, (1, 0, 1)),
    "F127": (127, 1, None),
    "F131": (131, 1, None),
}


def _model(x):
    return {x.v + j: c for j, c in enumerate(x.codes) if c}, x.prec


def _from_model(ctx, terms, prec):
    """(v, codes, prec) of the normalized LaurentF the model describes."""
    terms = {e: c for e, c in terms.items() if c and e < prec}
    if not terms:
        return 0, b"", prec
    v = min(terms)
    return v, bytes(terms.get(e, 0) for e in range(v, max(terms) + 1)), prec


def _model_add(ctx, a, b):
    (ta, pa), (tb, pb) = a, b
    out = dict(ta)
    for e, c in tb.items():
        out[e] = ctx.add_c(out.get(e, 0), c)
    return out, min(pa, pb)


def _model_mul(ctx, a, b):
    (ta, pa), (tb, pb) = a, b
    out = {}
    for e, c in ta.items():
        for f, d in tb.items():
            out[e + f] = ctx.add_c(out.get(e + f, 0), ctx.mul_c(c, d))
    vlb_a, vlb_b = min(ta, default=pa), min(tb, default=pb)
    return out, min(pa + vlb_b, pb + vlb_a)


def _draw_value(draw, ctx):
    """An exact zero, a zero at precision, or coded, exact (INF) or not."""
    kind = draw(st.sampled_from(
        ["exact zero", "zero at prec", "random", "top", "monomial"]))
    v = draw(st.integers(-8, 8))
    if kind == "exact zero":
        return LaurentF.zero(ctx)
    prec = draw(st.sampled_from([INF, v + draw(st.integers(-2, 30))]))
    if kind == "zero at prec":
        return LaurentF.zero_at(ctx, v if prec == INF else prec)
    n = 1 if kind == "monomial" else draw(st.integers(1, 24))
    if kind == "top":  # every digit p-1
        codes = [ctx.q - 1] * n
    else:
        codes = draw(st.lists(st.integers(0, ctx.q - 1), min_size=n,
                              max_size=n))
    return LaurentF(ctx, v, codes, prec)


@st.composite
def _laurent_pair(draw):
    ctx = field(*_DIFF_FIELDS[draw(st.sampled_from(sorted(_DIFF_FIELDS)))])
    return ctx, _draw_value(draw, ctx), _draw_value(draw, ctx), \
        draw(st.integers(0, ctx.q - 1))


@given(_laurent_pair())
@settings(max_examples=300, deadline=None)
def test_bytes_laurent_matches_coefficient_model(case):
    ctx, x, y, s = case
    mx, my = _model(x), _model(y)
    neg_y = ({e: ctx.neg_c(c) for e, c in my[0].items()}, my[1])

    def check(got, terms, prec):
        assert type(got.codes) is bytes
        assert (got.v, got.codes, got.prec) == _from_model(ctx, terms, prec)

    check(x + y, *_model_add(ctx, mx, my))
    check(x - y, *_model_add(ctx, mx, neg_y))
    check(-y, *neg_y)
    check(x.scale(s), {e: ctx.mul_c(s, c) for e, c in mx[0].items()}, mx[1])
    check(x * y, *_model_mul(ctx, mx, my))
    # frob_power spreads the codes p^i apart: keep that small for F_131
    for i in range(3 if ctx.p < 100 else 2):
        e = ctx.p ** i
        check(x.frob_power(i), {f * e: ctx.frob_c(c, i)
                                for f, c in mx[0].items()}, mx[1] * e)


def _product_sum_loop(ctx, pairs, window):
    """The reference for ``product_sum``: one Laurent product and one sum
    per pair, then one truncation."""
    acc = LaurentF.zero(ctx)
    for a, b in pairs:
        acc = acc + (a if b is None else a * b)
    return acc.truncate(window)


@st.composite
def _product_sum_case(draw):
    # up to six pairs, b None (meaning 1) for some; no pairs and one pair
    # among them
    ctx = field(*_DIFF_FIELDS[draw(st.sampled_from(["F2", "F3", "F4",
                                                    "F8"]))])
    pairs = [(_draw_value(draw, ctx),
              None if draw(st.booleans()) else _draw_value(draw, ctx))
             for _ in range(draw(st.integers(0, 6)))]
    window = draw(st.sampled_from([INF, draw(st.integers(-12, 40))]))
    return ctx, pairs, window


@given(_product_sum_case())
@settings(max_examples=300, deadline=None)
def test_product_sum_matches_loop(case):
    ctx, pairs, window = case
    got = product_sum(ctx, pairs, window)
    want = _product_sum_loop(ctx, pairs, window)
    assert type(got.codes) is bytes
    assert (got.v, got.codes, got.prec) == (want.v, want.codes, want.prec)


@st.composite
def _agreement_case(draw):
    # y is drawn on its own, or made from x so that the two share their
    # lead and differ late, or not at all: x itself, x cut at a precision,
    # x with one digit changed, or x moved past its own window
    ctx = field(*_DIFF_FIELDS[draw(st.sampled_from(["F2", "F3", "F4"]))])
    x = _draw_value(draw, ctx)
    kind = draw(st.sampled_from(["independent", "same", "cut", "digit",
                                 "apart"]))
    if kind == "independent":
        return ctx, x, _draw_value(draw, ctx)
    if kind == "same":
        return ctx, x, LaurentF(ctx, x.v, x.codes, x.prec)
    if kind == "cut":
        return ctx, x, x.truncate(x.v + draw(st.integers(-2, 30)))
    if kind == "digit":
        i = draw(st.integers(0, 30))
        codes = bytearray(x.codes.ljust(i + 1, b"\0"))
        codes[i] = (codes[i] + draw(st.integers(1, ctx.q - 1))) % ctx.q
        prec = draw(st.sampled_from([x.prec, INF, x.v + i + 1]))
        return ctx, x, LaurentF(ctx, x.v, codes, max(prec, x.v + i + 1))
    v = x.v + len(x.codes) + draw(st.integers(0, 6))
    return ctx, x, LaurentF(ctx, v, [1] + [draw(st.integers(0, ctx.q - 1))
                                           for _ in range(4)],
                            draw(st.sampled_from([INF, v + 8])))


@given(_agreement_case())
@settings(max_examples=400, deadline=None)
def test_agreement_valuation_matches_difference(case):
    ctx, x, y = case
    for a, b in ((x, y), (y, x)):
        assert agreement_valuation(a, b) == (a - b).val_lower_bound()


def test_agreement_valuation_cases(F2, F3, F4):
    for ctx in (F2, F3, F4):
        z, top = LaurentF.zero(ctx), ctx.q - 1
        x = LaurentF(ctx, -2, [1, 0, top, 1], 20)
        same_lead = LaurentF(ctx, -2, [1, 0, top, 0, 0, 1], 30)
        cases = [
            (z, z, INF),                                   # exact zero
            (x, x, 20),
            (z, LaurentF.zero_at(ctx, 9), 9),              # zero at prec
            (LaurentF.zero_at(ctx, 9), x, -2),
            (LaurentF.zero_at(ctx, -5), x, -5),
            (x, same_lead, 1),                             # first at -2 + 3
            (x, x.truncate(0), 0),
            (x, LaurentF(ctx, 5, [1], INF), -2),           # apart
            (LaurentF(ctx, 7, [1, 1], INF),
             LaurentF(ctx, 12, [top], INF), 7),
            (LaurentF.one(ctx), LaurentF.one(ctx), INF),
        ]
        for a, b, want in cases:
            assert agreement_valuation(a, b) == want, (a, b)
            assert agreement_valuation(b, a) == want, (b, a)
            assert (a - b).val_lower_bound() == want, (a, b)


def test_poly_degree(F2):
    t = LaurentF(F2, -1, [1], INF)
    assert LaurentF.zero(F2).poly_degree() == -1
    assert LaurentF.one(F2).poly_degree() == 0
    assert (t * t + t).poly_degree() == 2
    assert LaurentF(F2, -1, [1, 1], INF).poly_degree() == 1
    # a 1/t digit, or a finite precision, is no polynomial
    assert LaurentF(F2, -1, [1, 0, 1], INF).poly_degree() == INF
    assert LaurentF(F2, -1, [1], 40).poly_degree() == INF
    assert LaurentF.zero_at(F2, 40).poly_degree() == INF


def test_eq_to_prec(F2):
    x = LaurentF(F2, 0, [1, 0, 0, 0, 0, 0, 0, 0, 1], 16)
    y = LaurentF(F2, 0, [1], 16)
    assert agreement_valuation(x, y) >= 8
    assert not agreement_valuation(x, y) >= 9


def test_json_roundtrip(F4):
    x = LaurentF(F4, -2, [3, 0, 2, 1], 12)
    assert LaurentF.from_json(F4, x.to_json()) == x
    z = LaurentF.zero(F4)
    assert LaurentF.from_json(F4, z.to_json()).is_exact_zero()

