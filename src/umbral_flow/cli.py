"""Command-line front end: element parsing, subcommand dispatch, and
machine-readable verification reports.

Exit codes: 0 all checks passed, 1 some check failed (a claim that raises
on valid input included), 2 invalid input (a file argument that cannot be
read included).
Reports go to stdout as canonical JSON (byte-stable for a fixed config and
seed); human-readable progress goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from .carlitz import CarlitzCtx
from .config import Config
from .duality import AdditiveIso, DualMap
from .errors import ParseError, UmbralFlowError, UnknownClaimError
from .fq import PolyA
from .laurent import INF, LaurentF
from .series import AdditiveSeries, TruncSeries
from .umbral import AdditiveMap, GeometricMap, NaiveMap, TwistedMap, apply_flow
from .verify import CLAIMS, run_verify


# ---------------------------------------------------------------------------
# element parsing: "t^2+t+1", "2*t^3+1", "(u+1)*t^2+u", "0"

def _split_terms(text: str):
    terms, depth, start, sign = [], 0, 0, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced ')'", i)
        elif ch in "+-" and depth == 0 and i > start:
            terms.append((sign, text[start:i], start))
            sign = 1 if ch == "+" else -1
            start = i + 1
        elif ch in "+-" and depth == 0 and i == start:
            sign *= 1 if ch == "+" else -1
            start = i + 1
        i += 1
    if depth != 0:
        raise ParseError("unbalanced '('", len(text) - 1)
    terms.append((sign, text[start:], start))
    return terms


def _parse_terms(ctx, text: str, pos: int, var: str, coeff):
    """{k: c_k} for the sum of c_k var^k that ``text`` spells: terms joined
    by + and -, each 'c', 'var', 'var^k' or 'c*var^k', where coeff(ctx, c,
    position) gives the code of c.  ``pos`` is where ``text`` starts."""
    if not text:
        raise ParseError(f"empty expression in {var}", pos)
    codes = {}
    for sign, term, tpos in _split_terms(text):
        at = pos + tpos
        if not term:
            raise ParseError("empty term", at)
        head, found, tail = term.rpartition(var)
        if found:
            k = 1
            if tail.startswith("^"):
                try:
                    k = int(tail[1:])
                except ValueError:
                    raise ParseError(f"bad exponent {tail[1:]!r}", at)
            elif tail:
                raise ParseError(f"trailing text {tail!r}", at)
            head = head.rstrip("*")
            code = coeff(ctx, head, at) if head else 1
        else:
            k, code = 0, coeff(ctx, term, at)
        code = code if sign > 0 else ctx.neg_c(code)
        codes[k] = ctx.add_c(codes.get(k, 0), code)
    return codes


def _parse_int(ctx, text: str, pos: int) -> int:
    try:
        return ctx.enc([int(text)])
    except ValueError:
        raise ParseError(f"bad coefficient term {text!r}", pos)


def _parse_coeff(ctx, text: str, pos: int) -> int:
    """The code of an integer, or of an expression in u: 'u', 'u^2', '2u',
    '(u+1)', ..."""
    if text.startswith("(") and text.endswith(")"):
        text, pos = text[1:-1], pos + 1
    acc = 0
    for k, code in _parse_terms(ctx, text, pos, "u", _parse_int).items():
        if k and ctx.d == 1:
            raise ParseError("'u' needs an extension field (d > 1)", pos)
        acc = ctx.add_c(acc, ctx.mul_c(code, ctx.pow_c(ctx.enc([0, 1]), k)))
    return acc


def parse_poly(ctx, text: str) -> PolyA:
    """Parse the polynomial grammar into an element of A = F_q[t]."""
    codes = _parse_terms(ctx, text.replace(" ", ""), 0, "t", _parse_coeff)
    n = max(codes) + 1 if codes else 0
    return PolyA(ctx, [codes.get(i, 0) for i in range(n)])


def parse_element(ctx, text: str) -> LaurentF:
    """Polynomial text, exact, or '@file.json' holding a Laurent literal."""
    if text.startswith("@"):
        with open(text[1:]) as fh:
            return LaurentF.from_json(ctx, json.load(fh))
    return LaurentF.from_poly(parse_poly(ctx, text))


# ---------------------------------------------------------------------------
# subcommands

def _config_from_args(args) -> Config:
    return Config(p=args.p, d=args.d,
                  modulus=tuple(args.modulus) if args.modulus else None,
                  prec=args.prec, trunc=args.trunc, basis=args.basis,
                  trials=args.trials, seed=args.seed, window=args.window,
                  k_max=args.k_max)


def _emit(obj):
    sys.stdout.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _horner(poly: PolyA):
    """The function x -> g(x) for the fixed polynomial g = poly, evaluated
    at Laurent values by Horner's rule."""
    def at(x):
        acc = LaurentF.zero(x.ctx)
        for code in reversed(poly.codes):
            acc = acc * x
            if code:
                acc = acc + LaurentF(x.ctx, 0, (code,), INF)
        return acc
    return at


def make_map(spec: str, cctx: CarlitzCtx, cfg: Config, h_file=None):
    """The map a spec names.  A dual's generator file is ``h_file``, and
    then everything after ``dual:`` is the inner spec; without it the file
    is the text after the last ':'.  A spec with text after a name that
    takes none is unknown."""
    plain = {"additive": AdditiveMap, "naive": NaiveMap,
             "twisted": TwistedMap}
    if spec in plain:
        return plain[spec](cctx, cfg.prec)
    kind, _, rest = spec.partition(":")
    if kind == "geometric":
        fn_kind, _, fn_rest = rest.partition(":")
        if rest == "identity":
            fn = lambda x: x
        elif rest == "carlitz-exp":
            fn = lambda x: cctx.exp(x, cfg.prec)
        elif fn_kind == "poly":
            fn = _horner(parse_poly(cctx.field, fn_rest))
        else:
            raise ParseError(f"unknown scalar function {rest!r}")
        return GeometricMap(cctx, cfg.prec, fn, fn_kind)
    if kind == "dual":
        if h_file:
            inner_spec, path = rest, h_file
        else:
            inner_spec, _, path = rest.rpartition(":")
        if not (inner_spec and path):
            raise ParseError(
                "dual map needs dual:<inner>:<H-file.json> or --H <file>")
        inner = make_map(inner_spec, cctx, cfg)
        with open(path) as fh:
            H = AdditiveSeries.from_json(cctx.field, json.load(fh))
        # the file specifies the generator polynomial itself; dual moments
        # need its composition inverse extended past the stored range
        H = AdditiveSeries(H.ctx, H.pcoeffs, exact=True)
        return DualMap(inner, AdditiveIso(H), prec=cfg.prec)
    raise ParseError(f"unknown map {spec!r}")


def cmd_field_info(args):
    cfg = _config_from_args(args)
    _emit(cfg.field_ctx().to_json())
    return 0


def cmd_carlitz(args):
    cfg = _config_from_args(args)
    cctx = cfg.carlitz_ctx()
    if args.carlitz_op == "dk":
        _emit(cctx.dk(args.k).to_json())
    elif args.carlitz_op == "ek":
        x = parse_element(cctx.field, args.x)
        _emit(cctx.ek(args.k, x).to_json())
    else:  # exp
        x = parse_element(cctx.field, args.x)
        _emit(cctx.exp(x, cfg.prec).to_json())
    return 0


def cmd_flow_apply(args):
    cfg = _config_from_args(args)
    cctx = cfg.carlitz_ctx()
    umap = make_map(args.map, cctx, cfg, h_file=args.H)
    x = parse_element(cctx.field, args.x)
    if args.series:
        with open(args.series) as fh:
            P = TruncSeries.from_json(cctx.field, json.load(fh))
    else:
        P = TruncSeries.monomial(cctx.field, 1, cfg.trunc)
    out = apply_flow(umap, x, P)
    _emit(out.to_json())
    return 0


def cmd_verify(args):
    names = list(CLAIMS) if args.claim == "all" else [args.claim]
    report = run_verify(names, _config_from_args(args))
    _emit(report)
    return 0 if report["passed"] else 1


def build_parser():
    ap = argparse.ArgumentParser(
        prog="umbral-flow",
        description="Exact flows on truncated power series over F_q((1/t)): "
                    "Carlitz-module quantities, umbral-map flow operators, "
                    "and verification suites.")
    ap.add_argument("--p", type=int, default=2)
    ap.add_argument("--d", type=int, default=1)
    ap.add_argument("--modulus", type=int, nargs="+", default=None,
                    help="monic irreducible modulus coefficients, low first")
    ap.add_argument("--prec", type=int, default=64)
    ap.add_argument("--trunc", type=int, default=16)
    ap.add_argument("--basis", type=int, default=None)
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--window", type=int, default=3)
    ap.add_argument("--k-max", type=int, default=None, dest="k_max")

    sub = ap.add_subparsers(dest="command", required=True)
    sub.add_parser("field-info", help="print the field context")

    car = sub.add_parser("carlitz", help="Carlitz-module quantities")
    carsub = car.add_subparsers(dest="carlitz_op", required=True)
    dk = carsub.add_parser("dk")
    dk.add_argument("--k", type=int, required=True)
    ek = carsub.add_parser("ek")
    ek.add_argument("--k", type=int, required=True)
    ek.add_argument("--x", required=True)
    ex = carsub.add_parser("exp")
    ex.add_argument("--x", required=True)

    flow = sub.add_parser("flow", help="apply a flow operator")
    flowsub = flow.add_subparsers(dest="flow_op", required=True)
    fap = flowsub.add_parser("apply")
    fap.add_argument("--map", required=True,
                     help="additive|naive|twisted|geometric:<fn>|"
                          "dual:<inner>:<H-file>|dual:<inner> with --H")
    fap.add_argument("--x", required=True)
    fap.add_argument("--series", help="TruncSeries JSON file (default: T)")
    fap.add_argument("--H", dest="H", default=None,
                     help="generator JSON file for dual maps")

    ver = sub.add_parser("verify", help="run verification claims")
    ver.add_argument("claim", help="claim id or 'all': " + ", ".join(CLAIMS))

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.command == "field-info":
            return cmd_field_info(args)
        if args.command == "carlitz":
            return cmd_carlitz(args)
        if args.command == "flow":
            return cmd_flow_apply(args)
        if args.command == "verify":
            return cmd_verify(args)
        raise UnknownClaimError(args.command)
    except (UmbralFlowError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
