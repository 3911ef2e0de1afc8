import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from umbral_flow.cli import main, make_map, parse_element, parse_poly
from umbral_flow.config import Config
from umbral_flow.errors import ParseError
from umbral_flow.fq import FqElem, PolyA, field
from umbral_flow.laurent import LaurentF


def test_parse_poly_basic(F2):
    t = PolyA.t(F2)
    assert parse_poly(F2, "t^2+t") == t * t + t
    assert parse_poly(F2, "0").is_zero()
    assert parse_poly(F2, "2t").is_zero()  # 2 = 0 in F_2
    assert parse_poly(F2, "t^3+t+1") == t ** 3 + t + PolyA.one(F2)


def test_parse_poly_coefficients(F3):
    t = PolyA.t(F3)
    got = parse_poly(F3, "2*t^2+t+2")
    assert got == t * t + t * t + t + PolyA.from_coeffs(F3, [2])
    # minus signs reduce mod p
    assert parse_poly(F3, "t-1") == t + PolyA.from_coeffs(F3, [2])


def test_parse_poly_extension_field(F4):
    u = FqElem.from_coeffs(F4, (0, 1))
    got = parse_poly(F4, "(u+1)*t^2+u")
    expect = PolyA.from_coeffs(F4, [u, FqElem(F4, 0), u + FqElem(F4, 1)])
    assert got == expect
    got2 = parse_poly(F4, "u^2*t")
    assert got2.coeff(1) == u * u


def test_parse_errors(F2, F4):
    with pytest.raises(ParseError):
        parse_poly(F2, "")
    with pytest.raises(ParseError):
        parse_poly(F2, "t^x")
    with pytest.raises(ParseError):
        parse_poly(F2, "w+1")
    with pytest.raises(ParseError):
        parse_poly(F2, "(t+1")
    # a bad exponent or coefficient inside a u-expression is a ParseError
    # with a position too, never a bare ValueError from int()
    for text, field_ctx in (("u*t", F2), ("u^x*t", F4), ("xu*t", F4),
                            ("()*t", F4)):
        with pytest.raises(ParseError) as err:
            parse_poly(field_ctx, text)
        assert err.value.position is not None


def test_parse_element_json_file(tmp_path, F2):
    x = LaurentF(F2, -1, [1, 0, 1], 9)
    path = tmp_path / "x.json"
    path.write_text(json.dumps(x.to_json()))
    got = parse_element(F2, "@" + str(path))
    assert got == x


def test_make_map_specs(cc2):
    cfg = Config(trials=2)
    assert make_map("additive", cc2, cfg).name == "additive"
    assert make_map("twisted", cc2, cfg).name == "twisted"
    assert make_map("geometric:identity", cc2, cfg).name == "geometric:identity"
    assert make_map("geometric:poly:t^2", cc2, cfg).name == "geometric:poly"
    # each geometric function's first moment is its value at x
    x = LaurentF(cc2.field, 1, [1, 0, 1], 40)
    one = LaurentF.one(cc2.field)
    for spec, want in (("identity", x), ("poly:t^2+1", x * x + one),
                       ("carlitz-exp", cc2.exp(x, cfg.prec))):
        got = make_map("geometric:" + spec, cc2, cfg).moment(x, 1)
        assert got == want
    with pytest.raises(ParseError):
        make_map("bogus", cc2, cfg)


def test_cli_field_info(capsys):
    rc = main(["--p", "3", "field-info"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["p"] == 3 and out["q"] == 3


def test_cli_carlitz_dk(capsys):
    rc = main(["carlitz", "dk", "--k", "1"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["coeffs"] == [[0], [1], [1]]  # t^2 + t


def test_cli_carlitz_exp_domain_error(capsys):
    rc = main(["carlitz", "exp", "--x", "t"])
    assert rc == 2


def test_cli_flow_apply_matches_shift(capsys, tmp_path, cc2):
    from umbral_flow.series import TruncSeries, taylor_shift

    P = TruncSeries.monomial(cc2.field, 3, 8)
    series_path = tmp_path / "p.json"
    series_path.write_text(json.dumps(P.to_json()))
    rc = main(["--trunc", "8", "flow", "apply", "--map", "additive",
               "--x", "t^2+t", "--series", str(series_path)])
    assert rc == 2  # t^2+t is not admissible for the additive map


def test_cli_flow_apply_admissible(capsys, tmp_path, cc2):
    from umbral_flow.series import TruncSeries, taylor_shift

    P = TruncSeries.monomial(cc2.field, 3, 8)
    series_path = tmp_path / "p.json"
    series_path.write_text(json.dumps(P.to_json()))
    x_path = tmp_path / "x.json"
    x = LaurentF(cc2.field, 1, [1, 1], 32)
    x_path.write_text(json.dumps(x.to_json()))
    rc = main(["--trunc", "8", "flow", "apply", "--map", "twisted",
               "--x", "@" + str(x_path), "--series", str(series_path)])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["trunc"] == 8


def test_cli_verify_unknown_claim(capsys):
    assert main(["verify", "nope"]) == 2


def test_cli_verify_runs_and_reports(capsys):
    rc = main(["--trials", "8", "--prec", "32", "--trunc", "8", "--basis", "6",
               "verify", "taylor"])
    captured = capsys.readouterr()
    assert rc == 0
    report = json.loads(captured.out)
    assert report["passed"] is True
    assert report["claims"][0]["claim"] == "taylor"
    assert "pass" in captured.err


def test_cli_verify_deterministic_bytes(capsys):
    args = ["--trials", "6", "--prec", "24", "--trunc", "8", "--basis", "6",
            "--seed", "5", "verify", "example58"]
    outs = []
    for _ in range(2):
        rc = main(args)
        assert rc == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_cli_flow_apply_dual_map(capsys, tmp_path, cc2):
    from umbral_flow.verify import ex58_series

    H = ex58_series(cc2, 3, 64)
    hpath = tmp_path / "h.json"
    hpath.write_text(json.dumps(H.to_json()))
    rc = main(["--trunc", "8", "flow", "apply",
               "--map", f"dual:twisted:{hpath}", "--x", "t"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["trunc"] == 8


def test_enum_cap_env(monkeypatch):
    monkeypatch.setenv("UMBRAL_FLOW_CAP", "4")
    cfg = Config(trials=2)
    assert cfg.cap == 4


def test_cli_verify_all_report_bytes(capsys, monkeypatch):
    # the saved report of `--trials 8 verify all`; any change in its bytes is
    # a behaviour change of some claim
    monkeypatch.delenv("UMBRAL_FLOW_CAP", raising=False)
    expected = (Path(__file__).parent / "data" /
                "verify_all_q2_t8.json").read_text()
    assert main(["--trials", "8", "verify", "all"]) == 0
    assert capsys.readouterr().out == expected


def test_cli_example58_at_a_wide_window_ends(capsys):
    # a window of 14 reaches e_k past the degree of every point, each an
    # exact zero known without a product over q^k factors
    assert main(["--trials", "8", "--window", "14", "verify",
                 "example58"]) == 0
    assert json.loads(capsys.readouterr().out)["claims"][0]["passed"]


_BEYOND_F2 = {
    "q3_t8": ["--p", "3", "--trials", "8"],
    "q4_t4": ["--d", "2", "--modulus", "1", "1", "1", "--trials", "4"],
    "q8_t2": ["--d", "3", "--modulus", "1", "1", "0", "1", "--trials", "2"],
}

_FLOW_CLAIMS = ("taylor", "naive-flow", "boundedness", "power-rule",
                "flow-composition", "binomial-twisted", "example58")


@pytest.mark.parametrize("tag,claim", [
    (tag, claim) for tag in sorted(_BEYOND_F2)
    for claim in ("duality", "example57", "geometric", "iso-roundtrip")
] + [("q3_t8", "dual-binomial")])
def test_cli_verify_report_bytes_beyond_f2(capsys, monkeypatch, tag, claim):
    # the dual-map claims over F_3, F_4 and F_8, where p-power indexing and
    # the d > 1 interleave differ from F_2; saved reports, compared byte for
    # byte.  Only the F_3 dual-binomial report is frozen: over F_4 the claim
    # fails on a precision shortfall (exit 1, ROADMAP item 2).
    monkeypatch.delenv("UMBRAL_FLOW_CAP", raising=False)
    expected = (Path(__file__).parent / "data" /
                f"verify_{claim}_{tag}.json").read_text()
    assert main(_BEYOND_F2[tag] + ["verify", claim]) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("tag,claim", [
    (tag, claim) for tag in ("q3_t8", "q4_t4") for claim in _FLOW_CLAIMS
] + [("q8_t2", claim) for claim in _FLOW_CLAIMS[:5]])
def test_cli_verify_flow_report_bytes_beyond_f2(capsys, monkeypatch, tag,
                                                claim):
    # the flow claims over F_3, F_4 and F_8, where convolutions and the D_k
    # products run on d > 1 or odd-p arithmetic; saved reports, compared byte
    # for byte.  binomial-twisted over F_4 is a known failure (exit 1): its
    # failing report is frozen too.  Over F_8 binomial-twisted fails as well
    # (ROADMAP item 2) and example58 takes about 5 s, so neither is frozen
    # there.
    monkeypatch.delenv("UMBRAL_FLOW_CAP", raising=False)
    expected = (Path(__file__).parent / "data" /
                f"verify_{claim}_{tag}.json").read_text()
    rc = 1 if (claim, tag) == ("binomial-twisted", "q4_t4") else 0
    assert main(_BEYOND_F2[tag] + ["verify", claim]) == rc
    assert capsys.readouterr().out == expected


def test_cli_dual_binomial_f8_ends(tmp_path):
    # the dual-binomial generator counts q-powers: over F_8 it once counted
    # p-powers, and Frobenius powers spread the codes p^(d*i) apart until the
    # run asked for about 2^42 bytes.  The claim must end, with a report or
    # an error, and never with a traceback
    argv = _BEYOND_F2["q8_t2"] + ["--prec", "32", "--trunc", "8",
                                  "verify", "dual-binomial"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(Path(__file__).parents[1] / "src"),
                    os.environ.get("PYTHONPATH")) if p))
    env.pop("UMBRAL_FLOW_CAP", None)
    proc = subprocess.run([sys.executable, "-m", "umbral_flow.cli", *argv],
                          capture_output=True, text=True, timeout=60,
                          cwd=tmp_path, env=env)
    assert proc.returncode in (0, 1, 2)
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("flag,literal", [
    ("--x", {"coeffs": [[1]], "prec": None}),          # Laurent without "v"
    ("--x", {"v": "a", "coeffs": [[1]], "prec": None}),  # non-integer "v"
    ("--series", {"trunc": 4}),                        # series without "coeffs"
])
def test_cli_bad_json_literal_exits_2(capsys, tmp_path, flag, literal):
    path = tmp_path / "lit.json"
    path.write_text(json.dumps(literal))
    args = ["--trunc", "8", "flow", "apply", "--map", "twisted", "--x", "t"]
    if flag == "--x":
        args[-1] = "@" + str(path)
    else:
        args += ["--series", str(path)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["carlitz", "dk", "--k", "-2"],
    ["carlitz", "dk", "--k", "40"],  # past the enumeration cap: no work done
    ["--trials", "0", "verify", "taylor"],
    ["--basis", "0", "verify", "taylor"],
    ["--window", "0", "verify", "example58"],
    ["--k-max", "0", "verify", "geometric"],
])
def test_cli_bad_k_and_config_exit_2(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["--p", "257", "field-info"],
    ["--p", "257", "verify", "taylor"],
])
def test_cli_field_over_256_exits_2(capsys, argv):
    # codes are stored one per byte, so q = p^d must be <= 256
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_cli_duality_f9_exits_0(capsys):
    # over F_9 the twisted leg's points have support 81, past eval_len 80;
    # the dual sums run to the support, and the dual rule admits the points
    argv = ["--p", "3", "--d", "2", "--modulus", "2", "2", "1",
            "--trials", "8", "verify", "duality"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


def test_cli_dual_binomial_degree_4_over_f3_is_not_refused(capsys):
    # seed 7 draws degree-4 points over F_3, support 3^5 = 243, past
    # eval_len 192: the truncated sums once made the scan refuse a point
    # (exit 2).  The claim now runs and reports its agreement
    argv = ["--p", "3", "--trials", "8", "--seed", "7",
            "verify", "dual-binomial"]
    assert main(argv) != 2
    (claim,) = json.loads(capsys.readouterr().out)["claims"]
    assert "error" not in claim and claim["trials"] == 28


def test_cli_claim_error_keeps_other_reports(capsys, monkeypatch):
    # a claim that raises on valid input is that claim's failure: the run
    # goes on, every other claim keeps its own report, and the exit is 1
    from umbral_flow import verify
    from umbral_flow.errors import PreconditionFailedError

    def broken(cfg):
        raise PreconditionFailedError("injected")

    monkeypatch.delenv("UMBRAL_FLOW_CAP", raising=False)
    monkeypatch.setitem(verify.CLAIMS, "naive-flow", broken)
    shape = ["--trials", "8", "--prec", "32", "--trunc", "8", "--basis", "6"]
    assert main(shape + ["verify", "all"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is False
    assert len(report["claims"]) == len(verify.CLAIMS)
    cfg = Config(trials=8, prec=32, trunc=8, basis=6)
    for name, entry in zip(verify.CLAIMS, report["claims"]):
        if name == "naive-flow":
            assert entry == {"claim": "naive-flow", "passed": False,
                             "error": "PreconditionFailedError: injected"}
        else:
            assert entry == verify.run_claim(name, cfg).to_json(), name


def test_cli_verify_all_over_f256_ends(tmp_path):
    # over F_256 most claims pass the enumeration cap; each such claim is
    # a failed entry, and the run ends promptly, small, and without a
    # traceback
    import resource

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    argv = ["--d", "8", "--modulus", "1", "1", "0", "1", "1", "0", "0", "0",
            "1", "--trials", "4", "verify", "all"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(Path(__file__).parents[1] / "src"),
                    os.environ.get("PYTHONPATH")) if p))
    env.pop("UMBRAL_FLOW_CAP", None)
    proc = subprocess.run([sys.executable, "-m", "umbral_flow.cli", *argv],
                          capture_output=True, text=True, timeout=120,
                          cwd=tmp_path, env=env, preexec_fn=limit_memory)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    claims = json.loads(proc.stdout)["claims"]
    assert len(claims) == 12
    assert any("EnumerationCapExceededError" in c.get("error", "")
               for c in claims)
