"""Acceptance suite: every verification criterion at its stated parameters
(q = 2, N = 64, M = 16, J = 12, 200-trial budget, seed 0), one line per
criterion.  Criteria with pinned parameters of their own (precision 128 for
the binomial pair, precision 48 for the closed identity) carry them inside
their claim functions.

One `verify all` run at that config serves every criterion, and its stdout
must equal the saved report byte for byte: any change in those bytes is a
behaviour change of some claim.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from umbral_flow.cli import main
from umbral_flow.config import Config
from umbral_flow.verify import run_verify

ARGV = ["--p", "2", "--prec", "64", "--trunc", "16", "--basis", "12",
        "--trials", "200", "--seed", "0", "verify", "all"]
SAVED = Path(__file__).parent / "data" / "verify_all_q2_t200.json"


@pytest.fixture(scope="module")
def verify_all():
    """(rc, stdout) of one `verify all` at the acceptance config, run at the
    default enumeration cap."""
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as m, contextlib.redirect_stdout(out):
        m.delenv("UMBRAL_FLOW_CAP", raising=False)
        rc = main(ARGV)
    return rc, out.getvalue()


@pytest.fixture(scope="module")
def claims(verify_all):
    report = json.loads(verify_all[1])
    return {c["claim"]: c for c in report["claims"]}


def _run(claims, name):
    rep = claims[name]
    print(f"[{'PASS' if rep['passed'] else 'FAIL'}] {name}: "
          f"trials={rep['trials']} "
          f"min_agreement={rep['min_agreement_valuation']}")
    return rep


def test_verify_all_report_bytes(verify_all):
    rc, out = verify_all
    assert rc == 0
    assert out == SAVED.read_text()


def test_criterion_01_taylor(claims):
    rep = _run(claims, "taylor")
    assert rep["passed"] and rep["trials"] == 200
    assert rep["min_agreement_valuation"] >= 64


def test_criterion_02_naive_flow(claims):
    rep = _run(claims, "naive-flow")
    assert rep["passed"] and rep["trials"] == 100
    assert rep["min_agreement_valuation"] >= 64


def test_criterion_03_boundedness(claims):
    rep = _run(claims, "boundedness")
    assert rep["passed"] and rep["trials"] == 300  # three maps, 100 trials each
    assert rep["min_agreement_valuation"] >= 0  # zero violations of the bound


def test_criterion_04_power_rule(claims):
    rep = _run(claims, "power-rule")
    assert rep["passed"]
    assert rep["params"]["trials"] == 50
    assert rep["min_agreement_valuation"] >= 64


def test_criterion_05_binomial_twisted(claims):
    rep = _run(claims, "binomial-twisted")
    assert rep["passed"]
    assert rep["params"]["pairs"] == 20 and rep["params"]["prec"] == 128
    assert rep["min_agreement_valuation"] >= 128


def test_criterion_06_flow_composition(claims):
    rep = _run(claims, "flow-composition")
    assert rep["passed"] and rep["trials"] == 50
    assert rep["min_agreement_valuation"] >= 64


def test_criterion_07_duality(claims):
    rep = _run(claims, "duality")
    assert rep["passed"]
    assert rep["params"]["x_per_leg"] == 50
    assert rep["params"]["perturbed_trials"] == 20
    assert rep["notes"][-1]["perturbations_undetected"] == 0


def test_criterion_08_dual_binomial(claims):
    rep = _run(claims, "dual-binomial")
    assert rep["passed"]
    assert rep["params"]["pairs"] == 20 and rep["params"]["prec"] == 128
    assert rep["min_agreement_valuation"] >= 128


def test_criterion_09_geometric(claims):
    rep = _run(claims, "geometric")
    assert rep["passed"]
    assert rep["params"]["agree_trials"] == 50
    assert rep["params"]["differ_trials"] == 11  # x = 1 plus ten nonzero polys


def test_criterion_10_example58(claims):
    rep = _run(claims, "example58")
    assert rep["passed"] and rep["trials"] == 4
    assert rep["params"]["prec"] == 48
    assert rep["min_agreement_valuation"] >= 48


def test_criterion_11_iso_roundtrip(claims):
    rep = _run(claims, "iso-roundtrip")
    assert rep["passed"]


def test_criterion_13_example57(claims):
    rep = _run(claims, "example57")
    assert rep["passed"] and rep["trials"] == 20
    assert rep["min_agreement_valuation"] >= 64


def test_criterion_12_determinism():
    cfg_args = dict(p=2, d=1, prec=64, trunc=16, basis=12, trials=20, seed=7)
    blobs = []
    for _ in range(3):
        report = run_verify(["taylor", "example58"], Config(**cfg_args))
        blobs.append(json.dumps(report, sort_keys=True).encode())
    ok = blobs[0] == blobs[1] == blobs[2]
    print(f"[{'PASS' if ok else 'FAIL'}] determinism: "
          f"{len(blobs[0])} report bytes x3 identical={ok}")
    assert ok
