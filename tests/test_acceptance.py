"""Acceptance suite: every verification criterion at its stated parameters
(q = 2, N = 64, M = 16, J = 12, 200-trial budget, seed 0), one line per
criterion.  Criteria with pinned parameters of their own (precision 128 for
the binomial pair, precision 48 for the closed identity) carry them inside
their claim functions.
"""

import json
import time

import pytest

from umbral_flow.config import Config
from umbral_flow.verify import run_claim, run_verify


def _cfg():
    return Config(p=2, d=1, prec=64, trunc=16, basis=12, trials=200, seed=0)


def _run(name):
    cfg = _cfg()
    t0 = time.time()
    rep = run_claim(name, cfg)
    dt = time.time() - t0
    status = "PASS" if rep.passed else "FAIL"
    print(f"[{status}] {name}: trials={rep.trials} "
          f"min_agreement={rep.min_agreement_valuation} ({dt:.1f}s)")
    return rep


def test_criterion_01_taylor():
    rep = _run("taylor")
    assert rep.passed and rep.trials == 200
    assert rep.min_agreement_valuation >= 64


def test_criterion_02_naive_flow():
    rep = _run("naive-flow")
    assert rep.passed and rep.trials == 100
    assert rep.min_agreement_valuation >= 64


def test_criterion_03_boundedness():
    rep = _run("boundedness")
    assert rep.passed and rep.trials == 300  # three maps, 100 trials each
    assert rep.min_agreement_valuation >= 0  # zero violations of the bound


def test_criterion_04_power_rule():
    rep = _run("power-rule")
    assert rep.passed
    assert rep.params["trials"] == 50
    assert rep.min_agreement_valuation >= 64


def test_criterion_05_binomial_twisted():
    rep = _run("binomial-twisted")
    assert rep.passed
    assert rep.params["pairs"] == 20 and rep.params["prec"] == 128
    assert rep.min_agreement_valuation >= 128


def test_criterion_06_flow_composition():
    rep = _run("flow-composition")
    assert rep.passed and rep.trials == 50
    assert rep.min_agreement_valuation >= 64


def test_criterion_07_duality():
    rep = _run("duality")
    assert rep.passed
    assert rep.params["x_per_leg"] == 50
    assert rep.params["perturbed_trials"] == 20
    assert rep.notes[-1]["perturbations_undetected"] == 0


def test_criterion_08_dual_binomial():
    rep = _run("dual-binomial")
    assert rep.passed
    assert rep.params["pairs"] == 20 and rep.params["prec"] == 128
    assert rep.min_agreement_valuation >= 128


def test_criterion_09_geometric():
    rep = _run("geometric")
    assert rep.passed
    assert rep.params["agree_trials"] == 50
    assert rep.params["differ_trials"] == 11  # x = 1 plus ten nonzero polys


def test_criterion_10_example58():
    rep = _run("example58")
    assert rep.passed and rep.trials == 4
    assert rep.params["prec"] == 48
    assert rep.min_agreement_valuation >= 48


def test_criterion_11_iso_roundtrip():
    rep = _run("iso-roundtrip")
    assert rep.passed


def test_criterion_13_example57():
    rep = _run("example57")
    assert rep.passed and rep.trials == 20
    assert rep.min_agreement_valuation >= 64


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
