"""The benchmark's seed-0 gate, run in-process: each workload's claims at
the reference seed must give reports that match ``perfbench/reference.json``
on every field it holds, known failures included.  A report that drifts
fails here rather than in a benchmark run.  The workload table is loaded
from its file, which imports only ``dataclasses``; nothing under perfbench/
is changed."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from umbral_flow.config import Config
from umbral_flow.verify import run_claim

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses looks the defining module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


_WORKLOADS = _load_workloads()
_REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())


def _fields_match(ref, got):
    # the benchmark's rule: every field the reference holds is present and
    # equal, lists of the same length; fields added later are ignored
    if isinstance(ref, dict):
        return isinstance(got, dict) and all(
            k in got and _fields_match(v, got[k]) for k, v in ref.items())
    if isinstance(ref, list):
        return (isinstance(got, list) and len(ref) == len(got)
                and all(_fields_match(a, b) for a, b in zip(ref, got)))
    return ref == got


def test_reference_is_at_the_reference_seed():
    assert _REFERENCE["seed"] == _WORKLOADS.REFERENCE_SEED


@pytest.mark.parametrize("name", sorted(_WORKLOADS.WORKLOADS))
def test_workload_reports_match_reference(name, monkeypatch):
    monkeypatch.delenv("UMBRAL_FLOW_CAP", raising=False)
    workload = _WORKLOADS.WORKLOADS[name]
    reference = _REFERENCE["workloads"][name]
    cfg = Config(**workload.config_kwargs(_WORKLOADS.REFERENCE_SEED))
    for claim in workload.claims:
        report = run_claim(claim, cfg).to_json()
        assert _fields_match(reference[claim], report), (name, claim)
        assert report["passed"] or claim in workload.known_failures
