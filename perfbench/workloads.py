"""The benchmark's workloads: fixed groups of verification claims, each at a
fixed field and at the acceptance shape (prec 64, trunc 16, basis 12).

Why each workload exists is written down in README.md next to this file.
"""

from __future__ import annotations

from dataclasses import dataclass

#: the seed the stored reference results (reference.json) were made at
REFERENCE_SEED = 0

SHAPE = {"prec": 64, "trunc": 16, "basis": 12}

F2 = {"p": 2, "d": 1, "modulus": None}
F4 = {"p": 2, "d": 2, "modulus": (1, 1, 1)}  # F_2[u]/(u^2+u+1)

FLOW_CLAIMS = ("taylor", "naive-flow", "boundedness", "power-rule",
               "flow-composition", "binomial-twisted", "example58")
DUALITY_CLAIMS = ("duality", "geometric", "iso-roundtrip", "dual-binomial",
                  "example57")


@dataclass(frozen=True)
class Workload:
    name: str
    field: dict
    claims: tuple
    trials: int
    #: claims that fail at the parent code.  They run at REFERENCE_SEED in
    #: every pass, so that they fail the same way in every run, and their
    #: whole report is checked against reference.json.  They count in
    #: pass_ratio and fail_ratio; a pass whose report matches the reference
    #: is correct output, so they do not count as failed operations.
    known_failures: tuple = ()

    def config_kwargs(self, seed: int) -> dict:
        return dict(self.field, **SHAPE, trials=self.trials, seed=seed)


WORKLOADS = {w.name: w for w in (
    Workload("duality-q2", F2, DUALITY_CLAIMS, trials=20),
    Workload("flows-q2", F2, FLOW_CLAIMS, trials=80),
    Workload("flows-q4", F4, FLOW_CLAIMS, trials=20,
             known_failures=("binomial-twisted",)),
)}

#: the twelve claims of `verify all`, which the workloads split between them
ALL_CLAIMS = FLOW_CLAIMS + DUALITY_CLAIMS
