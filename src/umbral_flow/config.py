"""Run configuration shared by the CLI and the verification suites."""

from __future__ import annotations

import os
from dataclasses import dataclass

from .carlitz import CarlitzCtx
from .fq import DEFAULT_ENUM_CAP, field as make_field

ENUM_CAP_ENV = "UMBRAL_FLOW_CAP"


@dataclass
class Config:
    p: int = 2
    d: int = 1
    modulus: tuple | None = None
    prec: int = 64          # Laurent working precision N
    trunc: int = 16         # series truncation M
    basis: int | None = None  # monomial basis size J; default min(12, trunc)
    trials: int = 200
    seed: int = 0
    cap: int = DEFAULT_ENUM_CAP
    window: int = 3
    k_max: int | None = None  # geometric-witness scan depth; default q^2

    def __post_init__(self):
        if self.prec < 8:
            raise ValueError("prec must be >= 8")
        if self.trunc < 4:
            raise ValueError("trunc must be >= 4")
        if self.basis is None:
            self.basis = min(12, self.trunc)
        if not 1 <= self.basis <= self.trunc:
            raise ValueError("basis must be in 1..trunc")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.k_max is not None and self.k_max < 2:
            # the geometricity scan starts at k = 2
            raise ValueError("k_max must be >= 2")
        env_cap = os.environ.get(ENUM_CAP_ENV)
        if env_cap:
            self.cap = int(env_cap)

    def field_ctx(self):
        return make_field(self.p, self.d, self.modulus)

    def carlitz_ctx(self):
        return CarlitzCtx(self.field_ctx(), cap=self.cap,
                          window=self.window)

    @property
    def q(self):
        return self.p ** self.d

    @property
    def geom_k_max(self):
        return self.k_max if self.k_max is not None else self.q ** 2

    def to_json(self):
        return {
            "p": self.p, "d": self.d,
            "modulus": list(self.modulus) if self.modulus else None,
            "prec": self.prec, "trunc": self.trunc, "basis": self.basis,
            "trials": self.trials, "seed": self.seed, "cap": self.cap,
            "window": self.window, "k_max": self.geom_k_max,
        }
