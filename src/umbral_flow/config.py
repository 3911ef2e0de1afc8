"""Run configuration shared by the CLI and the verification suites."""

from __future__ import annotations

import os

from .carlitz import CarlitzCtx
from .fq import DEFAULT_ENUM_CAP, field as make_field

ENUM_CAP_ENV = "UMBRAL_FLOW_CAP"


class Config:
    """The run's parameters, validated in the order the CLI reports them.

    prec is the Laurent working precision N, trunc the series truncation M,
    basis the monomial basis size J (default min(12, trunc)) and k_max the
    geometric-witness scan depth (default q^2).
    """

    def __init__(self, p: int = 2, d: int = 1, modulus: tuple | None = None,
                 prec: int = 64, trunc: int = 16, basis: int | None = None,
                 trials: int = 200, seed: int = 0,
                 cap: int = DEFAULT_ENUM_CAP, window: int = 3,
                 k_max: int | None = None):
        if prec < 8:
            raise ValueError("prec must be >= 8")
        if trunc < 4:
            raise ValueError("trunc must be >= 4")
        if basis is None:
            basis = min(12, trunc)
        if not 1 <= basis <= trunc:
            raise ValueError("basis must be in 1..trunc")
        if trials < 1:
            raise ValueError("trials must be >= 1")
        if window < 1:
            raise ValueError("window must be >= 1")
        if k_max is not None and k_max < 2:
            # the geometricity scan starts at k = 2
            raise ValueError("k_max must be >= 2")
        env_cap = os.environ.get(ENUM_CAP_ENV)
        if env_cap:
            cap = int(env_cap)
        self.p, self.d, self.modulus = p, d, modulus
        self.prec, self.trunc, self.basis = prec, trunc, basis
        self.trials, self.seed, self.cap = trials, seed, cap
        self.window, self.k_max = window, k_max

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
