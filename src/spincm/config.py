"""Run-time configuration shared by the CLI and the verification suite."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

from .errors import ConfigError
from .phase import EPS_COLL, EPS_CONSTR

#: residual threshold of every verification-suite check, by check name
DEFAULT_THRESHOLDS = {
    "constraint": 1e-12,
    "r_identity": 1e-12,
    "trace_lr": 1e-12,
    "h2_direct": 1e-12,
    "gradient_fd": 1e-6,
    "involution": 1e-8,
    "dual_derivation": 1e-12,
    "lax_residual": 1e-7,
    "conservation": 1e-8,
    "constraint_drift": 1e-9,
    "commutativity": 1e-6,
    "rank1_residues": 1e-12,
    "w1_v_consistency": 1e-6,
    "t1_shift": 1e-12,
    "linear_problem": 1e-6,
    "residue_identity": 1e-10,
    "first_order_cancellation": 1e-12,
    "n1_reduction": 1e-10,
}


@dataclass
class Config:
    """Tolerances, integrator defaults and suite thresholds."""

    eps_coll: float = EPS_COLL
    eps_constr: float = EPS_CONSTR
    dt: float = 1e-3
    method: str = "RK4"
    thresholds: dict = field(default_factory=lambda: dict(DEFAULT_THRESHOLDS))

    def __post_init__(self):
        for name in ("eps_coll", "eps_constr", "dt"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.method not in ("RK4", "RK45"):
            raise ValueError("method must be RK4 or RK45")
        for key, val in self.thresholds.items():
            if val <= 0:
                raise ValueError(f"threshold {key} must be positive")

    @classmethod
    def load(cls, path) -> "Config":
        """Config from a JSON object file. An unreadable file, malformed
        JSON, an unknown key or an invalid value raises ConfigError naming
        the file."""
        try:
            with open(path) as fh:
                data = json.load(fh)
            if not isinstance(data, dict):
                raise ValueError("top level must be a JSON object")
            thresholds = data.pop("thresholds", {})
            if not isinstance(thresholds, dict):
                raise ValueError("thresholds must be a JSON object")
            known = {f.name for f in fields(cls)}
            unknown = sorted(set(data) - known) + [
                f"thresholds.{k}" for k in sorted(set(thresholds) - set(DEFAULT_THRESHOLDS))
            ]
            if unknown:
                raise ValueError(f"unknown key(s): {', '.join(unknown)}")
            return cls(thresholds={**DEFAULT_THRESHOLDS, **thresholds}, **data)
        except (OSError, ValueError, TypeError) as exc:
            raise ConfigError(f"{path}: {exc}") from exc
