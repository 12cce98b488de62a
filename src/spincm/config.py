"""Run-time configuration shared by the CLI and the verification suite."""

from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import ConfigError
from .phase import EPS_COLL, EPS_CONSTR, _positive_finite, read_json


@dataclass
class Config:
    """The numerical settings: the collision floor, the constraint
    tolerance and the grid step. They decide what may be run; what passes
    is verify.DEFAULT_THRESHOLDS, which is pinned and no setting."""

    eps_coll: float = EPS_COLL
    eps_constr: float = EPS_CONSTR
    #: the grid step of evolve's samples and of the verify suite's, and the
    #: first DOP853 step of each of their flows
    dt: float = 1e-3

    def __post_init__(self):
        for f in fields(self):
            _positive_finite(getattr(self, f.name), f.name)

    @classmethod
    def load(cls, path) -> "Config":
        """Config from a JSON object file. A file that phase.read_json
        refuses, an unknown key or an invalid value raises ConfigError
        naming the file."""
        return read_json(path, cls._from_dict, ConfigError)

    @classmethod
    def _from_dict(cls, data):
        if not isinstance(data, dict):
            raise ValueError("top level must be a JSON object")
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown key(s): {', '.join(unknown)}")
        return cls(**data)
