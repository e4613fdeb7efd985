"""YAML run configuration.

A sampler setting has a config key when its callers need different values;
a value they all share is a constant of the module that reads it.  A
preset's physics are constants of its builder, and ``model.mesh`` sets only
its sizes.  The shipped files under configs/ reproduce the three built-in
experiments end to end.

This module owns the whole config schema, the sampler section included
(``SmcConfig``, the surrogate default and the Gaussian-reference weight);
``smc``, ``weights`` and ``localrb`` import those names from here.  It
imports no sampler module, so parsing a config and building its model load
only the forward problem.  An unknown section or key is an error, not a
silent default, and so is a count that is not an integer or a float field
that is not a finite number.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .forward import ObservationSet, assemble, gen_data
from .forward.presets import MESH_SIZES

DEFAULT_NEIGHBORS = 5


def _check_counts(section: str, values: dict, **least: int) -> None:
    """Check each count values[key] to be an integer >= least[key] and store
    it as an int; a float, string or bool would run truncated."""
    for key, low in least.items():
        value = values[key]
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{section}.{key} must be an integer, not {value!r}")
        if value < low:
            raise ValueError(f"{section}.{key} must be >= {low}, not {value}")
        values[key] = int(value)


def _check_reals(section: str, values: dict, *keys: str) -> None:
    """Check each values[key] to be a finite real number; a NaN passes the
    range checks, an inf runs without a word, and a string or a bool fails
    late or not at all."""
    for key in keys:
        value = values[key]
        if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                or not math.isfinite(value)):
            raise ValueError(f"{section}.{key} must be a finite number, not {value!r}")


def gaussian_reference(eps_std: float) -> float:
    if eps_std <= 0:
        raise ValueError("eps_std must be positive")
    return 1.0 / (2.0 * eps_std**2)


@dataclass
class SmcConfig:
    particles: int = 100
    total_weight: float = 1.0
    mutation_steps: int = 5
    e_thre_mode: str = "loss_std_fraction"  # or "fixed"
    e_thre_value: float = 1e-3
    max_iterations: int = 50
    seed: int = 0
    neighbor_count: int = DEFAULT_NEIGHBORS

    def __post_init__(self):
        # 4 particles: the ESS target, half of them, is then at least 2
        _check_counts("smc", vars(self), particles=4, mutation_steps=0, max_iterations=1,
                      seed=0, neighbor_count=0)
        _check_reals("smc", vars(self), "total_weight", "e_thre_value")
        if self.total_weight < 0:
            raise ValueError("total_weight must be >= 0")
        if self.e_thre_mode not in ("fixed", "loss_std_fraction"):
            raise ValueError("e_thre mode must be 'fixed' or 'loss_std_fraction'")
        if not self.e_thre_value > 0:
            raise ValueError("e_thre_value must be > 0")


@dataclass
class DataConfig:
    truth: list | None = None
    noise_pct: float = 0.10
    n_obs: int = 1
    csv: str | None = None      # load observations instead of generating

    def __post_init__(self):
        _check_counts("data", vars(self), n_obs=1)
        _check_reals("data", vars(self), "noise_pct")
        if self.truth is not None and not (isinstance(self.truth, list) and self.truth):
            raise ValueError(f"data.truth must be a non-empty list, not {self.truth!r}")
        entries = {f"truth xi_{j}": value for j, value in enumerate(self.truth or (), start=1)}
        _check_reals("data", entries, *entries)
        if self.noise_pct < 0:
            raise ValueError("data.noise_pct must be >= 0")


@dataclass
class McmcConfig:
    samples: int = 5000
    burn_in: int = 1000
    step_scale: float = 0.1

    def __post_init__(self):
        _check_counts("mcmc", vars(self), samples=2, burn_in=0)
        _check_reals("mcmc", vars(self), "step_scale")
        if not self.step_scale > 0:
            raise ValueError("mcmc step_scale must be > 0")


@dataclass
class RunConfig:
    preset: str = "adv1d"
    mesh: dict = field(default_factory=dict)
    total_weight: float | str = "gaussian_reference"
    data: DataConfig = field(default_factory=DataConfig)
    smc: SmcConfig = field(default_factory=SmcConfig)
    mcmc: McmcConfig = field(default_factory=McmcConfig)

    def __post_init__(self):
        if not isinstance(self.mesh, dict):
            raise ValueError(f"model.mesh must be a mapping, not {self.mesh!r}")
        if self.preset not in MESH_SIZES:
            raise ValueError(f"model.preset must be one of {', '.join(MESH_SIZES)}, "
                             f"not {self.preset!r}")
        sizes = MESH_SIZES[self.preset]
        _check_keys("model.mesh.", self.mesh, sizes)
        _check_counts("model.mesh", self.mesh, **{key: sizes[key] for key in self.mesh})
        if self.total_weight != "gaussian_reference":
            _check_reals("gibbs", vars(self), "total_weight")
            resolve_total_weight(self, None)  # a number is checked at parse time

    @classmethod
    def from_yaml(cls, path) -> "RunConfig":
        import yaml  # here, so that the samplers' import of this module skips it

        raw = yaml.safe_load(Path(path).read_text()) or {}
        return cls.from_dict(raw)

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        _check_keys("", raw, _SECTIONS)
        for section, keys in _SECTIONS.items():
            given = raw.get(section, {})
            if not isinstance(given, dict):
                raise ValueError(f"config section {section} must be a mapping, not {given!r}")
            _check_keys(f"{section}.", given, keys)
        model = raw.get("model", {})
        return cls(
            preset=model.get("preset", "adv1d"),
            mesh=model.get("mesh", {}),
            total_weight=raw.get("gibbs", {}).get("total_weight", "gaussian_reference"),
            data=DataConfig(**raw.get("data", {})),
            smc=SmcConfig(**raw.get("smc", {})),
            mcmc=McmcConfig(**raw.get("mcmc", {})),
        )

    def to_dict(self) -> dict:
        return {
            "model": {"preset": self.preset, "mesh": dict(self.mesh)},
            "gibbs": {"total_weight": self.total_weight},
            "data": asdict(self.data),
            "smc": {key: getattr(self.smc, key) for key in _SECTIONS["smc"]},
            "mcmc": asdict(self.mcmc),
        }

    def digest(self) -> str:
        return hashlib.sha256(json.dumps(self.to_dict(), sort_keys=True).encode()).hexdigest()[:16]


def _field_names(cls, *skip: str) -> tuple:
    return tuple(f.name for f in fields(cls) if f.name not in skip)


# top-level section -> its keys; smc.total_weight is set from gibbs.total_weight
_SECTIONS = {"model": ("preset", "mesh"), "gibbs": ("total_weight",),
             "data": _field_names(DataConfig), "smc": _field_names(SmcConfig, "total_weight"),
             "mcmc": _field_names(McmcConfig)}


def _check_keys(prefix: str, given: dict, known) -> None:
    for key in given:
        if key not in known:
            raise ValueError(f"unknown config key {prefix}{key}; "
                             f"expected one of {', '.join(known)}")


def build_model(config: RunConfig):
    return assemble(config.preset, config.mesh)


def build_observations(config: RunConfig, model, seed: int) -> ObservationSet:
    if config.data.csv:
        return ObservationSet.from_csv(config.data.csv)
    truth = None if config.data.truth is None else np.array(config.data.truth, dtype=float)
    return gen_data(model, truth=truth, noise_pct=config.data.noise_pct,
                    n=config.data.n_obs, seed=seed)


def resolve_total_weight(config: RunConfig, observations) -> float:
    w = config.total_weight
    if w == "gaussian_reference":
        w = gaussian_reference(observations.eps_std)
    if not 0 <= float(w) < np.inf:  # NaN would end run_smc at the prior, inf overflow it
        raise ValueError(f"gibbs total_weight must be finite and >= 0, not {w}")
    return float(w)
