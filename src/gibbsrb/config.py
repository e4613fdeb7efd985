"""YAML run configuration.

Every algorithmic constant has a config key; the shipped files under
configs/ reproduce the three built-in experiments end to end.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .forward import ObservationSet, assemble, gen_data
from .smc import SmcConfig
from .weights import WeightSelectionConfig, gaussian_reference


@dataclass
class DataConfig:
    truth: list | None = None
    noise_pct: float = 0.10
    n_obs: int = 1
    csv: str | None = None      # load observations instead of generating


@dataclass
class McmcConfig:
    samples: int = 5000
    burn_in: int = 1000
    step_scale: float = 0.1

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("mcmc samples must be >= 1")
        if self.burn_in < 0:
            raise ValueError("mcmc burn_in must be >= 0")
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
    weight_selection: WeightSelectionConfig = field(default_factory=WeightSelectionConfig)
    oracle_grid: int = 60

    def __post_init__(self):
        if self.total_weight != "gaussian_reference":
            resolve_total_weight(self, None)  # a number is checked at parse time
        if self.oracle_grid < 2:
            raise ValueError("oracle grid must be >= 2 nodes per axis")

    @classmethod
    def from_yaml(cls, path) -> "RunConfig":
        raw = yaml.safe_load(Path(path).read_text()) or {}
        return cls.from_dict(raw)

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        model = raw.get("model", {})
        cfg = cls(
            preset=model.get("preset", "adv1d"),
            mesh=model.get("mesh", {}),
            total_weight=raw.get("gibbs", {}).get("total_weight", "gaussian_reference"),
            data=DataConfig(**raw.get("data", {})),
            smc=SmcConfig(**raw.get("smc", {})),
            mcmc=McmcConfig(**raw.get("mcmc", {})),
            weight_selection=WeightSelectionConfig(**raw.get("weight_selection", {})),
            oracle_grid=int(raw.get("oracle", {}).get("grid", 60)),
        )
        return cfg

    def to_dict(self) -> dict:
        return {
            "model": {"preset": self.preset, "mesh": dict(self.mesh)},
            "gibbs": {"total_weight": self.total_weight},
            "data": asdict(self.data),
            "smc": asdict(self.smc),
            "mcmc": asdict(self.mcmc),
            "weight_selection": asdict(self.weight_selection),
            "oracle": {"grid": self.oracle_grid},
        }

    def digest(self) -> str:
        return hashlib.sha256(
            json.dumps(self.to_dict(), sort_keys=True).encode()).hexdigest()[:16]


def build_model(config: RunConfig):
    return assemble(config.preset, config.mesh)


def build_observations(config: RunConfig, model, seed: int) -> ObservationSet:
    if config.data.csv:
        return ObservationSet.from_csv(config.data.csv)
    truth = np.array(config.data.truth, dtype=float) if config.data.truth else None
    return gen_data(model, truth=truth, noise_pct=config.data.noise_pct,
                    n=config.data.n_obs, seed=seed)


def resolve_total_weight(config: RunConfig, observations) -> float:
    w = config.total_weight
    if w == "gaussian_reference":
        w = gaussian_reference(observations.eps_std)
    if not 0 <= float(w) < np.inf:  # NaN would end run_smc at the prior, inf overflow it
        raise ValueError(f"gibbs total_weight must be finite and >= 0, not {w}")
    return float(w)
