"""Observation sets and synthetic data generation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..runio import read_csv, read_json, write_csv, write_json
from ..seeding import PHASE_DATA, stream


@dataclass
class ObservationSet:
    """n observation vectors plus the scalar noise statistics used by the
    weight-selection machinery (mean eps_mean, standard deviation eps_std)."""

    data: np.ndarray                  # (n, D)
    eps_mean: float = 0.0
    eps_std: float = 0.0
    truth: Optional[np.ndarray] = None
    true_obs: Optional[np.ndarray] = None
    channel_names: list = field(default_factory=list)

    def __post_init__(self):
        self.data = np.atleast_2d(np.asarray(self.data, dtype=float))
        if self.data.shape[0] < 1:
            raise ValueError("need at least one observation vector")

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def n_channels(self) -> int:
        return self.data.shape[1]

    # ----- CSV round trip: one row per observation vector -----
    def to_csv(self, path) -> None:
        write_csv(path, self.channel_names or [f"ch_{k}" for k in range(self.n_channels)],
                  self.data)
        meta = {"eps_mean": self.eps_mean, "eps_std": self.eps_std}
        if self.truth is not None:
            meta["truth"] = [float(v) for v in self.truth]
        if self.true_obs is not None:
            meta["true_obs"] = [float(v) for v in self.true_obs]
        write_json(f"{path}.meta.json", meta)

    @classmethod
    def from_csv(cls, path) -> "ObservationSet":
        names, data = read_csv(path)
        try:
            meta = read_json(f"{path}.meta.json")
        except FileNotFoundError:
            meta = {}
        return cls(
            data=data,
            eps_mean=float(meta.get("eps_mean", 0.0)),
            eps_std=float(meta.get("eps_std", 0.0)),
            truth=np.array(meta["truth"]) if "truth" in meta else None,
            true_obs=np.array(meta["true_obs"]) if "true_obs" in meta else None,
            channel_names=names,
        )


def gen_data(model, truth: np.ndarray | None = None, noise_pct: float = 0.10,
             n: int = 1, seed: int = 0) -> ObservationSet:
    """Synthetic observations d_i = D u(truth) + eps_i.

    The noise is iid Gaussian with the same standard deviation on every
    channel, sigma = noise_pct * rms(true data); eps_std records sigma.
    """
    if noise_pct < 0:
        raise ValueError("noise_pct must be >= 0")
    truth = model.truth_default if truth is None else np.asarray(truth, dtype=float)
    if truth.shape != (model.dim,):
        raise ValueError(f"truth of length {truth.size} for a model of dimension {model.dim}")
    d_star = model.observe(model.solve_full(truth))
    sigma = noise_pct * float(np.sqrt(np.mean(d_star**2)))
    rng = stream(seed, PHASE_DATA)
    noise = sigma * rng.standard_normal((n, d_star.size))
    return ObservationSet(
        data=d_star[None, :] + noise,
        eps_mean=0.0,
        eps_std=sigma,
        truth=truth,
        true_obs=d_star,
        channel_names=list(model.obs_names),
    )
