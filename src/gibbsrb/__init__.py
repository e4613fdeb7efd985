"""Gibbs-posterior inference for PDE inverse problems: adaptive SMC with a
locally refined reduced-basis surrogate, reference samplers, and
bound-verification diagnostics."""

from .domain import ParameterDomain, PriorSpec
from .forward import ForwardModel, ObservationSet, assemble, gen_data
from .localrb import Surrogate
from .mcmc import run_rwmh
from .oracle import grid_posterior
from .particles import ParticleSet, empirical_moments, ess, kl_reweighted, reweight
from .runio import PACKAGE_VERSION as __version__
from .smc import SmcConfig, init_particles, replay_consistency, run_smc
from .weights import (WeightSelectionConfig, candidate_grid, evaluate_grid_via_smc,
                      residual_objective, select_weight)

__all__ = [
    "ParameterDomain", "PriorSpec", "ForwardModel", "ObservationSet",
    "assemble", "gen_data", "Surrogate", "run_rwmh", "grid_posterior",
    "ParticleSet", "reweight", "ess", "empirical_moments", "kl_reweighted",
    "SmcConfig", "run_smc", "init_particles", "replay_consistency",
    "WeightSelectionConfig", "candidate_grid", "residual_objective",
    "select_weight", "evaluate_grid_via_smc",
]
