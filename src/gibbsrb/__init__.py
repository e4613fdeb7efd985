"""Gibbs-posterior inference for PDE inverse problems: adaptive SMC with a
locally refined reduced-basis surrogate, reference samplers, and
bound-verification diagnostics.

The names below load on first use (PEP 562), so ``import gibbsrb`` costs
numpy and the version only; ``from gibbsrb import run_smc`` imports the
sampler stack then.  The run-config schema, sampler sections included,
lives in ``gibbsrb.config``.
"""

from importlib import import_module

from .runio import PACKAGE_VERSION as __version__

_EXPORTS = {
    "ParameterDomain": "domain", "PriorSpec": "domain",
    "ForwardModel": "forward", "ObservationSet": "forward", "assemble": "forward",
    "gen_data": "forward", "Surrogate": "localrb", "run_rwmh": "mcmc",
    "grid_posterior": "oracle", "ParticleSet": "particles", "reweight": "particles",
    "ess": "particles", "empirical_moments": "particles", "kl_reweighted": "particles",
    "SmcConfig": "config", "run_smc": "smc", "init_particles": "smc",
    "replay_consistency": "smc", "candidate_grid": "weights",
    "residual_objective": "weights", "select_weight": "weights",
    "evaluate_grid_via_smc": "weights",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
