"""Adaptive tempered SMC driver.

Each iteration: refine the surrogate over the current particles, pick the
largest weight increment keeping the effective sample size above the
threshold (greedy with geometric backtracking), reweight, resample,
then rediversify with an MCMC mutation kernel that leaves the current
tempered target invariant.  The schedule starts at zero accumulated
weight and stops exactly at the requested total.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor  # patched by bench/layers.py
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .domain import ParameterDomain
from .localrb import BasisDegeneracyError, Surrogate
from .particles import ParticleSet, empirical_moments, ess, log_reweight, reweight
from .seeding import PHASE_INIT, PHASE_MUTATE, PHASE_RESAMPLE, stream

MIN_DELTA_FRACTION = 1e-10  # accept-anyway floor for the backtracking loop
E_THRE_FLOOR = 1e-8         # least refinement threshold, in loss units


class SmcIterationError(RuntimeError):
    """Iteration cap reached before the weight schedule finished."""


@dataclass
class SmcConfig:
    particles: int = 100
    total_weight: float = 1.0
    ess_fraction: float = 0.5
    backtrack_factor: float = 0.5
    mutation_steps: int = 5
    proposal_mixing: float = 0.5
    e_thre_mode: str = "loss_std_fraction"  # or "fixed"
    e_thre_value: float = 1e-3
    e_thre_fraction: float = 0.02
    max_iterations: int = 50
    seed: int = 0
    neighbor_count: int = 5
    atom_budget: int = 2000

    def __post_init__(self):
        if self.particles < 2:
            raise ValueError("need at least 2 particles")
        if self.total_weight < 0:
            raise ValueError("total weight must be >= 0")
        if not 0.0 < self.ess_fraction <= 1.0:
            raise ValueError("ess_fraction must be in (0, 1]")
        if self.ess_fraction * self.particles < 2:
            raise ValueError("ess threshold below 2 effective particles")
        if not 0.0 < self.backtrack_factor < 1.0:
            raise ValueError("backtrack factor must be in (0, 1)")
        if not 0.0 <= self.proposal_mixing < 1.0:
            raise ValueError("proposal mixing must be in [0, 1)")
        if self.e_thre_mode not in ("fixed", "loss_std_fraction"):
            raise ValueError("e_thre mode must be 'fixed' or 'loss_std_fraction'")
        if self.mutation_steps < 0:
            raise ValueError("mutation steps must be >= 0")


@dataclass
class IterationRecord:
    t: int
    w_before: float
    w_after: float
    delta_w: float
    ess: float
    atoms_added: int
    acceptance_rate: float
    e_thre: float
    e_max: float
    losses: np.ndarray          # surrogate losses at the iteration-start points
    full_solves: int            # cumulative, model counter at iteration end
    reduced_solves: int
    replay_ess: float = float("nan")
    degenerate: bool = False


@dataclass
class SmcResult:
    particles: ParticleSet
    history: list
    snapshots: list             # particle sets at t = 0..N (start, then per iteration)
    surrogate: Surrogate
    config: SmcConfig
    wall_time: float = 0.0
    solve_counts: dict = field(default_factory=dict)

    @property
    def final_weight(self) -> float:
        return self.history[-1].w_after if self.history else 0.0

    @property
    def iterations(self) -> int:
        return len(self.history)


def init_particles(domain: ParameterDomain, m: int, rng: np.random.Generator) -> ParticleSet:
    """m iid prior draws with uniform weights."""
    return ParticleSet(domain.sample(m, rng), np.full(m, 1.0 / m), generation=0)


def adapt_step(weights: np.ndarray, losses: np.ndarray, residual_weight: float,
               ess_threshold: float, backtrack_factor: float,
               total_weight: float):
    """Largest geometric-backtracked increment with ESS above the threshold.

    Returns (delta_w, new_weights, ess_value, degenerate_flag); the flag is
    set when even a vanishing increment cannot satisfy the threshold, in
    which case that increment is accepted anyway.
    """
    if residual_weight < 0:
        raise ValueError("residual weight must be >= 0")
    if not np.all(np.isfinite(losses)):
        raise ValueError("losses must be finite")
    with np.errstate(divide="ignore"):
        lw0 = np.log(np.asarray(weights, dtype=float))
    delta = float(residual_weight)
    while True:
        w = np.exp(log_reweight(lw0, losses, delta))
        w /= w.sum()
        e = ess(w)
        if e > ess_threshold:
            return delta, w, e, False
        if delta < MIN_DELTA_FRACTION * max(total_weight, 1e-300):
            return delta, w, e, True
        delta *= backtrack_factor


def resample(particles: ParticleSet, rng: np.random.Generator):
    """Draw m ancestors with replacement (multinomial); returns
    (uniform-weight set, indices)."""
    m = particles.m
    idx = rng.choice(m, size=m, replace=True, p=particles.weights)
    return ParticleSet(particles.points[idx], np.full(m, 1.0 / m),
                       generation=particles.generation + 1), idx


def _log_q(a: np.ndarray, b: np.ndarray, mean: np.ndarray, var: np.ndarray,
           gamma: float):
    """Unnormalized log transition density of the AR(1) proposal b -> a,
    per row when a and b are (n, M) arrays."""
    dev = a - mean - gamma * (b - mean)
    return -0.5 / (1.0 - gamma**2) * np.sum(dev**2 / var, axis=-1)


def mutate(particles: ParticleSet, loss_fn: Callable, domain: ParameterDomain,
           w_target: float, moments, config: SmcConfig, master_seed: int,
           iteration: int, current_losses: Optional[np.ndarray] = None):
    """Independent MH chains per particle, invariant for the tempered target.

    Proposal: per-dimension AR(1) pull toward the weighted pre-resampling
    mean with matched variance.  Proposals outside the prior support are
    rejected through the zero prior density, and so are proposals whose
    loss is NaN (a singular reduced system).  The chains advance in
    lockstep, one batched loss_fn call per step, each drawing from its own
    stream.  loss_fn maps an (n, M) array to n losses.  Returns the
    mutated set, the aggregate acceptance rate and the loss values at the
    final points.
    """
    mean, var = moments
    gamma = config.proposal_mixing
    m = particles.m

    rngs = [stream(master_seed, PHASE_MUTATE, iteration, i) for i in range(m)]
    x = particles.points.copy()
    lx = (np.array(current_losses, dtype=float) if current_losses is not None
          else loss_fn(x))
    lp_x = domain.log_pdf(x)
    accepts = np.zeros(m, dtype=int)
    for _ in range(config.mutation_steps):
        z = np.empty_like(x)
        u = np.empty(m)
        for i, rng in enumerate(rngs):
            z[i] = rng.standard_normal(domain.dim)
            u[i] = rng.random()  # drawn unconditionally to keep streams aligned
        prop = mean + gamma * (x - mean) + np.sqrt(1.0 - gamma**2) * (np.sqrt(var) * z)
        lp_p = domain.log_pdf(prop)
        inside = np.isfinite(lp_p)
        l_p = np.full(m, np.nan)
        if inside.any():
            l_p[inside] = loss_fn(prop[inside])
        log_alpha = (-w_target * (l_p - lx) + lp_p - lp_x
                     + _log_q(x, prop, mean, var, gamma)
                     - _log_q(prop, x, mean, var, gamma))
        with np.errstate(divide="ignore"):
            log_u = np.log(u)
        # out-of-support proposals keep a NaN loss; a NaN log_alpha never accepts
        acc = log_u < log_alpha
        x[acc], lx[acc], lp_x[acc] = prop[acc], l_p[acc], lp_p[acc]
        accepts += acc

    rate = float(accepts.sum()) / max(m * config.mutation_steps, 1)
    return ParticleSet(x, particles.weights.copy(), particles.generation), rate, lx


def surrogate_losses(surrogate: Surrogate, points: np.ndarray, observations) -> np.ndarray:
    """Surrogate losses at the points; raises where a reduced system is singular."""
    losses = surrogate.loss_fn(observations)(points)
    if np.isnan(losses).any():
        raise BasisDegeneracyError("singular reduced system at "
                                   f"{int(np.isnan(losses).sum())} point(s)")
    return losses


def replay_consistency(surrogate: Surrogate, observations, initial: ParticleSet,
                       w_t: float) -> ParticleSet:
    """Reweight the initial particle cloud to the accumulated weight using
    the latest surrogate; no full solves are involved, and by coherence the
    single-shot update equals the incremental schedule."""
    if w_t == 0.0:
        return initial
    return reweight(initial, surrogate_losses(surrogate, initial.points, observations), w_t)


def _resolve_e_thre(config: SmcConfig, losses: np.ndarray) -> float:
    """Refinement threshold for an iteration whose particles have the
    surrogate losses ``losses`` before refinement."""
    if config.e_thre_mode == "fixed":
        return max(config.e_thre_value, E_THRE_FLOOR)
    vals = losses[~np.isnan(losses)]  # singular points are left out
    spread = float(np.std(vals)) if vals.size else 0.0
    return max(config.e_thre_fraction * spread, E_THRE_FLOOR)


def run_smc(model, observations, config: SmcConfig, *,
            surrogate: Optional[Surrogate] = None) -> SmcResult:
    """Full adaptive run from the prior to the requested total weight.

    All loss evaluations inside the loop go through the surrogate; the
    high-fidelity model is touched only when the refinement inserts atoms.
    ``surrogate`` defaults to a fresh Surrogate; any object with its
    ``loss_fn``, ``refine_over_particles`` and ``reduced_solves`` serves.
    """
    t0 = time.perf_counter()
    domain = model.domain
    counters0 = model.counters.snapshot()
    particles = init_particles(domain, config.particles, stream(config.seed, PHASE_INIT))
    if surrogate is None:
        surrogate = Surrogate(model, neighbor_count=config.neighbor_count,
                              atom_budget=config.atom_budget)
    loss_fn = surrogate.loss_fn(observations)

    w_total = float(config.total_weight)
    w_cur = 0.0
    t = 0
    history: list[IterationRecord] = []
    snapshots = [particles.copy()]

    while w_cur < w_total:
        t += 1
        if t > config.max_iterations:
            raise SmcIterationError(
                f"max iterations ({config.max_iterations}) reached at W={w_cur:g}")

        report = surrogate.refine_over_particles(
            particles.points, observations, lambda losses: _resolve_e_thre(config, losses))
        losses = report.loss_values
        replayed = replay_consistency(surrogate, observations, snapshots[0], w_cur)

        delta_w, new_weights, ess_val, degenerate = adapt_step(
            particles.weights, losses, w_total - w_cur,
            config.ess_fraction * config.particles,
            config.backtrack_factor, w_total)
        reweighted = ParticleSet(particles.points, new_weights, particles.generation)
        w_next = w_cur + delta_w

        moments = empirical_moments(reweighted, domain)
        resampled, ancestor_idx = resample(reweighted, stream(config.seed, PHASE_RESAMPLE, t))
        mutated, acc_rate, _ = mutate(
            resampled, loss_fn, domain, w_next, moments, config,
            config.seed, t, current_losses=losses[ancestor_idx])

        counts = model.counters.snapshot()
        history.append(IterationRecord(
            t=t, w_before=w_cur, w_after=w_next, delta_w=delta_w, ess=ess_val,
            atoms_added=report.atoms_added, acceptance_rate=acc_rate,
            e_thre=report.e_thre, e_max=report.e_max_final, losses=losses,
            full_solves=counts["full"] - counters0["full"],
            reduced_solves=surrogate.reduced_solves,
            replay_ess=ess(replayed.weights), degenerate=degenerate))
        particles = mutated
        w_cur = w_next
        snapshots.append(particles.copy())

    counts = model.counters.snapshot()
    return SmcResult(
        particles=particles, history=history, snapshots=snapshots,
        surrogate=surrogate, config=config,
        wall_time=time.perf_counter() - t0,
        solve_counts={k: counts[k] - counters0[k] for k in counts},
    )
