"""Adaptive tempered SMC driver.

Each iteration: refine the surrogate over the current particles, pick the
weight increment that keeps the effective sample size above half the
particle count (the whole residual weight if it does, else by bisection on
the increment), reweight, resample, then rediversify with an MCMC
mutation kernel that leaves the current tempered target invariant.  The
schedule starts at zero accumulated weight and stops exactly at the
requested total.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor  # patched by bench/layers.py
from dataclasses import dataclass, field, fields
from typing import Callable, Optional

import numpy as np

from .config import SmcConfig  # re-exported: the schema lives in config
from .domain import ParameterDomain
from .localrb import AtomBudgetError, BasisDegeneracyError, Surrogate
from .particles import ParticleSet, empirical_moments, ess, normalize_log, reweight
from .seeding import PHASE_INIT, PHASE_MUTATE, PHASE_RESAMPLE, stream

ESS_FRACTION = 0.5   # ESS target, as a fraction of the particle count
BISECTIONS = 20      # halvings of the increment's bracket per iteration
E_THRE_FLOOR = 1e-8  # least refinement threshold, in loss units
# loss_std_fraction threshold, as a fraction of the particles' loss std: the
# ESS rule holds delta_w * std(L) near 1-2, so the loss error it allows moves
# a log-weight by about 0.25-0.5
E_THRE_FRACTION = 0.25
PROPOSAL_MIXING = 0.5  # the mutation's AR(1) pull gamma toward the weighted mean
MAX_ITERATIONS = 80  # iteration cap; the shipped configs' runs take 3-24


class SmcIterationError(RuntimeError):
    """Iteration cap reached before the weight schedule finished."""


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
    full_solves: int            # cumulative from the run's start, at iteration end
    reduced_solves: int         # likewise
    degenerate: bool = False


# history.csv's header and the keys of the manifest's iteration_table
HISTORY_COLUMNS = tuple(f.name for f in fields(IterationRecord) if f.name != "losses")


@dataclass
class SmcResult:
    particles: ParticleSet
    history: list
    snapshots: list             # particle sets at t = 0..N (start, then per iteration)
    surrogate: Surrogate
    final_losses: Optional[np.ndarray]  # surrogate losses at the final points, from
                                        # the last mutation; None after no iteration
    solve_counts: dict = field(default_factory=dict)

    @property
    def final_weight(self) -> float:
        return self.history[-1].w_after if self.history else 0.0

    @property
    def iterations(self) -> int:
        return len(self.history)


def init_particles(domain: ParameterDomain, m: int, rng: np.random.Generator) -> ParticleSet:
    """m iid prior draws with uniform weights."""
    return ParticleSet.equal_weight(domain.sample(m, rng))


def adapt_step(weights: np.ndarray, losses: np.ndarray, residual_weight: float,
               ess_threshold: float):
    """Largest tried increment whose ESS is above the threshold.

    The whole residual is tried first; if it fails, BISECTIONS halvings of
    [0, residual] follow.  The ESS need not be monotone in the increment
    (it can rise from a failing value at 0), so the answer is the last
    midpoint that passed, not the bracket's lower end.  Returns (delta_w,
    new_weights, ess_value, degenerate_flag); the flag is set when no tried
    increment passes, and then the smallest, residual / 2**BISECTIONS, is
    accepted anyway.
    """
    if residual_weight < 0:
        raise ValueError("residual weight must be >= 0")
    if not np.all(np.isfinite(losses)):
        raise ValueError("losses must be finite")
    with np.errstate(divide="ignore"):
        lw0 = np.log(np.asarray(weights, dtype=float))
    losses = np.asarray(losses, dtype=float)
    shifted = losses - losses.min()  # log_reweight's shift, formed once per call

    def reweighted(delta):
        w = np.exp(normalize_log(lw0 - delta * shifted))
        w /= w.sum()
        return w, ess(w)

    delta = float(residual_weight)
    w, e = reweighted(delta)
    if e > ess_threshold:
        return delta, w, e, False
    lo, hi, passed = 0.0, delta, None
    for _ in range(BISECTIONS):
        delta = 0.5 * (lo + hi)
        w, e = reweighted(delta)
        if e > ess_threshold:
            lo, passed = delta, (delta, w, e, False)
        else:
            hi = delta
    return passed or (delta, w, e, True)


def resample(particles: ParticleSet, rng: np.random.Generator):
    """Draw m ancestors with replacement (multinomial); returns
    (uniform-weight set, indices)."""
    m = particles.m
    idx = rng.choice(m, size=m, replace=True, p=particles.weights)
    return ParticleSet.equal_weight(particles.points[idx], particles.generation + 1), idx


def _log_proposal_ratio(x: np.ndarray, prop: np.ndarray, mean: np.ndarray,
                        var: np.ndarray):
    """log q(x | prop) - log q(prop | x) of the AR(1) proposal, per row: it is
    reversible with respect to N(mean, var), so gamma drops out."""
    return -0.5 * np.sum(((x - mean)**2 - (prop - mean)**2) / var, axis=-1)


def mutate(particles: ParticleSet, loss_fn: Callable, domain: ParameterDomain,
           w_target: float, moments, config: SmcConfig, master_seed: int,
           iteration: int, current_losses: np.ndarray):
    """Independent MH chains per particle, invariant for the tempered target.

    Proposal: per-dimension AR(1) pull toward the weighted pre-resampling
    mean with matched variance.  Proposals outside the prior support are
    rejected through the zero prior density, and so are proposals whose
    loss is NaN (a singular reduced system).  The chains advance in
    lockstep, one batched loss_fn call per step, and share one stream per
    iteration: each step draws an (m, M) block of proposal noise, then m
    acceptance uniforms, and chain i reads row i.  loss_fn maps an (n, M)
    array to n losses, and current_losses are its values at the particles'
    points.  Returns the mutated set, the aggregate acceptance rate and the
    loss values at the final points.
    """
    mean, var = moments
    gamma = PROPOSAL_MIXING
    m = particles.m

    rng = stream(master_seed, PHASE_MUTATE, iteration)
    x = particles.points.copy()
    lx = np.array(current_losses, dtype=float)
    lp_x = domain.log_pdf(x)
    accepts = np.zeros(m, dtype=int)
    pull, sd = np.sqrt(1.0 - gamma**2), np.sqrt(var)
    for _ in range(config.mutation_steps):
        z = rng.standard_normal(x.shape)
        u = rng.random(m)  # for every chain, its proposal in support or not
        prop = mean + gamma * (x - mean) + pull * (sd * z)
        lp_p = domain.log_pdf(prop)
        inside = np.isfinite(lp_p)
        l_p = np.full(m, np.nan)
        if inside.any():
            l_p[inside] = loss_fn(prop[inside])
        log_alpha = (-w_target * (l_p - lx) + lp_p - lp_x
                     + _log_proposal_ratio(x, prop, mean, var))
        with np.errstate(divide="ignore"):
            log_u = np.log(u)
        # out-of-support proposals keep a NaN loss; a NaN log_alpha never accepts
        acc = log_u < log_alpha
        np.copyto(x, prop, where=acc[:, None])
        np.copyto(lx, l_p, where=acc)
        np.copyto(lp_x, lp_p, where=acc)
        accepts += acc

    rate = float(accepts.sum()) / max(m * config.mutation_steps, 1)
    return ParticleSet(x, particles.weights, particles.generation), rate, lx


def replay_consistency(surrogate: Surrogate, observations, particles: ParticleSet,
                       further) -> list:
    """One cloud per further weight w in an array: the particle cloud
    reweighted by w using the latest surrogate, or the cloud itself where
    w = 0.  It scores the cloud once, and only if some w is nonzero; no full
    solves are involved, and by coherence the single-shot update equals the
    incremental schedule.  Raises BasisDegeneracyError where a reduced
    system is singular."""
    further = np.asarray(further, dtype=float).tolist()
    if not any(further):
        return [particles] * len(further)
    losses = surrogate.loss_fn(observations)(particles.points)
    if np.isnan(losses).any():
        raise BasisDegeneracyError("singular reduced system at "
                                   f"{int(np.isnan(losses).sum())} point(s)")
    return [particles if w == 0.0 else reweight(particles, losses, w) for w in further]


def _resolve_e_thre(config: SmcConfig, losses: np.ndarray) -> float:
    """Refinement threshold for an iteration whose particles have the
    surrogate losses ``losses`` before refinement."""
    if config.e_thre_mode == "fixed":
        return max(config.e_thre_value, E_THRE_FLOOR)
    vals = losses[~np.isnan(losses)]  # singular points are left out
    spread = float(np.std(vals)) if vals.size else 0.0
    return max(E_THRE_FRACTION * spread, E_THRE_FLOOR)


def run_smc(model, observations, config: SmcConfig, *,
            surrogate: Optional[Surrogate] = None) -> SmcResult:
    """Full adaptive run from the prior to the requested total weight.

    All loss evaluations inside the loop go through the surrogate; the
    high-fidelity model is touched only when the refinement inserts atoms.
    ``surrogate`` defaults to a fresh Surrogate; any object with its
    ``loss_fn``, ``refine_over_particles`` and ``reduced_solves`` serves.
    An AtomBudgetError or SmcIterationError leaves with the records of the
    finished iterations as its ``history`` attribute.
    """
    domain = model.domain
    counters0 = model.counters.snapshot()
    particles = init_particles(domain, config.particles, stream(config.seed, PHASE_INIT))
    if surrogate is None:
        surrogate = Surrogate(model, neighbor_count=config.neighbor_count)
    reduced0 = surrogate.reduced_solves
    loss_fn = surrogate.loss_fn(observations)

    w_total = float(config.total_weight)
    w_cur = 0.0
    t = 0
    history: list[IterationRecord] = []
    snapshots = [particles]
    final_losses = None

    while w_cur < w_total:
        t += 1
        if t > MAX_ITERATIONS:
            exc = SmcIterationError(f"max iterations ({MAX_ITERATIONS}) reached at W={w_cur:g}")
            exc.history = history
            raise exc

        try:
            report = surrogate.refine_over_particles(
                particles.points, observations,
                lambda losses: _resolve_e_thre(config, losses))
        except AtomBudgetError as exc:
            exc.history = history
            raise
        losses = report.loss_values

        delta_w, new_weights, ess_val, degenerate = adapt_step(
            particles.weights, losses, w_total - w_cur, ESS_FRACTION * config.particles)
        reweighted = ParticleSet(particles.points, new_weights, particles.generation)
        w_next = w_cur + delta_w

        moments = empirical_moments(reweighted, domain)
        resampled, ancestor_idx = resample(reweighted, stream(config.seed, PHASE_RESAMPLE, t))
        mutated, acc_rate, final_losses = mutate(
            resampled, loss_fn, domain, w_next, moments, config,
            config.seed, t, current_losses=losses[ancestor_idx])

        counts = model.counters.snapshot()
        history.append(IterationRecord(
            t=t, w_before=w_cur, w_after=w_next, delta_w=delta_w, ess=ess_val,
            atoms_added=report.atoms_added, acceptance_rate=acc_rate,
            e_thre=report.e_thre, e_max=report.e_max_final, losses=losses,
            full_solves=counts["full"] - counters0["full"],
            reduced_solves=surrogate.reduced_solves - reduced0, degenerate=degenerate))
        particles = mutated
        w_cur = w_next
        snapshots.append(particles)

    counts = model.counters.snapshot()
    return SmcResult(
        particles=particles, history=history, snapshots=snapshots,
        surrogate=surrogate, final_losses=final_losses,
        solve_counts={k: counts[k] - counters0[k] for k in counts},
    )
