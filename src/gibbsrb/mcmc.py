"""Random-walk Metropolis-Hastings reference sampler.

Targets exp(-W * loss(xi)) * prior(xi) with exact (full-solve) losses; the
workhorse cross-check for the particle results.  The proposal is an
isotropic Gaussian step in box-scaled coordinates.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .runio import write_csv
from .seeding import PHASE_MCMC, stream


@dataclass
class ChainResult:
    samples: np.ndarray        # post burn-in, (n_samples, M)
    acceptance_rate: float
    full_solves: int
    out_of_support_proposals: int

    def to_csv(self, path) -> None:
        write_csv(path, [f"xi_{j + 1}" for j in range(self.samples.shape[1])], self.samples)


def run_rwmh(model, observations, weight: float, n_samples: int = 5000,
             burn_in: int = 1000, step_scale: float = 0.1, seed: int = 0) -> ChainResult:
    """Gaussian random-walk MH chain for the tempered target.

    Every in-support proposal costs exactly one full solve; proposals that
    leave the prior support are rejected without touching the model, so
    full solves = 1 (start) + (steps - out-of-support count).
    """
    if weight < 0:
        raise ValueError("weight must be >= 0")
    domain = model.domain
    rng = stream(seed, PHASE_MCMC)
    counters0 = model.counters.snapshot()["full"]

    # bound once: the loop runs one full solve per step, and little else
    normal, uniform = rng.standard_normal, rng.random
    loss, log_pdf, dim = model.loss, domain.log_pdf, domain.dim

    x = domain.sample(1, rng)[0]
    loss_x = loss(x, observations)
    lp_x = log_pdf(x)
    step = step_scale * domain.widths

    total = n_samples + burn_in
    chain = np.empty((total, dim))
    accepted = 0
    out_of_support = 0
    for i in range(total):
        prop = x + step * normal(dim)
        u = uniform()
        lp_p = log_pdf(prop)
        if not math.isfinite(lp_p):
            out_of_support += 1
            chain[i] = x
            continue
        loss_p = loss(prop, observations)
        log_alpha = -weight * (loss_p - loss_x) + lp_p - lp_x
        if (math.log(u) if u > 0 else -math.inf) < log_alpha:
            x, loss_x, lp_x = prop, loss_p, lp_p
            accepted += 1
        chain[i] = x

    rate = accepted / total
    if not 0.05 <= rate <= 0.7:
        warnings.warn(f"RWMH acceptance rate {rate:.3f} outside [0.05, 0.7]; "
                      "step scale likely mis-tuned", RuntimeWarning)
    return ChainResult(
        samples=chain[burn_in:],
        acceptance_rate=rate,
        full_solves=model.counters.snapshot()["full"] - counters0,
        out_of_support_proposals=out_of_support,
    )
