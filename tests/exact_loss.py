"""Full-solve stand-in for the surrogate, for tests that need exact losses.

``run_smc(model, observations, config, surrogate=ExactLoss(model))`` runs
the sampler with every loss a high-fidelity solve: refinement adds no atom
and reports NaN thresholds, so ``bound_suite`` skips its threshold check.
"""

import numpy as np

from gibbsrb.forward import SolverError
from gibbsrb.localrb import RefinementReport


class ExactLoss:
    reduced_solves = 0

    def __init__(self, model):
        self.model = model

    def loss_fn(self, observations):
        def fn(points):
            out = np.full(len(points), np.nan)  # NaN: the solve broke down
            for i, xi in enumerate(points):
                try:
                    out[i] = self.model.loss(xi, observations)
                except SolverError:
                    pass
            return out
        return fn

    def refine_over_particles(self, points, observations, e_thre) -> RefinementReport:
        nan = float("nan")
        return RefinementReport(atoms_added=0, e_thre=nan, e_max_final=nan,
                                loss_values=self.loss_fn(observations)(points))
