"""The three built-in forward problems.

adv1d    : 1D advection-diffusion, piecewise-constant advection field with
           two unknown parameters, second-order central finite differences.
adv2d    : 2D advection-diffusion on the unit square, unknown diffusivity
           plus two unknown source magnitudes, bilinear quad FEM.
elast2d  : plane-stress linear elasticity, piecewise-constant Young's
           modulus over 5 layered or 9 block regions, bilinear quad FEM.

All presets produce an affine decomposition A(xi) = sum_p theta_p(xi) A_p,
f(xi) = sum_q phi_q(xi) f_q, with each coefficient given by its value at
xi = 0 and its constant gradient, together with a from-scratch direct
assembly closure used by the consistency checks.

adv1d is built here, its terms numpy CSR matrices, so building and running
it imports no scipy.  The two FEM builders live in ``forward.fem``, which
``assemble`` imports only for their presets.
"""

from __future__ import annotations

import numpy as np

from ..domain import ParameterDomain
from .model import CSRMatrix, ForwardModel

# adv1d's physics: diffusivity, the advection offsets of the two halves, and
# the observation points
NU, B1, B2 = 0.1, -0.5, -0.2
OBS_POINTS = (0.1, 0.5, 0.9)

# each preset's model.mesh keys, its builder's integer sizes, with their
# least values; a coarser elast mesh leaves a region with no element, so
# its term is zero and its modulus has no effect on the data
MESH_SIZES = {"adv1d": {"cells": 4},
              "adv2d": {"nx": 1, "obs_grid": 1},
              "elast2d_layered": {"nx": 5, "obs_grid": 1},
              "elast2d_inclusion": {"nx": 3, "obs_grid": 1}}


def assemble(preset: str, mesh_cfg: dict | None = None) -> ForwardModel:
    """Build a preset model; mesh_cfg sets any of its MESH_SIZES[preset]
    sizes, and the rest keep the builder's desk-scale defaults."""
    mesh_cfg = dict(mesh_cfg or {})
    if preset == "adv1d":
        model = adv1d(**mesh_cfg)
    elif preset == "adv2d":
        from .fem import adv2d
        model = adv2d(**mesh_cfg)
    elif preset in ("elast2d_layered", "elast2d_inclusion"):
        from .fem import elast2d
        model = elast2d(layout=preset.removeprefix("elast2d_"), **mesh_cfg)
    else:
        raise ValueError(f"unknown preset {preset!r}")
    model.check_invertibility()
    return model


# --------------------------------------------------------------------------
# 1D advection-diffusion
# --------------------------------------------------------------------------

def adv1d(cells: int = 128) -> ForwardModel:
    """-NU u'' + b(x) u' = 1 on (0,1), u(0)=u(1)=0, observed at OBS_POINTS.

    b(x) = (B1 + 2 xi_1) on [0, 0.5) and (B2 + 2 xi_2) on [0.5, 1]; a node
    sitting exactly on the jump takes the average of the two pieces, which
    keeps the scheme second order through the kink.
    """
    n = int(cells)
    if n < 4:
        raise ValueError("need at least 4 cells")
    h = 1.0 / n
    x = np.linspace(0.0, 1.0, n + 1)[1:-1]
    m = n - 1

    w_left = np.where(x < 0.5, 1.0, 0.0)
    w_left[np.isclose(x, 0.5)] = 0.5
    w_right = 1.0 - w_left

    def tridiagonal(lower, diag, upper) -> CSRMatrix:
        # row i holds lower[i - 1], diag[i] and upper[i] in columns i - 1, i
        # and i + 1; zeros are not stored (nor by scipy's diags().tocsr())
        vals = np.column_stack([np.r_[0.0, lower], diag, np.r_[upper, 0.0]])
        cols = np.arange(m)[:, None] + np.arange(-1, 2)
        keep = vals != 0
        return CSRMatrix((vals[keep], cols[keep], np.r_[0, np.cumsum(keep.sum(axis=1))]),
                         (m, m))

    k = NU / h**2
    diff = tridiagonal(-np.ones(m - 1) * k, 2.0 * np.ones(m) * k, -np.ones(m - 1) * k)

    def advection(weights: np.ndarray) -> CSRMatrix:
        return tridiagonal(-weights[1:] / (2 * h), np.zeros(m), weights[:-1] / (2 * h))

    # theta = (1, B1 + 2 xi_1, B2 + 2 xi_2), phi = (1,)
    a_terms = [diff, advection(w_left), advection(w_right)]
    a_offsets = np.array([1.0, B1, B2])
    a_grads = np.array([[0.0, 2.0, 0.0],
                        [0.0, 0.0, 2.0]])
    f_terms = [np.ones(m)]
    f_offsets = np.array([1.0])
    f_grads = np.zeros((2, 1))

    nodes = np.linspace(0.0, 1.0, n + 1)
    data, cols, indptr = [], [], [0]  # the observation matrix's CSR arrays
    names = []
    for r, xo in enumerate(OBS_POINTS):
        j = min(int(np.floor(xo * n)), n - 1)
        t = (xo - nodes[j]) / h
        for node, wgt in ((j, 1.0 - t), (j + 1, t)):
            if 1 <= node <= n - 1 and wgt != 0.0:
                data.append(wgt)
                cols.append(node - 1)
        indptr.append(len(data))
        names.append(f"u(x={xo:g})")
    obs = CSRMatrix((data, cols, indptr), (len(OBS_POINTS), m))

    domain = ParameterDomain(np.zeros(2), np.ones(2))

    def direct(xi):
        import scipy.sparse as sp
        bl = B1 + 2.0 * xi[0]
        br = B2 + 2.0 * xi[1]
        c = np.where(x < 0.5, bl, br)
        c[np.isclose(x, 0.5)] = 0.5 * (bl + br)
        A = sp.diags([-NU / h**2 - c[1:] / (2 * h), 2 * NU / h**2 * np.ones(m),
                      -NU / h**2 + c[:-1] / (2 * h)], [-1, 0, 1])
        return sp.csc_matrix(A)

    return ForwardModel(
        name="adv1d",
        operator_terms=a_terms, operator_coeff_offsets=a_offsets,
        operator_coeff_grads=a_grads,
        rhs_terms=f_terms, rhs_coeff_offsets=f_offsets, rhs_coeff_grads=f_grads,
        obs_matrix=obs, loss_kind="squared_l2",
        domain=domain,
        mesh={"kind": "fd1d", "cells": n},
        truth_default=np.array([0.2, 0.7]),
        direct_assemble=direct, obs_names=names,
    )
