"""The bilinear-quad (Q1) FEM presets: adv2d and elast2d.

Imported by ``presets.assemble`` for their presets only, so an adv1d run
neither compiles nor loads them.  Both assemble with scipy.sparse, imported
in their builders, whose sums of duplicate element entries fix their floats.
"""

from __future__ import annotations

import numpy as np

from ..domain import ParameterDomain, PriorSpec
from .model import ForwardModel

_GP = np.array([-1.0, 1.0]) / np.sqrt(3.0)

# elast2d's Poisson ratio and the downward traction on its top edge
POISSON, TRACTION = 0.3, 1.0


# --------------------------------------------------------------------------
# Q1 square-grid machinery shared by the 2D presets: n x n elements
# --------------------------------------------------------------------------

def _grid(n):
    xn = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(xn, xn, indexing="ij")
    nodes = np.column_stack([X.ravel(), Y.ravel()])  # node id = ix*(n+1)+iy
    ix, iy = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    n00 = ix * (n + 1) + iy
    elems = np.column_stack([n00.ravel(), (n00 + n + 1).ravel(),
                             (n00 + n + 2).ravel(), (n00 + 1).ravel()])
    return nodes, elems


def _shape(gx, gy):
    N = 0.25 * np.array([(1 - gx) * (1 - gy), (1 + gx) * (1 - gy),
                         (1 + gx) * (1 + gy), (1 - gx) * (1 + gy)])
    dN = 0.25 * np.array([[-(1 - gy), -(1 - gx)], [(1 - gy), -(1 + gx)],
                          [(1 + gy), (1 + gx)], [-(1 + gy), (1 - gx)]])
    return N, dN


def _gauss_data(n):
    h = 1.0 / n
    jinv = np.diag([2.0 / h, 2.0 / h])
    det = h * h / 4.0
    out = []
    for gx in _GP:
        for gy in _GP:
            N, dN = _shape(gx, gy)
            out.append((N, dN @ jinv, det))
    return out


def _interp_rows(points, nodes, n, free, component=None):
    """Bilinear interpolation rows at arbitrary points, restricted to free dofs.

    component None -> scalar field; 0/1 -> that displacement component of a
    2-dof-per-node vector field.
    """
    import scipy.sparse as sp
    h = 1.0 / n
    per = 1 if component is None else 2
    D = sp.lil_matrix((len(points), len(nodes) * per))
    for r, (px, py) in enumerate(points):
        ex = min(int(px / h), n - 1)
        ey = min(int(py / h), n - 1)
        tx = (px - ex * h) / h
        ty = (py - ey * h) / h
        for dx, dy, w in ((0, 0, (1 - tx) * (1 - ty)), (1, 0, tx * (1 - ty)),
                          (1, 1, tx * ty), (0, 1, (1 - tx) * ty)):
            nid = (ex + dx) * (n + 1) + (ey + dy)
            col = nid if component is None else 2 * nid + component
            D[r, col] += w
    return sp.csr_matrix(D)[:, free]


def _obs_grid_points(g):
    return [(i / (g + 1), j / (g + 1)) for i in range(1, g + 1) for j in range(1, g + 1)]


# --------------------------------------------------------------------------
# 2D advection-diffusion
# --------------------------------------------------------------------------

_G1 = lambda x, y: np.exp((-(x - 0.25) ** 2 - (y - 0.5) ** 2) / 0.25**2)
_G2 = lambda x, y: np.exp((-(x - 0.75) ** 2 - (y - 0.75) ** 2) / 0.33**2)


def adv2d(nx: int = 32, obs_grid: int = 7) -> ForwardModel:
    """-div(kappa grad u) + v . grad u = f on an nx x nx grid, Dirichlet on
    the bottom edge, observed on an obs_grid x obs_grid grid of points.

    kappa = 0.02 + 0.98 xi_1; v = 13 e_x + 9 (-x, y); two Gaussian sources
    with magnitudes 10 xi_2 and 5 xi_3.
    """
    import scipy.sparse as sp
    nodes, elems = _grid(nx)
    gauss = _gauss_data(nx)
    xy = nodes[elems]  # (E, 4, 2)
    nE = len(elems)

    K_loc = np.zeros((4, 4))
    C_all = np.zeros((nE, 4, 4))
    f1 = np.zeros(len(nodes))
    f2 = np.zeros(len(nodes))
    for N, G, det in gauss:
        K_loc += (G @ G.T) * det
        P = np.einsum("a,eak->ek", N, xy)  # gauss point per element
        v = np.column_stack([13.0 - 9.0 * P[:, 0], 9.0 * P[:, 1]])
        adv = np.einsum("bk,ek->eb", G, v)
        C_all += det * np.einsum("a,eb->eab", N, adv)
        np.add.at(f1, elems, det * 10.0 * _G1(P[:, 0], P[:, 1])[:, None] * N)
        np.add.at(f2, elems, det * 5.0 * _G2(P[:, 0], P[:, 1])[:, None] * N)

    rows = np.repeat(elems, 4, axis=1).ravel()
    cols = np.tile(elems, (1, 4)).ravel()
    nn = len(nodes)
    K_full = sp.coo_matrix((np.tile(K_loc.ravel(), nE), (rows, cols)),
                           shape=(nn, nn)).tocsr()
    C_full = sp.coo_matrix((C_all.ravel(), (rows, cols)), shape=(nn, nn)).tocsr()

    free = np.where(nodes[:, 1] > 0)[0]  # clamp y = 0
    K = K_full[np.ix_(free, free)]
    C = C_full[np.ix_(free, free)]

    pts = _obs_grid_points(obs_grid)
    obs = _interp_rows(pts, nodes, nx, free)

    # theta = (0.02 + 0.98 xi_1, 1), phi = (xi_2, xi_3)
    a_terms = [sp.csr_matrix(K), sp.csr_matrix(C)]
    a_offsets = np.array([0.02, 1.0])
    a_grads = np.array([[0.98, 0.0], [0.0, 0.0], [0.0, 0.0]])
    f_terms = [f1[free], f2[free]]
    f_offsets = np.zeros(2)
    f_grads = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])

    domain = ParameterDomain(np.zeros(3), np.ones(3),
                             (PriorSpec("beta", 1, 2), PriorSpec("beta", 3, 1),
                              PriorSpec("beta", 3, 1)))

    def direct(xi):
        # single element-level assembly with kappa baked in
        vals = ((0.02 + 0.98 * xi[0]) * K_loc[None, :, :] + C_all).ravel()
        A = sp.coo_matrix((vals, (rows, cols)), shape=(nn, nn)).tocsc()
        return A[np.ix_(free, free)]

    return ForwardModel(
        name="adv2d",
        operator_terms=a_terms, operator_coeff_offsets=a_offsets,
        operator_coeff_grads=a_grads,
        rhs_terms=f_terms, rhs_coeff_offsets=f_offsets, rhs_coeff_grads=f_grads,
        obs_matrix=obs, loss_kind="l1",
        domain=domain,
        mesh={"kind": "q1", "nx": nx, "obs_grid": obs_grid},
        truth_default=np.array([0.1, 0.7, 0.5]),
        direct_assemble=direct,
        obs_names=[f"u({px:g},{py:g})" for px, py in pts],
    )


# --------------------------------------------------------------------------
# plane-stress elasticity
# --------------------------------------------------------------------------

def _region_ids(nodes, elems, layout):
    mids = nodes[elems].mean(axis=1)
    if layout == "layered":
        return np.minimum((mids[:, 1] * 5).astype(int), 4), 5
    bx = np.minimum((mids[:, 0] * 3).astype(int), 2)
    by = np.minimum((mids[:, 1] * 3).astype(int), 2)
    return 3 * by + bx, 9


def elast2d(nx: int = 32, obs_grid: int = 9, layout: str = "layered") -> ForwardModel:
    """Plane-stress elasticity on an nx x nx grid, Poisson ratio POISSON,
    clamped bottom edge, uniform downward traction TRACTION on the top
    edge; unknown Young's modulus per region."""
    import scipy.sparse as sp
    if layout not in ("layered", "inclusion"):
        raise ValueError("layout must be 'layered' or 'inclusion'")
    nodes, elems = _grid(nx)
    gauss = _gauss_data(nx)
    region, n_regions = _region_ids(nodes, elems, layout)

    # unit-modulus plane-stress element stiffness (same for every element)
    D1 = (1.0 / (1.0 - POISSON**2)) * np.array(
        [[1.0, POISSON, 0.0], [POISSON, 1.0, 0.0], [0.0, 0.0, (1.0 - POISSON) / 2.0]])
    K_loc = np.zeros((8, 8))
    for N, G, det in gauss:
        B = np.zeros((3, 8))
        B[0, 0::2] = G[:, 0]
        B[1, 1::2] = G[:, 1]
        B[2, 0::2] = G[:, 1]
        B[2, 1::2] = G[:, 0]
        K_loc += (B.T @ D1 @ B) * det

    edofs = np.empty((len(elems), 8), dtype=int)
    edofs[:, 0::2] = 2 * elems
    edofs[:, 1::2] = 2 * elems + 1
    nn2 = 2 * len(nodes)

    a_terms_full = []
    for r in range(n_regions):
        sel = edofs[region == r]
        rows = np.repeat(sel, 8, axis=1).ravel()
        cols = np.tile(sel, (1, 8)).ravel()
        vals = np.tile(K_loc.ravel(), len(sel))
        a_terms_full.append(sp.coo_matrix((vals, (rows, cols)), shape=(nn2, nn2)).tocsr())

    # downward traction on the top edge, consistent nodal loads
    load = np.zeros(nn2)
    h = 1.0 / nx
    top = [ix * (nx + 1) + nx for ix in range(nx + 1)]
    for a, b in zip(top[:-1], top[1:]):
        for nid in (a, b):
            load[2 * nid + 1] += -TRACTION * h / 2.0

    bottom = np.array([ix * (nx + 1) for ix in range(nx + 1)])
    fixed = np.concatenate([2 * bottom, 2 * bottom + 1])
    free = np.setdiff1d(np.arange(nn2), fixed)

    # theta_r = xi_r, phi = (1,)
    a_terms = [sp.csr_matrix(M[np.ix_(free, free)]) for M in a_terms_full]
    a_offsets = np.zeros(n_regions)
    a_grads = np.eye(n_regions)
    f_terms = [load[free]]
    f_offsets = np.array([1.0])
    f_grads = np.zeros((n_regions, 1))

    pts = _obs_grid_points(obs_grid)
    obs = _interp_rows(pts, nodes, nx, free, component=1)

    domain = ParameterDomain(np.full(n_regions, 0.1), np.full(n_regions, 10.0),
                             tuple(PriorSpec("beta", 1, 3) for _ in range(n_regions)))
    if layout == "layered":
        truth = np.array([1.0, 2.0, 4.0, 2.0, 1.0])
    else:
        truth = np.ones(9)
        truth[4] = 5.0

    all_rows = np.repeat(edofs, 8, axis=1).ravel()
    all_cols = np.tile(edofs, (1, 8)).ravel()

    def direct(xi):
        # element-by-element assembly with the modulus baked in, so this
        # path does not reuse the precomputed per-region matrices
        vals = (np.asarray(xi)[region][:, None, None] * K_loc).ravel()
        A = sp.coo_matrix((vals, (all_rows, all_cols)), shape=(nn2, nn2)).tocsc()
        return A[np.ix_(free, free)]

    return ForwardModel(
        name=f"elast2d_{layout}",
        operator_terms=a_terms, operator_coeff_offsets=a_offsets,
        operator_coeff_grads=a_grads,
        rhs_terms=f_terms, rhs_coeff_offsets=f_offsets, rhs_coeff_grads=f_grads,
        obs_matrix=obs, loss_kind="l2",
        domain=domain,
        mesh={"kind": "q1_elast", "nx": nx, "obs_grid": obs_grid, "layout": layout},
        truth_default=truth,
        direct_assemble=direct,
        obs_names=[f"uy({px:g},{py:g})" for px, py in pts],
    )
