import os
import subprocess
import sys
from pathlib import Path

# small kernels run fastest on one BLAS thread; the pin only takes effect
# when set before numpy is first imported
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np
import pytest

from gibbsrb import assemble, gen_data

SRC = str(Path(__file__).parents[1] / "src")


def fresh_python(*args, **env) -> str:
    """The stdout of ``python *args`` in a new process, with this checkout's
    src first on PYTHONPATH and ``env`` added to the environment."""
    path = os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable, *args], env={**os.environ, "PYTHONPATH": path, **env},
                          check=True, capture_output=True, text=True).stdout


@pytest.fixture(scope="session")
def adv1d_model():
    return assemble("adv1d", {"cells": 128})


@pytest.fixture(scope="session")
def adv1d_obs(adv1d_model):
    return gen_data(adv1d_model, noise_pct=0.10, n=1, seed=0)


@pytest.fixture(scope="session")
def adv2d_small():
    return assemble("adv2d", {"nx": 16})


@pytest.fixture(scope="session")
def elast_small():
    return assemble("elast2d_layered", {"nx": 12})


def analytic_adv1d(xi, xq, nu=0.1, b1=-0.5, b2=-0.2):
    """Closed-form two-piece solution of -nu u'' + b u' = 1, u(0)=u(1)=0,
    with b constant on [0, 0.5) and [0.5, 1]; u and u' continuous at 0.5.

    Independent oracle: particular solution x/b per piece plus
    c + d exp(b x / nu) homogeneous parts, constants from the boundary and
    matching conditions (4x4 linear system).
    """
    bl = b1 + 2.0 * xi[0]
    br = b2 + 2.0 * xi[1]
    if abs(bl) < 1e-8 or abs(br) < 1e-8:
        raise ValueError("analytic form assumes nonzero advection per piece")
    e = lambda b, x: np.exp(b * x / nu)
    M = np.array([
        [1.0, e(bl, 0.0), 0.0, 0.0],
        [0.0, 0.0, 1.0, e(br, 1.0)],
        [1.0, e(bl, 0.5), -1.0, -e(br, 0.5)],
        [0.0, bl / nu * e(bl, 0.5), 0.0, -br / nu * e(br, 0.5)],
    ])
    rhs = np.array([0.0, -1.0 / br, 0.5 / br - 0.5 / bl, 1.0 / br - 1.0 / bl])
    c = np.linalg.solve(M, rhs)
    xq = np.asarray(xq, dtype=float)
    left = xq / bl + c[0] + c[1] * np.exp(bl * xq / nu)
    right = xq / br + c[2] + c[3] * np.exp(br * xq / nu)
    return np.where(xq < 0.5, left, right)
