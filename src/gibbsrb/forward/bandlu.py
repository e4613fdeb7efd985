"""Band LU with partial pivoting: LAPACK's dgbtrf, dgbtrs and dgbsv.

Where numpy loads a 64-bit-integer OpenBLAS that exports them
(``scipy_dgbtrf_64_`` and so on), the routines come from it, called
through ctypes, whether or not scipy is imported; elsewhere (numpy linked
to Accelerate or MKL, say) they come from ``scipy.linalg.lapack``.  Both
give the same floats.  The band storage is LAPACK's Fortran-ordered
(2 kl + ku + 1, n) array, held in a flat buffer with one spare place at
the end.  LAPACK's pivots are 1-based and scipy's 0-based, so factors
solve through the binding that made them.
"""

from __future__ import annotations

import ctypes
import functools

import numpy as np

from ..runio import openblas_libraries


@functools.cache
def _ilp64_routines():
    """(dgbtrf, dgbtrs, dgbsv) of a loaded 64-bit-integer OpenBLAS, every
    argument passed by address, or None where none is loaded."""
    for lib in openblas_libraries():
        try:
            routines = [getattr(lib, f"scipy_{name}_64_") for name in ("dgbtrf", "dgbtrs", "dgbsv")]
        except AttributeError:
            continue
        for fn, n_args in zip(routines, (8, 11, 10)):
            fn.restype, fn.argtypes = None, [ctypes.c_void_p] * n_args
        routines[1].argtypes += (ctypes.c_size_t,)  # the hidden length of TRANS
        return tuple(routines)
    return None


def band_routines(n: int, kl: int, ku: int):
    """The band LU binding for n x n matrices of half-widths kl and ku."""
    return (_OpenBLAS if _ilp64_routines() else _ScipyLapack)(n, kl, ku)


def band_view(ab: np.ndarray, shape: tuple) -> np.ndarray:
    """The band storage in the flat buffer ab, as a view."""
    return ab[:-1].reshape(shape, order="F")


class BandLU:
    """LU factors in LAPACK band storage, with the pivots of the binding
    that made them (and, for ctypes, the addresses of both)."""

    def __init__(self, binding, lu: np.ndarray, piv: np.ndarray, pointers=None):
        self.binding, self.lu, self.piv, self.pointers = binding, lu, piv, pointers

    def solve(self, b: np.ndarray) -> np.ndarray:
        """A^{-1} b for a vector or an (n, k) array of columns (dgbtrs);
        each column's result does not depend on the other columns."""
        return self.binding.solve(self, b)


class _ScipyLapack:
    """Each binding has ``ab``, a flat buffer which ``factor_solve``
    factorizes and solves in place, as dgbsv does."""

    name = "scipy.linalg.lapack"

    def __init__(self, n: int, kl: int, ku: int):
        from scipy.linalg import lapack
        self._lapack, self.kl, self.ku = lapack, kl, ku
        self.shape = (2 * kl + ku + 1, n)
        self.ab = np.zeros(self.shape[0] * n + 1)

    def factorize(self, ab: np.ndarray) -> tuple[BandLU, int]:
        """(the factors, dgbtrf's info) of the flat buffer ab, overwritten."""
        lu, piv, info = self._lapack.dgbtrf(band_view(ab, self.shape), self.kl, self.ku,
                                            overwrite_ab=True)
        return BandLU(self, lu, piv), info

    def solve(self, lu: BandLU, b: np.ndarray) -> np.ndarray:
        return self._lapack.dgbtrs(lu.lu, self.kl, self.ku, b, lu.piv)[0]

    def factor_solve(self, b: np.ndarray) -> tuple[np.ndarray, int]:
        """(A^{-1} b, dgbsv's info) for the band in ``ab``."""
        _, _, x, info = self._lapack.dgbsv(self.kl, self.ku, band_view(self.ab, self.shape), b,
                                           overwrite_ab=True)
        return x, info


class _OpenBLAS:
    """The integer arguments sit in one int64 array, and the addresses of
    the persistent buffers are taken once: taking one costs about 2 us, a
    tenth of a small dgbsv call."""

    name = "openblas-ilp64"

    def __init__(self, n: int, kl: int, ku: int):
        self._trf, self._trs, self._sv = _ilp64_routines()
        self.shape = (2 * kl + ku + 1, n)
        self.ab, self._b = np.zeros(self.shape[0] * n + 1), np.empty(n)
        self._piv = np.empty(n, dtype=np.int64)
        # n, kl, ku, ldab, dgbsv's nrhs, dgbtrs's nrhs, info
        self._ints = np.array([n, kl, ku, self.shape[0], 1, 1, 0], dtype=np.int64)
        self._n, self._kl, self._ku, self._ld, one, self._nrhs, self._info = (
            self._ints.ctypes.data + 8 * i for i in range(7))
        self._sv_args = (self._n, self._kl, self._ku, one, self.ab.ctypes.data, self._ld,
                         self._piv.ctypes.data, self._b.ctypes.data, self._n, self._info)

    def factorize(self, ab: np.ndarray) -> tuple[BandLU, int]:
        piv = np.empty(self.shape[1], dtype=np.int64)
        lu = BandLU(self, band_view(ab, self.shape), piv, (ab.ctypes.data, piv.ctypes.data))
        self._trf(self._n, self._n, self._kl, self._ku, lu.pointers[0], self._ld,
                  lu.pointers[1], self._info)
        return lu, int(self._ints[6])

    def solve(self, lu: BandLU, b: np.ndarray) -> np.ndarray:
        x = np.array(b, dtype=float, order="F")
        if x.ndim not in (1, 2) or x.shape[0] != self.shape[1]:
            raise ValueError(f"right-hand sides of shape {x.shape} for {self.shape[1]} unknowns")
        self._ints[5] = 1 if x.ndim == 1 else x.shape[1]
        self._trs(b"N", self._n, self._kl, self._ku, self._nrhs, lu.pointers[0], self._ld,
                  lu.pointers[1], x.ctypes.data, self._n, self._info, 1)
        return x

    def factor_solve(self, b: np.ndarray) -> tuple[np.ndarray, int]:
        self._b[:] = b
        self._sv(*self._sv_args)
        return self._b.copy(), int(self._ints[6])
