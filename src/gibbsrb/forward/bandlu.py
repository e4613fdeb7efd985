"""LU with partial pivoting of band matrices through LAPACK, in two
families: dgbtrf, dgbtrs and dgbsv for any band, and dgttrf, dgttrs and
dgtsv for a tridiagonal matrix (kl = ku = 1).  The dgt* routines run the
same pivoted elimination as the dgb* ones but make no BLAS call per
column; they round differently, so the family fixes the floats.

``band_routines`` picks the family from the half-widths, and each binding
owns its storage: an (h, n) array in a flat buffer with one spare place at
the end, where A[i, j] sits in row top + ku + i - j of column j.  The dgb*
storage is LAPACK's Fortran-ordered (2 kl + ku + 1, n) band array, top kl
(the fill-in rows); the dgt* storage is a C-ordered (4, n) array, top 0,
whose rows hold du from column 1, d, dl up to column n - 2, and the second
superdiagonal du2 that dgttrf makes.  Either way, rows top .. top + kl + ku
are the data of a scipy DIA array.

The routines come from a 64-bit-integer OpenBLAS that numpy loaded
(``scipy_dgbtrf_64_`` and so on), whether or not scipy is imported;
elsewhere (numpy linked to Accelerate or MKL, say) from scipy's LAPACK,
whose C entry points ``scipy.linalg.cython_lapack`` exports with 32-bit
integers.  Both are called through ctypes with the buffers' addresses
taken once (taking one costs about 2 us) and give the same floats.  A
factor's pivots have its binding's integer width, so it solves through
the binding that made it.
"""

from __future__ import annotations

import ctypes
import functools
from typing import NamedTuple

import numpy as np

from ..runio import openblas_libraries

# each routine's argument count, every argument passed by address
_ARG_COUNTS = {"dgbtrf": 8, "dgbtrs": 11, "dgbsv": 10, "dgttrf": 7, "dgttrs": 11, "dgtsv": 8}


class _Lapack(NamedTuple):
    name: str
    functions: dict  # routine name -> ctypes function
    ints: type       # the integer type of the arguments
    trans: tuple     # the hidden length of the TRANS character, where it is passed


@functools.cache
def _ilp64_routines():
    """The routines of a loaded 64-bit-integer OpenBLAS, or None where none is loaded."""
    for lib in openblas_libraries():
        try:
            functions = {name: getattr(lib, f"scipy_{name}_64_") for name in _ARG_COUNTS}
        except AttributeError:
            continue
        for name, fn in functions.items():
            fn.restype, fn.argtypes = None, [ctypes.c_void_p] * _ARG_COUNTS[name]
            if name.endswith("trs"):
                fn.argtypes += (ctypes.c_size_t,)
        return _Lapack("openblas-ilp64", functions, np.int64, (1,))
    return None


@functools.cache
def _scipy_routines():
    """The routines of scipy's LAPACK: the C functions whose addresses
    ``scipy.linalg.cython_lapack`` exports in capsules, as numba reads them.
    Unlike the ``scipy.linalg.lapack`` wrappers, they take n = 2, where du2
    is empty."""
    from scipy.linalg import cython_lapack
    capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    capsule_address = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    functions = {}
    for name, n_args in _ARG_COUNTS.items():
        capsule = cython_lapack.__pyx_capi__[name]
        functions[name] = ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * n_args)(
            capsule_address(capsule, capsule_name(capsule)))
    return _Lapack("scipy.linalg.lapack", functions, np.intc, ())


def band_routines(n: int, kl: int, ku: int):
    """The binding for n x n matrices of half-widths kl and ku: the dgt*
    family where kl = ku = 1, the dgb* family otherwise."""
    lapack = _ilp64_routines() or _scipy_routines()
    return (_Tridiagonal if kl == ku == 1 else _Band)(n, kl, ku, lapack)


class BandLU:
    """LU factors in their binding's storage, with their pivots and the
    factor addresses the binding's routines take."""

    def __init__(self, binding, lu: np.ndarray, piv: np.ndarray, pointers: tuple):
        self.binding, self.lu, self.piv, self.pointers = binding, lu, piv, pointers

    def solve(self, b: np.ndarray) -> np.ndarray:
        """A^{-1} b for a vector or an (n, k) array of columns (dgbtrs or
        dgttrs); each column's result does not depend on the other columns."""
        return self.binding.solve(self, b)


class _Binding:
    """A family's routines from one LAPACK.  ``ab`` is the flat buffer which
    ``factor_solve`` factorizes and solves in place.  A subclass sets the
    family, its storage, the arguments that lead each call and the factor
    arguments (``_factor_args``) that follow a solve's nrhs."""

    routines: str

    def __init__(self, n: int, kl: int, ku: int, lapack: _Lapack, height: int, order: str,
                 top: int):
        self.name, self.kl, self.ku = lapack.name, kl, ku
        self._trf, self._trs, self._sv = (lapack.functions[self.routines + suffix]
                                          for suffix in ("trf", "trs", "sv"))
        self._trans = lapack.trans
        self.shape, self._order, self._top = (height, n), order, top
        self.ab, self._b = np.zeros(height * n + 1), np.empty(n)
        # n, kl, ku, the leading dimension, one, a solve's nrhs, info
        self._ints = np.array([n, kl, ku, height, 1, 1, 0], dtype=lapack.ints)
        self._n, self._kl, self._ku, self._ld, self._one, self._nrhs, self._info = (
            self._ints.ctypes.data + self._ints.itemsize * i for i in range(7))

    def view(self, ab: np.ndarray) -> np.ndarray:
        """The (height, n) storage in the flat buffer ab, as a view."""
        return ab[:-1].reshape(self.shape, order=self._order)

    def places(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The flat places of the entries A[rows, cols] in the buffer."""
        return np.ravel_multi_index((self._top + self.ku + rows - cols, cols), self.shape,
                                    order=self._order)

    def diagonals(self, ab: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(the rows of ab's storage holding diagonals ku, ..., -kl, those
        offsets): the data and offsets of a scipy DIA array."""
        rows = self.view(ab)[self._top:self._top + self.kl + self.ku + 1]
        return rows, np.arange(self.ku, -self.kl - 1, -1)

    def factorize(self, ab: np.ndarray) -> tuple[BandLU, int]:
        """(the factors, the factorization's info) of the flat buffer ab,
        overwritten."""
        piv = np.empty(self.shape[1], dtype=self._ints.dtype)
        lu = BandLU(self, self.view(ab), piv, self._factor_args(ab.ctypes.data, piv.ctypes.data))
        self._trf(*self._trf_head, *lu.pointers, self._info)
        return lu, int(self._ints[6])

    def solve(self, lu: BandLU, b: np.ndarray) -> np.ndarray:
        x = np.array(b, dtype=float, order="F")
        if x.ndim not in (1, 2) or x.shape[0] != self.shape[1]:
            raise ValueError(f"right-hand sides of shape {x.shape} for {self.shape[1]} unknowns")
        self._ints[5] = 1 if x.ndim == 1 else x.shape[1]
        self._trs(b"N", *self._head, self._nrhs, *lu.pointers, x.ctypes.data, self._n,
                  self._info, *self._trans)
        return x

    def factor_solve(self, b: np.ndarray) -> tuple[np.ndarray, int]:
        """(A^{-1} b, the info of dgbsv or dgtsv) for the matrix in ``ab``,
        in one call, which gives the floats of factorize then solve."""
        self._b[:] = b
        self._sv(*self._sv_args)
        return self._b.copy(), int(self._ints[6])


class _Band(_Binding):
    routines = "dgb"

    def __init__(self, n: int, kl: int, ku: int, lapack: _Lapack):
        super().__init__(n, kl, ku, lapack, 2 * kl + ku + 1, "F", kl)
        self._piv = np.empty(n, dtype=lapack.ints)  # dgbsv's pivots
        self._head = (self._n, self._kl, self._ku)
        self._trf_head = (self._n, *self._head)
        self._sv_args = (*self._head, self._one,
                         *self._factor_args(self.ab.ctypes.data, self._piv.ctypes.data),
                         self._b.ctypes.data, self._n, self._info)

    def _factor_args(self, ab: int, piv: int) -> tuple:
        return ab, self._ld, piv


class _Tridiagonal(_Binding):
    routines = "dgt"

    def __init__(self, n: int, kl: int, ku: int, lapack: _Lapack):
        super().__init__(n, kl, ku, lapack, 4, "C", 0)
        self._head = self._trf_head = (self._n,)
        dl, d, du = self._factor_args(self.ab.ctypes.data, 0)[:3]
        self._sv_args = (self._n, self._one, dl, d, du, self._b.ctypes.data, self._n,
                         self._info)

    def _factor_args(self, ab: int, piv: int) -> tuple:
        row = 8 * self.shape[1]  # bytes per storage row
        return ab + 2 * row, ab + row, ab + 8, ab + 3 * row, piv  # dl, d, du, du2, ipiv
