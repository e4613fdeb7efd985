"""LU with partial pivoting of band matrices through LAPACK, in two
families: dgbtrf, dgbtrs and dgbsv for any band, and dgttrf, dgttrs and
dgtsv for a tridiagonal matrix (kl = ku = 1).  The dgt* routines run the
same pivoted elimination as the dgb* ones but make no BLAS call per
column; they round differently, so the family fixes the floats.

``band_routines`` picks the family from the operator's pattern, and each
binding owns its storage, the layout of the operator terms for it, the
assembly of A = sum_p theta_p A_p into it and the residual f - A u:
``forward.model`` calls ``assemble`` and ``residual`` and never reads the
storage.  The storage is an (h, n) array in a flat buffer with one spare
place at the end, where A[i, j] sits in row top + ku + i - j of column j.
The dgb* storage is LAPACK's Fortran-ordered (2 kl + ku + 1, n) band
array, top kl (the fill-in rows); its terms are kept slot-major, gathered
by row for the residual and scattered into the buffer.  The dgt* storage
is a C-ordered (4, n) array, top 0, whose rows hold du from column 1, d,
dl up to column n - 2, and the second superdiagonal du2 that dgttrf makes;
its terms are kept in the order of the buffer's leading 3 n places, which
assembly writes whole, and its residual is three shifted products.
Either way, rows top .. top + kl + ku are the data of a scipy DIA array.

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


def _ellpack(rows: np.ndarray, cols: np.ndarray, values: np.ndarray, n_rows: int):
    """Slot-major (ELLPACK) layout of entries listed row by row.

    Entry e goes to slot s of its row, s counting the row's earlier entries:
    flat place s * n_rows + rows[e] of a (w, n_rows) array, w the widest
    row.  Returns those places, the (w, n_rows) columns and the
    (..., w, n_rows) values; a padding slot holds column 0 and value 0.
    """
    counts = np.bincount(rows, minlength=n_rows)
    w = int(counts.max(initial=0))
    flat = (np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]) * n_rows + rows
    columns = np.zeros(w * n_rows, dtype=np.int64)
    columns[flat] = cols
    slotted = np.zeros(values.shape[:-1] + (w * n_rows,))
    slotted[..., flat] = values
    return flat, columns.reshape(w, n_rows), slotted.reshape(values.shape[:-1] + (w, n_rows))


def band_routines(n: int, rows: np.ndarray, cols: np.ndarray, terms: np.ndarray):
    """The binding for the n x n operators sum_p theta_p A_p, where terms[p]
    holds A_p's values at the entries (rows, cols), row by row in ascending
    column order: the dgt* family where the band's half-widths are kl = ku
    = 1, the dgb* family otherwise."""
    kl, ku = int(max(0, np.max(rows - cols))), int(max(0, np.max(cols - rows)))
    lapack = _ilp64_routines() or _scipy_routines()
    return (_Tridiagonal if kl == ku == 1 else _Band)(n, kl, ku, lapack, rows, cols, terms)


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
    arguments (``_factor_args``) that follow a solve's nrhs.  It lays out
    the operator terms and gives ``assemble(theta, ab=None)``, which writes
    A = sum_p theta_p A_p into the flat buffer ab, or a fresh one, and
    returns (the values of A that ``residual(values, f, u)`` reads, ab).
    Assembly adds the terms in order, a reduction over the outer axis,
    which adds elementwise; so every entry is the same float as in the
    chained sparse sum theta_0 A_0 + theta_1 A_1 + ...."""

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
        in one call, which gives the floats of factorize then solve.  The
        solution is the binding's own buffer, which the next call
        overwrites."""
        self._b[:] = b
        self._sv(*self._sv_args)
        return self._b, self._ints.item(6)


class _Band(_Binding):
    """The dgb* family.  The terms are slot-major (``_ellpack``): row i's
    entries in slots 0, 1, ..., each slot with its column and its flat
    place in the buffer, or the spare last place for a padding slot."""

    routines = "dgb"

    def __init__(self, n: int, kl: int, ku: int, lapack: _Lapack, rows: np.ndarray,
                 cols: np.ndarray, terms: np.ndarray):
        super().__init__(n, kl, ku, lapack, 2 * kl + ku + 1, "F", kl)
        self._piv = np.empty(n, dtype=lapack.ints)  # dgbsv's pivots
        self._head = (self._n, self._kl, self._ku)
        self._trf_head = (self._n, *self._head)
        self._sv_args = (*self._head, self._one,
                         *self._factor_args(self.ab.ctypes.data, self._piv.ctypes.data),
                         self._b.ctypes.data, self._n, self._info)
        flat, self._columns, self._terms = _ellpack(rows, cols, terms, n)
        self._positions = np.full(self._columns.size, self.ab.size - 1)
        self._positions[flat] = self.places(rows, cols)

    def _factor_args(self, ab: int, piv: int) -> tuple:
        return ab, self._ld, piv

    def assemble(self, theta: np.ndarray, ab: np.ndarray | None = None):
        """(A's slot-major values, ab): ab is zeroed first, since a
        factorization overwrote it, and A is scattered into it."""
        values = np.add.reduce(theta[:, None, None] * self._terms, axis=0)
        if ab is None:
            ab = np.zeros(self.ab.size)
        else:
            ab.fill(0.0)
        ab[self._positions] = values.reshape(-1)
        return values, ab

    def residual(self, values: np.ndarray, f: np.ndarray, u: np.ndarray) -> np.ndarray:
        """f - A u for A's slot-major values: row i subtracts its entries
        a_ij u_j from f_i in ascending column order, one slot per step.
        The band's zeros off the terms' pattern are skipped, which can
        change only the sign of an entry that is exactly zero."""
        with np.errstate(invalid="ignore"):  # an overflowed u leaves NaN in r
            terms = values * u[self._columns]
            np.subtract(f, terms[0], out=terms[0])
            return np.subtract.reduce(terms, axis=0)


class _Tridiagonal(_Binding):
    """The dgt* family.  The terms are laid out in the order of the
    buffer's leading 3 n places (du from column 1, d, dl up to column
    n - 2), zero where a term has no entry, so assembly writes those places
    whole and no earlier solve's floats survive in them.  The solution
    buffer sits between two zeros, so that the residual reads u shifted
    either way."""

    routines = "dgt"

    def __init__(self, n: int, kl: int, ku: int, lapack: _Lapack, rows: np.ndarray,
                 cols: np.ndarray, terms: np.ndarray):
        super().__init__(n, kl, ku, lapack, 4, "C", 0)
        padded = np.zeros(n + 2)
        self._b = padded[1:-1]
        # u_{i+1}, u_i and u_{i-1} in column i, the zeros past the ends
        self._shifted_u = np.lib.stride_tricks.as_strided(padded[2:], (3, n), (-8, 8),
                                                          writeable=False)
        self._head = self._trf_head = (self._n,)
        dl, d, du = self._factor_args(self.ab.ctypes.data, 0)[:3]
        self._sv_args = (self._n, self._one, dl, d, du, self._b.ctypes.data, self._n,
                         self._info)
        self._terms = np.zeros((terms.shape[0], 3 * n))
        self._terms[:, self.places(rows, cols)] = terms
        self._lead, self._rows = self.ab[:3 * n], self._by_row(self.ab)
        self._products, self._r = np.empty((3, n)), np.empty(n)

    def _factor_args(self, ab: int, piv: int) -> tuple:
        row = 8 * self.shape[1]  # bytes per storage row
        return ab + 2 * row, ab + row, ab + 8, ab + 3 * row, piv  # dl, d, du, du2, ipiv

    def _by_row(self, ab: np.ndarray) -> np.ndarray:
        """A (3, n) view of ab's storage with A[i, i + 1], A[i, i] and
        A[i, i - 1] in column i: du from column 1, d and dl, at a stride of
        n - 1 places.  Its two places off the matrix hold d_0 and d_{n-1},
        which the residual multiplies by the zeros past u's ends."""
        n = self.shape[1]
        return np.lib.stride_tricks.as_strided(ab[1:], (3, n), (8 * (n - 1), 8),
                                               writeable=False)

    def assemble(self, theta: np.ndarray, ab: np.ndarray | None = None):
        """(a copy of A's storage by row, which outlives a solve that
        overwrites ab; ab): A is written straight into ab's leading 3 n
        places."""
        if ab is None:
            ab = np.zeros(self.ab.size)
        own = ab is self.ab
        np.add.reduce(theta[:, None] * self._terms, axis=0,
                      out=self._lead if own else ab[:self._terms.shape[1]])
        return (self._rows if own else self._by_row(ab)).copy(), ab

    def residual(self, values: np.ndarray, f: np.ndarray, u: np.ndarray) -> np.ndarray:
        """f - A u for A's storage by row from ``assemble``: f minus the sum
        of the three products of each row.  The result is the binding's own
        buffer, which the next call overwrites; so is u, where it is not a
        solution from ``factor_solve``."""
        if u is not self._b:
            self._b[:] = u
        r = self._r
        with np.errstate(invalid="ignore"):  # an overflowed u leaves NaN in r
            np.multiply(values, self._shifted_u, out=self._products)
            return np.subtract(f, np.add.reduce(self._products, axis=0, out=r), out=r)
