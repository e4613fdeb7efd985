"""Run artifacts: CSV schemas and the JSON manifest.

All floats are written with repr (shortest round-trip form, '.' decimal),
so identical runs produce byte-identical files regardless of locale or
thread count.
"""

from __future__ import annotations

import csv
import ctypes
import json
import time
from pathlib import Path

PACKAGE_VERSION = "0.1.0"


def _fmt(x) -> str:
    return repr(float(x))


def write_history_csv(path, history) -> None:
    cols = ["t", "w_before", "w_after", "delta_w", "ess", "atoms_added",
            "acceptance_rate", "e_thre", "e_max", "replay_ess",
            "full_solves", "reduced_solves", "degenerate"]
    with Path(path).open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(cols)
        for rec in history:
            w.writerow([rec.t, _fmt(rec.w_before), _fmt(rec.w_after),
                        _fmt(rec.delta_w), _fmt(rec.ess), rec.atoms_added,
                        _fmt(rec.acceptance_rate), _fmt(rec.e_thre),
                        _fmt(rec.e_max), _fmt(rec.replay_ess),
                        rec.full_solves, rec.reduced_solves, int(rec.degenerate)])


def write_atoms_csv(path, surrogate) -> None:
    dim = surrogate.model.dim
    with Path(path).open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["atom", *[f"xi_{j + 1}" for j in range(dim)], "full_solves"])
        for k, atom in enumerate(surrogate.atoms):
            w.writerow([k, *[_fmt(v) for v in atom.location], atom.full_solves])


def write_losses_csv(path, history) -> None:
    with Path(path).open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "particle", "surrogate_loss"])
        for rec in history:
            for i, v in enumerate(rec.losses):
                w.writerow([rec.t, i, _fmt(v)])


def write_cdfs_csv(path, curves) -> None:
    """curves: iterable of (dimension_index, x array, cdf array)."""
    with Path(path).open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["dimension", "x", "cdf"])
        for j, x, c in curves:
            for xv, cv in zip(x, c):
                w.writerow([j + 1, _fmt(xv), _fmt(cv)])


def _openblas_functions(action: str, restype, argtypes) -> list:
    """The ``{action}_num_threads`` function of each OpenBLAS in the process.

    Wheels export it under a prefixed name (``scipy_openblas_`` with a
    ``64_`` suffix for the 64-bit-integer build numpy links), system builds
    as ``openblas_{action}_num_threads``.  Empty where none can be found.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split(None, 5)[5].strip() for line in fh
                            if "openblas" in line.lower()})
        libs = [ctypes.CDLL(path) for path in paths]
    except OSError:
        return []
    names = [f"{prefix}{action}_num_threads{suffix}"
             for prefix in ("scipy_openblas_", "openblas_") for suffix in ("64_", "")]
    found = []
    for lib in libs:
        for name in names:
            try:
                fn = getattr(lib, name)
            except AttributeError:
                continue
            fn.restype, fn.argtypes = restype, argtypes
            found.append(fn)
            break
    return found


def pin_blas_threads(n: int = 1) -> None:
    """Set every loaded OpenBLAS to n threads; nothing if none is found."""
    for fn in _openblas_functions("set", None, [ctypes.c_int]):
        fn(n)


def blas_threads() -> int | None:
    """Largest thread count among the loaded OpenBLAS libraries, or None."""
    counts = [fn() for fn in _openblas_functions("get", ctypes.c_int, [])]
    return max(counts) if counts else None


def write_manifest(path, *, config, seed: int, extra: dict | None = None) -> None:
    manifest = {
        "package_version": PACKAGE_VERSION,
        "created_unix": int(time.time()),
        "blas_threads": blas_threads(),
        "seed": int(seed),
        "config_digest": config.digest(),
        "config": config.to_dict(),
    }
    manifest.update(extra or {})
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True))

