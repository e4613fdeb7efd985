"""Run artifacts (the one CSV dialect, the JSON format, the manifest) and
the BLAS thread helpers.

Every CSV has a header row and ends lines with \r\n (the csv module's
default); bools and integers are written as integers and every other value
with repr (shortest round-trip form, '.' decimal), so identical runs produce
byte-identical files regardless of locale or thread count.  JSON is written
with two-space indents and sorted keys.
"""

from __future__ import annotations

import csv
import ctypes
import json
import numbers
import os
import time
from pathlib import Path

import numpy as np

PACKAGE_VERSION = "0.1.0"  # pyproject.toml's [project] version; gibbsrb.__version__


def _cell(v):
    if isinstance(v, numbers.Integral):  # bool included
        return int(v)
    return repr(float(v))


def write_csv(path, header, rows) -> None:
    with Path(path).open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([_cell(v) for v in row] for row in rows)


def read_csv(path):
    """(header, float array with one row per data line)."""
    with Path(path).open(newline="") as fh:
        header, *rows = csv.reader(fh)
    return header, np.array(rows, dtype=float).reshape(-1, len(header))


def write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True))


def read_json(path):
    return json.loads(Path(path).read_text())


def openblas_libraries() -> list:
    """Each OpenBLAS mapped into the process, as a ctypes library, found
    by its path in /proc/self/maps; empty where none can be found."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split(None, 5)[5].strip() for line in fh
                            if "openblas" in line.lower()})
        return [ctypes.CDLL(path) for path in paths]
    except OSError:
        return []


def _openblas_functions(action: str, restype, argtypes) -> list:
    """The ``{action}_num_threads`` function of each OpenBLAS in the process.

    Wheels export it under a prefixed name (``scipy_openblas_`` with a
    ``64_`` suffix for the 64-bit-integer build numpy links), system builds
    as ``openblas_{action}_num_threads``.  Empty where none can be found.
    """
    names = [f"{prefix}{action}_num_threads{suffix}"
             for prefix in ("scipy_openblas_", "openblas_") for suffix in ("64_", "")]
    found = []
    for lib in openblas_libraries():
        for name in names:
            try:
                fn = getattr(lib, name)
            except AttributeError:
                continue
            fn.restype, fn.argtypes = restype, argtypes
            found.append(fn)
            break
    return found


def pin_blas_threads() -> None:
    """Set every loaded OpenBLAS to one thread, and the environment so that
    one loaded later starts with one (scipy's, which the FEM presets load
    on first use)."""
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    for fn in _openblas_functions("set", None, [ctypes.c_int]):
        fn(1)


def blas_threads() -> int | None:
    """Largest thread count among the loaded OpenBLAS libraries, or None."""
    counts = [fn() for fn in _openblas_functions("get", ctypes.c_int, [])]
    return max(counts) if counts else None


def write_manifest(path, *, config, seed: int, model, extra: dict | None = None) -> None:
    """The run's manifest: the config, the seed and the environment that
    affects speed; scipy's version is read without importing scipy."""
    import importlib.metadata  # here: 16-21 ms that only a manifest needs

    manifest = {
        "package_version": PACKAGE_VERSION,
        "created_unix": int(time.time()),
        "blas_threads": blas_threads(),
        "numpy_version": np.__version__,
        "scipy_version": importlib.metadata.version("scipy"),
        "band_lu": model.band_lu_binding,
        "band_lu_routines": model.band_lu_routines,
        "seed": int(seed),
        "config_digest": config.digest(),
        "config": config.to_dict(),
    }
    manifest.update(extra or {})
    write_json(path, manifest)

