"""Set-up probe: import dynr and cold-build a workload's algebras.

Run as ``python3 perfbench/probe.py A2 G2 ... [--roots B4 ...]`` from a fresh
interpreter, so every run pays a cold import.  Prints one JSON line with the
import and build times and the numeric environment (numpy and BLAS).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _split(token: str):
    return token[0], int(token[1:])


def _blas() -> dict:
    """BLAS library as numpy reports it, and its thread count if readable."""
    import ctypes

    import numpy as np

    info = {"name": "unknown", "version": "unknown", "threads": None}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"] = deps.get("name", "unknown")
        info["version"] = deps.get("version", "unknown")
    except (TypeError, KeyError, AttributeError):
        pass
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                info["library"] = Path(path).name
                return info
    return info


def main(argv) -> int:
    algebras, roots = [], []
    target = algebras
    for token in argv:
        if token == "--roots":
            target = roots
        else:
            target.append(_split(token))
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import dynr

    t1 = time.perf_counter()
    for series, rank in algebras:
        dynr.build_simple_lie_algebra(dynr.build_root_system(series, rank), cache_dir="")
    for series, rank in roots:
        dynr.build_root_system(series, rank)
    t2 = time.perf_counter()

    import numpy as np

    print(json.dumps({
        "import_s": t1 - t0,
        "build_s": t2 - t1,
        "numpy": np.__version__,
        "blas": _blas(),
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
