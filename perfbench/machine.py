"""Facts about the machine and libraries a run measured on, and probes of
how fast the machine runs at the moment."""

from __future__ import annotations

import ctypes
import json
import os
import platform
import subprocess
import sys
from time import perf_counter

PROBE_TIMEOUT_S = 60


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads() -> dict:
    """Threads each loaded OpenBLAS library reports it will use, keyed by
    library file name. Read through the library's own getter, so it is the
    count in effect, not the one requested by environment variables."""
    libs = set()
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            for line in handle:
                name = os.path.basename(line.split()[-1])
                if "openblas" in name and ".so" in name:
                    libs.add(line.split()[-1])
    except OSError:
        return {}
    out = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def _blas_vendor(module) -> str:
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):  # layout differs across versions
        return "unknown"


def facts() -> dict:
    """nproc, CPU model, interpreter and library versions, BLAS vendor and
    the BLAS thread count in effect. Call after numpy and scipy are loaded."""
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_numpy": _blas_vendor(numpy),
        "blas_scipy": _blas_vendor(scipy),
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ[k] for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
    }


class SpeedProbe:
    """A fixed reference kernel, independent of envchan, timed between ops.

    The machine's speed drifts (on the 2-core test machine, by up to 1.8x
    within minutes, in CPU time as much as in wall time), so the same work
    takes a different time from one run to the next. The probe does a
    little of what a search does with the same libraries -- an L-BFGS-B
    minimization, small complex matrix products and norms, and interpreter
    work -- and its time, sampled after every op, tracks that drift. It
    never calls the package, so a change to envchan cannot move it.

    ``nominal_s`` is the scale of the speed-scaled metrics, which read as
    if every probe had taken that long: a fixed convention, close to the
    probe's fastest times on the 2-core Xeon the benchmark was written on,
    where it took 8 to 17 ms. Only ratios between runs carry meaning.
    """

    nominal_s = 0.010

    def __init__(self):
        import numpy as np
        from scipy.optimize import minimize, rosen, rosen_der

        self._np, self._minimize = np, minimize
        self._rosen, self._rosen_der = rosen, rosen_der
        rng = np.random.default_rng(0)
        self._a = (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))) / 4.0
        self._x0 = np.linspace(-1.2, 1.2, 12)
        self._doc = {"k": list(range(64)), "v": [0.5] * 64}
        for _ in range(3):  # warm-up
            self()

    def __call__(self) -> float:
        """Seconds one pass of the kernel took."""
        np = self._np
        start = perf_counter()
        self._minimize(self._rosen, self._x0, jac=self._rosen_der, method="L-BFGS-B")
        b = self._a
        for _ in range(300):
            b = self._a @ b
            b = b / np.linalg.norm(b)
            np.einsum("ij,kj->ik", b, b.conj())
        for _ in range(20):
            json.loads(json.dumps(self._doc))
        return perf_counter() - start


class StartProbe:
    """The speed probe for ops that are fresh processes: a new interpreter
    that imports a few standard-library modules. An in-process kernel does
    not track how fast processes start and import; on the test machine,
    scaling cli_session's passes by it widened their spread, while this
    probe narrowed it. It never imports the package. ``nominal_s`` as for
    SpeedProbe."""

    nominal_s = 0.100
    CODE = "import argparse, decimal, email.parser, json"

    def __init__(self):
        for _ in range(2):  # warm-up
            self()

    def __call__(self) -> float:
        start = perf_counter()
        subprocess.run([sys.executable, "-c", self.CODE], check=True,
                       timeout=PROBE_TIMEOUT_S, stdout=subprocess.DEVNULL)
        return perf_counter() - start
