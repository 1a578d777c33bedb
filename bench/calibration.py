"""Machine-speed calibration for the benchmark's timings.

The machine the benchmark was tuned on, a shared 2-vCPU x86_64 virtual
machine, changes speed by up to 2x under its neighbours' load: one pass of
``table1_cn1d`` took from 2.2 s to 4.0 s across ten runs of the same code,
with CPU time tracking wall time (the process was slowed, not descheduled).
So the benchmark also times a fixed kernel that does not touch ``wsld``,
shaped like the workloads' costs -- an LU factorization, dense
matrix-vector products, a symmetric eigensolve, and a Python loop of
small-array powers, scalar gamma calls and small LU solves -- between the
cases of each pass, and scales each pass by ``REFERENCE_S`` over the median
of its kernel samples: the result is seconds at the speed at which the
kernel takes ``REFERENCE_S``.  A change to the library cannot move the
kernel, so it moves the scaled time by the same share as the raw one.

Set-up time is mostly importing numpy and scipy, which the kernel tracks
poorly, so each set-up probe is scaled instead by the time a fresh
interpreter takes to import a fixed set of standard-library modules that
neither ``wsld`` nor its dependencies import.
"""

from __future__ import annotations

import math
import statistics
import sys
import time

# About the kernel's time on the tuning machine; it only sets the scale of
# the reported seconds.
REFERENCE_S = 0.020

# Shortest gap between two kernel samples during a timed pass.
INTERVAL_S = 0.25

# About the import probe's time on the tuning machine.
IMPORT_REFERENCE_S = 0.10

_IMPORT_MODULES = (
    "asyncio", "configparser", "cProfile", "email.mime.multipart", "ftplib", "http.client",
    "http.server", "imaplib", "mailbox", "pdb", "plistlib", "smtplib", "sqlite3", "ssl",
    "tarfile", "urllib.request", "wave", "xml.dom.minidom", "xml.etree.ElementTree",
)

# Prints the seconds a fresh interpreter spends importing _IMPORT_MODULES.
IMPORT_PROBE = [
    sys.executable, "-c",
    "import time; start = time.perf_counter(); import " + ", ".join(_IMPORT_MODULES)
    + "; print(repr(time.perf_counter() - start))",
]


class Calibration:
    """Times the fixed kernel and turns raw seconds into scaled seconds."""

    def __init__(self) -> None:
        import numpy as np
        from scipy.linalg import eigvalsh, lu_factor, lu_solve
        from scipy.special import gamma

        self._lu_factor = lu_factor
        self._eigvalsh = eigvalsh
        rng = np.random.default_rng(0)
        self._square = rng.standard_normal((500, 500)) + 500.0 * np.eye(500)
        self._wide = rng.standard_normal((1500, 1500))
        self._vector = rng.standard_normal(1500)
        sym = rng.standard_normal((200, 200))
        self._sym = sym + sym.T
        self._small_lu = lu_factor(rng.standard_normal((100, 100)) + 100.0 * np.eye(100))
        self._lu_solve = lu_solve
        self._gamma = gamma
        self._nodes = np.linspace(0.01, 1.99, 100)
        self.samples: list[float] = []
        self.history: list[float] = []
        self._last = -math.inf
        self.sample()  # first call pays for lazy loading; discarded
        self.samples.clear()
        self.history.clear()

    def sample(self) -> None:
        start = time.perf_counter()
        self._lu_factor(self._square)
        for _ in range(3):
            self._wide @ self._vector
        self._eigvalsh(self._sym)
        for k in range(200):
            alpha = 1.0 + 0.005 * k
            ratio = self._gamma(k % 5 + 5.0) / self._gamma(k % 5 + 5.0 - alpha)
            self._lu_solve(self._small_lu, ratio * self._nodes ** alpha)
        self._last = time.perf_counter()
        self.samples.append(self._last - start)
        self.history.append(self._last - start)

    def sample_if_due(self) -> None:
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def take_scale(self) -> float:
        """Factor from raw to scaled seconds, from the samples since the last call."""
        scale = REFERENCE_S / statistics.median(self.samples)
        self.samples.clear()
        return scale
