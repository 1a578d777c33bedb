"""Spans and call counters wrapped around the library's entry points.

The library itself carries no tracing, so the benchmark patches the public
names from outside: every attribute of a loaded ``wsld`` module that is the
original function object is replaced by a timing wrapper, which also covers
the names a module imported from another (``wsld.solvers.assemble_left``
and ``wsld.spectral.assemble_left`` are one function).  A span's self time
is its duration minus the time covered by the spans it caused.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

# span name -> (module, attribute) of the function it wraps.
ENTRY_POINTS = {
    "cli.main": ("wsld.cli", "main"),
    "verification.convergence_study": ("wsld.verification", "convergence_study"),
    "verification.forcing": None,  # the case's forcing closure; see Tracer.install
    "operators.rl_exact_poly": ("wsld.operators", "rl_exact_poly"),
    "operators.assemble_left": ("wsld.operators", "assemble_left"),
    "solvers.solve_1d": ("wsld.solvers", "solve_1d"),
    "solvers.solve_2d": ("wsld.solvers", "solve_2d"),
    "solvers.step_adi": ("wsld.solvers", "step_adi"),
    "solvers.build_cn_system": ("wsld.solvers", "build_cn_system"),
    "solvers.build_adi_factors": ("wsld.solvers", "build_adi_factors"),
    "solvers.lu_factor": ("wsld.solvers", "lu_factor"),
    "solvers.lu_solve": ("wsld.solvers", "lu_solve"),
    "coefficients.stencil_coeffs": ("wsld.coefficients", "stencil_coeffs"),
    "coefficients.lubich_coeffs": ("wsld.coefficients", "lubich_coeffs"),
    "spectral.certify": ("wsld.spectral", "certify"),
    "spectral.scan_nonpositivity": ("wsld.spectral", "scan_nonpositivity"),
    "spectral.max_real_part_bound": ("wsld.spectral", "max_real_part_bound"),
}

# Factories whose cases get their forcing wrapped as "verification.forcing".
_CASE_FACTORIES = ("manufactured_1d", "manufactured_2d")

ROOT = "bench.pass"


class Tracer:
    """In-memory span aggregation: call count and self time per name."""

    def __init__(self) -> None:
        self.calls = {name: 0 for name in (*ENTRY_POINTS, ROOT)}
        self.self_s = {name: 0.0 for name in (*ENTRY_POINTS, ROOT)}
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    def _close(self, name: str, frame: list[float], duration: float) -> None:
        self._stack.pop()
        self.calls[name] += 1
        self.self_s[name] += duration - frame[0]
        if self._stack:
            self._stack[-1][0] += duration

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, frame, time.perf_counter() - start)

        return spanned

    @contextmanager
    def root(self):
        """Span covering one whole pass; its self time is the benchmark's own."""
        frame = [0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(ROOT, frame, time.perf_counter() - start)

    def _replace_everywhere(self, original, replacement) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "wsld" or mod_name.startswith("wsld.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        """Wrap every entry point in every ``wsld`` namespace that names it."""
        for name, target in ENTRY_POINTS.items():
            if target is None:
                continue
            module_name, attr = target
            original = getattr(sys.modules[module_name], attr)
            self._replace_everywhere(original, self.wrap(name, original))
        verification = sys.modules["wsld.verification"]
        for attr in _CASE_FACTORIES:
            self._replace_everywhere(
                getattr(verification, attr), self._forcing_factory(getattr(verification, attr))
            )

    def _forcing_factory(self, factory):
        @functools.wraps(factory)
        def make_case(*args, **kwargs):
            case = factory(*args, **kwargs)
            case.forcing = self.wrap("verification.forcing", case.forcing)
            return case

        return make_case

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()
