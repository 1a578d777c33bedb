"""Benchmark of the wsld library, measured from outside the library.

Run from the repository root:

    python3 bench/run.py --workload table1_cn1d --seed 1 --seconds 24 --trace 0

With ``--trace 0`` it reports the end-to-end metrics (wall_s, setup_s,
peak_rss_mb; the two times scaled to a fixed machine speed, see
calibration.py); with ``--trace 1`` it alternates untraced and traced passes
and reports per-layer call counts and self times.  Every operation is checked against ``bench/reference.json``.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it name every metric with
its unit and record the environment.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

# One BLAS thread keeps the closed loop single-threaded and the timings
# steady on a shared machine; it is set before numpy is first imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

from calibration import (  # noqa: E402  (after the BLAS pin)
    IMPORT_PROBE,
    IMPORT_REFERENCE_S,
    REFERENCE_S,
    Calibration,
)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(REPO_ROOT, "src")

SETUP_PROBES = 3
EXIT_NO_LIBRARY = 2


def _import_workloads():
    """Import the benchmark's workloads against the checkout's own ``src``."""
    sys.path.insert(0, SRC_DIR)
    try:
        import workloads
    except ImportError as exc:
        print(f"bench: cannot import wsld from {SRC_DIR}: {exc}", file=sys.stderr)
        sys.exit(EXIT_NO_LIBRARY)
    import wsld

    if not os.path.abspath(wsld.__file__).startswith(SRC_DIR + os.sep):
        print(f"bench: wsld was imported from {wsld.__file__}, not {SRC_DIR}", file=sys.stderr)
        sys.exit(EXIT_NO_LIBRARY)
    return workloads


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs the smoke-test sizes")
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: time import and input building, print seconds")
    return parser.parse_args(argv)


def _setup_probe(args) -> None:
    start = time.perf_counter()
    workloads = _import_workloads()
    workloads.build_cases(args.workload, args.size, args.seed)
    print(repr(time.perf_counter() - start))


def _probe(command) -> float:
    done = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _setup_seconds(args) -> list[float]:
    """Scaled set-up times of fresh processes, after one discarded probe;
    each probe is scaled by an import probe run right after it."""
    command = [
        sys.executable, os.path.abspath(__file__), "--setup-probe",
        "--workload", args.workload, "--size", args.size, "--seed", str(args.seed),
    ]
    samples = []
    for _ in range(SETUP_PROBES + 1):
        setup = _probe(command)
        samples.append(setup * IMPORT_REFERENCE_S / _probe(IMPORT_PROBE))
    return samples[1:]


def _timed_passes(workloads, cases, reference, scratch, seconds, tracer=None, calibration=None):
    """Run whole passes until the next one would overrun ``seconds``.

    Returns the wall times of the library calls in the untraced and in the
    traced passes, the operations attempted and the failures.  With a
    calibration, each untraced time is scaled by the kernel samples taken
    between that pass's cases and right after it.  With a tracer, passes
    alternate untraced and traced, so both kinds see the same machine over
    the run, and at least one traced pass runs; each traced pass is one
    root span.
    """
    between = calibration.sample_if_due if calibration is not None else None
    walls = ([], [])
    failures = []
    attempted = 0
    deadline = time.perf_counter() + seconds
    for index in itertools.count():
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.install()
        try:
            with tracer.root() if traced else contextlib.nullcontext():
                result = workloads.run_pass(cases, reference, scratch, between)
            if calibration is not None:
                calibration.sample()
                walls[traced].append(result.seconds * calibration.take_scale())
            else:
                walls[traced].append(result.seconds)
        finally:
            if traced:
                tracer.uninstall()
        attempted += result.attempted
        failures.extend(result.failures)
        if len(walls[1]) >= (tracer is not None) and (
            time.perf_counter() + statistics.median(walls[0] + walls[1]) > deadline
        ):
            return walls[0], walls[1], attempted, failures


def _layer_metrics(untraced_walls, traced_walls, tracer, path):
    """Per-pass means over the traced passes, so the self times add up to
    the traced wall time (less the benchmark's own loop, reported as
    ``trace.unattributed_s``)."""
    from spans import ENTRY_POINTS, ROOT

    passes = len(traced_walls)
    metrics = {}
    for name in ENTRY_POINTS:
        calls, rest = divmod(tracer.calls[name], passes)
        metrics[f"{name}.calls"] = (calls if rest == 0 else tracer.calls[name] / passes, "count")
        metrics[f"{name}.self_s"] = (tracer.self_s[name] / passes, "s")
    missing = [name for name in path if tracer.calls[name] == 0]
    traced = statistics.fmean(traced_walls)
    metrics["trace.wall_s"] = (traced, "s")
    metrics["trace.unattributed_s"] = (tracer.self_s[ROOT] / passes, "s")
    metrics["trace.overhead_frac"] = (traced / statistics.fmean(untraced_walls) - 1.0, "1")
    metrics["trace.missing_spans"] = (len(missing), "count")
    return metrics, missing


def _spread(times):
    """Count and range of timings, for the environment record."""
    return {"n": len(times), "min_s": min(times), "max_s": max(times)}


def _environment(args, workloads, samples):
    import numpy
    import scipy
    import wsld

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas_name = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "sizes": workloads.SIZES[args.workload][args.size],
        "samples": samples,
        "calibration_reference_s": {"kernel": REFERENCE_S, "import": IMPORT_REFERENCE_S},
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "wsld": wsld.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.setup_probe:
        _setup_probe(args)
        return 0
    workloads = _import_workloads()
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("bench: --seconds must be positive", file=sys.stderr)
        return 2
    reference = workloads.load_reference()
    cases = workloads.build_cases(args.workload, args.size, args.seed)

    with tempfile.TemporaryDirectory(prefix=".run-", dir=BENCH_DIR) as scratch:
        # Warm lazy imports and first-call paths at the tiny sizes, untimed.
        workloads.run_pass(workloads.build_cases(args.workload, "tiny", args.seed), reference, scratch)
        if args.trace == 0:
            setups = _setup_seconds(args)
            calibration = Calibration()
            walls, _, attempted, failures = _timed_passes(
                workloads, cases, reference, scratch, args.seconds, calibration=calibration)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "wall_s": (statistics.median(walls), "s"),
                "setup_s": (statistics.median(setups), "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
            missing = []
            samples = {
                "passes": _spread(walls),
                "setup_probes": _spread(setups),
                "calibration_kernel_s": statistics.median(calibration.history),
            }
        else:
            from spans import Tracer

            tracer = Tracer()
            untraced, traced, attempted, failures = _timed_passes(
                workloads, cases, reference, scratch, args.seconds, tracer)
            metrics, missing = _layer_metrics(
                untraced, traced, tracer, workloads.PATHS[args.workload])
            samples = {"untraced_passes": _spread(untraced), "traced_passes": _spread(traced)}

    for line in failures[:20]:
        print(f"FAILED {line}")
    for name in missing:
        print(f"MISSING SPAN {name}: 0 calls on an entry point of this workload's path")
    print(f"ops {attempted} count")
    print(f"ops_failed {len(failures)} count")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print("environment " + json.dumps(_environment(args, workloads, samples), sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
