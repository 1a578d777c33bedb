"""Record the library's outputs on every case as the benchmark's reference.

    python3 bench/record_reference.py

Runs each workload once at both sizes and rewrites bench/reference.json.
Run it only at a commit whose outputs are accepted as correct; the file
checked in was recorded at the commit that added the benchmark, before any
optimisation, and later changes are checked against it.
"""

import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import workloads  # noqa: E402


def main() -> None:
    reference = {}
    with tempfile.TemporaryDirectory(prefix=".run-", dir=workloads.BENCH_DIR) as scratch:
        for name in workloads.WORKLOADS:
            for size in ("tiny", "full"):
                for case in workloads.build_cases(name, size, seed=0):
                    for op_id, observed in workloads.run_case(case, scratch):
                        reference[op_id] = observed
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(reference)} reference values written to {workloads.REFERENCE_PATH}")


if __name__ == "__main__":
    main()
