"""Compare two checkouts on one benchmark workload in alternating pairs.

Usage, from anywhere:

    python3 tools/bench_pairs.py BASE_ROOT CHANGE_ROOT --workload certify_sweep \
        --pairs 10 --first-seed 1

Pair i runs ``python3 bench/run.py --workload W --seed S --seconds 24
--trace 0`` once in each root, with ``S = first_seed + i``: base first in
even pairs and the change first in odd ones, so a drift in machine speed
does not favour either side.  Then it prints, for every end-to-end metric
that ``bench/run.py`` reports, each side's median and quartiles, the
relative change of the median and the number of pairs in which the change
was lower (every end-to-end metric is lower-is-better), and the failed
operations of each side.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys


def _run(root: str, workload: str, seed: int) -> dict:
    """One ``bench/run.py --seconds 24 --trace 0`` run in ``root``: its final JSON line."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "24", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"bench_pairs: {' '.join(cmd)} in {root} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _spread(values: list[float]) -> str:
    """Median and quartiles (inclusive method) as ``median [q1, q3]``."""
    if len(values) < 2:
        return f"{values[0]:.6g} [-, -]"
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}]"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="checkout root of the base (parent) commit")
    parser.add_argument("change", help="checkout root of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    sides = {"base": args.base, "change": args.change}
    results: dict[str, list[dict]] = {"base": [], "change": []}
    for i in range(args.pairs):
        seed = args.first_seed + i
        for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
            result = _run(sides[side], args.workload, seed)
            results[side].append(result)
            wall = result["metrics"].get("wall_s", {}).get("value")
            print(f"pair {i + 1} seed {seed} {side}: wall_s {wall!r} failed {result['failed']}",
                  flush=True)

    names = [n for n in results["base"][0]["metrics"] if n in results["change"][0]["metrics"]]
    print(f"\n{args.workload}: {args.pairs} pairs, seeds {args.first_seed}.."
          f"{args.first_seed + args.pairs - 1}")
    print("metric  base median [q1, q3]  change median [q1, q3]  change  pairs lower")
    for name in names:
        base = [r["metrics"][name]["value"] for r in results["base"]]
        change = [r["metrics"][name]["value"] for r in results["change"]]
        # Every end-to-end metric is lower-is-better.
        wins = sum(c < b for b, c in zip(base, change))
        rel = statistics.median(change) / statistics.median(base) - 1.0
        print(f"{name}  {_spread(base)}  {_spread(change)}  {rel:+.1%}  {wins}/{args.pairs}")
    for side in ("base", "change"):
        failed = sum(r["failed"] for r in results[side])
        attempted = sum(r["attempted"] for r in results[side])
        print(f"{side}: {failed} of {attempted} operations failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
