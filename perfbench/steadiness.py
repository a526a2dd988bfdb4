"""Steadiness study: run the benchmark on several seeds and report each
end-to-end metric's median and quartile spread.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1] [--workload NAME ...]

Runs are made one at a time, from the root of the checkout, with the
``run_seconds`` of BENCHMARK.json.  The spread is (Q3 - Q1) / median with the
quartiles of ``statistics.quantiles(values, n=4)``; it is printed next to the
metric's bound, with the longest wall time of one run.  Every run's result
line is kept in ``perfbench/results/steadiness-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in bench["workloads"]])
    args = ap.parse_args(argv)
    (HERE / "results").mkdir(exist_ok=True)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for wl in args.workload or [w["name"] for w in bench["workloads"]]:
        rows, walls = [], []
        log = HERE / "results" / ("steadiness-%s.jsonl" % wl)
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            t = perf_counter()
            proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True,
                                  timeout=300)
            walls.append(perf_counter() - t)
            if proc.returncode != 0:
                print(proc.stderr[-2000:], file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            rows.append(result)
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(dict(result, seed=seed, wall_s=walls[-1])) + "\n")
        shares = {(r["failed"], r["attempted"]) for r in rows}
        print("%s: %d runs, correct %s, failed/attempted %s, longest run %.1f s"
              % (wl, len(rows), all(r["correct"] for r in rows), sorted(shares), max(walls)))
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in rows]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            print("  %-12s median %-12.5g spread %6.3f  (bound %.2f)"
                  % (name, med, (q3 - q1) / med, bound))
    return 0


if __name__ == "__main__":
    sys.exit(main())
