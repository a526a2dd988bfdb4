"""Benchmark of scarf-spectra: two fixed workloads over the package and its CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src``, not from an installed copy.  One run sets up, then repeats whole
rounds of the workload's operation list for about ``--seconds`` seconds,
then checks every distinct output against ``reference`` (outside the timed
region).  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; failed operations and
check problems are listed on standard error.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one round
untraced, then traced rounds, and reports the per-layer metrics; it writes
the spans to ``perfbench/results/trace-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_SAMPLES = 3          # set-up is timed in this process and in two fresh ones


def setup(workload: str, seed: int):
    """Import the package, build the operation list, warm up; timed."""
    t = perf_counter()
    import scarf_spectra.cli  # the import is part of set-up
    if Path(scarf_spectra.cli.__file__).resolve().parent.parent != ROOT / "src":
        raise ImportError("scarf_spectra was found outside src: " + scarf_spectra.cli.__file__)
    import workloads
    ops = workloads.build(workload, seed)
    return perf_counter() - t, ops


class Run:
    """Outcome of the timed rounds: per-operation times and distinct outputs."""

    def __init__(self, ops):
        self.ops = ops
        self.times = []            # every operation time, in run order
        self.per_op = [[] for _ in ops]
        self.rounds = 0
        self.first = {}            # (op index, output hash) -> data the checks read
        self.count = Counter()     # (op index, output hash) -> times seen

    def rounds_for(self, seconds: float, tracer=None):
        """Whole rounds until the next one would end more than half a round
        past ``seconds`` (at least one)."""
        import workloads
        start, done = perf_counter(), 0
        op_spans = set()
        while True:
            for i, op in enumerate(self.ops):
                idx = tracer.open("op") if tracer else None
                t = perf_counter()
                try:
                    out = op.run()
                except Exception as exc:       # recorded as a failed operation
                    out = workloads.Raised("%s: %s" % (type(exc).__name__, exc))
                dt = perf_counter() - t
                if tracer:
                    tracer.close(idx)
                    op_spans.add(idx)
                self.times.append(dt)
                self.per_op[i].append(dt)
                key, data = workloads.digest(op, out)
                del out
                self.count[(i, key)] += 1
                self.first.setdefault((i, key), data)
            done += 1
            elapsed = perf_counter() - start
            if elapsed + 0.5 * elapsed / done >= seconds:
                break
        self.rounds += done
        return op_spans

    def verdict(self):
        """(correct, attempted, failed, report lines), checked outside timing."""
        import checks
        failed, report = 0, []
        for (i, key), data in self.first.items():
            op = self.ops[i]
            if checks.failed(op, data):
                failed += self.count[(i, key)]
                report.append("FAILED %s: %s" % (op.label, _why(data)))
                continue
            report += ["WRONG %s: %s" % (op.label, p) for p in checks.problems(op, data)]
        correct = not any(line.startswith("WRONG") for line in report)
        return correct, len(self.times), failed, report


def _why(data) -> str:
    if isinstance(data, tuple) and len(data) == 3:
        return "exit status %s %s" % (data[0], data[2].strip().replace("\n", " ")[:300]
                                      or _verify_failures(data[1]))
    return str(data)


def _verify_failures(out: str) -> str:
    try:
        checks = json.loads(out)["results"]["checks"]
    except (ValueError, KeyError, TypeError):
        return ""
    return "; ".join("%s = %r (threshold %r)" % (c["name"], c["value"], c["threshold"])
                     for c in checks if not c["passed"])


def _fresh(args: list) -> float:
    """Run a fresh interpreter that prints one number; return it."""
    import workloads
    proc = subprocess.run([sys.executable] + args, capture_output=True, text=True,
                          cwd=str(ROOT), env=workloads.child_env(), timeout=170)
    if proc.returncode != 0:
        raise RuntimeError("fresh process failed: " + proc.stderr.strip()[-500:])
    return float(proc.stdout.strip().splitlines()[-1])


def setup_seconds(first: float, workload: str, seed: int) -> float:
    samples = [first] + [
        _fresh([str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                "--setup-probe"]) for _ in range(SETUP_SAMPLES - 1)]
    return statistics.median(samples)


def end_to_end(args, setup_first: float, ops) -> tuple:
    run = Run(ops)
    run.rounds_for(args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # median over the list's operations, each at its median over rounds; a
    # run has too few operations for a tail percentile with ten beyond it
    typical = [statistics.median(t) for t in run.per_op]
    metrics = {
        "ops_per_s": (len(run.times) / sum(run.times), "1/s"),
        "op_p50_s": (statistics.median(typical), "s"),
        "setup_s": (setup_seconds(setup_first, args.workload, args.seed), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    print("%s: %d rounds of %d operations in %.2f s of operation time"
          % (args.workload, run.rounds, len(ops), sum(run.times)), file=sys.stderr)
    return run, metrics


def traced(args, ops) -> tuple:
    import spans
    import workloads
    RESULTS.mkdir(exist_ok=True)
    run = Run(ops)
    run.rounds_for(0.0)                         # one untraced round
    untraced = sum(run.times)
    tracer = spans.Tracer()
    tracer.install()
    try:
        budget = max(args.seconds - untraced, 0.0)
        op_spans = run.rounds_for(budget, tracer)
        traced_per_round = (sum(run.times) - untraced) / (run.rounds - 1)
        mark = (len(tracer.spans), {k: len(v) for k, v in tracer.rolled.items()})
        reached = {s[0] for s in tracer.spans} | {k for k, v in tracer.rolled.items() if v}
        probe_root = tracer.open("probe")
        for name, call in workloads.probes().items():
            if name not in reached:
                call()
        tracer.close(probe_root)
    finally:
        tracer.uninstall()
    layer, probed = spans.layer_metrics(tracer, op_spans, mark)
    layer["cli.import_s"] = statistics.median(
        _fresh(["-c", "import time; t = time.perf_counter(); import scarf_spectra.cli; "
                      "print(time.perf_counter() - t)"]) for _ in range(3))
    overhead = traced_per_round / untraced - 1.0
    counts = {k: layer[k] for k in ("verify.scattering.potential_calls",
                                     "verify.singularity_scan.scattering_calls",
                                     "wavefunctions.pseudo_norm.points",
                                     "verify.discrete_spectrum.found_ratio")}
    path = RESULTS / ("trace-%s-%d.json" % (args.workload, args.seed))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "untraced_round_s": untraced, "traced_round_s": traced_per_round,
                   "tracing_overhead": overhead, "counts": counts,
                   "from_probe": probed, "metrics": layer,
                   "spans": tracer.spans,
                   "rollup": [[p, n, c, t] for (p, n), (c, t) in tracer.rollup.items()]},
                  fh)
    print("%s traced: tracing overhead %+.1f%% (%.3f s untraced round, %.3f s traced); "
          "from probe calls: %s; spans in %s"
          % (args.workload, 100 * overhead, untraced, traced_per_round,
             ", ".join(probed) or "none", path.relative_to(ROOT)), file=sys.stderr)
    units = {"found_ratio": "ratio", "self_share": "ratio", "potential_calls": "count",
             "scattering_calls": "count", "points": "count"}
    metrics = {k: (v, "s" if k.endswith("_s") else units[k.rsplit(".", 1)[1]])
               for k, v in layer.items()}
    return run, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("verify-suite", "transmission-scan"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only time set-up and print the seconds (used internally)")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        setup_first, ops = setup(args.workload, args.seed)
    except ImportError as exc:
        print("cannot import the package from %s: %s" % (ROOT / "src", exc), file=sys.stderr)
        return 2
    if args.setup_probe:
        print(setup_first)
        return 0
    if args.trace:
        run, metrics = traced(args, ops)
    else:
        run, metrics = end_to_end(args, setup_first, ops)
    correct, attempted, failed, report = run.verdict()
    for line in report:
        print(line, file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
