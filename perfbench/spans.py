"""Span recording around the package's public functions, from outside.

``Tracer.install`` replaces each traced function in every package module
that binds it (``cli`` imports ``discrete_spectrum`` from ``verify`` and
``bound_state`` from ``wavefunctions``, ``partner`` imports
``potential_value`` from ``params``, and so on), so calls are caught where
callers look the names up.  ``uninstall`` restores the originals.

A span is ``[name, start, end, parent, note]``; ``parent`` is the index of
the enclosing span or -1.  The two potentials are also called as scalar ODE
callbacks, thousands of times per momentum, so their calls are not kept as
spans: each call's duration goes to ``rolled[name]`` and its count and time
to ``rollup[(parent, name)]``.
"""

from __future__ import annotations

import importlib
import statistics
from array import array
from collections import defaultdict
from time import perf_counter

MODULES = ("params", "spectrum", "wavefunctions", "partner", "verify", "cli")

# traced function -> note taken from (args, kwargs, result)
TRACED = {
    "params.potential_value": None,
    "spectrum.spectrum": None,
    "wavefunctions.bound_state": None,
    "wavefunctions.pseudo_norm": lambda a, k, r: {"points": r.n_points},
    "partner.extended_potential": None,
    "partner.partner_wavefunction_closed": None,
    "partner.factorization_residuals": None,
    "verify.discrete_spectrum": lambda a, k, r: {
        "requested": k["count"] if "count" in k else a[2], "found": len(r)},
    "verify.residual": None,
    "verify.scattering": None,
    "verify.singularity_scan": None,
    "cli.main": None,
}
ROLLED = ("params.potential_value", "partner.extended_potential")


class Tracer:
    def __init__(self):
        self.spans = []
        self.rolled = defaultdict(lambda: array("d"))
        self.rollup = defaultdict(lambda: [0, 0.0])
        self._stack = []
        self._patches = []

    # -- recording -----------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None,
                           self._stack[-1] if self._stack else -1, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int):
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, note):
        if name in ROLLED:
            durations, rollup, stack = self.rolled[name], self.rollup, self._stack

            def rolled(*args, **kwargs):
                t = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t
                    durations.append(dt)
                    acc = rollup[(stack[-1] if stack else -1, name)]
                    acc[0] += 1
                    acc[1] += dt
            return rolled

        def spanned(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if note is not None:
                self.spans[idx][4] = note(args, kwargs, result)
            return result
        return spanned

    def install(self):
        modules = [importlib.import_module("scarf_spectra." + m) for m in MODULES]
        modules.append(importlib.import_module("scarf_spectra"))
        for name, note in TRACED.items():
            owner, attr = name.split(".")
            orig = getattr(importlib.import_module("scarf_spectra." + owner), attr)
            wrapper = self._wrap(name, orig, note)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, orig))

    def uninstall(self):
        for mod, key, orig in reversed(self._patches):
            setattr(mod, key, orig)
        self._patches.clear()


# ----------------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------------

def _median(vals):
    return statistics.median(vals) if vals else None


def _mean(vals):
    return sum(vals) / len(vals) if vals else None


def layer_metrics(tr: Tracer, op_spans: set, mark: tuple) -> tuple:
    """Per-layer metrics of a traced run.

    ``op_spans`` are the spans of the traced operations; ``mark`` is
    ``(span count, {rolled name: call count})`` taken before the probe
    calls.  A figure comes from the operations' calls, or from the probe
    calls where the operations made none.  Returns the metrics and the
    names taken from the probe.
    """
    n_work, rolled_work = mark
    by_name = defaultdict(lambda: ([], []))
    for i, s in enumerate(tr.spans):
        by_name[s[0]][i >= n_work].append(i)

    def spans_of(name):
        work, probe = by_name[name]
        return (work, False) if work else (probe, True)

    dur = lambda i: tr.spans[i][2] - tr.spans[i][1]
    out, probed = {}, set()
    for name in TRACED:
        if name in ROLLED:
            arr, n = tr.rolled[name], rolled_work.get(name, 0)
            vals, from_probe = (arr[:n], False) if n else (arr[n:], True)
        else:
            idx, from_probe = spans_of(name)
            vals = [dur(i) for i in idx]
        out[name + "_s"] = _median(list(vals))
        if from_probe:
            probed.add(name)

    scat, _ = spans_of("verify.scattering")
    out["verify.scattering.potential_calls"] = _mean(
        [sum(tr.rollup.get((i, n), (0, 0.0))[0] for n in ROLLED) for i in scat])
    scans, _ = spans_of("verify.singularity_scan")
    inner = defaultdict(int)
    for i, s in enumerate(tr.spans):
        if s[0] == "verify.scattering":
            inner[s[3]] += 1
    out["verify.singularity_scan.scattering_calls"] = _mean([inner[i] for i in scans])
    notes = [tr.spans[i][4] for i in spans_of("verify.discrete_spectrum")[0]]
    asked = sum(n["requested"] for n in notes)
    out["verify.discrete_spectrum.found_ratio"] = (
        sum(n["found"] for n in notes) / asked if asked else None)
    out["wavefunctions.pseudo_norm.points"] = _mean(
        [tr.spans[i][4]["points"] for i in spans_of("wavefunctions.pseudo_norm")[0]])

    # self time: a span's duration minus its child spans and rolled calls
    inside = set(op_spans)
    for i, s in enumerate(tr.spans):
        if s[3] in inside:
            inside.add(i)
    child = defaultdict(float)
    for i in inside:
        if tr.spans[i][3] >= 0:
            child[tr.spans[i][3]] += dur(i)
    module_time = defaultdict(float)
    for (par, name), (count, total) in tr.rollup.items():
        if par in inside:
            child[par] += total
            module_time[name.split(".")[0]] += total
    for i in inside - op_spans:
        module_time[tr.spans[i][0].split(".")[0]] += dur(i) - child[i]
    total = sum(dur(i) for i in op_spans)
    for m in MODULES:
        out[m + ".self_share"] = module_time[m] / total
    return out, sorted(probed)
