"""The benchmark's two workloads: fixed operation lists over the package.

Every operation calls the package through module attributes looked up at call
time (``M.verify.scattering``, ``M.cli.main``), so a traced run can
swap in timing wrappers.  An operation returns its raw output; ``digest``
turns that into a hash of the whole output plus the few values the checks
read, so a run keeps no large arrays between operations.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import os
import pickle
import random
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

# the package's modules; calls go through their attributes, which a traced
# run replaces
M = SimpleNamespace(**{name: importlib.import_module("scarf_spectra." + name)
                       for name in ("params", "spectrum", "wavefunctions",
                                    "partner", "verify", "cli")})

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# verify-suite: real regime, broken regime, v2 < 0, the degenerate (6, 2.25),
# the locus point (2, 6.75), and two pairs that fail today (see README)
VERIFY_PAIRS = ((12, 6), (30, 10), (50, 20), (1, 5), (5, 12), (12, -6),
                (40, -60), (6, 2.25), (2, 6.75), (12, 12.249), (100, 40))
# (couplings, branch signs, levels requested) for discrete_spectrum on V_ext
PARTNER_SPECTRA = (((12, 6), (1, 1), 3), ((12, 6), (-1, 1), 5),
                   ((6, 2.25), (-1, 1), 3))

# transmission-scan
SCATTER_SWEEPS = ((2, 6.75), (1, 5))            # on / off the n* = 1 locus
SCATTER_WINDOW = (0.9, 1.3, 21)
# narrow windows round each |T| peak, so a point is one coarse pass of
# SCAN_COARSE momenta and the golden-section refinement
SCANS = (((2, 6.75), (1.04, 1.08)),             # locus, n* = 1, k* = 1.06066
         ((2.2, 6.75), (1.02, 1.06)),           # off-locus neighbour, peak 1.03769
         ((6, 18.75), (1.75, 1.79)))            # locus, n* = 2, k* = 1.76777
SCAN_COARSE = 9
PARTNER_SWEEPS = tuple(((12, 6), signs, (0.8, 1.4, 2.5))
                       for signs in ((1, 1), (1, -1), (-1, 1), (-1, -1))) + (
                  ((2, 6.75), (1, 1), (1.0, 1.04, 1.08, 1.12)),)

# quadrature domain of the pseudo-norm probe
PSEUDO_NORM_DOMAIN = (-40.0, 40.0)


@dataclass
class Op:
    kind: str                       # selects the check in checks.py
    label: str
    spec: dict
    run: Callable[[], object]
    data: Callable[[object], object] = field(default=lambda out: out)


@dataclass(frozen=True)
class Raised:
    """Output of an operation that raised instead of returning."""

    error: str


def digest(op: Op, out) -> tuple:
    """(hash of the whole output, the values the checks read)."""
    key = hashlib.sha1(pickle.dumps(out, protocol=4)).hexdigest()
    return key, out if isinstance(out, Raised) else op.data(out)


def _argv(command: str, v1, v2, *extra) -> list:
    return [command, "--v1=%s" % v1, "--v2=%s" % v2, *extra]


def cli_in_process(argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = M.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def _couplings(pair):
    return M.params.CouplingParams(float(pair[0]), float(pair[1]))


# ----------------------------------------------------------------------------
# operation lists
# ----------------------------------------------------------------------------

def _verify_suite() -> list:
    ops = []
    for v1, v2 in VERIFY_PAIRS:
        argv = _argv("verify", v1, v2)
        ops.append(Op("verify", "verify %s %s" % (v1, v2), {"v1": v1, "v2": v2},
                      lambda a=argv: cli_in_process(a)))
    for pair, signs, count in PARTNER_SPECTRA:
        cp = _couplings(pair)
        branch = M.partner.solve_branch(M.params.derive(cp), *signs)

        def run(b=branch, cp=cp, count=count):
            return M.verify.discrete_spectrum(
                lambda x: M.partner.extended_potential(b, cp, x),
                M.verify.REFERENCE_GRID, count)
        ops.append(Op("partner-spectrum", "discrete_spectrum V_ext%s %s %s"
                      % (signs, *pair),
                      {"v1": pair[0], "v2": pair[1], "signs": signs, "count": count},
                      run, lambda out: [complex(z) for z in out]))
    return ops


def _transmission_scan() -> list:
    ops = []
    k_min, k_max, steps = SCATTER_WINDOW
    for v1, v2 in SCATTER_SWEEPS:
        argv = _argv("scatter", v1, v2, "--k-min=%s" % k_min, "--k-max=%s" % k_max,
                     "--k-steps=%d" % steps)
        ops.append(Op("scatter", "scatter %s %s" % (v1, v2),
                      {"v1": v1, "v2": v2, "k": (k_min, k_max, steps)},
                      lambda a=argv: cli_in_process(a)))
    for pair, window in SCANS:
        cp = _couplings(pair)

        def run(cp=cp, window=window):
            return M.verify.singularity_scan([cp], window, M.verify.GridSpec(20.0, 1001),
                                             coarse_steps=SCAN_COARSE)[0]
        ops.append(Op("scan", "singularity_scan %s %s" % pair,
                      {"v1": pair[0], "v2": pair[1], "window": window}, run,
                      lambda pt: (pt.k_peak, pt.peak_height, pt.wronskian_ratio)))
    for pair, signs, ks in PARTNER_SWEEPS:
        cp = _couplings(pair)
        branch = M.partner.solve_branch(M.params.derive(cp), *signs)

        def run(b=branch, cp=cp, ks=ks):
            grid = M.verify.GridSpec(20.0, 201)
            pot = lambda x: M.partner.extended_potential(b, cp, x)
            return [M.verify.scattering(pot, k, grid) for k in ks]
        ops.append(Op("partner-scatter", "scattering V_ext%s %s %s" % (signs, *pair),
                      {"v1": pair[0], "v2": pair[1], "signs": signs, "k": ks}, run,
                      lambda res: [(r.k, r.transmission, r.reflection_left,
                                    r.reflection_right) for r in res]))
    return ops


_BUILDERS = {"verify-suite": _verify_suite, "transmission-scan": _transmission_scan}


def warm_up(workload: str):
    """One small call per workload, so that lazy initialisation
    (LAPACK, BLAS threads) is paid in set-up, not by whichever operation the
    seed puts first."""
    cp = M.params.CouplingParams(12.0, 6.0)
    pot = lambda x: M.params.potential_value(cp, x)
    if workload == "verify-suite":
        # full-size coarse eigen-solve (499 points), as every operation makes
        M.verify.discrete_spectrum(pot, M.verify.GridSpec(20.0, 501), 1)
    elif workload == "transmission-scan":
        M.verify.scattering(pot, 1.0, M.verify.GridSpec(20.0, 201))


def build(workload: str, seed: int) -> list:
    """The workload's operations, in an order drawn from ``seed``.

    The inputs themselves are fixed; the seed only permutes the order in
    which one round visits them.
    """
    ops = _BUILDERS[workload]()
    random.Random(seed).shuffle(ops)
    warm_up(workload)
    return ops


def probes() -> dict:
    """One fixed call per traced function.  A traced run makes the calls for
    the functions its own operations never reached, so that every traced run
    reports every per-layer figure."""
    cp = M.params.CouplingParams(12.0, 6.0)
    d = M.params.derive(cp)
    level = M.spectrum.spectrum(d)[0]
    branch = M.partner.solve_branch(d, 1, 1)
    xs = M.verify.REFERENCE_GRID.points()
    pot = lambda x: M.params.potential_value(cp, x)
    locus = M.params.CouplingParams(2.0, 6.75)
    d0 = M.params.derive(M.params.CouplingParams(0.125, 0.625))
    rep0 = M.spectrum.detect_singularity(d0)
    return {
        "params.potential_value": lambda: pot(xs),
        "spectrum.spectrum": lambda: M.spectrum.spectrum(d),
        "wavefunctions.bound_state": lambda: M.wavefunctions.bound_state(level, xs),
        "wavefunctions.pseudo_norm": lambda: M.wavefunctions.pseudo_norm(
            lambda x: M.wavefunctions.singularity_wavefunction(rep0, d0, 1, x),
            PSEUDO_NORM_DOMAIN),
        "partner.extended_potential": lambda: M.partner.extended_potential(
            branch, cp, xs),
        "partner.partner_wavefunction_closed": lambda: M.partner
        .partner_wavefunction_closed(branch, d, 0, 1, xs),
        "partner.factorization_residuals": lambda: M.partner
        .factorization_residuals(branch, cp, xs),
        "verify.discrete_spectrum": lambda: M.verify.discrete_spectrum(
            pot, M.verify.REFERENCE_GRID, 4),
        "verify.residual": lambda: M.verify.residual(
            pot, lambda x: M.wavefunctions.bound_state(level, x), level.energy,
            M.verify.REFERENCE_GRID),
        "verify.scattering": lambda: M.verify.scattering(
            lambda x: M.params.potential_value(locus, x), 1.0,
            M.verify.GridSpec(20.0, 201)),
        "verify.singularity_scan": lambda: M.verify.singularity_scan(
            [locus], (1.0, 1.12), M.verify.GridSpec(20.0, 1001), coarse_steps=5, xtol=1e-4),
        "cli.main": lambda: cli_in_process(_argv("spectrum", 12, 6)),
    }
