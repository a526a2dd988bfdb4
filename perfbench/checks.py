"""Correctness checks of each operation's output against ``reference``.

``failed(op, data)`` says whether the operation failed outright (raised or
a non-zero exit status).  ``problems(op, data)`` lists every way a
non-failed output disagrees with the independent references or with a
property the output must have; an empty list means correct.

The tolerances were set from the disagreement seen on the workloads' fixed
inputs (the README gives the margins), and ``test_checks.py`` shows that
each check still fails when a coupling is shifted by 1e-3 or the output is
perturbed.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache

import reference as R
from workloads import Raised


@lru_cache(maxsize=None)
def shape(v1, v2) -> R.Shape:
    return R.Shape(v1, v2)


@lru_cache(maxsize=None)
def branch(v1, v2, signs) -> R.Branch:
    return R.Branch(shape(v1, v2), *signs)


@lru_cache(maxsize=None)
def ref_levels(v1, v2) -> dict:
    return {(lv.n, lv.epsilon): lv for lv in R.levels(shape(v1, v2))}


@lru_cache(maxsize=None)
def ref_transmission(v1, v2, k, signs=None) -> complex:
    sh = shape(v1, v2)
    if signs is None:
        return complex(R.transmission(sh, k))
    return complex(R.susy_transmission(sh, branch(v1, v2, signs), k))


# ----------------------------------------------------------------------------
# outright failures
# ----------------------------------------------------------------------------

CLI_KINDS = {"verify", "scatter"}


def failed(op, data) -> bool:
    if isinstance(data, Raised):
        return True
    if op.kind in CLI_KINDS:
        return data[0] != 0                      # (exit status, stdout, stderr)
    return False


# ----------------------------------------------------------------------------
# per-kind checks
# ----------------------------------------------------------------------------

def _json(data) -> dict:
    rc, out, err = data
    doc = json.loads(out)
    if doc.get("schema") != "scarf-spectra/1":
        raise ValueError("schema %r" % doc.get("schema"))
    return doc


def check_verify(spec, data) -> list:
    v1, v2 = spec["v1"], spec["v2"]
    doc = _json(data)
    res = doc["results"]
    probs = []
    if doc["inputs"]["v1"] != v1 or doc["inputs"]["v2"] != v2:
        probs.append("inputs echo %r" % doc["inputs"])
    names = ["potential-pt-symmetry", "matching-conditions", "wavefunction-residuals",
             "analytic-vs-numeric-levels"]
    signs = ((1, 1), (1, -1), (-1, 1), (-1, -1))
    if v2 > 0:
        names += ["factorization-%s%s" % ("+" if a > 0 else "-", "+" if b > 0 else "-")
                  for a, b in signs]
    else:
        names.append("factorization")
    got = [c["name"] for c in res["checks"]]
    if got != names:
        probs.append("check names %r, expected %r" % (got, names))
    for c in res["checks"]:
        singular = (c["name"].startswith("factorization-")
                    and branch(v1, v2, signs[names.index(c["name"]) - 4]).singular)
        if c["value"] is None:
            if c["name"] != "factorization" and not singular:
                probs.append("%s has no value" % c["name"])
        elif not (c["passed"] and math.isfinite(c["value"]) and c["value"] < c["threshold"]):
            probs.append("%s: value %r, threshold %r" % (c["name"], c["value"], c["threshold"]))
        if c["name"] == "analytic-vs-numeric-levels":
            want = "%d levels" % len(ref_levels(v1, v2))
            if c["note"] != want:
                probs.append("level count note %r, expected %r" % (c["note"], want))
    if res["all_passed"] is not True:
        probs.append("all_passed is %r" % res["all_passed"])
    return probs


def _match_energies(found, expected, tol=1e-3) -> list:
    """Each distinct expected energy of multiplicity m needs m found values
    within 0.05 whose mean is within tol (1 + |E|); a single level must
    itself be within tol (1 + |E|)."""
    probs = []
    if len(found) != len(expected):
        probs.append("%d eigenvalues, expected %d" % (len(found), len(expected)))
    groups = []
    for e in expected:
        for g in groups:
            if abs(g[0] - e) < 1e-9 * (1 + abs(e)):
                g[1] += 1
                break
        else:
            groups.append([e, 1])
    for e, m in groups:
        near = sorted(found, key=lambda z: abs(z - e))[:m]
        if len(near) < m:
            probs.append("no eigenvalues left for E = %r" % e)
            continue
        mean = sum(near) / m
        if not (abs(mean - e) < tol * (1 + abs(e))
                and all(abs(z - e) < (0.05 if m > 1 else tol * (1 + abs(e))) for z in near)):
            probs.append("E = %r (x%d): nearest eigenvalues %r" % (e, m, near))
    return probs


def check_partner_spectrum(spec, data) -> list:
    br = branch(spec["v1"], spec["v2"], spec["signs"])
    expected = [complex(e) for e in br.partner_levels(shape(spec["v1"], spec["v2"]))]
    probs = []
    if spec["count"] != len(expected):
        probs.append("requested %d levels, the partner has %d" % (spec["count"], len(expected)))
    return probs + _match_energies(data, expected)


# relative tolerance of the numeric transmission against the Gamma formula;
# |T| near a spectral singularity amplifies the integration error by |T|
T_RTOL = 2e-6


def check_scatter(spec, data) -> list:
    rc, out, err = data
    lines = out.strip("\n").split("\n")
    probs = []
    if lines[0] != "k,t_re,t_im,t_abs,wronskian_ratio":
        probs.append("header %r" % lines[0])
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    k_min, k_max, steps = spec["k"]
    if len(rows) != steps:
        return probs + ["%d rows, expected %d" % (len(rows), steps)]
    for i, (k, t_re, t_im, t_abs, wr) in enumerate(rows):
        k_want = k_min + (k_max - k_min) * i / (steps - 1)
        t = complex(t_re, t_im)
        ref = ref_transmission(spec["v1"], spec["v2"], k_want)
        if abs(k - k_want) > 1e-12:
            probs.append("row %d: k = %r, expected %r" % (i, k, k_want))
        if not abs(t - ref) <= T_RTOL * abs(ref) * max(1.0, abs(ref)):
            probs.append("k = %.6g: T = %r, Gamma formula %r" % (k, t, ref))
        if abs(t_abs - abs(t)) > 1e-10 * abs(t) or not 0.0 <= wr <= 1.0:
            probs.append("k = %.6g: |T| column %r or Wronskian ratio %r" % (k, t_abs, wr))
    return probs


def check_scan(spec, data) -> list:
    k_peak, height, wr = data
    sh = shape(spec["v1"], spec["v2"])
    probs = []
    if R.n_star(sh) is not None:
        # the paper's criterion (k_peak^2 = q^2 within 1e-3, Wronskian ratio
        # below 1e-3) and the pole itself, which golden section finds to ~1e-6
        q = float(sh.q)
        if not (abs(k_peak ** 2 - q * q) < 1e-3 and wr < 1e-3 and abs(k_peak - q) < 1e-5):
            probs.append("on the locus: k_peak = %r vs q = %r, Wronskian ratio %r"
                         % (k_peak, q, wr))
        # at the pole |T| ~ 1/|k - k*|, so a pole moved by the integration
        # error changes the height at k_peak by O(1): ask for a factor of 3
        ref = abs(ref_transmission(spec["v1"], spec["v2"], k_peak))
        if not ref / 3 <= height <= 3 * ref:
            probs.append("peak height %r, Gamma formula at k_peak %r" % (height, ref))
    else:
        # the height error grows like |T|^2, as in the sweeps; (6.2, 18.75)
        # peaks at |T| = 16 and sits at 2e-5 relative
        k_ref, h_ref = _ref_peak(spec["v1"], spec["v2"], *spec["window"])
        if not (abs(k_peak - k_ref) < 1e-4
                and abs(height - h_ref) <= 1e-5 * h_ref * max(1.0, h_ref)):
            probs.append("peak (%r, %r), Gamma formula peak (%r, %r)"
                         % (k_peak, height, k_ref, h_ref))
        if not wr > 1e-3:
            probs.append("off the locus, yet Wronskian ratio %r" % wr)
    return probs


@lru_cache(maxsize=None)
def _ref_peak(v1, v2, k_lo, k_hi):
    return R.peak(shape(v1, v2), k_lo, k_hi)


def check_partner_scatter(spec, data) -> list:
    v1, v2, signs = spec["v1"], spec["v2"], spec["signs"]
    probs = []
    pt_symmetric = shape(v1, v2).real
    if [row[0] for row in data] != list(spec["k"]):
        probs.append("momenta %r" % [row[0] for row in data])
    for k, t, r_left, r_right in data:
        ref = ref_transmission(v1, v2, k, signs)
        if not abs(t - ref) <= T_RTOL * abs(ref) * max(1.0, abs(ref)):
            probs.append("k = %r: T_ext = %r, SUSY relation %r" % (k, t, ref))
        if pt_symmetric:
            # generalized unitarity of PT-symmetric scattering (Ge, Chong & Stone)
            gu = abs(t) ** 2 - 1.0 + r_left * r_right.conjugate()
            if not abs(gu) <= 1e-9 * max(1.0, abs(t) ** 2):
                probs.append("k = %r: |T|^2 - 1 + R_L R_R* = %r" % (k, gu))
    return probs


_CHECKS = {
    "verify": check_verify, "partner-spectrum": check_partner_spectrum,
    "scatter": check_scatter, "scan": check_scan,
    "partner-scatter": check_partner_scatter,
}


def problems(op, data) -> list:
    try:
        return _CHECKS[op.kind](op.spec, data)
    except (KeyError, ValueError, TypeError, IndexError, ZeroDivisionError) as exc:
        return ["output could not be read: %s: %s" % (type(exc).__name__, exc)]

