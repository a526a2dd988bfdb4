"""Command-line front end: batch computations with JSON/CSV artifacts.

Commands: spectrum, wavefunction, singularity, partner, scatter, verify.
Output is deterministic: fixed key order, floats at 12 significant digits,
complex numbers as {"re", "im"}.  Exit codes: 0 success, 2 bad arguments or an
unwritable --out, 3 domain/regime error, 4 numerical non-convergence or failed
verification.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile

import numpy as np

from .errors import ConvergenceError, DomainError, SingularBranchError, check_finite
from .params import CouplingParams, Regime, derive, potential_value
from .partner import (BRANCH_SIGNS, PartnerBranch, extended_potential,
                      factorization_residuals, partner_spectrum, solve_branch)
from .spectrum import (detect_singularity, matching_residuals,
                       singularity_locus, spectrum)
from .verify import REFERENCE_GRID, GridSpec, discrete_spectrum, residual, scattering
from .wavefunctions import bound_state

SCHEMA = "scarf-spectra/1"

_EPSILON_FLAGS = {"+": 1, "-": -1}
_BRANCH_FLAGS = {"++": (1, 1), "+-": (1, -1), "-+": (-1, 1), "--": (-1, -1)}
_BRANCH_LABELS = {signs: label for label, signs in _BRANCH_FLAGS.items()}

# keys of the "inputs" echo, in order; build_parser gives a command that lacks
# one of these flags a fixed value for it
_INPUT_KEYS = ("command", "v1", "v2", "n", "epsilon", "branch", "domain", "points",
               "k_min", "k_max", "k_steps", "format")


# ----------------------------------------------------------------------------
# deterministic serialization
# ----------------------------------------------------------------------------

def _fnum(v) -> str:
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        return str(int(v))
    v = float(v)
    if v != v or v in (float("inf"), float("-inf")):
        return '"%s"' % repr(v)
    return format(v, ".12g")


def _dumps(obj, indent: int = 0) -> str:
    pad = "  " * indent
    pad_in = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            '%s"%s": %s' % (pad_in, key, _dumps(val, indent + 1))
            for key, val in obj.items())
        return "{\n%s\n%s}" % (items, pad)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(isinstance(v, (int, float, np.floating, np.integer))
               and not isinstance(v, bool) for v in obj):
            return "[" + ", ".join(_fnum(v) for v in obj) + "]"
        items = ",\n".join(pad_in + _dumps(v, indent + 1) for v in obj)
        return "[\n%s\n%s]" % (items, pad)
    if obj is None or isinstance(obj, (bool, str)):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, (complex, np.complexfloating)):
        return '{"re": %s, "im": %s}' % (_fnum(obj.real), _fnum(obj.imag))
    if isinstance(obj, (int, float, np.integer, np.floating)):
        return _fnum(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _csv(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fnum(v) for v in row))
    return "\n".join(lines) + "\n"


def _write_file(text: str, path: str):
    """Write ``text`` to ``path`` atomically, through a temporary file."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".scarf-spectra-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit_error(exc: BaseException):
    doc = {"schema": SCHEMA,
           "error": {"type": type(exc).__name__, "message": str(exc)}}
    sys.stderr.write(_dumps(doc) + "\n")


def _level_json(lv) -> dict:
    rec = {"n": lv.n, "epsilon": lv.epsilon, "origin": lv.origin,
           "energy": complex(lv.energy)}
    if lv.wf is not None:
        rec.update(lam=complex(lv.wf.lam), mu=complex(lv.wf.mu),
                   alpha=complex(lv.wf.alpha), beta=complex(lv.wf.beta))
    return rec


# ----------------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------------

def _cmd_spectrum(args: argparse.Namespace):
    d = derive(CouplingParams(args.v1, args.v2))
    return {
        "regime": d.regime.value,
        "p": d.p, "q": d.q, "s": d.s, "nu": d.nu,
        "levels": [_level_json(lv) for lv in spectrum(d)],
    }


def _cmd_wavefunction(args: argparse.Namespace):
    d = derive(CouplingParams(args.v1, args.v2))
    eps = _EPSILON_FLAGS[args.epsilon]
    target = None
    for lv in spectrum(d):
        if lv.n == args.n and lv.epsilon == eps:
            target = lv
            break
    if target is None:
        raise DomainError(
            f"no bound level n={args.n}, epsilon={args.epsilon} for these couplings")
    xs = np.linspace(-args.domain, args.domain, args.points or 401)
    vals = bound_state(target, xs)
    check_finite("psi", vals, xs)
    return {
        "level": _level_json(target),
        "x": list(xs),
        "psi_re": list(vals.real),
        "psi_im": list(vals.imag),
        "psi_abs": list(np.abs(vals)),
    }


def _cmd_singularity(args: argparse.Namespace):
    d = derive(CouplingParams(args.v1, args.v2))
    rep = detect_singularity(d)
    results = {"report": {
        "is_singular": rep.is_singular, "n_star": rep.n_star,
        "e_star": rep.e_star, "tolerance_used": rep.tolerance_used,
        "note": rep.note,
    }}
    if args.n is not None:
        v1_cap = 2.0 * args.n ** 2 + 2.0 * args.n + 0.25
        points = [
            {"v1": pt.v1, "v2": pt.v2, "in_complex_regime": pt.in_complex_regime}
            for pt in singularity_locus(args.n, (v1_cap / 10.0, 1.2 * v1_cap),
                                        args.points or 21)
        ]
        results["locus"] = {"n": args.n, "points": points}
    return results


def _branch_json(branch: PartnerBranch, d, params: CouplingParams,
                 xs: np.ndarray) -> dict:
    levels, edit = partner_spectrum(branch, d)
    vext = extended_potential(branch, params, xs)
    deg = None
    if edit.degeneracy is not None:
        deg = {"n": edit.degeneracy.n, "energy": edit.degeneracy.energy}
    return {
        "branch": _BRANCH_LABELS[(branch.eps_plus, branch.eps_minus)],
        "kind": branch.kind.value,
        "a": complex(branch.a), "b": complex(branch.b), "c": complex(branch.c),
        "factorization_energy": complex(branch.factorization_energy),
        "levels": [_level_json(lv) for lv in levels],
        "edit": {
            "deleted": None if edit.deleted is None else _level_json(edit.deleted),
            "added": None if edit.added is None else _level_json(edit.added),
            "degeneracy": deg,
        },
        "v_ext": {"x": list(xs), "re": list(vext.real), "im": list(vext.imag)},
    }


def _cmd_partner(args: argparse.Namespace):
    params = CouplingParams(args.v1, args.v2)
    d = derive(params)
    xs = np.linspace(-args.domain, args.domain, args.points or 201)
    if args.branch is not None:
        signs = [_BRANCH_FLAGS[args.branch]]
    else:
        signs = list(BRANCH_SIGNS)
    branches = []
    for ep, em in signs:
        try:
            branch = solve_branch(d, ep, em)
        except SingularBranchError as exc:
            if args.branch is not None:
                raise
            branches.append({"branch": _BRANCH_LABELS[(ep, em)], "error": str(exc)})
            continue
        branches.append(_branch_json(branch, d, params, xs))
    return {"branches": branches}


def _cmd_scatter(args: argparse.Namespace):
    params = CouplingParams(args.v1, args.v2)
    grid = GridSpec(args.domain, 201)           # scattering reads half_width only
    ks = np.linspace(args.k_min, args.k_max, args.k_steps)
    scs = scattering(lambda x: potential_value(params, x), ks, grid)
    return {
        "k": [sc.k for sc in scs],
        "t_re": [sc.transmission.real for sc in scs],
        "t_im": [sc.transmission.imag for sc in scs],
        "t_abs": [abs(sc.transmission) for sc in scs],
        "wronskian_ratio": [sc.wronskian_ratio for sc in scs],
    }


def _worst(values) -> float:
    # np.max, not max(): Python's max drops a NaN that is not first
    return float(np.max(list(values)))


def _cmd_verify(args: argparse.Namespace):
    params = CouplingParams(args.v1, args.v2)
    d = derive(params)
    grid = GridSpec(args.domain, args.points or REFERENCE_GRID.n_points)
    xs = grid.points()
    potential = lambda x: potential_value(params, x)
    checks = []

    def record(name, value=None, threshold=None, note=""):
        # a check with no value was skipped, and passes
        skipped = value is None
        checks.append({"name": name, "passed": skipped or bool(value < threshold),
                       "value": None if skipped else float(value),
                       "threshold": None if skipped else float(threshold), "note": note})

    vv = potential_value(params, xs)
    scale = np.max(np.abs(vv))
    record("potential-pt-symmetry",
           np.max(np.abs(np.conj(vv[::-1]) - vv)) / scale, 1e-13)

    if d.regime is Regime.BOUNDARY:
        record("spectrum", note="regime boundary: spectral checks skipped")
    else:
        levels = spectrum(d)
        if levels:
            record("matching-conditions",
                   _worst(r for lv in levels for r in matching_residuals(lv, params).values()),
                   1e-10)
            values, notes = [], []
            for lv in levels:
                try:
                    values.append(residual(potential, lambda x, _lv=lv: bound_state(_lv, x),
                                           lv.energy, grid))
                except DomainError as exc:
                    values.append(math.nan)
                    notes.append(f"n = {lv.n}, epsilon = {lv.epsilon:+d}: {exc}")
            record("wavefunction-residuals", _worst(values), 1e-6,
                   note=notes[0] if notes else "")
            numeric = discrete_spectrum(potential, grid, count=len(levels))
            gaps = [min((abs(complex(lv.energy) - z) for z in numeric), default=np.inf)
                    / (1.0 + abs(lv.energy)) for lv in levels]
            note = f"{len(levels)} levels"
            unmatched = sum(not g < 1e-3 for g in gaps)
            if unmatched:
                # np.argmax, like _worst, picks a NaN first
                lv = levels[int(np.argmax(gaps))]
                note += (f", {unmatched} unmatched; worst n = {lv.n}, "
                         f"epsilon = {lv.epsilon:+d}, gap {_worst(gaps):.3g}")
            record("analytic-vs-numeric-levels", _worst(gaps), 1e-3, note=note)
        else:
            record("spectrum", note="no bound levels")

        if d.nu > 0:
            for ep, em in BRANCH_SIGNS:
                name = "factorization-" + _BRANCH_LABELS[(ep, em)]
                try:
                    branch = solve_branch(d, ep, em)
                except SingularBranchError as exc:
                    record(name, note=str(exc))
                    continue
                res_v, res_ext = factorization_residuals(branch, params, xs)
                record(name, _worst((res_v, res_ext)), 1e-8)
        else:
            record("factorization", note="v2 < 0: partner checks skipped")
    return {"all_passed": all(c["passed"] for c in checks), "checks": checks}


# every flag, declared once; _COMMANDS names the ones each command takes
# besides --v1, --v2 and --out
_FLAGS = {
    "--v1": dict(type=float, required=True, help="well-depth coupling (> 0)"),
    "--v2": dict(type=float, required=True, help="imaginary-part coupling (!= 0)"),
    "--n": dict(type=int, help="level index"),
    "--epsilon": dict(choices=tuple(_EPSILON_FLAGS), help="quasi-parity label"),
    "--branch": dict(choices=tuple(_BRANCH_FLAGS),
                     help="superpotential sign branch (default: all four)"),
    "--k-min": dict(type=float, required=True),
    "--k-max": dict(type=float, required=True),
    "--k-steps": dict(type=int, default=50),
    "--domain": dict(type=float, default=20.0, help="half-width L of the evaluation box"),
    "--points": dict(type=int, help="grid / sample point count (command-specific default)"),
    "--format": dict(choices=("json", "csv"), default="csv"),
    "--out": dict(help="output file (default stdout)"),
}

# each command returns its results dict and nothing else; run alone renders it
_COMMANDS = {
    "spectrum": (_cmd_spectrum, "analytic bound-state levels", ()),
    "wavefunction": (_cmd_wavefunction, "sample one bound state on a grid",
                     ("--n", "--epsilon", "--domain", "--points", "--format")),
    "singularity": (_cmd_singularity,
                    "spectral-singularity report (add --n for a locus scan)",
                    ("--n", "--points")),
    "partner": (_cmd_partner, "SUSY partner branches, spectra and extended potentials",
                ("--branch", "--domain", "--points")),
    "scatter": (_cmd_scatter, "transmission/reflection over a momentum range",
                ("--k-min", "--k-max", "--k-steps", "--domain", "--format")),
    "verify": (_cmd_verify, "analytic-vs-numeric cross-check suite",
               ("--domain", "--points")),
}


# ----------------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process; parse_args leaves
    it unchanged."""
    parser = argparse.ArgumentParser(
        prog="scarf-spectra",
        description="Spectra, wavefunctions and SUSY extensions of the "
                    "PT-symmetric Scarf II potential.")
    # the values a command echoes for the input flags it does not take
    parser.set_defaults(**{**dict.fromkeys(_INPUT_KEYS[3:]), "domain": 20.0, "format": "json"})
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        for flag in ("--v1", "--v2", *flags, "--out"):
            sp.add_argument(flag, **_FLAGS[flag])
    return parser


def run(args: argparse.Namespace) -> int:
    """Execute one parsed command, NumPy warnings silenced (a non-finite value
    that reaches a result is a named error), and print its results as the JSON
    document or, for --format csv, their list entries as columns; returns the
    exit status."""
    try:
        with np.errstate(all="ignore"):
            results = _COMMANDS[args.command][0](args)
    except (DomainError, ValueError) as exc:
        _emit_error(exc)
        return 3
    except ConvergenceError as exc:
        _emit_error(exc)
        return 4
    if args.format == "csv":
        columns = {key: val for key, val in results.items() if isinstance(val, list)}
        text = _csv(columns, zip(*columns.values()))
    else:
        inputs = {key: getattr(args, key) for key in _INPUT_KEYS}
        text = _dumps({"schema": SCHEMA, "inputs": inputs, "results": results}) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        try:
            _write_file(text, args.out)
        except OSError as exc:
            _emit_error(OSError(f"cannot write --out {args.out}: {exc.strerror or exc}"))
            return 2
    if args.command == "verify" and not results["all_passed"]:
        return 4
    return 0


def _join_sign_values(argv):
    # argparse reads "-+" / "--" as option strings; fold them into --flag=value
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (tok in ("--branch", "--epsilon") and i + 1 < len(argv)
                and argv[i + 1].startswith("-")):
            out.append(tok + "=" + argv[i + 1])
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(_join_sign_values(list(argv)))
    # Python 3.11's argparse drops an option value of "--", leaving []
    if args.branch == []:
        args.branch = "--"
    empty = [key for key, value in vars(args).items() if value == []]
    if empty:
        parser.error(f"argument --{empty[0].replace('_', '-')}: invalid value '--'")
    if args.command == "wavefunction" and (args.n is None or args.epsilon is None):
        parser.error("wavefunction requires --n and --epsilon")
    if args.command == "singularity" and args.points is not None and args.n is None:
        parser.error("singularity --points sets the locus scan and requires --n")
    if args.command == "scatter":
        if args.k_steps < 1:
            parser.error("--k-steps must be >= 1")
        if not -math.inf < args.k_min < args.k_max < math.inf:
            parser.error("--k-min and --k-max must be finite, with --k-min < --k-max")
    if args.points is not None and args.points < 2:
        parser.error("--points must be >= 2")
    if not 0.0 < args.domain < math.inf:
        parser.error("--domain must be positive and finite")
    if args.command == "verify" and args.points is not None:
        try:
            GridSpec(args.domain, args.points)
        except DomainError as exc:
            parser.error(f"argument --points: {exc}")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
