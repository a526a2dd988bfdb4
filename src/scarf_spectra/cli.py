"""Command-line front end: batch computations with JSON/CSV artifacts.

Commands: spectrum, wavefunction, singularity, partner, scatter, verify.
Output is deterministic: fixed key order, floats at 12 significant digits,
complex numbers as {"re", "im"}.  Exit codes: 0 success, 2 bad arguments,
3 domain/regime error, 4 numerical non-convergence or failed verification.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConvergenceError, DomainError, SingularBranchError
from .params import (CouplingParams, Regime, couplings_from_derived, derive,
                     potential_value)
from .partner import (BRANCH_SIGNS, PartnerBranch, extended_potential,
                      factorization_residuals, partner_singularity,
                      partner_spectrum, solve_branch)
from .spectrum import (detect_singularity, matching_residuals,
                       singularity_locus, spectrum)
from .verify import GridSpec, discrete_spectrum, residual, scattering
from .wavefunctions import bound_state

SCHEMA = "scarf-spectra/1"

_EPSILON_FLAGS = {"+": 1, "-": -1}
_BRANCH_FLAGS = {"++": (1, 1), "+-": (1, -1), "-+": (-1, 1), "--": (-1, -1)}
_BRANCH_LABELS = {signs: label for label, signs in _BRANCH_FLAGS.items()}


@dataclass(frozen=True)
class RunConfig:
    command: str
    v1: float
    v2: float
    n: Optional[int] = None
    epsilon: Optional[str] = None
    branch: Optional[str] = None
    domain: float = 20.0
    points: Optional[int] = None
    k_min: Optional[float] = None
    k_max: Optional[float] = None
    k_steps: Optional[int] = None
    output_format: str = "json"
    output_path: Optional[str] = None


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
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (complex, np.complexfloating)):
        return '{"re": %s, "im": %s}' % (_fnum(obj.real), _fnum(obj.imag))
    if isinstance(obj, (int, float, np.integer, np.floating)):
        return _fnum(obj)
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _csv(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fnum(v) for v in row))
    return "\n".join(lines) + "\n"


def _write_output(text: str, path: Optional[str]):
    if path is None:
        sys.stdout.write(text)
        return
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


def _inputs(cfg: RunConfig) -> dict:
    return {
        "command": cfg.command, "v1": cfg.v1, "v2": cfg.v2, "n": cfg.n,
        "epsilon": cfg.epsilon, "branch": cfg.branch, "domain": cfg.domain,
        "points": cfg.points, "k_min": cfg.k_min, "k_max": cfg.k_max,
        "k_steps": cfg.k_steps, "format": cfg.output_format,
    }


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

def _cmd_spectrum(cfg: RunConfig):
    d = derive(CouplingParams(cfg.v1, cfg.v2))
    levels = spectrum(d)
    results = {
        "regime": d.regime.value,
        "p": d.p, "q": d.q, "s": d.s, "nu": d.nu,
        "levels": [_level_json(lv) for lv in levels],
    }
    return results, None


def _cmd_wavefunction(cfg: RunConfig):
    d = derive(CouplingParams(cfg.v1, cfg.v2))
    eps = _EPSILON_FLAGS[cfg.epsilon]
    target = None
    for lv in spectrum(d):
        if lv.n == cfg.n and lv.epsilon == eps:
            target = lv
            break
    if target is None:
        raise DomainError(
            f"no bound level n={cfg.n}, epsilon={cfg.epsilon} for these couplings")
    xs = np.linspace(-cfg.domain, cfg.domain, cfg.points or 401)
    vals = bound_state(target, xs)
    if cfg.output_format == "csv":
        rows = [(x, v.real, v.imag, abs(v)) for x, v in zip(xs, vals)]
        return None, ("x,psi_re,psi_im,psi_abs", rows)
    results = {
        "level": _level_json(target),
        "x": list(xs),
        "psi_re": list(vals.real),
        "psi_im": list(vals.imag),
        "psi_abs": list(np.abs(vals)),
    }
    return results, None


def _cmd_singularity(cfg: RunConfig):
    d = derive(CouplingParams(cfg.v1, cfg.v2))
    rep = detect_singularity(d)
    results = {"report": {
        "is_singular": rep.is_singular, "n_star": rep.n_star,
        "e_star": rep.e_star, "tolerance_used": rep.tolerance_used,
        "note": rep.note,
    }}
    if cfg.n is not None:
        v1_cap = 2.0 * cfg.n ** 2 + 2.0 * cfg.n + 0.25
        points = [
            {"v1": pt.v1, "v2": pt.v2, "in_complex_regime": pt.in_complex_regime}
            for pt in singularity_locus(cfg.n, (v1_cap / 10.0, 1.2 * v1_cap),
                                        cfg.points or 21)
        ]
        results["locus"] = {"n": cfg.n, "points": points}
    return results, None


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


def _cmd_partner(cfg: RunConfig):
    params = CouplingParams(cfg.v1, cfg.v2)
    d = derive(params)
    xs = np.linspace(-cfg.domain, cfg.domain, cfg.points or 201)
    if cfg.branch is not None:
        signs = [_BRANCH_FLAGS[cfg.branch]]
    else:
        signs = list(BRANCH_SIGNS)
    branches = []
    for ep, em in signs:
        try:
            branch = solve_branch(d, ep, em)
        except SingularBranchError as exc:
            if cfg.branch is not None:
                raise
            branches.append({"branch": _BRANCH_LABELS[(ep, em)], "error": str(exc)})
            continue
        branches.append(_branch_json(branch, d, params, xs))
    return {"branches": branches}, None


def _cmd_scatter(cfg: RunConfig):
    params = CouplingParams(cfg.v1, cfg.v2)
    grid = GridSpec(cfg.domain, cfg.points or 201)
    ks = np.linspace(cfg.k_min, cfg.k_max, cfg.k_steps)
    rows = []
    for k in ks:
        sc = scattering(lambda x: potential_value(params, x), float(k), grid)
        t = sc.transmission
        rows.append((float(k), t.real, t.imag, abs(t), sc.wronskian_ratio))
    if cfg.output_format == "csv":
        return None, ("k,t_re,t_im,t_abs,wronskian_ratio", rows)
    results = {
        "k": [r[0] for r in rows],
        "t_re": [r[1] for r in rows],
        "t_im": [r[2] for r in rows],
        "t_abs": [r[3] for r in rows],
        "wronskian_ratio": [r[4] for r in rows],
    }
    return results, None


def _worst(values) -> float:
    # np.max, not max(): Python's max drops a NaN that is not first
    return float(np.max(list(values)))


def _verify_checks(cfg: RunConfig) -> list:
    params = CouplingParams(cfg.v1, cfg.v2)
    d = derive(params)
    grid = GridSpec(cfg.domain, cfg.points or 4001)
    xs = grid.points()
    potential = lambda x: potential_value(params, x)
    checks = []

    def record(name, value, threshold, note=""):
        checks.append({"name": name, "passed": bool(value < threshold),
                       "value": float(value), "threshold": float(threshold),
                       "note": note})

    def skip(name, note):
        checks.append({"name": name, "passed": True, "value": None,
                       "threshold": None, "note": note})

    vv = potential_value(params, xs)
    scale = np.max(np.abs(vv))
    record("potential-pt-symmetry",
           np.max(np.abs(np.conj(vv[::-1]) - vv)) / scale, 1e-13)

    if d.regime is Regime.BOUNDARY:
        skip("spectrum", "regime boundary: spectral checks skipped")
        return checks

    levels = spectrum(d)
    if levels:
        record("matching-conditions",
               _worst(r for lv in levels for r in matching_residuals(lv, params).values()),
               1e-10)
        record("wavefunction-residuals",
               _worst(residual(potential, lambda x, _lv=lv: bound_state(_lv, x),
                               lv.energy, grid) for lv in levels), 1e-6)
        numeric = discrete_spectrum(potential, grid, count=len(levels))
        gap = _worst(min((abs(complex(lv.energy) - z) for z in numeric), default=np.inf)
                     / (1.0 + abs(lv.energy)) for lv in levels)
        record("analytic-vs-numeric-levels", gap,
               max(1e-3, 10.0 * grid.h ** 2), note=f"{len(levels)} levels")
    else:
        skip("spectrum", "no bound levels")

    if d.nu > 0:
        for ep, em in BRANCH_SIGNS:
            name = "factorization-" + _BRANCH_LABELS[(ep, em)]
            try:
                branch = solve_branch(d, ep, em)
            except SingularBranchError as exc:
                skip(name, str(exc))
                continue
            res_v, res_ext = factorization_residuals(branch, params, xs)
            record(name, _worst((res_v, res_ext)), 1e-8)
    else:
        skip("factorization", "v2 < 0: partner checks skipped")
    return checks


def _cmd_verify(cfg: RunConfig):
    checks = _verify_checks(cfg)
    results = {"all_passed": all(c["passed"] for c in checks), "checks": checks}
    return results, None


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "wavefunction": _cmd_wavefunction,
    "singularity": _cmd_singularity,
    "partner": _cmd_partner,
    "scatter": _cmd_scatter,
    "verify": _cmd_verify,
}

_CSV_COMMANDS = {"wavefunction", "scatter"}
_DEFAULT_FORMAT = {"wavefunction": "csv", "scatter": "csv"}


# ----------------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scarf-spectra",
        description="Spectra, wavefunctions and SUSY extensions of the "
                    "PT-symmetric Scarf II potential.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, *, needs_n=False, needs_k=False):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--v1", type=float, required=True,
                        help="well-depth coupling (> 0)")
        sp.add_argument("--v2", type=float, required=True,
                        help="imaginary-part coupling (!= 0)")
        if needs_n:
            sp.add_argument("--n", type=int, help="level index")
            sp.add_argument("--epsilon", choices=("+", "-"),
                            help="quasi-parity label")
        if name == "partner":
            sp.add_argument("--branch", choices=tuple(_BRANCH_FLAGS),
                            help="superpotential sign branch (default: all four)")
        if needs_k:
            sp.add_argument("--k-min", type=float, required=True)
            sp.add_argument("--k-max", type=float, required=True)
            sp.add_argument("--k-steps", type=int, default=50)
        sp.add_argument("--domain", type=float, default=20.0,
                        help="half-width L of the evaluation box")
        sp.add_argument("--points", type=int,
                        help="grid / sample point count (command-specific default)")
        sp.add_argument("--format", choices=("json", "csv"), dest="output_format")
        sp.add_argument("--out", dest="output_path", help="output file (default stdout)")
        return sp

    add("spectrum", "analytic bound-state levels")
    add("wavefunction", "sample one bound state on a grid", needs_n=True)
    add("singularity", "spectral-singularity report (add --n for a locus scan)",
        needs_n=True)
    add("partner", "SUSY partner branches, spectra and extended potentials")
    add("scatter", "transmission/reflection over a momentum range", needs_k=True)
    add("verify", "analytic-vs-numeric cross-check suite")
    return parser


def _config_from_args(args, parser) -> RunConfig:
    fmt = getattr(args, "output_format", None)
    if fmt is None:
        fmt = _DEFAULT_FORMAT.get(args.command, "json")
    if fmt == "csv" and args.command not in _CSV_COMMANDS:
        parser.error(f"command {args.command!r} supports JSON output only")
    if args.command == "wavefunction":
        if getattr(args, "n", None) is None or getattr(args, "epsilon", None) is None:
            parser.error("wavefunction requires --n and --epsilon")
    if args.command == "scatter":
        if args.k_steps < 1:
            parser.error("--k-steps must be >= 1")
        if not args.k_min < args.k_max:
            parser.error("--k-min must be < --k-max")
    points = getattr(args, "points", None)
    if points is not None and points < 2:
        parser.error("--points must be >= 2")
    if args.domain <= 0:
        parser.error("--domain must be positive")
    return RunConfig(
        command=args.command, v1=args.v1, v2=args.v2,
        n=getattr(args, "n", None), epsilon=getattr(args, "epsilon", None),
        branch=getattr(args, "branch", None), domain=args.domain, points=points,
        k_min=getattr(args, "k_min", None), k_max=getattr(args, "k_max", None),
        k_steps=getattr(args, "k_steps", None),
        output_format=fmt, output_path=getattr(args, "output_path", None))


def run(cfg: RunConfig) -> int:
    """Execute one configured command; returns the process exit status."""
    try:
        results, csv_payload = _COMMANDS[cfg.command](cfg)
        if csv_payload is not None:
            header, rows = csv_payload
            text = _csv(header.split(","), rows)
        else:
            doc = {"schema": SCHEMA, "inputs": _inputs(cfg), "results": results}
            text = _dumps(doc) + "\n"
        _write_output(text, cfg.output_path)
    except (DomainError, ValueError) as exc:
        _emit_error(exc)
        return 3
    except ConvergenceError as exc:
        _emit_error(exc)
        return 4
    if cfg.command == "verify" and not results["all_passed"]:
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
    cfg = _config_from_args(args, parser)
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
