"""Reference values for the benchmark's correctness checks.

Nothing here imports ``scarf_spectra``.  Every quantity is rebuilt from the
couplings (v1, v2) of V(x) = -v1 sech^2 x + i v2 sech x tanh x with textbook
formulas, evaluated in mpmath:

* spectra from the shape parameters p, s, q;
* SUSY partner branches (a, b, c) and their spectra;
* the closed-form transmission amplitude of Scarf II as a ratio of Gamma
  functions (Khare & Sukhatme; Z. Ahmed, Phys. Rev. A 64 (2001) 042716).
"""

from __future__ import annotations

import mpmath as mp

mp.mp.dps = 50


class Shape:
    """Shape parameters of one coupling pair.

    (2p)^2 = v1 + |v2| + 1/4 and (2 sigma)^2 = v1 - |v2| + 1/4, so ``sigma``
    is s in the real regime and i q in the broken one.
    """

    def __init__(self, v1: float, v2: float):
        self.v1 = mp.mpf(v1)
        self.v2 = mp.mpf(v2)
        self.nu = 1 if v2 > 0 else -1
        av2 = abs(self.v2)
        self.p = mp.sqrt(self.v1 + av2 + mp.mpf(1) / 4) / 2
        gap = self.v1 - av2 + mp.mpf(1) / 4
        self.real = gap > 0
        if self.real:
            self.s, self.q = mp.sqrt(gap) / 2, mp.mpf(0)
            self.sigma = mp.mpc(self.s)
        else:
            self.s, self.q = mp.mpf(0), mp.sqrt(-gap) / 2
            self.sigma = mp.mpc(0, self.q)


class Level:
    def __init__(self, n: int, epsilon: int, energy):
        self.n, self.epsilon, self.energy = n, epsilon, energy


def levels(sh: Shape) -> list:
    """Every bound level of the couplings, as (n, epsilon, E).

    Real regime: lam = p + eps s - 1/2, n < lam.
    Broken regime: lam = p + i eps q - 1/2, n < p - 1/2.
    E = -(lam - n)^2 in both.
    """
    out = []
    half = mp.mpf(1) / 2
    for eps in (1, -1):
        if sh.real:
            lam = mp.mpc(sh.p + eps * sh.s - half)
            top = lam.real
        else:
            lam = sh.p + 1j * eps * sh.q - half
            top = sh.p - half
        n = 0
        while n < top:
            out.append(Level(n, eps, -(lam - n) ** 2))
            n += 1
    return out


def n_star(sh: Shape):
    """Index n* of the spectral singularity, or None off the locus."""
    if sh.real:
        return None
    r = sh.p - mp.mpf(1) / 2
    k = int(mp.nint(r))
    return k if k >= 0 and abs(r - k) < 1e-9 else None


class Branch:
    """Superpotential W = a tanh x + i b sech x - i cosh x / (i sinh x + c).

    a(a + 1) + b^2 = v1 and (2a + 1) b = v2 give
    a = -1/2 + eps_plus p + eps_minus sigma, b = eps_plus p - eps_minus sigma,
    c = -2b / (2a - 1), factorization energy E = -(a - 1)^2.
    """

    def __init__(self, sh: Shape, eps_plus: int, eps_minus: int):
        self.shape = sh
        self.eps_plus, self.eps_minus = eps_plus, eps_minus
        self.a = -mp.mpf(1) / 2 + eps_plus * sh.p + eps_minus * sh.sigma
        self.b = eps_plus * sh.p - eps_minus * sh.sigma
        self.singular = abs(2 * self.a - 1) < 1e-12 * (1 + abs(self.a))
        self.c = None if self.singular else -2 * self.b / (2 * self.a - 1)
        self.energy = -(self.a - 1) ** 2

    def partner_levels(self, sh: Shape) -> list:
        """Partner spectrum energies: level (1, eps_minus) deleted for
        eps_plus = +1, a level at the factorization energy added otherwise."""
        energies = [lv.energy for lv in levels(sh)
                    if not (self.eps_plus == 1 and (lv.n, lv.epsilon) == (1, self.eps_minus))]
        if self.eps_plus == -1:
            energies.append(self.energy)
        return energies


def transmission(sh: Shape, k):
    """Closed-form Scarf II transmission amplitude.

    T(k) = prod_{+-} G(1/2 -+ (p + sigma) - ik) G(1/2 -+ (p - sigma) - ik)
           / [G(-ik) G(1 - ik) G(1/2 - ik)^2],   G = Gamma,

    which has its pole at k = q exactly when p - 1/2 is an integer.  It does
    not depend on the sign of v2.
    """
    ik = 1j * mp.mpf(k)
    half = mp.mpf(1) / 2
    num = mp.mpc(1)
    for z in (sh.p + sh.sigma, sh.p - sh.sigma):
        num *= mp.gamma(half - z - ik) * mp.gamma(half + z - ik)
    return num / (mp.gamma(-ik) * mp.gamma(1 - ik) * mp.gamma(half - ik) ** 2)


def susy_transmission(sh: Shape, br: Branch, k):
    """T of the partner: T(k) (ik + a - 1) / (ik - a + 1), from W(+-inf) = +-(a - 1)."""
    ik = 1j * mp.mpf(k)
    return transmission(sh, k) * (ik + br.a - 1) / (ik - br.a + 1)


def peak(sh: Shape, k_lo: float, k_hi: float, coarse: int = 81, tol: float = 1e-12):
    """(k, |T|) of the largest |T(k)| in [k_lo, k_hi]: coarse grid, then golden section."""
    f = lambda k: abs(transmission(sh, k))
    ks = [k_lo + (k_hi - k_lo) * i / (coarse - 1) for i in range(coarse)]
    vals = [f(k) for k in ks]
    i = max(range(coarse), key=lambda j: vals[j])
    lo, hi = ks[max(i - 1, 0)], ks[min(i + 1, coarse - 1)]
    g = (mp.sqrt(5) - 1) / 2
    c, d = hi - g * (hi - lo), lo + g * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > tol:
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - g * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + g * (hi - lo)
            fd = f(d)
    k = (lo + hi) / 2
    return float(k), float(f(k))
