"""Constructors for the classical families: Hall-Littlewood P and Q,
Schur, Macdonald, the Green transition table, and the one-row generating
series with its multiplication coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .partitions import (
    LengthExceedsN,
    Partition,
    box_added_index,
    conjugate,
    dominates,
    enumerate_partitions,
    grevlex_key,
    horizontal_strip,
    multiplicities,
    t_factors,
    union,
)
from .ratfun import SYMBOLIC
from . import symfun
from .symfun import (
    NotDivisible,
    SingularTransition,
    SymFun,
    XPoly,
    _memo,
    _p_pairing,
    _pair_product,
    alternant_quotient,
    axpy,
)


def t_deformed_vandermonde(N, field=SYMBOLIC):
    """The expanded product of (x_i - t x_j) over all pairs i < j <= N."""
    return _memo(("tvand", N, field), lambda: _pair_product(N, -field.t, field))


def hl_alternant(lam, N, field=SYMBOLIC):
    """Hall-Littlewood polynomial P_lam(x_1..x_N) in the monomial basis."""
    lam = Partition(lam)
    if N < len(lam):
        raise LengthExceedsN("N=%d below the length of %r" % (N, tuple(lam)))

    def build():
        pad = tuple(lam) + (0,) * (N - len(lam))
        shifted = {}
        for e, c in t_deformed_vandermonde(N, field).coeffs.items():
            shifted[tuple(e[i] + pad[i] for i in range(N))] = c
        v = t_factors(lam, N=N, field=field).v
        out = alternant_quotient(XPoly(N, shifted, field)).scale(field.one / v)
        if field.is_symbolic:
            for mu, c in out.coeffs.items():
                _require_z_t(c, "coefficient of %r" % (tuple(mu),))
        return out

    return _memo(("hl_alt", lam, N, field), build)


def _require_z_t(c, what):
    if not (c.den == 1 and c.num.max_deg_q() == 0):
        raise NotDivisible("%s leaves Z[t]: %s" % (what, c))


def hl_in_m(lam, field=SYMBOLIC):
    """Monomial expansion of the stable Hall-Littlewood function P_lam."""
    lam = Partition(lam)

    def build():
        if not lam:
            return {Partition(): field.one}
        return dict(hl_alternant(lam, sum(lam), field).coeffs)

    return _memo(("hl_m", lam, field), build)


def hl_q_in_m(lam, field=SYMBOLIC):
    lam = Partition(lam)

    def build():
        b = t_factors(lam, field=field).b
        return {mu: c * b for mu, c in hl_in_m(lam, field).items()}

    return _memo(("hlq_m", lam, field), build)


def hall_littlewood(lam, kind, degree_bound=None, field=SYMBOLIC):
    """The stable symmetric function P_lam or Q_lam = b_lam(t) P_lam."""
    if kind not in ("P", "Q"):
        raise ValueError("kind must be P or Q")
    lam = Partition(lam)
    bound = sum(lam) if degree_bound is None else degree_bound
    coeffs = hl_in_m(lam, field) if kind == "P" else hl_q_in_m(lam, field)
    return SymFun("m", dict(coeffs), bound, field)


def hl_in_p(lam, kind, field=SYMBOLIC):
    """Power-sum expansion of P_lam or Q_lam (memoized; heavily reused by
    the operator sums)."""
    lam = Partition(lam)

    def build():
        sym = hall_littlewood(lam, kind, field=field)
        return dict(symfun.convert(sym, "p").coeffs)

    return _memo(("hl_p", kind, lam, field), build)


def schur(lam, degree_bound=None, field=SYMBOLIC):
    lam = Partition(lam)
    bound = sum(lam) if degree_bound is None else degree_bound
    return SymFun("m", dict(symfun.schur_in_m(lam, field)), bound, field)


def q_row_series(degree_bound, field=SYMBOLIC):
    """One-row functions Q_1..Q_d: u-coefficients of exp(sum (1-t^n)/n p_n u^n)."""
    if degree_bound < 1:
        raise ValueError("degree_bound must be at least 1")
    rows = [{Partition(): field.one}]
    for m in range(1, degree_bound + 1):
        acc = {}
        for n in range(1, m + 1):
            factor = field.one - field.t ** n
            for mu, c in rows[m - n].items():
                key = union(mu, (n,))
                acc[key] = acc.get(key, field.zero) + c * factor
        inv_m = field.from_fraction(Fraction(1, m))
        rows.append({k: c * inv_m for k, c in acc.items()})
    return [SymFun("p", rows[m], degree_bound, field) for m in range(1, degree_bound + 1)]


# ---------------------------------------------------------------------------
# Macdonald functions via Gram-Schmidt

def _macdonald_degree(degree, field):
    def build():
        lams = enumerate_partitions(degree)
        m_to_p = symfun.transition_matrix("m", "p", degree, field)
        out_m = {}
        out_p = {}
        norms = {}
        for lam in sorted(lams, key=grevlex_key, reverse=True):
            # ascending dominance: reverse of the canonical enumeration order
            vec_m = {lam: field.one}
            vec_p = dict(m_to_p[lam])
            for mu in out_p:
                c = _p_pairing(vec_p, out_p[mu], field)
                if not c:
                    continue
                c = -c / norms[mu]
                axpy(vec_m, out_m[mu], c)
                axpy(vec_p, out_p[mu], c)
            vec_m = {mu: c for mu, c in vec_m.items() if c}
            vec_p = {mu: c for mu, c in vec_p.items() if c}
            for mu in vec_m:
                if not dominates(lam, mu):
                    raise SingularTransition(
                        "Macdonald expansion of %r touches %r, outside the lower order ideal"
                        % (tuple(lam), tuple(mu))
                    )
            out_m[lam] = vec_m
            out_p[lam] = vec_p
            norms[lam] = _p_pairing(vec_p, vec_p, field)
        return out_m

    return _memo(("macdonald", degree, field), build)


def macdonald_in_m(lam, field=SYMBOLIC):
    lam = Partition(lam)
    return _macdonald_degree(sum(lam), field)[lam]


def macdonald_M(lam, degree_bound=None, field=SYMBOLIC):
    """The Macdonald symmetric function, unitriangular over monomials."""
    lam = Partition(lam)
    bound = sum(lam) if degree_bound is None else degree_bound
    return SymFun("m", dict(macdonald_in_m(lam, field)), bound, field)


# ---------------------------------------------------------------------------
# Green transition coefficients

@dataclass
class GreenTable:
    degree: int
    entries: dict

    def x(self, lam, mu):
        return self.entries[(Partition(lam), Partition(mu))]


def green_table(degree, field=SYMBOLIC):
    """Coefficients X_{lam,mu}(t) with p_lam = sum_mu X_{lam,mu} P_mu."""
    if degree < 1:
        raise ValueError("degree must be at least 1")

    def build():
        lams = enumerate_partitions(degree)
        p_to_hl = symfun.transition_matrix("p", "P", degree, field)
        entries = {}
        for lam in lams:
            row = p_to_hl[lam]
            for mu in lams:
                c = row.get(mu, field.zero)
                if field.is_symbolic:
                    _require_z_t(c, "Green coefficient X[%r,%r]" % (tuple(lam), tuple(mu)))
                entries[(lam, mu)] = c
        return GreenTable(degree=degree, entries=entries)

    return _memo(("green", degree, field), build)


# ---------------------------------------------------------------------------
# one-row multiplication and first-derivative coefficients

def morris_phi(lam, mu, field=SYMBOLIC):
    """Coefficient of P_lam in Q_n P_mu, n = |lam| - |mu| (0 off horizontal strips)."""
    lam, mu = Partition(lam), Partition(mu)
    if not horizontal_strip(lam, mu):
        return field.zero
    lam_c, mu_c = conjugate(lam), conjugate(mu)
    mult = multiplicities(lam)
    out = field.one
    for i in range(1, (lam[0] if lam else 0) + 1):
        d_i = lam_c[i - 1] - (mu_c[i - 1] if i - 1 < len(mu_c) else 0)
        d_next = 0
        if i < len(lam_c):
            d_next = lam_c[i] - (mu_c[i] if i < len(mu_c) else 0)
        if d_i > d_next:
            out = out * (field.one - field.t ** mult[i])
    return out


def psi_coeff(lam, mu, field=SYMBOLIC):
    """Coefficient of P_mu in dP_lam/dp1 (0 unless mu is lam minus one box)."""
    lam, mu = Partition(lam), Partition(mu)
    i = box_added_index(lam, mu)
    if i is None:
        return field.zero
    if lam[i - 1] == 1:
        return field.one
    part = lam[i - 1] - 1
    m = sum(1 for x in mu if x == part)
    return field.one - field.t ** m
