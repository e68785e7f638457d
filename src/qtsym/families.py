"""Constructors for the classical families: Hall-Littlewood P and Q,
Schur, Macdonald, the Green transition table, and the one-row generating
series with its multiplication coefficients.

The Macdonald functions are the eigenvectors of D^1, the first-order
Macdonald operator, solved triangularly over the monomials from an
integer table of D^1 (Macdonald, Symmetric Functions and Hall
Polynomials, Ch. VI Sections 3-4).
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
    kostka_rows,
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
    _alternant_index,
    _distinct_permutations,
    _memo,
    _pair_product,
    alternant_quotient,
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
# Macdonald functions as eigenvectors of D^1

def _d1_table(degree):
    """D^1, the u^1 coefficient of D_N(u) at N = degree, on monomials, as
    integers: {nu: {mu: {(a, i): n}}}, the m_mu coefficient of D^1 m_nu
    being -sum n q^a t^-i.

    On x^e, e a permutation of nu, D^1 reads -sum_i q^(e_i) t^-i times
    A(x^(e + delta)) / a_delta = sign s_rho; the Kostka rows take each
    s_rho to monomials.
    """
    N = degree
    kostka = kostka_rows(degree)
    table = {}
    for nu in kostka:
        by_schur = {}
        for e in _distinct_permutations(nu + (0,) * (N - len(nu))):
            index = _alternant_index(tuple(x + N - 1 - i for i, x in enumerate(e)))
            if index is None:
                continue
            sign, rho = index
            pairs = by_schur.setdefault(rho, {})
            for key in zip(e, range(N)):
                pairs[key] = pairs.get(key, 0) + sign
        column = {}
        for rho, pairs in by_schur.items():
            for mu, k in kostka[rho].items():
                entry = column.setdefault(mu, {})
                for key, n in pairs.items():
                    entry[key] = entry.get(key, 0) + k * n
        column = {mu: {key: n for key, n in entry.items() if n} for mu, entry in column.items()}
        table[nu] = {mu: entry for mu, entry in column.items() if entry}
    return table


def _d1_matrix(degree, field):
    """The table of `_d1_table` over the field, each column checked to lie
    in the lower order ideal of its nu."""
    N = degree
    # q^a t^(N-1-i) are polynomials, so their sums need no gcd
    qt = [[field.q ** a * field.t ** j for j in range(N)] for a in range(degree + 1)]
    scale = -(field.t ** (1 - N))
    out = {}
    for nu, column in _d1_table(degree).items():
        out[nu] = {}
        for mu, entry in column.items():
            if not dominates(nu, mu):
                raise SingularTransition(
                    "D^1 m_%r touches m_%r, outside the lower order ideal" % (tuple(nu), tuple(mu))
                )
            total = field.zero
            for (a, i), n in entry.items():
                total = total + field.from_int(n) * qt[a][N - 1 - i]
            out[nu][mu] = total * scale
    return out


def _macdonald_degree(degree, field):
    """{lam: c} with M_lam = sum_mu c[mu] m_mu, the eigenvectors of D^1.

    D^1 is triangular on monomials with diagonal d, so
    c[mu] (d_lam - d_mu) = sum over mu < nu <= lam of c[nu] D^1_(mu,nu),
    solved for mu in descending dominance.
    """
    def build():
        d1 = _d1_matrix(degree, field)
        order = sorted(d1, key=grevlex_key)
        out = {}
        for pos, lam in enumerate(order):
            vec = {lam: field.one}
            for mu in order[pos + 1:]:
                if not dominates(lam, mu):
                    continue
                gap = d1[lam][lam] - d1[mu][mu]
                if not gap:
                    raise SingularTransition(
                        "D^1 eigenvalues of %r and %r coincide" % (tuple(lam), tuple(mu))
                    )
                total = field.zero
                for nu, c in vec.items():
                    entry = d1[nu].get(mu)
                    if entry is not None:
                        total = total + c * entry
                if total:
                    vec[mu] = total / gap
            out[lam] = vec
        return out

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
