"""Constructors for the classical families: Hall-Littlewood P and Q,
Schur, Macdonald, the Green transition table, and the one-row generating
series with its multiplication coefficients.

Hall-Littlewood functions come from the one-row series by the Pieri rule
and one triangular solve, finite-N ones by restriction.  Macdonald
functions are the eigenvectors of D^1, solved triangularly over monomials,
symbolically as the integral forms J_lam = c_lam M_lam, which lie in
Z[q,t], by exact division (Macdonald, Symmetric Functions and Hall
Polynomials, Ch. III, and Ch. VI §8 for J_lam).
"""

from __future__ import annotations

import math
from collections import Counter
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
    kostka_step,
    multiplicities,
    push_parts,
    t_factors,
    union,
)
from .ratfun import P_ONE, P_ZERO, SYMBOLIC, InexactDivision, IntPoly2, RatFun, poly_divexact
from . import symfun
from .symfun import (
    NotDivisible,
    SingularTransition,
    SymFun,
    _express_in_basis,
    _memo,
    axpy,
    restrict,
)


def _hl_degree(degree, field):
    """{(kind, basis): {lam: coefficients}}: P_lam and Q_lam = b_lam(t) P_lam
    of one degree in the bases 'm' and 'p'.

    By the Pieri rule Q_n P_rho = sum phi_(nu/rho)(t) P_nu over horizontal
    strips nu/rho, q_beta = Q_beta1 Q_beta2 ... is b_beta(t) P_beta plus P_nu
    above beta in dominance.  Solved in ascending dominance, each P_lam is a
    combination of the q_beta: products of one-row series (Macdonald, Ch. III).
    """
    def build():
        lams = sorted(enumerate_partitions(degree), key=grevlex_key, reverse=True)
        rows = q_row_series(degree, field) if degree else []

        def pieri(rho, n):
            for nu, _ in kostka_step(rho, n):
                yield nu, morris_phi(nu, rho, field)

        def row(rho, n):
            for alpha, c in rows[n - 1].coeffs.items():
                yield union(rho, alpha), c

        q_in_hl = {beta: push_parts(beta, pieri) for beta in lams}
        q_in_p = {beta: push_parts(beta, row) for beta in lams}
        p_to_m = symfun.transition_matrix("p", "m", degree, field)
        out = {(kind, basis): {} for kind in "PQ" for basis in "mp"}
        for lam in lams:
            in_p, in_m = {}, {}
            for beta, c in _express_in_basis({lam: field.one}, q_in_hl, lams).items():
                axpy(in_p, q_in_p[beta], c)
            for mu, c in in_p.items():
                axpy(in_m, p_to_m[mu], c)
            b = t_factors(lam, field=field).b
            for basis, vec in (("m", in_m), ("p", in_p)):
                out["P", basis][lam] = {mu: c for mu, c in vec.items() if c}
                out["Q", basis][lam] = {mu: c * b for mu, c in vec.items() if c}
            for mu, c in out["P", "m"][lam].items() if field.is_symbolic else ():
                _require_z_t(c, "coefficient of m_%r in P_%r" % (tuple(mu), tuple(lam)))
        return out

    return _memo(("hl", degree, field), build)


def _require_z_t(c, what):
    if not (c.den == 1 and c.num.max_deg_q() == 0):
        raise NotDivisible("%s leaves Z[t]: %s" % (what, c))


def _hl_in(lam, kind, basis, field):
    lam = Partition(lam)
    if kind not in ("P", "Q"):
        raise ValueError("kind must be P or Q")
    return _hl_degree(sum(lam), field)[kind, basis][lam]


def hall_littlewood(lam, kind, degree_bound=None, field=SYMBOLIC):
    """The stable symmetric function P_lam or Q_lam = b_lam(t) P_lam."""
    bound = sum(lam) if degree_bound is None else degree_bound
    return SymFun("m", _hl_in(lam, kind, "m", field), bound, field)


def hl_in_p(lam, kind, field=SYMBOLIC):
    """Power-sum expansion of P_lam or Q_lam (heavily reused by the operator sums)."""
    return _hl_in(lam, kind, "p", field)


def hl_alternant(lam, N, field=SYMBOLIC):
    """Hall-Littlewood polynomial P_lam(x_1..x_N): the stable P_lam at
    x_(N+1) = x_(N+2) = ... = 0 (Macdonald, Ch. III Section 2)."""
    if N < len(lam):
        raise LengthExceedsN("N=%d below the length of %r" % (N, tuple(lam)))
    return restrict(hall_littlewood(lam, "P", field=field), N)


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

def _dn_table(degree, N, top, field=SYMBOLIC):
    """D_N(u) on the monomials of one degree in N variables, through u^top:
    yields (nu, {mu: [L_0, .., L_top]}) over nu and mu of the degree with at
    most N parts, L_s the u^s coefficient of the m_mu coefficient of
    D_N(u) m_nu.  top = 1 gives D^1; top = N gives all of D_N(u), one column
    at a time.

    On x^e, e a permutation of nu with e + delta strict (`_dn_skeleton`),
    D_N(u) reads prod_i (1 - u q^(e_i) t^-i) (`_u_product`) times
    A(x^(e + delta)) / a_delta = sign s_rho; the Kostka rows take each s_rho
    to monomials.  Over Q(q,t) L_s is an integer dict {(a, i): n} of
    sum n q^a t^-i.  At a sample point it is an int over
    `_dn_denominator`, the one denominator of every product, so the Kostka
    sums are int multiply-adds.
    """
    add_scaled, clean = (_laurent_axpy, _laurent_clean) if field.is_symbolic else (_point_axpy, list)
    # the skeleton holds no field value: every field shares the symbolic entry
    terms, kostka = _dn_skeleton(degree, N, SYMBOLIC)
    # at a point the factors' int pairs, built once for every product
    pairs = None if field.is_symbolic else [[_point_pair(i, a, field) for a in range(degree + 1)] for i in range(N)]
    for nu, strict in terms.items():
        by_schur = {}
        for sign, e, rho in strict:
            by_schur[rho] = add_scaled(by_schur.get(rho), sign, _u_product(enumerate(e), field, top, pairs)[0])
        column = {}
        for rho, sums in by_schur.items():
            for mu, k in kostka[rho].items():
                column[mu] = add_scaled(column.get(mu), k, sums)
        column = {mu: clean(entry) for mu, entry in column.items()}
        yield nu, {mu: entry for mu, entry in column.items() if any(entry)}


def _dn_skeleton(degree, N, field):
    """({nu: strict}, {rho: row}) over the partitions of the degree with at
    most N parts: strict the (sign, e, rho) of `_strict_exponents`, row the
    Kostka row {mu: K_(rho,mu)} over ell(mu) <= N.  It holds no field value,
    so `_dn_table` reads the SYMBOLIC entry in every field; the key ends
    with the field for clear_field_caches."""
    def build():
        rows = {rho: {mu: k for mu, k in row.items() if len(mu) <= N}
                for rho, row in kostka_rows(degree).items() if len(rho) <= N}
        return {nu: tuple(_strict_exponents(nu, N)) for nu in rows}, rows

    return _memo(("dn_skeleton", degree, N, field), build)


def _strict_exponents(nu, N):
    """(sign, e, rho) in lexicographic order over the permutations e of nu
    padded to N with e + delta strict, delta = (N-1, .., 0), where
    A(x^(e + delta)) = sign a_(rho + delta).  Backtracking places e_i only
    where e_i + N-1-i is unused; the sign counts inversions as they form."""
    left = Counter(sorted(nu + (0,) * (N - len(nu))))
    e = [0] * N

    def rec(i, used, inversions):
        if i == N:
            # e + delta in ascending order, less (0, 1, ..): the parts of rho, least first
            ascending = [y - j for j, y in enumerate(b for b in range(used.bit_length()) if used >> b & 1)]
            yield -1 if inversions & 1 else 1, tuple(e), Partition(x for x in reversed(ascending) if x)
            return
        for x, n in left.items():
            y = x + N - 1 - i
            if n and not used >> y & 1:
                left[x], e[i] = n - 1, x
                yield from rec(i + 1, used | 1 << y, inversions + (used & ((1 << y) - 1)).bit_count())
                left[x] = n

    return rec(0, 0, 0)


def _u_product(factors, field=SYMBOLIC, top=None, pairs=None):
    """prod (1 - u q^a t^-i) over the pairs (i, a) of factors, a, i >= 0,
    through u^top (all of it when top is None), as (u-coefficients, den).
    Over Q(q,t) the coefficients are integer dicts {(a, i): n} of
    sum n q^a t^-i over den = 1.  At a sample point q = qn/qd, t = tn/td
    they are ints over den, the product of the qd^a tn^i: each factor is
    taken as (qd^a tn^i - u qn^a td^i) / (qd^a tn^i), its int pair read from
    pairs[i][a] when given."""
    if top is None:
        factors = list(factors)
        top = len(factors)
    if field.is_symbolic:
        prod = [{(0, 0): 1}] + [{} for _ in range(top)]
        for n, (i, a) in enumerate(factors, 1):
            # the u-powers the first n factors reach, top down
            for s in range(min(n, top), 0, -1):
                target = prod[s]
                for (x, y), c in prod[s - 1].items():
                    key = x + a, y + i
                    target[key] = target.get(key, 0) - c
        return prod, 1
    prod = [1] + [0] * top
    for n, (i, a) in enumerate(factors, 1):
        c, d = pairs[i][a] if pairs else _point_pair(i, a, field)
        for s in range(min(n, top), 0, -1):
            prod[s] = prod[s] * c + prod[s - 1] * d
        prod[0] *= c
    # the u^0 coefficient is the product of the denominators
    return prod, prod[0]


def _point_pair(i, a, field):
    # (qd^a tn^i, -qn^a td^i): 1 - u q^a t^-i at a sample point, times qd^a tn^i
    (qn, qd), (tn, td) = field.q.as_integer_ratio(), field.t.as_integer_ratio()
    return qd ** a * tn ** i, -qn ** a * td ** i


def _laurent_axpy(entry, k, sums):
    if entry is None:
        return [{key: k * n for key, n in poly.items()} for poly in sums]
    for target, poly in zip(entry, sums):
        for key, n in poly.items():
            target[key] = target.get(key, 0) + k * n
    return entry


def _laurent_clean(entry):
    return [{key: n for key, n in poly.items() if n} for poly in entry]


def _point_axpy(entry, k, sums):
    # lists of ints are never changed in place, so sums may be returned as it is
    if entry is None:
        return sums if k == 1 else [k * n for n in sums]
    return [x + k * n for x, n in zip(entry, sums)]


def _dn_denominator(degree, N, field):
    """The one denominator of `_dn_table`: 1 over Q(q,t), qd^degree tn^(N(N-1)/2) at a sample point."""
    if field.is_symbolic:
        return 1
    return field.q.denominator ** degree * field.t.numerator ** (N * (N - 1) // 2)


def _lift(entry, den, field, shift=0, common=None):
    """One integer table entry over the field, q^shift times its value over
    den (and over common when given): at a sample point an int lifted to a
    Fraction; over Q(q,t) a zero-free integer dict {(a, i): n} of
    sum n q^a t^-i, den = 1, lifted over a monomial with no gcd unless
    common is given."""
    if not entry:
        return field.zero
    if not field.is_symbolic:
        n, d = (field.q ** shift).as_integer_ratio()
        return Fraction(entry * n, den * d * (common or 1))
    # reduced over q^-low t^high: a term lacks q if low < 0, one lacks t if high > 0
    low = min(0, min(a for a, _ in entry) + shift)
    high = max(0, max(i for _, i in entry))
    num = IntPoly2({(a + shift - low, high - i): n for (a, i), n in entry.items()})
    monomial = IntPoly2({(-low, high): 1})
    return RatFun(num, monomial, _reduced=True) if common is None else RatFun(num, monomial * common)


def _integral_factor(lam):
    """c_lam = prod over the boxes s of lam of (1 - q^a(s) t^(l(s)+1)) in Z[q,t]."""
    out = P_ONE
    lam_c = conjugate(lam)
    for i, part in enumerate(lam):
        for j in range(part):
            out = out * IntPoly2({(0, 0): 1, (part - j - 1, lam_c[j] - i): -1})
    return out


def _integral_d1(column, degree):
    """t^(degree-1) times the D^1 slice of one `_dn_table` column, {mu: IntPoly2};
    an entry left outside Z[q,t] raises InexactDivision."""
    out = {mu: {(a, degree - 1 - i): n for (a, i), n in entry[1].items()}
           for mu, entry in column.items() if entry[1]}
    if any(min(key) < 0 for poly in out.values() for key in poly):
        raise InexactDivision("t^%d D^1 has an entry outside Z[q,t]" % (degree - 1))
    return {mu: IntPoly2(poly) for mu, poly in out.items()}


def _macdonald_degree(degree, field):
    """({lam: J_lam}, {lam: M_lam}) on monomials: M_lam = sum_mu c[mu] m_mu,
    the eigenvectors of D^1, and J_lam a multiple in integer entries as the
    tables hold them.  M_lam is filled in on first request (`macdonald_in_m`).

    D^1 is triangular on monomials with diagonal d, so
    c[mu] (d_lam - d_mu) = sum over mu < nu <= lam of c[nu] D^1_(mu,nu),
    solved for mu in descending dominance.  Symbolically the solve runs on
    t^(degree-1) D^1, in Z[q,t], from c[lam] = c_lam: J_lam = c_lam M_lam
    lies in Z[q,t] (Macdonald, Ch. VI §8), so each division by the gap is
    exact (`poly_divexact`; InexactDivision otherwise) and takes no gcd.  At
    a sample point it runs from c[lam] = 1 on the D^1 ints of `_dn_table`,
    whose one denominator cancels in total / gap, and J_lam is M_lam
    cleared of denominators.
    """
    symbolic = field.is_symbolic

    def build():
        d1 = {}
        for nu, column in _dn_table(degree, degree, 1, field):
            d1[nu] = _integral_d1(column, degree) if symbolic else {
                mu: entry[1] for mu, entry in column.items() if entry[1]}
            for mu in d1[nu]:
                if not dominates(nu, mu):
                    raise SingularTransition("D^1 m_%r touches m_%r, outside the lower order ideal"
                                             % (tuple(nu), tuple(mu)))
        order = sorted(d1, key=grevlex_key)
        integral = {}
        for pos, lam in enumerate(order):
            vec = {lam: _integral_factor(lam) if symbolic else field.one}
            for mu in order[pos + 1:]:
                if not dominates(lam, mu):
                    continue
                gap = d1[lam][lam] - d1[mu][mu]
                if not gap:
                    raise SingularTransition("D^1 eigenvalues of %r and %r coincide" % (tuple(lam), tuple(mu)))
                total = P_ZERO if symbolic else field.zero
                for nu, c in vec.items():
                    entry = d1[nu].get(mu)
                    if entry is not None:
                        total = total + c * entry
                if total:
                    vec[mu] = poly_divexact(total, gap) if symbolic else total / gap
            if symbolic:
                integral[lam] = {mu: {(a, -b): n for (a, b), n in c.terms.items()} for mu, c in vec.items()}
            else:
                clear = math.lcm(*(c.denominator for c in vec.values()))
                integral[lam] = {mu: c.numerator * (clear // c.denominator) for mu, c in vec.items()}
        return integral, {}

    return _memo(("macdonald", degree, field), build)


def _macdonald_integral(lam, field=SYMBOLIC):
    """J_lam of `_macdonald_degree` over the field."""
    return {mu: _lift(c, 1, field) for mu, c in _macdonald_degree(sum(lam), field)[0][Partition(lam)].items()}


def macdonald_in_m(lam, field=SYMBOLIC):
    lam = Partition(lam)
    monic = _macdonald_degree(sum(lam), field)[1]
    if lam not in monic:
        j = _macdonald_integral(lam, field)
        monic[lam] = {mu: c / j[lam] for mu, c in j.items()}
    return monic[lam]


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
    """Coefficients X_{lam,mu}(t) with p_lam = sum_mu X_{lam,mu} P_mu: the
    memoised transition_matrix("p", "P") laid out densely."""
    if degree < 1:
        raise ValueError("degree must be at least 1")
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
