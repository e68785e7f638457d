"""Exact certification of the identities tied to the operator families:
reproducing-kernel lemma, Hall-Littlewood Cauchy identity, Green
orthogonality, finite-N eigen-equations, the stable-operator expansion,
the q-commutator step relations, the finite-N symbol identity, and the
vanishing of the alternant combination behind it.

Every check is a body decorated by `_check`: the body computes and
compares, and returns None when its identity holds or a witness string
naming the first failure; the decorator times the body and returns the
CheckReport.  The suite runner serialises reports as JSON lines with a
trailing summary object.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product

from . import families, macops, symfun
from .families import (
    green_table,
    hall_littlewood,
    hl_alternant,
    macdonald_M,
    macdonald_in_m,
    morris_phi,
)
from .macops import A_k_eigen, step_series_apply
from .partitions import (
    LengthExceedsN,
    Partition,
    add_box_positions,
    enumerate_partitions,
    format_partition,
    remove_box_positions,
    stats,
    t_factors,
    union,
)
from .ratfun import SYMBOLIC, first_unequal_rows
from .symfun import (
    BiSymFun,
    SymFun,
    XPoly,
    _pair_product,
    _slot,
    axpy,
    convert,
    expand_x,
    restrict,
)


class DecompositionMismatch(ArithmeticError):
    pass


@dataclass
class CheckReport:
    name: str
    parameters: dict
    status: str  # "pass" or "fail"
    witness: str | None = None
    elapsed: float = 0.0

    def passed(self):
        return self.status == "pass"

    def to_json_dict(self):
        return {
            "name": self.name,
            "parameters": {k: str(v) for k, v in sorted(self.parameters.items())},
            "status": self.status,
            "witness": self.witness,
            "elapsed": round(self.elapsed, 6),
        }


def _first_difference(a, b):
    # the first key, in sorted order, whose coefficients differ
    for key in sorted(set(a) | set(b)):
        if a.get(key) != b.get(key):
            return key
    return None


def _check(name, params):
    """Turn a check body into a check: the body returns None when its
    identity holds and the witness of the first failure otherwise; the check
    returns the CheckReport `name`, with parameters params(*args, **kwargs)
    and the body's time as elapsed."""
    def decorate(body):
        @functools.wraps(body)
        def check(*args, **kwargs):
            t0 = time.perf_counter()
            witness = body(*args, **kwargs)
            elapsed = time.perf_counter() - t0
            status = "pass" if witness is None else "fail"
            return CheckReport(name, params(*args, **kwargs), status, witness, elapsed)
        return check
    return decorate


# ---------------------------------------------------------------------------
# reproducing kernels

def _diagonal_kernel(degree_bound, weight_fn, field):
    # truncated exp( sum_n weight(n) p_n (x) p_n (y) )
    out = BiSymFun.one(degree_bound, field)
    empty = Partition()
    for n in range(1, degree_bound + 1):
        a = weight_fn(n)
        coeffs = {(empty, empty): field.one}
        term = field.one
        for m in range(1, degree_bound // n + 1):
            term = term * a / field.from_int(m)
            key = Partition([n] * m)
            coeffs[(key, key)] = term
        out = out * BiSymFun(coeffs, degree_bound, field)
    return out


def kernel_pi(degree_bound, field=SYMBOLIC):
    """Truncation of the reproducing kernel for the (q,t) inner product."""
    return _diagonal_kernel(
        degree_bound,
        lambda n: (field.one - field.t ** n) / (field.one - field.q ** n) / field.from_int(n),
        field,
    )


def hl_kernel(degree_bound, field=SYMBOLIC):
    """Truncation of the Hall-Littlewood Cauchy kernel."""
    return _diagonal_kernel(
        degree_bound,
        lambda n: (field.one - field.t ** n) / field.from_int(n),
        field,
    )


@_check("kernel_lemma", lambda f, degree_bound, label=None, field=None:
        {"f": label or repr(f), "degree_bound": degree_bound})
def check_kernel_lemma(f, degree_bound, label=None, field=SYMBOLIC):
    """f*(Pi) = f(y) Pi, in truncation to the given order.

    Pi has constant term 1, so this is f*(Pi)/Pi = f(y).  Every component
    of Pi has equal x- and y-degree, so both sides hold exactly the
    components of x-degree a and y-degree a + j, j a degree of f, with
    a + j <= degree_bound + deg f.
    """
    k = f.max_degree()
    big = kernel_pi(degree_bound + k, field)
    fp = convert(f, "p")
    empty = Partition()
    expected = BiSymFun({(empty, mu): c for mu, c in fp.coeffs.items()}, degree_bound + k, field)
    key = _first_difference(big.adjoint_x(f).coeffs, (expected * big).coeffs)
    if key is not None:
        return "first mismatch at p%s (x) p%s" % (tuple(key[0]), tuple(key[1]))


@_check("hl_cauchy", lambda degree, field=None: {"degree": degree})
def check_hl_cauchy(degree, field=SYMBOLIC):
    """Degree component of the Cauchy kernel equals sum of Q (x) P."""
    lhs = hl_kernel(degree, field).component(degree, degree)
    coeffs = {}
    for lam in enumerate_partitions(degree):
        qp = convert(hall_littlewood(lam, "Q", field=field), "p")
        pp = convert(hall_littlewood(lam, "P", field=field), "p")
        for a, ca in qp.coeffs.items():
            for b, cb in pp.coeffs.items():
                coeffs[(a, b)] = coeffs.get((a, b), field.zero) + ca * cb
    rhs = BiSymFun(coeffs, degree, field)
    key = _first_difference(lhs.coeffs, rhs.coeffs)
    if key is not None:
        return "p%s (x) p%s" % (tuple(key[0]), tuple(key[1]))


# ---------------------------------------------------------------------------
# Green orthogonality

@_check("green", lambda degree, field=None: {"degree": degree})
def check_green(degree, field=SYMBOLIC):
    gt = green_table(degree, field)
    lams = enumerate_partitions(degree)
    z_t = {lam: t_factors(lam, field=field).z_t for lam in lams}
    b = {lam: t_factors(lam, field=field).b for lam in lams}
    for mu in lams:
        for nu in lams:
            total = field.zero
            for lam in lams:
                total = total + gt.x(lam, mu) * gt.x(lam, nu) / z_t[lam]
            expected = b[mu] if mu == nu else field.zero
            if total != expected:
                return "orthogonality fails at mu=%s nu=%s" % (tuple(mu), tuple(nu))
    for mu in lams:
        got = SymFun("p", {lam: gt.x(lam, mu) / z_t[lam] for lam in lams}, degree, field)
        expected = convert(hall_littlewood(mu, "Q", field=field), "p")
        if got != expected:
            return "row expansion fails at mu=%s" % (tuple(mu),)
    if field.is_symbolic:
        for mu in lams:
            n_mu = stats(mu).n_stat
            top = -1
            for lam in lams:
                x = gt.x(lam, mu)
                if not x:
                    continue
                if not (x.den == 1 and x.num.max_deg_q() == 0):
                    return "X[%s,%s] leaves Z[t]" % (tuple(lam), tuple(mu))
                d = x.num.max_deg_t()
                top = max(top, d)
                if d == n_mu and x.num.terms.get((0, n_mu)) != 1:
                    return "X[%s,%s] is not monic" % (tuple(lam), tuple(mu))
            if top != n_mu:
                return "max t-degree in column %s is %d, not %d" % (tuple(mu), top, n_mu)
        # characters at t = 0: plain orthogonality of the symmetric group;
        # every X lies in Z[t] (checked above), so X(0) is its constant term
        for mu in lams:
            for nu in lams:
                total = Fraction(0)
                for lam in lams:
                    total += Fraction(gt.x(lam, mu).num.const_value() * gt.x(lam, nu).num.const_value(),
                                      stats(lam).z)
                if total != (1 if mu == nu else 0):
                    return "character orthogonality fails at mu=%s nu=%s" % (tuple(mu), tuple(nu))


# ---------------------------------------------------------------------------
# finite-N eigen-equations and the stable-operator expansion

@_check("deigen", lambda N, lam, field=None: {"N": N, "lam": tuple(Partition(lam))})
def check_deigen(N, lam, field=SYMBOLIC):
    """D_N(u) M_lam = prod_i (1 - u q^(lam_i) t^(1-i)) M_lam in N variables,
    power by power of u, run on J_lam = c_lam M_lam (equivalent, c_lam != 0).
    Both sides go through `macops._apply_tables`: the left is
    `macops.apply_DN`, the right the diagonal table of the product's
    u-coefficients over their denominator (`families._u_product`), so each
    is an integer product lifted once per entry.  Over Q(q,t) the check is
    exact and, J_lam lying in Z[q,t], takes no gcd; a sample point
    certifies only itself.  At N = |lam| the u^1 term applies the D^1 slice of the table
    (`families._dn_table`) that J_lam was solved from, so it cannot fail
    there; that table's independent oracle is the explicit alternant of the
    tests (`tests/test_macops.py::_apply_DN_reference`)."""
    lam = Partition(lam)
    f = restrict(SymFun("m", dict(families._macdonald_integral(lam, field)), sum(lam), field), N)
    coeffs = macops.apply_DN(f)
    padded = list(lam) + [0] * (N - len(lam))
    # prod_i (1 - u q^(lam_i) t^(1-i)), i from 1
    product, den = families._u_product(enumerate(padded), field)
    diagonal = [{nu: {nu: c} for nu in f.coeffs} for c in product]
    expect = macops._apply_tables(f, lambda *_: (diagonal, den, 0))
    for k in range(N + 1):
        if coeffs[k] != expect[k]:
            return "u-power %d differs" % k


def _nonzero(coeffs):
    return {key: c for key, c in coeffs.items() if c}


@_check("theorem_basic", lambda k, lam, field=None: {"k": k, "lam": tuple(Partition(lam))})
def check_theorem_basic(k, lam, field=SYMBOLIC):
    """A_k M_lam = e_k(lam) M_lam on monomials, run on J_lam, a nonzero
    multiple of M_lam, as the one pair of sides of `macops._A_k_equation`,
    compared row by row (`ratfun.first_unequal_rows`).  Over Q(q,t) each row
    is two Kronecker-packed ints, equal exactly when the row holds, with no gcd.
    At a sample point each row is two int sums, each times the other
    side's denominator; a sample point certifies only itself."""
    key = next(first_unequal_rows([macops._A_k_equation(k, Partition(lam), field)]))
    if key is not None:
        return "eigen-equation fails at m[%s]" % format_partition(key)


@_check("commute", lambda k, l, degree, field=None: {"k": k, "l": l, "degree": degree})
def check_commute(k, l, degree, field=SYMBOLIC):
    """[A_k, A_l] = 0 on the monomials of one degree, and the diagonals of
    A_k and A_l are the eigenvalues e_k and e_l.

    Both read the integer tables of `macops._A_matrices` at N = degree.
    Column mu of A_k A_l and of A_l A_k are compared row by row, both over
    the square of the tables' unit (den, shift), in one call of
    `ratfun.first_unequal_rows` with one pair of sides per column: over
    Q(q,t) on the ints of one Kronecker layout for every column, each entry
    of A_k and A_l packed once; at a sample point on int sums.  After each
    column, a diagonal entry of A_j and the split e_j of
    `macops._eigen_values` both carry q^-degree; each is lifted with its own
    denominator (`families._lift`) and the two are compared."""
    tables, den, shift = macops._A_matrices(degree, degree, field)
    a = {j: tables[j] if j < len(tables) else {} for j in (k, l)}
    mus = enumerate_partitions(degree)
    pairs = [((a[k], a[l].get(mu, {}), 1), (a[l], a[k].get(mu, {}), 1)) for mu in mus]
    for mu, nu in zip(mus, first_unequal_rows(pairs)):
        if nu is not None:
            return ("[A_%d, A_%d] at degree %d: row m[%s], column m[%s]"
                    % (k, l, degree, format_partition(nu), format_partition(mu)))
        eigen, e_den = macops._eigen_values(mu, field)
        for j in (k, l):
            # e_j vanishes for j > ell(mu)
            e = eigen[j] if j < len(eigen) else None
            if families._lift(a[j].get(mu, {}).get(mu), den, field, shift) != families._lift(e, e_den, field, shift):
                return ("diagonal of A_%d at degree %d: row m[%s], column m[%s]"
                        % (j, degree, format_partition(mu), format_partition(mu)))


@_check("symbol", lambda degree, max_k, field=None: {"degree": degree, "max_k": max_k})
def check_symbol(degree, max_k, field=SYMBOLIC):
    """For 1 <= k <= max_k, the matrix of A_k on the monomials of one
    degree against the paper's symbol (the Hall-Littlewood operator sum
    `A_k_apply`) column by column, and against the k-th term of A_N(u) on
    the restriction of each m_mu for every N from ell(mu) to degree + 1
    (zero when N < k) except N = degree.

    The matrix *is* the k-th term of A_N(u) at N = degree: both read one
    table, so that comparison could not fail and is not made.  The
    independent oracle of that table is the explicit alternant of the
    tests (`tests/test_macops.py::_apply_DN_reference`)."""
    matrices = {k: macops.A_k_matrix(k, degree, field) for k in range(1, max_k + 1)}
    for mu in enumerate_partitions(degree):
        m_mu = SymFun.generator("m", mu, field=field)
        for k, matrix in matrices.items():
            nu = _first_difference(_nonzero(convert(macops.A_k_apply(k, m_mu), "m").coeffs), matrix[mu])
            if nu is not None:
                return ("A_%d against its symbol at degree %d: row m[%s], column m[%s]"
                        % (k, degree, format_partition(nu), format_partition(mu)))
        for N in range(len(mu), degree + 2):
            if N == degree:
                continue
            finite = macops.apply_AN(restrict(m_mu, N))
            for k, matrix in matrices.items():
                got = finite.entry(k)
                nu = _first_difference(got.coeffs if got else {},
                                       {nu: c for nu, c in matrix[mu].items() if len(nu) <= N})
                if nu is not None:
                    return ("A_%d against A_N at N=%d, degree %d: row m[%s], column m[%s]"
                            % (k, N, degree, format_partition(nu), format_partition(mu)))


@_check("corollary", lambda mu, field=None: {"mu": tuple(Partition(mu))})
def check_corollary(mu, field=SYMBOLIC):
    """The q-commutator step relations on M_mu as identities in u:
    p1 A(u) - q A(u) p1 = -u B(u) (1-q)/(1-t) (raising) and
    A(u) d/dp1 - q d/dp1 A(u) = -u C(u) (lowering).

    With B(u) = sum_j B_j / (u;1/t)_(j+1) and -u / (u;1/t)_(j+1) =
    t^j (1/(u;1/t)_j - 1/(u;1/t)_(j+1)), the 1/(u;1/t)_k term of the
    raising side, k = 0..|mu|+1, is sum_nu pieri_nu (e_k(small) -
    q e_k(large)) M_nu = (1-q)/(1-t) (t^k B_k - t^(k-1) B_(k-1)) M_mu; the
    lowering side is the same with C_j and no factor.  The 1/(u;1/t)_k are
    linearly independent, so equal terms on monomials mean equal functions
    of u."""
    mu = Partition(mu)
    m_mu = macdonald_M(mu, field=field)
    e_mu = A_k_eigen(mu, field)
    # each neighbour nu carries its Pieri coefficient and the eigenvalues
    # of the pair (smaller, larger) of mu and nu
    sides = (
        ("raising", "B", (field.one - field.q) / (field.one - field.t),
         [(lam, macops.pieri_up_coeff(lam, mu, field), e_mu, A_k_eigen(lam, field))
          for lam, _ in add_box_positions(mu)]),
        ("lowering", "C", field.one,
         [(nu, macops.pieri_down_coeff(nu, mu, field), A_k_eigen(nu, field), e_mu)
          for nu, _ in remove_box_positions(mu)]),
    )
    for side, kind, factor, neighbours in sides:
        pieces = [convert(step_series_apply(kind, j, m_mu), "m").coeffs for j in range(sum(mu) + 1)] + [{}]
        for k in range(sum(mu) + 2):
            lhs = {}
            for nu, pieri, small, large in neighbours:
                c = (small.entry(k) or field.zero) - field.q * (large.entry(k) or field.zero)
                axpy(lhs, macdonald_in_m(nu, field), pieri * c)
            rhs = {}
            axpy(rhs, pieces[k], factor * field.t ** k)
            if k:
                axpy(rhs, pieces[k - 1], -factor * field.t ** (k - 1))
            nu = _first_difference(_nonzero(lhs), _nonzero(rhs))
            if nu is not None:
                return "%s side, 1/(u;1/t)_%d term: m[%s] differs" % (side, k, format_partition(nu))


# ---------------------------------------------------------------------------
# the alternant identity

def _embed_skip(xp, N, skip):
    # relabel an (N-1)-variable polynomial onto the N slots avoiding `skip`
    return XPoly(N, {e[:skip] + (0,) + e[skip:]: c for e, c in xp.coeffs.items()}, xp.field)


def alternant_F(mu, n, N, field=SYMBOLIC):
    """Signed symmetrisation of x^mu x_N^(N-1+n) times the deformed
    difference product on the first N-1 variables."""
    mu = Partition(mu)
    if len(mu) >= N:
        raise LengthExceedsN("need len(mu) < N")
    pad = list(mu) + [0] * (N - 1 - len(mu))
    seed = _pair_product(N - 1, -field.t, field)
    shifted = {}
    for e, c in seed.coeffs.items():
        key = tuple(e[i] + pad[i] for i in range(N - 1)) + (N - 1 + n,)
        shifted[key] = c
    base = XPoly(N, shifted, field)
    total = XPoly.zero(N, field)
    for sigma in permutations(range(N)):
        sign = symfun._perm_sign(sigma)
        img = base.permute(sigma)
        total = total + img if sign > 0 else total - img
    _validate_alternant_decomposition(mu, n, N, total, field)
    return total


def _validate_alternant_decomposition(mu, n, N, total, field):
    # the same alternant, summed first over the slot receiving the large
    # power; v is taken over the N-1 variables the small factors live in
    tf = t_factors(mu, N=N - 1, field=field)
    lhs = total.scale(tf.b / tf.v)
    if N % 2 == 0:
        lhs = -lhs
    rhs = XPoly.zero(N, field)
    q_small = expand_x(hl_alternant(mu, N - 1, field)).scale(t_factors(mu, field=field).b)
    for i in range(N):
        block = _embed_skip(q_small, N, i)
        delta = _pair_product(N, -field.one, field, skip=i)
        piece = XPoly(N, {_slot(N, i, N - 1 + n): field.one}, field) * delta * block
        rhs = rhs + piece if i % 2 == 0 else rhs - piece
    if lhs != rhs:
        e = _first_difference(lhs.coeffs, rhs.coeffs)
        raise DecompositionMismatch(
            "slot decomposition of the alternant F(mu=%s, n=%d, N=%d) fails at monomial %s"
            % (tuple(mu), n, N, e))


@_check("proposition", lambda N, lam, field=None: {"N": N, "lam": tuple(Partition(lam))})
def check_proposition(N, lam, field=SYMBOLIC):
    """The signed alternant combination vanishes identically."""
    lam = Partition(lam)
    ell = len(lam)
    if not (0 < ell < N):
        raise ValueError("need 0 < len(lam) < N")
    try:
        total = alternant_F(lam, 0, N, field).scale(field.one - field.t ** ell)
        for mu in _interlacing(lam, 1):
            if mu == tuple(lam):
                continue
            n = sum(lam) - sum(mu)
            total = total + alternant_F(mu, n, N, field).scale(morris_phi(lam, mu, field))
    except DecompositionMismatch as exc:
        return str(exc)
    if not total.is_zero():
        e = min(total.coeffs)
        return "monomial %s survives with %s" % (e, total.coeffs[e])


def _interlacing(lam, low):
    """Partitions mu with lam_1 >= mu_1 >= lam_2 >= ... >= lam_ell >= mu_ell >= low."""
    lam = tuple(lam)
    ranges = [range(lam[i + 1] if i + 1 < len(lam) else low, lam[i] + 1) for i in range(len(lam))]
    return [Partition(x for x in mu if x) for mu in product(*ranges)]


@_check("decomposition", lambda lam, N, i, field=None: {"lam": tuple(Partition(lam)), "N": N, "i": i})
def check_decomposition(lam, N, i, field=SYMBOLIC):
    """Peeling one variable off a Hall-Littlewood Q polynomial."""
    lam = Partition(lam)
    if len(lam) > N or not (1 <= i <= N):
        raise ValueError("need len(lam) <= N and a variable index in range")
    b_lam = t_factors(lam, field=field).b
    lhs = expand_x(hl_alternant(lam, N, field)).scale(b_lam)
    rhs = XPoly.zero(N, field)
    for mu in _interlacing(lam, 0):
        if len(mu) >= N:
            continue
        n = sum(lam) - sum(mu)
        b_mu = t_factors(mu, field=field).b
        block = _embed_skip(expand_x(hl_alternant(mu, N - 1, field)), N, i - 1).scale(b_mu)
        rhs = rhs + XPoly(N, {_slot(N, i - 1, n): morris_phi(lam, mu, field)}, field) * block
    e = _first_difference(lhs.coeffs, rhs.coeffs)
    if e is not None:
        return "expansion differs at monomial %s" % (e,)


# ---------------------------------------------------------------------------
# the finite-N symbol identity

def _accumulate(target, key, value):
    # target[key] += value, for values with no zero to start from
    if key in target:
        target[key] = target[key] + value
    else:
        target[key] = value


def _ts_mul(a, b, xcap, ycap):
    # product of two dicts keyed by (p-expansion alpha of the y side, power s of u)
    out = {}
    for (ka, sa), xa in a.items():
        wa = sum(ka)
        for (kb, sb), xb in b.items():
            if wa + sum(kb) > ycap:
                continue
            prod = (xa * xb).total_degree_cap(xcap)
            if prod.is_zero():
                continue
            _accumulate(out, (union(ka, kb), sa + sb), prod)
    return {k: v for k, v in out.items() if not v.is_zero()}


@_check("finite_symbol", lambda N, degree_bound, field=None: {"N": N, "degree_bound": degree_bound})
def check_finite_symbol(N, degree_bound, field=SYMBOLIC):
    """Determinant symbol over the x alphabet against the length-graded
    expansion in Hall-Littlewood pairs, as an identity in u.

    Both sides are multiplied by (u;1/t)_N, which makes it the polynomial
    identity det / a_delta = sum_lam b_lam Q_lam(x) P_lam(y)
    prod_(ell(lam) <= j < N) (1 - u t^-j), compared power by power of u.
    """
    D = degree_bound
    xcap = D + N * (N - 1) // 2
    rows = families.q_row_series(D, field) if D >= 1 else []
    empty = Partition()
    # row i depends on x_i alone, so det = A(diagonal product); each factor
    # x_i^(N-1-i) (T(x_i) - u t^-i), T(x) = 1 + sum_n x^n Q_n(y), is keyed
    # by (p expansion alpha of the y side, power s of u)
    diagonal = {(empty, 0): symfun.xpoly_one(N, field)}
    for i in range(N):
        e = N - 1 - i
        factor = {(empty, 0): XPoly(N, {_slot(N, i, e): field.one}, field),
                  (empty, 1): XPoly(N, {_slot(N, i, e): -field.t ** -i}, field)}
        for n, row in enumerate(rows, 1):
            for alpha, c in row.coeffs.items():
                factor[(alpha, 0)] = XPoly(N, {_slot(N, i, e + n): c}, field)
        diagonal = _ts_mul(diagonal, factor, xcap, D)
    lhs = {}
    for key, xp in diagonal.items():
        quot = symfun.alternant_quotient(xp)
        if not quot.is_zero():
            lhs[key] = quot
    rhs = {}
    for w in range(0, D + 1):
        for lam in enumerate_partitions(w, max_length=N):
            # the u-coefficients of prod_(ell(lam) <= j < N) (1 - u t^-j)
            tail = [field.one]
            for j in range(len(lam), N):
                tail = [a - field.t ** (-j) * b for a, b in zip(tail + [field.zero], [field.zero] + tail)]
            qx = hl_alternant(lam, N, field).scale(t_factors(lam, field=field).b)
            py = convert(hall_littlewood(lam, "P", field=field), "p")
            for s, c_s in enumerate(tail):
                for alpha, c in py.coeffs.items():
                    _accumulate(rhs, (alpha, s), qx.scale(c * c_s))
    rhs = {k: v for k, v in rhs.items() if not v.is_zero()}
    key = _first_difference(lhs, rhs)
    if key is not None:
        return "u^%d, y-component p%s differs" % (key[1], tuple(key[0]))


# ---------------------------------------------------------------------------
# suite runner

def _p_generator(n, field):
    return SymFun("p", {Partition((n,)): field.one}, n, field)


def suite_kernel(config, field=SYMBOLIC):
    d = config.get("max_degree", 4)
    cases = [("p1", _p_generator(1, field)), ("p2", _p_generator(2, field)),
             ("p3", _p_generator(3, field)), ("M[2,1]", macdonald_M((2, 1), field=field))]
    for label, f in cases:
        yield check_kernel_lemma(f, d, label=label, field=field)


def suite_hl_cauchy(config, field=SYMBOLIC):
    for d in range(1, config.get("max_degree", 4) + 1):
        yield check_hl_cauchy(d, field)


def suite_green(config, field=SYMBOLIC):
    for d in range(1, config.get("degree", 6) + 1):
        yield check_green(d, field)


def suite_deigen(config, field=SYMBOLIC):
    max_n = config.get("N", 4)
    max_w = config.get("max_weight", 5)
    for N in range(1, max_n + 1):
        for w in range(0, max_w + 1):
            for lam in enumerate_partitions(w, max_length=N):
                yield check_deigen(N, lam, field)


def suite_theorem(config, field=SYMBOLIC):
    max_w = config.get("max_degree", 6)
    max_k = config.get("max_k", 3)
    for w in range(0, max_w + 1):
        for lam in enumerate_partitions(w):
            for k in range(1, max_k + 1):
                yield check_theorem_basic(k, lam, field)


def suite_commute(config, field=SYMBOLIC):
    max_w = config.get("max_degree", 6)
    max_k = config.get("max_k", 3)
    for w in range(1, max_w + 1):
        for k in range(1, max_k + 1):
            for l in range(k + 1, max_k + 1):
                yield check_commute(k, l, w, field)


def suite_symbol(config, field=SYMBOLIC):
    max_k = config.get("max_k", 3)
    # with no k, a check would compare no matrix
    top = config.get("max_degree", 5) if max_k >= 1 else 0
    for w in range(1, top + 1):
        yield check_symbol(w, max_k, field)


def suite_corollary(config, field=SYMBOLIC):
    max_w = config.get("max_weight", 4)
    for w in range(0, max_w + 1):
        for mu in enumerate_partitions(w):
            yield check_corollary(mu, field)


def suite_proposition(config, field=SYMBOLIC):
    max_n = config.get("N", 4)
    max_w = config.get("max_weight", 5)
    for N in range(2, max_n + 1):
        for w in range(1, max_w + 1):
            for lam in enumerate_partitions(w, max_length=N - 1):
                yield check_proposition(N, lam, field)


def suite_finite_symbol(config, field=SYMBOLIC):
    max_n = config.get("N", 2)
    d = config.get("max_degree", 2)
    for N in range(1, max_n + 1):
        yield check_finite_symbol(N, d, field)


def suite_decomposition(config, field=SYMBOLIC):
    max_n = config.get("N", 3)
    max_w = config.get("max_weight", 3)
    for N in range(1, max_n + 1):
        for w in range(0, max_w + 1):
            for lam in enumerate_partitions(w, max_length=N):
                for i in range(1, N + 1):
                    yield check_decomposition(lam, N, i, field)


SUITES = {
    "kernel": suite_kernel,
    "hl-cauchy": suite_hl_cauchy,
    "green": suite_green,
    "deigen": suite_deigen,
    "theorem": suite_theorem,
    "commute": suite_commute,
    "symbol": suite_symbol,
    "corollary": suite_corollary,
    "proposition": suite_proposition,
    "finite-symbol": suite_finite_symbol,
    "decomposition": suite_decomposition,
}


def run_suite(name, config=None, field=SYMBOLIC):
    """Yield CheckReports for one suite, or for every suite with 'all'."""
    config = config or {}
    if name == "all":
        for key in SUITES:
            yield from SUITES[key](config, field)
        return
    if name not in SUITES:
        raise KeyError("unknown suite %r" % (name,))
    yield from SUITES[name](config, field)


def write_reports(reports, stream):
    """JSON-lines serialisation; returns (passed, failed)."""
    passed = failed = 0
    elapsed = 0.0
    for report in reports:
        if report.passed():
            passed += 1
        else:
            failed += 1
        elapsed += report.elapsed
        stream.write(json.dumps(report.to_json_dict(), sort_keys=True) + "\n")
    stream.write(json.dumps(
        {"summary": {"pass": passed, "fail": failed, "elapsed": round(elapsed, 6)}},
        sort_keys=True,
    ) + "\n")
    return passed, failed
