"""Macdonald difference operators: the finite-N determinantal operator,
read off the integer table `families._dn_table` at N, its renormalised
form, whose matrices come from that table by integer partial fractions,
the stable limits indexed by k (as the paper's symbol, a Hall-Littlewood
operator sum on power sums, and as matrices on the monomials of one
degree, the renormalised form's at N = degree), eigenvalues, Pieri
coefficients, and the raising/lowering step families with their one-box
matrix elements and evaluations.

Every function of u, the renormalised operator, an eigenvalue or a matrix
element, is a `UFamily`: an expansion sum_k e_k / (u;1/t)_k, built by
integer partial fractions (`_split_pochhammer`) and evaluated by `at`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .partitions import (
    Partition,
    append_one,
    box_added_index,
    conjugate,
    dominates,
    enumerate_partitions,
)
from .ratfun import SYMBOLIC, IntPoly2
from . import families, ratfun
from .families import _lift
from .symfun import (
    NotDivisible,
    NSymPoly,
    SymFun,
    _memo,
    adjoint_apply,
    convert,
    p_multiply,
)


class NotOneBoxUp(ValueError):
    pass


class NotOneBoxDown(ValueError):
    pass


class InvalidStep(ValueError):
    pass


class PoleAtSample(ZeroDivisionError):
    pass


class BadMatrixEntry(ArithmeticError):
    pass


class UFamily:
    """Finite expansion sum_k entries[k] / (u;1/t)_k over the basis
    1/(u;1/t)_k, k = 0, 1, 2, ..., with entries over the field."""

    def __init__(self, entries, field):
        self.entries = list(entries)
        self.field = field

    def entry(self, k):
        return self.entries[k] if k < len(self.entries) else None

    def __len__(self):
        return len(self.entries)

    def __repr__(self):
        return "UFamily(%r)" % (self.entries,)

    def at(self, u0):
        """The value at u = u0 for scalar entries, in Horner form over the
        top denominator (u0;1/t)_(n-1), n = len(self): the running sum is
        multiplied by 1 - u0 t^(1-k) before e_k is added, and divided once.
        Raises PoleAtSample when that denominator vanishes."""
        field = self.field
        total = field.zero
        den = field.one
        for k, e in enumerate(self.entries):
            if k:
                factor = field.one - u0 * field.t ** (1 - k)
                total = total * factor
                den = den * factor
            total = total + e
        if not den:
            raise PoleAtSample("u-denominator vanishes at the sample")
        return total / den


def pochhammer_u(u0, k, field):
    """(u0; 1/t)_k = prod_{j<k} (1 - u0 t^-j)."""
    out = field.one
    for j in range(k):
        out = out * (field.one - u0 * field.t ** (-j))
    return out


# ---------------------------------------------------------------------------
# the finite-N operators

def apply_DN(f):
    """Coefficients of the u-polynomial D_N(u) f, as N-variable polynomials.

    N = f.N and D_N(u) = a_delta^-1 sum_w eps(w) w(x^delta prod_i
    (1 - u t^-i T_{q,x_i})), i = 0..N-1: the integer table of
    `families._dn_table` at N, one degree at a time (`_dn_matrices`),
    multiplied into the coefficients of f over one denominator
    (`_apply_tables`), so an operand over monomial denominators takes no gcd.
    """
    return _apply_tables(f, _dn_matrices)


def _dn_matrices(degree, N, field):
    """([T_0, .., T_N], den, 0) on the monomials of the degree with at most N
    parts, T_s = {nu: {mu: c}} the u^s coefficients of D_N(u): the entries of
    `families._dn_table` at N with zeros dropped, over its denominator den.

    `_dn_table` is a stream that the A_k tables and the Macdonald build read
    once per degree; this memo keeps the one table each `apply_DN` sweep
    reads again for every operand.
    """
    def build():
        out = [{} for _ in range(N + 1)]
        for nu, column in families._dn_table(degree, N, N, field):
            for mu, entry in column.items():
                for s, c in enumerate(entry):
                    if c:
                        out[s].setdefault(nu, {})[mu] = c
        return out, families._dn_denominator(degree, N, field), 0

    return _memo(("dn_table", degree, N, field), build)


def _apply_tables(f, tables):
    """[sum_nu c_nu T_s[nu] for s], c_nu the coefficients of f and T_s the
    integer tables of each degree, as NSymPolys in f.N variables.

    tables(degree, N, field) gives ([T_0, T_1, ..], den, shift),
    T_s = {nu: {mu: e}}, each entry e standing for q^shift times its value
    over den (`_lift`).  The coefficients of f are written over one
    denominator first (`_cleared`), the products and sums are taken in
    integers (`_table_apply`), and each output entry is lifted once.
    """
    field = f.field
    vec, common = _cleared(f)
    by_degree = {}
    for nu, x in vec.items():
        by_degree.setdefault(sum(nu), {})[nu] = x
    out = [{} for _ in range(f.N + 1)]
    for degree, part in by_degree.items():
        matrices, den, shift = tables(degree, f.N, field)
        for total, matrix in zip(out, matrices):
            for mu, entry in _table_apply(matrix, part, field).items():
                total[mu] = _lift(entry, den, field, shift, common)
    return [NSymPoly(f.N, total, field) for total in out]


def _cleared(f):
    """(vec, common): the coefficients of f over one denominator common.

    At a sample point vec holds ints over the lcm of the Fractions'
    denominators.  Over Q(q,t) each denominator is split into a monomial,
    folded into the exponents of the integer dict {(a, i): n} (sum
    n q^a t^-i) of its numerator, and a remainder; common is the lcm of the
    remainders, None when they are all 1, and only then is no gcd taken.
    """
    coeffs = f.coeffs
    if not f.field.is_symbolic:
        common = math.lcm(*(c.denominator for c in coeffs.values()))
        return {nu: c.numerator * (common // c.denominator) for nu, c in coeffs.items()}, common
    split = {}
    for nu, c in coeffs.items():
        if not isinstance(c, ratfun.RatFun):
            c = ratfun.RatFun.from_fraction(c)
        den = c.den.terms
        a0, b0 = min(x for x, _ in den), min(y for _, y in den)
        split[nu] = c.num, a0, b0, IntPoly2({(x - a0, y - b0): n for (x, y), n in den.items()})
    common = None
    for rest in {rest for *_, rest in split.values() if rest != 1}:
        common = rest if common is None else common * ratfun.poly_divexact(rest, ratfun.poly_gcd(common, rest))
    vec = {}
    for nu, (num, a0, b0, rest) in split.items():
        if common is not None:
            num = num * ratfun.poly_divexact(common, rest)
        vec[nu] = {(x - a0, b0 - y): n for (x, y), n in num.terms.items()}
    return vec, common


def _table_apply(matrix, vec, field):
    """{row: sum over col of matrix[col][row] vec[col]}, zeros dropped: over
    Q(q,t) products of integer dicts {(a, i): n}, at a point of ints."""
    if not field.is_symbolic:
        return {row: n for row, n in ratfun._row_sums(matrix, vec).items() if n}
    out = {}
    for col, x in vec.items():
        terms = x.items()
        for row, e in matrix.get(col, {}).items():
            target = out.setdefault(row, {})
            for (a, i), n in e.items():
                for (b, j), m in terms:
                    key = a + b, i + j
                    target[key] = target.get(key, 0) + n * m
    out = {row: {key: n for key, n in poly.items() if n} for row, poly in out.items()}
    return {row: poly for row, poly in out.items() if poly}


def _split_pochhammer(num, N, field=SYMBOLIC, den=1):
    """(e, den): exact e_0..e_N with num(u) / (u;1/t)_N = sum_k e_k / (u;1/t)_k,
    num the u-coefficients of at most N + 1 values over den.

    Over Q(q,t) the values and the e_k are integer dicts {(a, i): n}
    (sum n q^a t^-i) and den is 1.  As num = e_N + (1 - u t^(1-N))
    (e_(N-1) + ... (e_1 + (1 - u) e_0)), synthetic division by 1 - u t^-j,
    j = N-1 down to 0, leaves e_(j+1) as the remainder; each quotient
    coefficient is a difference times t^j.

    At a sample point the e_k are the ints of `_split_at_point`, over
    td^(N(N-1)) den.
    """
    if not field.is_symbolic:
        return _split_at_point(num, N, field.t), den * field.t.denominator ** (N * (N - 1))
    num = list(num) + [{}] * (N + 1 - len(num))
    out = []
    for j in range(N - 1, -1, -1):
        quotient, carry = [], {}
        for poly in reversed(num[1:]):
            carry = _shifted_difference(carry, poly, j)
            quotient.append(carry)
        out.append(_shifted_difference(num[0], carry, 0))
        num = quotient[::-1]
    if any(n for poly in num[1:] for n in poly.values()):
        raise NotDivisible("partial-fraction residue did not vanish: degree of num exceeds %d" % N)
    out.append(_shifted_difference(num[0], {}, 0))
    return out[::-1], den


def _split_at_point(num, N, t):
    """The e_k of `_split_pochhammer` at t = tn/td times td^(N(N-1)), ints for
    int u-coefficients: with u = w / td^(N-1), 1 - u t^-j = (b_j - w) / b_j,
    b_j = tn^j td^(N-1-j), each division is by the monic w - b_j in ints,
    and e_k is its remainder times (-b_k) .. (-b_(N-1))."""
    if any(num[N + 1:]):
        raise NotDivisible("partial-fraction residue did not vanish: degree of num exceeds %d" % N)
    tn, td = t.numerator, t.denominator
    w = [n * td ** ((N - 1) * (N - s)) for s, n in enumerate(num[:N + 1])] + [0] * (N + 1 - len(num))
    out, b_prod = [], 1
    for j in range(N - 1, -1, -1):
        b = tn ** j * td ** (N - 1 - j)
        quotient, carry = [], 0
        for n in reversed(w[1:]):
            carry = n + b * carry
            quotient.append(carry)
        out.append((w[0] + b * carry) * b_prod)
        b_prod *= -b
        w = quotient[::-1]
    out.append(w[0] * b_prod)
    return out[::-1]


def _shifted_difference(a, b, j):
    # (a - b) t^j on integer dicts {(a, i): n} of sum n q^a t^-i, zeros dropped
    out = dict(a)
    for key, n in b.items():
        out[key] = out.get(key, 0) - n
    return {(x, i - j): n for (x, i), n in out.items() if n}


def apply_AN(f):
    """Renormalised operator: q^(-deg), divide by (u;1/t)_N, re-expand.  The
    integer tables of `_A_matrices` at N multiplied into f as `apply_DN`
    multiplies its table (`_apply_tables`)."""
    return UFamily(_apply_tables(f, _A_matrices), f.field)


# ---------------------------------------------------------------------------
# the operators at infinity

def A_k_apply(k, f, degree_bound=None):
    """Apply the k-th stable operator: sum over length-k partitions lam of
    q^(-|lam|) Q_lam P_lam^* acting on f."""
    bound = f.degree_bound if degree_bound is None else degree_bound
    fp = convert(f, "p")
    return _hl_operator_sum(fp, k, fp.max_degree(), ("Q", False), ("P", False), bound, f.field.one)


def A_k_matrix(k, degree, field=SYMBOLIC):
    """Columns {mu: {nu: c}} with A_k m_mu = sum c m_nu over the partitions
    of the degree.

    The matrix is the k-th term of the finite operator A_N(u) at N = degree
    (`_A_matrices`).  Restriction to N variables loses no monomial of the
    degree, and takes A_k f to the k-th term of A_N(u) on the restricted f,
    so A_k vanishes for k > degree.  `verify symbol` certifies the matrix
    against the Hall-Littlewood symbol `A_k_apply` and against A_N(u) at
    the other N.  Its entries are lifted from the table on each call.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    matrices, den, shift = _A_matrices(degree, degree, field)
    return {mu: {nu: _lift(e, den, field, shift) for nu, e in (matrices[k][mu] if k < len(matrices) else {}).items()}
            for mu in matrices[0]}


def _A_matrices(degree, N, field):
    """([A_0, .., A_N], den, -degree) on the m_mu of the degree with
    ell(mu) <= N, from q^(-degree) D_N(u) m_mu / (u;1/t)_N =
    sum_k 1/(u;1/t)_k A_k m_mu: the first three items of `_A_entry`."""
    return _A_entry(degree, N, field)[:3]


def _A_entry(degree, N, field):
    """The A_table memo entry (tables, den, -degree, splits) of `_A_matrices`.

    The tables are the partial fractions (`_split_pochhammer`) of the
    entries of `_dn_table`, one column at a time, over their one
    denominator den; `_lift` reads an entry over the field.  An entry above
    its column raises BadMatrixEntry; at a point only an entry whose value
    does not vanish is seen.  splits starts empty and `_eigen_values` fills
    it, one lam at a time.
    """
    def build():
        out = [{} for _ in range(N + 1)]
        for mu, column in families._dn_table(degree, N, N, field):
            for matrix in out:
                matrix[mu] = {}
            for nu, num in column.items():
                inside = dominates(mu, nu)
                for k, e in enumerate(_split_pochhammer(num, N, field)[0]):
                    if e:
                        if not inside:
                            raise BadMatrixEntry(
                                "A_%d at degree %d: the entry at row %r, column %r lies outside the lower "
                                "order ideal of the column" % (k, degree, tuple(nu), tuple(mu)))
                        out[k][mu][nu] = e
        # den, that of every split of the table, read off the split of an empty entry
        return out, _split_pochhammer((), N, field, families._dn_denominator(degree, N, field))[1], -degree, {}

    return _memo(("A_table", degree, N, field), build)


def _hl_operator_sum(fp, k, top, x, y, bound, unit):
    """Sum over length-k partitions lam with |lam| <= top of
    unit q^(-|lam|) X (Y^* fp).  x and y are (kind, grown) pairs naming the
    Hall-Littlewood P or Q at lam, or at lam u (1) when grown."""
    field = fp.field
    result = SymFun.zero("p", bound, field)
    for w in range(k, top + 1):
        scalar = unit * field.q ** (-w)
        for lam in enumerate_partitions(w, exact_length=k):
            y_lam = append_one(lam) if y[1] else lam
            adj = adjoint_apply(_hl_sym(y_lam, y[0], bound, field), fp)
            if adj.is_zero():
                continue
            x_lam = append_one(lam) if x[1] else lam
            term = p_multiply(_hl_sym(x_lam, x[0], bound, field), adj, bound)
            result = result + term.scale(scalar)
    return result


def _hl_sym(lam, kind, bound, field):
    return SymFun("p", families.hl_in_p(lam, kind, field), max(bound, sum(lam)), field)


def A_k_eigen(lam, field=SYMBOLIC):
    """The eigenvalue of the full family on M_lam,
    prod_i (q^(-lam_i) - u t^(1-i)) / (u;1/t)_ell, as sum_k e_k / (u;1/t)_k:
    the split of `_eigen_split` lifted with shift -|lam|."""
    lam = Partition(lam)
    values, den = _eigen_split(lam, field)
    return UFamily([_lift(e, den, field, -sum(lam)) for e in values], field)


def _eigen_split(lam, field=SYMBOLIC):
    """(values, den): q^|lam| e_k(lam), k = 0..ell, on the unit of the A_k
    tables: the partial fractions (`_split_pochhammer`) of the
    u-coefficients of prod_i (1 - u q^(lam_i) t^-i), i from 0
    (`families._u_product`), over den.  Taken afresh on each call: the
    checks read it through `_eigen_values`, which keeps it."""
    num, den = families._u_product(enumerate(lam), field)
    return _split_pochhammer(num, len(lam), field, den)


def _eigen_values(lam, field):
    """The split of `_eigen_split` at lam, kept in the A_table entry of
    degree |lam| (`_A_entry`) and taken on its first request, as
    `families.macdonald_in_m` fills the M rows of the macdonald entry; so
    it is split once per (lam, field) and dropped with its tables."""
    degree = sum(lam)
    splits = _A_entry(degree, degree, field)[3]
    if lam not in splits:
        splits[lam] = _eigen_split(lam, field)
    return splits[lam]


def _A_k_equation(k, lam, field=SYMBOLIC):
    """A_k J_lam = e_k(lam) J_lam as the pair of sides (A_k, J_lam, e_den)
    and (diag e_k, J_lam, den) of `ratfun.first_unequal_rows`, J_lam as
    `families._macdonald_degree` holds it.  The table of `_A_matrices` is
    over den and the split kept by `_eigen_values` over e_den; both carry
    q^-|lam|, which cancels.  A_k is 0 for k > |lam|, e_k for k > ell."""
    degree = sum(lam)
    tables, den, _ = _A_matrices(degree, degree, field)
    j = families._macdonald_degree(degree, field)[0][lam]
    # e_k vanishes for k > ell, and its split is not asked for
    values, e_den = _eigen_values(lam, field) if k <= len(lam) else ((), 1)
    diagonal = {mu: {mu: values[k]} for mu in j} if values else {}
    return (tables[k] if k < len(tables) else {}, j, e_den), (diagonal, j, den)


# ---------------------------------------------------------------------------
# Pieri coefficients

def pieri_up_coeff(lam, mu, field=SYMBOLIC):
    """Coefficient of M_lam in p1 M_mu; lam is mu with term i increased by 1."""
    lam, mu = Partition(lam), Partition(mu)
    i = box_added_index(lam, mu)
    if i is None:
        raise NotOneBoxUp("%r is not %r plus one box" % (tuple(lam), tuple(mu)))
    out = field.one
    li = lam[i - 1]
    for j in range(1, i):
        lj = lam[j - 1]
        out = out * (field.one - field.q ** (lj - li) * field.t ** (i - j + 1))
        out = out / (field.one - field.q ** (lj - li + 1) * field.t ** (i - j))
        out = out * (field.one - field.q ** (lj - li + 1) * field.t ** (i - j - 1))
        out = out / (field.one - field.q ** (lj - li) * field.t ** (i - j))
    return out


def pieri_down_coeff(mu, lam, field=SYMBOLIC):
    """Coefficient of M_mu in dM_lam/dp1; mu is lam with term i decreased by 1."""
    lam, mu = Partition(lam), Partition(mu)
    i = box_added_index(lam, mu)
    if i is None:
        raise NotOneBoxDown("%r is not %r minus one box" % (tuple(mu), tuple(lam)))
    lam_c = conjugate(lam)
    li = lam[i - 1]
    out = field.one
    for j in range(1, li):
        cj = lam_c[j - 1]
        out = out * (field.one - field.q ** (li - j - 1) * field.t ** (cj - i + 1))
        out = out / (field.one - field.q ** (li - j) * field.t ** (cj - i))
        out = out * (field.one - field.q ** (li - j + 1) * field.t ** (cj - i))
        out = out / (field.one - field.q ** (li - j) * field.t ** (cj - i + 1))
    return out


# ---------------------------------------------------------------------------
# step operator families

def step_series_apply(kind, k, f, degree_bound=None):
    """Apply the (k+1)-st raising (B) or lowering (C) operator to f."""
    if kind not in ("B", "C"):
        raise ValueError("kind must be B or C")
    fp = convert(f, "p")
    bound = (fp.max_degree() + 1) if degree_bound is None else degree_bound
    tpow = f.field.t ** (-k)
    if kind == "B":
        return _hl_operator_sum(fp, k, fp.max_degree(), ("Q", True), ("P", False), bound, tpow)
    return _hl_operator_sum(fp, k, fp.max_degree() - 1, ("P", False), ("Q", True), bound, tpow)


def step_family_at(kind, f, u0):
    """Evaluate the full raising/lowering series at a sample point u0."""
    field = f.field
    fp = convert(f, "p")
    bound = fp.max_degree() + 1
    total = SymFun.zero("p", bound, field)
    for k in range(bound):
        piece = step_series_apply(kind, k, f, bound)
        if piece.is_zero():
            continue
        total = total + piece.scale(field.one / pochhammer_u(u0, k + 1, field))
    return total


def bc_matrix_coeff(kind, lam, mu, field=SYMBOLIC):
    """Matrix element of B(u) (mu -> lam) or C(u) (lam -> mu), as an
    expansion over 1/(u;1/t)_k: the u-free scalar times the eigenvalue of
    M_lam with its factor at slot i (the added box) opened up,
    t^(1-i) prod_(j != i) (q^(-lam_j) - u t^(1-j)) / (u;1/t)_ell."""
    lam, mu = Partition(lam), Partition(mu)
    i = box_added_index(lam, mu)
    if i is None:
        if kind == "B":
            raise NotOneBoxUp("%r is not %r plus one box" % (tuple(lam), tuple(mu)))
        raise NotOneBoxDown("%r is not %r minus one box" % (tuple(mu), tuple(lam)))
    num, den = families._u_product(((j, part) for j, part in enumerate(lam) if j != i - 1), field)
    values, den = _split_pochhammer(num, len(lam), field, den)
    scalar = _bc_scalar(kind, lam, mu, field) * field.t ** (1 - i)
    return UFamily((_lift(e, den, field, lam[i - 1] - sum(lam)) * scalar for e in values), field)


def _bc_scalar(kind, lam, mu, field):
    # the u-free factor of a matrix element: Pieri coefficient times (1-t) or (1-q)
    if kind == "B":
        return pieri_up_coeff(lam, mu, field) * (field.one - field.t)
    if kind == "C":
        return pieri_down_coeff(mu, lam, field) * (field.one - field.q)
    raise ValueError("kind must be B or C")


@dataclass
class StepEval:
    point: tuple  # (exponent of q, exponent of t) of the evaluation point
    partner: Partition
    coeff: object
    alt_coeff: object  # from the closed product form; coeff/alt_coeff reports the normalisation gap


def step_evaluate(kind, lam, i, field=SYMBOLIC):
    """Evaluate the step family at u = q^(-lam_i) t^(i-1).

    coeff is the matrix element (M_partner -> M_lam for B, M_lam -> M_partner
    for C) at that point.  The lowering family is single-term there: it
    sends M_lam to coeff * M_partner.  The raising family is not: on
    M_partner it also keeps the other one-box-up terms.  It is single-term
    at u = q^(1-lam_i) t^(i-1) instead, or, when lam_i = 1, by its residue
    at the pole u = t^(i-1).  alt_coeff carries the closed product
    evaluation of the same matrix element for comparison.
    """
    lam = Partition(lam)
    if not (1 <= i <= len(lam)):
        raise InvalidStep("index %d out of range for %r" % (i, tuple(lam)))
    parts = list(lam)
    parts[i - 1] -= 1
    nxt = parts[i] if i < len(parts) else 0
    if parts[i - 1] < nxt:
        raise InvalidStep("lowering term %d of %r leaves the partition cone" % (i, tuple(lam)))
    mu = Partition(x for x in parts if x)
    li = lam[i - 1]
    u0 = field.q ** (-li) * field.t ** (i - 1)
    coeff = bc_matrix_coeff(kind, lam, mu, field).at(u0)
    scalar = _bc_scalar(kind, lam, mu, field)
    closed = field.t ** (1 - i)
    for j in range(1, len(lam) + 1):
        closed = closed / (field.q ** li - field.t ** (i - j))
        if j != i:
            closed = closed * (field.q ** (li - lam[j - 1]) - field.t ** (i - j))
    return StepEval(point=(-li, i - 1), partner=mu, coeff=coeff, alt_coeff=scalar * closed)
