import random
import re
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from qtsym import families, macops, symfun
from qtsym.families import macdonald_M
from qtsym.macops import (
    A_k_apply,
    A_k_eigen,
    A_k_matrix,
    BadMatrixEntry,
    InvalidStep,
    NotOneBoxUp,
    PoleAtSample,
    apply_AN,
    apply_DN,
    bc_matrix_coeff,
    pieri_down_coeff,
    pieri_up_coeff,
    pochhammer_u,
    step_evaluate,
    step_family_at,
    step_series_apply,
)
from qtsym.partitions import (
    Partition,
    add_box_positions,
    enumerate_partitions,
    kostka_rows,
    partitions_up_to,
    remove_box_positions,
)
from qtsym.ratfun import SYMBOLIC, NumericField, parse_ratfun, random_point
from qtsym.symfun import (
    NotDivisible,
    NSymPoly,
    SymFun,
    XPoly,
    _alternant_index,
    _distinct_permutations,
    _perm_sign,
    convert,
    divide_by_vandermonde,
    dp1,
    expand_x,
    inner_product,
    p_multiply,
    restrict,
)

F = SYMBOLIC
one = F.one


def P(*parts):
    return Partition(parts)


def rf(s):
    return parse_ratfun(s)


def M_restricted(lam, N):
    return restrict(macdonald_M(P(*lam)), N)


def test_DN_one_variable_monomial():
    f = NSymPoly(1, {P(3): one})
    coeffs = apply_DN(f)
    assert coeffs[0] == f
    assert coeffs[1] == f.scale(rf("-q^3"))


def test_DN_two_variables_on_constant():
    f = NSymPoly(2, {P(): one})
    coeffs = apply_DN(f)
    # (1-u)(1-u/t) = 1 - (1 + 1/t) u + (1/t) u^2
    assert coeffs[0] == f
    assert coeffs[1] == f.scale(rf("-(1+t)/t"))
    assert coeffs[2] == f.scale(rf("1/t"))


def test_DN_two_variables_on_m1():
    f = NSymPoly(2, {P(1): one})
    coeffs = apply_DN(f)
    assert coeffs[0] == f
    assert coeffs[1] == f.scale(rf("-(q+1/t)"))
    assert coeffs[2] == f.scale(rf("q/t"))


def _laurent(counts, field, monomials):
    # sum n q^a t^-b over the integer counts {(a, b): n}, with
    # monomials[a, b] = q^a t^-b
    out = field.zero
    for key, n in counts.items():
        if n:
            out = out + field.from_int(n) * monomials[key]
    return out


def _apply_DN_reference(f):
    # the explicit construction: per subset I, the N!-term alternant
    # sum_sigma sign(sigma) x^(delta o sigma) t^(-sum_{i in I} sigma(i)) times
    # T_{q,I} f, then the validating quotient by the Vandermonde.  The
    # q^a t^-b terms of all subsets of one size are counted as integers per
    # product exponent and operand coefficient, and each count is lifted once
    N, field = f.N, f.field
    terms = expand_x(f).coeffs
    top = max((sum(m) for m in terms), default=0)
    monomials = {(a, b): field.q ** a * field.t ** (-b) for a in range(top + 1)
                 for b in range(N * (N - 1) // 2 + 1)}
    out = []
    for size in range(N + 1):
        counts = {}
        for subset in combinations(range(N), size):
            for sigma in permutations(range(N)):
                sign = _perm_sign(sigma)
                b = sum(sigma[i] for i in subset)
                delta = [N - 1 - s for s in sigma]
                for m, c in terms.items():
                    count = counts.setdefault((tuple(x + y for x, y in zip(delta, m)), c), {})
                    a = sum(m[i] for i in subset)
                    count[a, b] = count.get((a, b), 0) + sign
        g = {}
        for (e, c), count in counts.items():
            g[e] = g.get(e, field.zero) + c * _laurent(count, field, monomials)
        g = XPoly(N, g, field)
        out.append(divide_by_vandermonde(g if size % 2 == 0 else -g))
    return out


def test_DN_matches_explicit_alternant_construction():
    coeff = rf("(1-q*t)/(1-t^2)")
    for N in range(1, 5):
        lams = [lam for w in range(4) for lam in enumerate_partitions(w, max_length=N)]
        for lam, mu in zip(lams, lams[1:]):
            for f in (NSymPoly(N, {lam: one}), NSymPoly(N, {lam: one, mu: coeff})):
                assert apply_DN(f) == _apply_DN_reference(f), (N, f)
    point = random_point(random.Random(20261018))
    for N in range(1, 5):
        for w in range(5):
            for lam in enumerate_partitions(w, max_length=N):
                f = restrict(macdonald_M(lam, field=point), N)
                assert apply_DN(f) == _apply_DN_reference(f), (N, lam)


def test_dn_table_matches_explicit_alternant():
    # every power of u in the table over the field (integer dicts lifted to
    # Q(q,t), or built at the point) against the explicit alternant, for
    # every N from 0 to degree + 1: a column for each nu with ell(nu) <= N,
    # none for the others, whose restriction vanishes
    for field in (F, random_point(random.Random(20261018))):
        for d in range(5):
            for N in range(d + 2):
                columns = dict(families._dn_table(d, N, N, field))
                assert list(columns) == [nu for nu in enumerate_partitions(d) if len(nu) <= N], (d, N)
                for nu, column in columns.items():
                    got = [NSymPoly(N, c, field) for c in _dn_slices(column, d, N, field)]
                    m_nu = SymFun.generator("m", nu, field=field)
                    assert got == _apply_DN_reference(restrict(m_nu, N)), (d, N, nu)


def _dn_slices(column, degree, N, field):
    # one `_dn_table` column over the field as its u^s slices {mu: c}: each
    # entry lifted by `families._lift`
    den = families._dn_denominator(degree, N, field)
    out = [{} for _ in next(iter(column.values()))]
    for mu, entry in column.items():
        for s, c in enumerate(entry):
            if c:
                out[s][mu] = families._lift(c, den, field)
    return out


def test_strict_skeleton_equals_the_filtered_permutations(monkeypatch):
    # the backtracking enumeration against every distinct permutation of nu
    # padded to N, kept where _alternant_index finds e + delta strict: the
    # same (sign, e, rho) in the same order, and the Kostka rows over ell <= N
    monkeypatch.setattr(symfun, "_CACHE", {})
    kept = total = 0
    for d in range(10):
        for N in range(d + 2):
            terms, rows = families._dn_skeleton(d, N, F)
            assert list(terms) == enumerate_partitions(d, max_length=N), (d, N)
            assert rows == {rho: {mu: k for mu, k in row.items() if len(mu) <= N}
                            for rho, row in kostka_rows(d).items() if len(rho) <= N}, (d, N)
            for nu, strict in terms.items():
                old = []
                for e in _distinct_permutations(nu + (0,) * (N - len(nu))):
                    total += 1
                    index = _alternant_index(tuple(x + N - 1 - i for i, x in enumerate(e)))
                    if index is not None:
                        old.append((index[0], e, index[1]))
                assert list(strict) == old, (d, N, nu)
                kept += len(old)
    assert (kept, total) == (6112, 125477)


def test_d1_columns_match_explicit_alternant():
    # the u^1 slice of the table through u^1 only, which the Macdonald
    # build solves against, at N = degree
    for field in (F, random_point(random.Random(20261018))):
        for d in range(1, 5):
            for nu, column in families._dn_table(d, d, 1, field):
                got = NSymPoly(d, _dn_slices(column, d, d, field)[1], field)
                m_nu = SymFun.generator("m", nu, field=field)
                assert got == _apply_DN_reference(restrict(m_nu, d))[1], (d, nu)


def _assert_DN_and_AN_match_reference(f):
    # A_N(u) is checked against q^(-deg) D_N(u) / (u;1/t)_N with D_N from the
    # explicit alternant: both sides times (u;1/t)_N have u-degree <= N, so
    # N + 1 values of u decide the identity
    N, field = f.N, f.field
    by_degree = {}
    for mu, a in f.coeffs.items():
        by_degree.setdefault(sum(mu), {})[mu] = a
    renormalised = [(field.q ** (-d), _apply_DN_reference(NSymPoly(N, part, field)))
                    for d, part in by_degree.items()]
    expected = [NSymPoly(N, {}, field) for _ in range(N + 1)]
    for _, coeffs_u in renormalised:
        expected = [a + b for a, b in zip(expected, coeffs_u)]
    assert apply_DN(f) == expected, f
    fam = apply_AN(f)
    assert len(fam) == N + 1
    for u0 in map(field.from_int, range(2, N + 3)):
        lhs = NSymPoly(N, {}, field)
        for k, entry in enumerate(fam.entries):
            lhs = lhs + entry.scale(field.one / pochhammer_u(u0, k, field))
        rhs = NSymPoly(N, {}, field)
        for shift, coeffs_u in renormalised:
            for s, g in enumerate(coeffs_u):
                rhs = rhs + g.scale(shift * u0 ** s / pochhammer_u(u0, N, field))
        assert lhs == rhs, (f, u0)


def test_DN_and_AN_on_edge_operands():
    # N = 0, degree-0 and mixed-degree operands, and N above the degree
    for field in (F, random_point(random.Random(20261018))):
        c = field.from_int(3) * field.q / (field.one - field.q * field.t)
        operands = [
            (0, {P(): field.from_int(3)}),
            (0, {P(2, 1): field.one, P(): field.from_int(3)}),
            (2, {P(2, 1): field.one, P(1): field.one, P(): field.one}),
            (3, {P(): c}),
            (3, {P(2): field.one, P(1, 1): c, P(1): field.from_int(-2)}),
            (4, {P(2, 1): c, P(3): field.one}),
            (5, {P(1): field.one, P(): c}),
            (2, {P(1, 1): 2, P(1): Fraction(-1, 3)}),
        ]
        for N, coeffs in operands:
            _assert_DN_and_AN_match_reference(restrict(SymFun("m", coeffs, 3, field), N))


def test_DN_and_AN_on_operands_over_non_monomial_denominators():
    # M_lam, whose coefficients lie over products of 1 - q^a t^b, and a
    # mixed-degree sum of them, in Q(q,t) and at one seeded point: the
    # operand is written over one denominator, multiplied into the integer
    # tables and each output entry lifted once
    for field in (F, random_point(random.Random(20261021))):
        c = (field.one - field.q) / (field.one - field.q ** 2 * field.t)
        mixed = macdonald_M(P(2, 1), 3, field) + macdonald_M(P(1, 1), 3, field).scale(c) \
            + macdonald_M(P(1), 3, field) + macdonald_M(P(), 3, field).scale(c)
        for N in range(1, 4):
            if field.is_symbolic:
                assert macops._cleared(restrict(mixed, N))[1] is not None
            for lam in partitions_up_to(3):
                if len(lam) <= N:
                    _assert_DN_and_AN_match_reference(restrict(macdonald_M(lam, field=field), N))
            _assert_DN_and_AN_match_reference(restrict(mixed, N))


def test_deigen_small_sweep():
    for N in range(1, 4):
        for w in range(0, 5):
            for lam in enumerate_partitions(w, max_length=N):
                f = M_restricted(lam, N)
                coeffs = apply_DN(f)
                padded = list(lam) + [0] * (N - len(lam))
                expect = [rf("1")]
                for i, part in enumerate(padded, start=1):
                    root = rf("q") ** part * rf("t") ** (1 - i)
                    new = [rf("0")] * (len(expect) + 1)
                    for j, c in enumerate(expect):
                        new[j] = new[j] + c
                        new[j + 1] = new[j + 1] - c * root
                    expect = new
                for k in range(N + 1):
                    assert coeffs[k] == f.scale(expect[k]), (N, lam, k)


def test_DN_coefficients_commute():
    # composition of the u-coefficients in both orders, on monomial
    # spanning sets of the symmetric polynomials
    for N, max_w in ((2, 4), (3, 3)):
        for lam in partitions_up_to(max_w, max_length=N):
            f = NSymPoly(N, {Partition(lam): one})
            d = apply_DN(f)
            for a in range(1, N + 1):
                for b in range(a + 1, N + 1):
                    ab = apply_DN(d[b])[a]
                    ba = apply_DN(d[a])[b]
                    assert ab == ba, (N, lam, a, b)


def test_AN_on_m1():
    f = NSymPoly(1, {P(1): one})
    fam = apply_AN(f)
    assert fam.entry(0) == f
    assert fam.entry(1) == f.scale(rf("(1-q)/q"))


def test_AN_on_constant():
    for N in range(1, 4):
        f = NSymPoly(N, {P(): one})
        fam = apply_AN(f)
        assert fam.entry(0) == f
        for k in range(1, N + 1):
            assert fam.entry(k).is_zero()


def test_AN_stability():
    for N in (2, 3):
        for lam in partitions_up_to(3, max_length=N - 1):
            f = restrict(macdonald_M(Partition(lam)), N)
            upper = apply_AN(f)
            lower = apply_AN(f.set_last_zero())
            for k in range(N):
                assert upper.entry(k).set_last_zero() == lower.entry(k), (N, lam, k)
            assert upper.entry(N).set_last_zero().is_zero()


def test_AN_entries_match_stable_eigen_data():
    # on a restricted Macdonald function the renormalised finite-N operator
    # expands with exactly the stable eigenvalue coefficients, padded by zeros
    for N in (2, 3):
        for lam in partitions_up_to(4, max_length=N):
            f = restrict(macdonald_M(Partition(lam)), N)
            fam = apply_AN(f)
            eig = A_k_eigen(Partition(lam))
            for k in range(N + 1):
                expected = eig.entry(k) if k <= len(lam) else None
                if expected is None or not expected:
                    assert fam.entry(k).is_zero(), (lam, N, k)
                else:
                    assert fam.entry(k) == f.scale(expected), (lam, N, k)


def test_lowering_value_at_generic_sample():
    # C at a generic point sends M_(1) to (1-q)/(1-u0) times the constant
    u0 = rf("2")
    got = step_family_at("C", convert(macdonald_M(P(1)), "p"), u0)
    assert got == SymFun("p", {P(): rf("(1-q)/(1-2)")}, 2)


def test_A1_on_p1():
    f = SymFun.generator("p", (1,))
    got = A_k_apply(1, f)
    assert got == SymFun("p", {P(1): rf("(1-q)/q")}, 1)


def test_A2_kills_short_partitions():
    got = A_k_apply(2, convert(macdonald_M(P(1)), "p"))
    assert got.is_zero()


def test_A1_on_constant():
    got = A_k_apply(1, SymFun("p", {P(): one}, 0))
    assert got.is_zero()


def _eigenvalue(lam, u0, field=F):
    # the closed product prod_i (q^(-lam_i) - u0 t^(1-i)) / (u0;1/t)_ell
    out = field.one
    for i, part in enumerate(lam, start=1):
        out = out * (field.q ** (-part) - u0 * field.t ** (1 - i)) / (field.one - u0 * field.t ** (1 - i))
    return out


def test_A_eigen_values():
    for lam, u0, expected in (
        (P(), rf("2"), one),
        (P(1), rf("3"), rf("(1/q-3)/(1-3)")),
        (P(1, 1), rf("2"), rf("(1/q-2)*(1/q-2/t)/((1-2)*(1-2/t))")),
    ):
        assert _eigenvalue(lam, u0) == expected, lam
        assert A_k_eigen(lam).at(u0) == expected, lam


def test_A_k_eigen_small():
    fam = A_k_eigen(P(1))
    assert fam.entries == [one, rf("(1-q)/q")]
    fam0 = A_k_eigen(P())
    assert fam0.entries == [one]
    fam21 = A_k_eigen(P(2, 1))
    assert fam21.entry(1) == rf("(1-q^2)/q^2") + rf("t*(1-q)/q")


def test_A_k_eigen_reconstructs_eigenvalue():
    # independent oracle: sum_k e_k / (u;1/t)_k, term by term and in the
    # Horner form of `at`, against the closed product
    for field in (F, random_point(random.Random(20260809))):
        for lam in partitions_up_to(6):
            fam = A_k_eigen(Partition(lam), field)
            for u0 in (field.from_int(7), field.from_int(11)):
                total = field.zero
                for k, c in enumerate(fam.entries):
                    total = total + c / pochhammer_u(u0, k, field)
                expected = _eigenvalue(lam, u0, field)
                assert total == expected, (lam, field)
                assert fam.at(u0) == expected, (lam, field)


def test_evaluation_at_a_pole_raises():
    # at t = 2 the factor 1 - u0/t of (u0;1/t)_2 vanishes at u0 = 2
    field = NumericField(3, 2)
    b = bc_matrix_coeff("B", P(1, 1), P(1), field)
    with pytest.raises(PoleAtSample):
        A_k_eigen(P(1, 1), field).at(field.from_int(2))
    with pytest.raises(PoleAtSample):
        b.at(field.from_int(2))
    u0 = field.from_int(5)
    assert A_k_eigen(P(1, 1), field).at(u0) == _eigenvalue(P(1, 1), u0, field)
    pieri = pieri_up_coeff(P(1, 1), P(1), field) * (field.one - field.t)
    assert b.at(u0) == pieri * (field.q ** -1 - u0) / ((field.one - u0) * (field.t - u0))


def test_partial_fractions_refuse_a_surviving_residue():
    # over (u;1/t)_N a numerator of u-degree N splits exactly; one of degree
    # N + 1 leaves a residue, over Q(q,t) and in ints at a sample point
    point = random_point(random.Random(20261024))
    for field, coefficient in ((F, lambda k: {(k, k): 1}), (point, lambda k: k + 1)):
        for N in range(4):
            assert len(macops._split_pochhammer([coefficient(k) for k in range(N + 1)], N, field)[0]) == N + 1
            with pytest.raises(NotDivisible, match="degree of num exceeds %d" % N):
                macops._split_pochhammer([coefficient(k) for k in range(N + 2)], N, field)


def _times_tails(es, N):
    # sum_k e_k prod_(j=k)^(N-1) (1 - u t^-j) as {(s, a, i): n}: n u^s q^a t^-i
    total = {}
    for k, e in enumerate(es):
        poly = {(0, a, i): n for (a, i), n in e.items()}
        for j in range(k, N):
            grown = {}
            for (s, a, i), n in poly.items():
                grown[s, a, i] = grown.get((s, a, i), 0) + n
                grown[s + 1, a, i + j] = grown.get((s + 1, a, i + j), 0) - n
            poly = grown
        for key, n in poly.items():
            total[key] = total.get(key, 0) + n
    return {key: n for key, n in total.items() if n}


def test_partial_fractions_multiply_back_to_every_dn_numerator():
    # oracle: the e_k times the tails of (u;1/t)_N give back each numerator
    # of D_N(u), every N <= degree <= 6
    for d in range(7):
        for N in range(1, d + 1):
            for _, column in families._dn_table(d, N, N):
                for num in column.values():
                    expect = {(s, a, i): n for s, poly in enumerate(num) for (a, i), n in poly.items()}
                    es = macops._split_pochhammer(num, N)[0]
                    assert len(es) == N + 1 and all(all(es_k.values()) for es_k in es)
                    assert _times_tails(es, N) == expect


def _evaluated(value, point):
    return value.evaluate(point.q, point.t)


def _lifted(tables, field):
    # the tables, den and shift of `_A_matrices` as matrices over the field
    matrices, den, shift = tables
    return [{mu: {nu: families._lift(e, den, field, shift) for nu, e in column.items()}
             for mu, column in matrix.items()} for matrix in matrices]


def test_point_tables_equal_the_symbolic_tables_evaluated():
    # the tables built in ints at a sample point against the Q(q,t) tables
    # evaluated there by RatFun.evaluate, entry for entry: D_N(u) and A_N(u)
    # for every N <= degree + 1 <= 7 (and degree 7 at N = 7 at the first
    # point), the eigenvalue families and the step matrix elements
    rng = random.Random(20261020)
    for trial in range(3):
        point = random_point(rng)
        try:
            cases = [(d, N) for d in range(7) for N in range(d + 2)] + ([(7, 7)] if trial == 0 else [])
            for d, N in cases:
                symbolic = dict(families._dn_table(d, N, N))
                at_point = dict(families._dn_table(d, N, N, point))
                assert list(at_point) == list(symbolic), (d, N)
                for nu, column in at_point.items():
                    expected = [{mu: _evaluated(c, point) for mu, c in piece.items()}
                                for piece in _dn_slices(symbolic[nu], d, N, F)]
                    assert _dn_slices(column, d, N, point) == expected, (d, N, nu)
                tables = _lifted(macops._A_matrices(d, N, point), point)
                for k, matrix in enumerate(_lifted(macops._A_matrices(d, N, F), F)):
                    expected = {mu: {nu: _evaluated(c, point) for nu, c in column.items()}
                                for mu, column in matrix.items()}
                    assert tables[k] == expected, (d, N, k)
            for lam in partitions_up_to(7):
                expected = [_evaluated(e, point) for e in A_k_eigen(lam).entries]
                assert A_k_eigen(lam, point).entries == expected, lam
            for lam in partitions_up_to(5):
                for mu, _ in remove_box_positions(lam):
                    for kind in "BC":
                        expected = [_evaluated(e, point) for e in bc_matrix_coeff(kind, lam, mu).entries]
                        assert bc_matrix_coeff(kind, lam, mu, point).entries == expected, (kind, lam, mu)
        finally:
            symfun.clear_field_caches(point)


def test_e1_closed_form():
    for lam in partitions_up_to(5):
        if not lam:
            continue
        fam = A_k_eigen(Partition(lam))
        expected = F.zero
        for i, part in enumerate(Partition(lam), start=1):
            expected = expected + (F.q ** (-part) - one) * F.t ** (i - 1)
        assert fam.entry(1) == expected, lam


def test_theorem_small_sweep():
    for w in range(0, 5):
        for lam in enumerate_partitions(w):
            m = convert(macdonald_M(lam), "p")
            fam = A_k_eigen(lam)
            for k in (1, 2):
                got = A_k_apply(k, m)
                if len(lam) < k:
                    assert got.is_zero(), (lam, k)
                else:
                    assert got == m.scale(fam.entry(k)), (lam, k)


def test_A_k_self_adjoint():
    fs = [
        SymFun("p", {P(2, 1): one, P(1): rf("q")}, 3),
        SymFun("p", {P(3): one, P(1, 1): rf("t")}, 3),
    ]
    for k in (1, 2):
        lhs = inner_product(A_k_apply(k, fs[0]), fs[1])
        rhs = inner_product(fs[0], A_k_apply(k, fs[1]))
        assert lhs == rhs


def test_A_k_commute():
    for w in range(0, 5):
        for lam in enumerate_partitions(w):
            f = convert(SymFun.generator("m", lam), "p")
            for j in (1, 2, 3):
                for k in range(j + 1, 4):
                    jk = A_k_apply(j, A_k_apply(k, f))
                    kj = A_k_apply(k, A_k_apply(j, f))
                    assert jk == kj, (lam, j, k)


def _random_m_operand(rng, degree, field):
    # a seeded random combination of the monomials of one degree
    coeffs = {}
    for lam in enumerate_partitions(degree):
        c = field.from_int(rng.randint(-3, 3))
        if rng.random() < 0.5:
            c = c * field.q ** rng.randint(-1, 1) * field.t ** rng.randint(0, 2) / (field.one - field.q * field.t)
        coeffs[lam] = c
    return SymFun("m", coeffs, degree, field)


def _matrix_times(matrix, f):
    out = {}
    for mu, c in f.coeffs.items():
        for nu, a in matrix[mu].items():
            out[nu] = out.get(nu, f.field.zero) + c * a
    return SymFun("m", out, f.degree_bound, f.field)


@pytest.mark.parametrize("field,top", [(F, 5), (random_point(random.Random(20261018)), 6)],
                         ids=["symbolic", "numeric"])
def test_A_k_matrix_matches_operator_sum(field, top):
    # the memoised matrix against the p-basis operator sum on random operands
    rng = random.Random(9)
    for degree in range(top + 1):
        for k in (1, 2, 3, 4) if degree >= 4 else (1, 2, 3):
            matrix = A_k_matrix(k, degree, field)
            for _ in range(2):
                f = _random_m_operand(rng, degree, field)
                expected = convert(A_k_apply(k, convert(f, "p")), "m")
                assert _matrix_times(matrix, f) == expected, (degree, k, f)


def test_A_k_matrix_diagonal_is_the_eigenvalue():
    for degree in range(7):
        for k in (1, 2, 3):
            matrix = A_k_matrix(k, degree)
            for lam in enumerate_partitions(degree):
                expected = A_k_eigen(lam).entry(k) if len(lam) >= k else F.zero
                assert matrix[lam].get(lam, F.zero) == expected, (k, lam)


def test_A_k_matrix_refuses_entry_outside_order_ideal(monkeypatch):
    # m_2 added to the column of m_(1,1) in the integer table, at u^1: an
    # entry above its column in dominance, first seen in A_1
    table = families._dn_table

    def bad_table(degree, N, top, field=F):
        out = dict(table(degree, N, top, field))
        if degree == 2:
            out[P(1, 1)][P(2)] = [{}, {(0, 0): 1}, {}]
        return out.items()

    monkeypatch.setattr(symfun, "_CACHE", {})
    monkeypatch.setattr(families, "_dn_table", bad_table)
    where = "row (2,), column (1, 1) lies outside the lower order ideal"
    with pytest.raises(BadMatrixEntry, match=r"A_1 at degree 2: the entry at " + re.escape(where)):
        A_k_matrix(1, 2)


def test_A_k_matrix_refuses_entry_outside_order_ideal_at_a_point(monkeypatch):
    """The same entry m_2 in the column of m_(1,1) at a sample point, where
    the table holds ints over its denominator.  At a point an entry is seen
    only where its value does not vanish, because a sample point certifies
    only itself."""
    table = families._dn_table
    point = random_point(random.Random(20261019))

    def bad_table(degree, N, top, field):
        out = dict(table(degree, N, top, field))
        if degree == 2:
            out[P(1, 1)][P(2)] = [0, 1, 0]
        return out.items()

    monkeypatch.setattr(symfun, "_CACHE", {})
    monkeypatch.setattr(families, "_dn_table", bad_table)
    where = "row (2,), column (1, 1) lies outside the lower order ideal"
    with pytest.raises(BadMatrixEntry, match=r"A_1 at degree 2: the entry at " + re.escape(where)):
        A_k_matrix(1, 2, point)


def test_A_k_matrix_denominators_are_monomials():
    for degree in range(7):
        for k in range(degree + 1):
            for mu, column in A_k_matrix(k, degree).items():
                for nu, c in column.items():
                    assert len(c.den.terms) == 1, (k, mu, nu, c)


@pytest.mark.parametrize("field", [F, random_point(random.Random(5))], ids=["symbolic", "numeric"])
def test_A_k_matrix_edge_cases(field):
    # A_0 is the identity, A_k vanishes for k above the degree, and degree 0
    # holds the one constant
    try:
        for degree in range(5):
            lams = enumerate_partitions(degree)
            assert A_k_matrix(0, degree, field) == {mu: {mu: field.one} for mu in lams}
            for k in (degree + 1, degree + 2):
                assert A_k_matrix(k, degree, field) == {mu: {} for mu in lams}
        assert A_k_matrix(0, 0, field) == {P(): {P(): field.one}}
        assert A_k_matrix(1, 0, field) == {P(): {}}
    finally:
        symfun.clear_field_caches(field)


def test_pieri_up_examples():
    assert pieri_up_coeff(P(1), P()) == one
    assert pieri_up_coeff(P(1, 1), P(1)) == rf("(1-q)*(1+t)/(1-q*t)")
    assert pieri_up_coeff(P(2), P(1)) == one
    with pytest.raises(NotOneBoxUp):
        pieri_up_coeff(P(2, 2), P(1))


def test_pieri_down_examples():
    assert pieri_down_coeff(P(), P(1)) == one
    assert pieri_down_coeff(P(1), P(2)) == rf("(1+q)*(1-t)/(1-q*t)")
    assert pieri_down_coeff(P(2), P(2, 1)) == one


def test_pieri_up_matches_multiplication():
    p1 = SymFun.generator("p", (1,))
    for mu in partitions_up_to(5):
        prod = p_multiply(p1, convert(macdonald_M(Partition(mu)), "p"))
        expected = SymFun.zero("p", sum(mu) + 1)
        for lam, _ in add_box_positions(Partition(mu)):
            expected = expected + convert(macdonald_M(lam, sum(mu) + 1), "p").scale(
                pieri_up_coeff(lam, mu)
            )
        assert prod == expected, mu


def test_pieri_down_matches_derivative():
    for lam in partitions_up_to(5):
        if not lam:
            continue
        deriv = dp1(macdonald_M(Partition(lam)))
        expected = SymFun.zero("p", sum(lam))
        for mu, _ in remove_box_positions(Partition(lam)):
            expected = expected + convert(macdonald_M(mu, sum(lam)), "p").scale(
                pieri_down_coeff(mu, lam)
            )
        assert deriv == expected, lam


def test_step_B0_multiplies_by_row():
    f = SymFun("p", {P(2): rf("q"), P(): one}, 2)
    got = step_series_apply("B", 0, f)
    expected = p_multiply(SymFun("p", {P(1): rf("1-t")}, 1), f, 3)
    assert got == expected


def test_step_C0_on_p1():
    got = step_series_apply("C", 0, SymFun.generator("p", (1,)))
    assert got == SymFun("p", {P(): rf("1-q")}, 1)


def test_step_C1_kills_degree_one():
    got = step_series_apply("C", 1, convert(macdonald_M(P(1)), "p"))
    assert got.is_zero()


def test_degree_shifts():
    f = convert(macdonald_M(P(2, 1)), "p")
    up = step_series_apply("B", 1, f)
    down = step_series_apply("C", 1, f)
    assert all(sum(k) == 4 for k in up.coeffs)
    assert all(sum(k) == 2 for k in down.coeffs)
    same = A_k_apply(1, f)
    assert all(sum(k) == 3 for k in same.coeffs)


def test_b_c_adjoint():
    fs = SymFun("p", {P(2): one, P(1, 1): rf("q")}, 3)
    gs = SymFun("p", {P(2, 1): one, P(3): rf("t")}, 3)
    for k in range(3):
        lhs = inner_product(step_series_apply("B", k, fs), gs)
        rhs = inner_product(fs, step_series_apply("C", k, gs))
        assert lhs == rhs, k


def test_bc_matrix_coeff_examples():
    u0 = rf("5")
    b = bc_matrix_coeff("B", P(1), P())
    assert b.at(u0) == rf("(1-t)/(1-5)")
    c = bc_matrix_coeff("C", P(1), P())
    assert c.at(u0) == rf("(1-q)/(1-5)")
    b2 = bc_matrix_coeff("B", P(1, 1), P(1))
    expected = (
        rf("(1-q)*(1+t)/(1-q*t)")
        * (rf("1/t") / (one - u0 / F.t))
        * ((one / F.q - u0) / (one - u0))
        * rf("1-t")
    )
    assert b2.at(u0) == expected


def test_step_evaluate_examples():
    ev = step_evaluate("B", P(1), 1)
    assert ev.point == (-1, 0)
    assert ev.partner == P()
    assert ev.coeff == rf("(1-t)*q/(q-1)")
    assert ev.alt_coeff == rf("(1-t)/(q-1)")
    assert ev.coeff / ev.alt_coeff == rf("q")

    ev = step_evaluate("C", P(1), 1)
    assert ev.coeff == rf("-q")

    ev = step_evaluate("B", P(2), 1)
    assert ev.coeff == rf("(1-t)*q^2/(q^2-1)")


def test_step_evaluate_ratio_is_q_power():
    for lam in partitions_up_to(4):
        for _, i in remove_box_positions(Partition(lam)):
            for kind in ("B", "C"):
                ev = step_evaluate(kind, Partition(lam), i)
                assert ev.coeff / ev.alt_coeff == F.q ** lam[i - 1], (lam, i, kind)


def test_step_evaluate_invalid():
    with pytest.raises(InvalidStep):
        step_evaluate("B", P(2, 2), 1)
    with pytest.raises(InvalidStep):
        step_evaluate("B", P(1), 2)


def _m_basis_component(f, lam):
    # coefficient of M_lam when a degree-|lam| element is written in the M basis
    from qtsym.partitions import grevlex_key
    from qtsym.families import macdonald_in_m

    work = dict(convert(f, "m").coeffs)
    out = {}
    for nu in sorted(enumerate_partitions(sum(lam)), key=grevlex_key):
        c = work.get(nu)
        if c is None or not c:
            continue
        out[nu] = c
        for k, v in macdonald_in_m(nu).items():
            s = work.get(k, F.zero) - c * v
            if s:
                work[k] = s
            else:
                work.pop(k, None)
    return out.get(Partition(lam), F.zero)


def test_lowering_family_is_single_term_at_its_point():
    for lam in partitions_up_to(4):
        if not lam:
            continue
        for mu, i in remove_box_positions(Partition(lam)):
            ev = step_evaluate("C", Partition(lam), i)
            u0 = F.q ** (-lam[i - 1]) * F.t ** (i - 1)
            got = step_family_at("C", convert(macdonald_M(Partition(lam)), "p"), u0)
            expected = convert(macdonald_M(mu), "p").scale(ev.coeff)
            assert got == expected, (lam, i)


def test_raising_family_component_matches_coeff():
    # at u = q^(-lam_i) t^(i-1) the M_lam component of the raising family on
    # M_mu equals the step coefficient; other components need not vanish there
    for lam in partitions_up_to(4):
        if not lam:
            continue
        for mu, i in remove_box_positions(Partition(lam)):
            ev = step_evaluate("B", Partition(lam), i)
            u0 = F.q ** (-lam[i - 1]) * F.t ** (i - 1)
            got = step_family_at("B", convert(macdonald_M(mu), "p"), u0)
            assert _m_basis_component(got, Partition(lam)) == ev.coeff, (lam, i)


def test_raising_family_single_term_at_shifted_point():
    # the raising family is exactly single-term at u = q^(-(lam_i - 1)) t^(i-1),
    # whenever the lowered part stays positive
    from qtsym.macops import bc_matrix_coeff

    for lam in partitions_up_to(4):
        if not lam:
            continue
        for mu, i in remove_box_positions(Partition(lam)):
            if lam[i - 1] < 2:
                continue
            u0 = F.q ** (-(lam[i - 1] - 1)) * F.t ** (i - 1)
            got = step_family_at("B", convert(macdonald_M(mu), "p"), u0)
            coeff = bc_matrix_coeff("B", Partition(lam), mu).at(u0)
            expected = convert(macdonald_M(Partition(lam)), "p").scale(coeff)
            assert got == expected, (lam, i)
