import functools
import math
import random
import re
from fractions import Fraction

import pytest

from qtsym import families, macops, symfun
from qtsym.families import (
    green_table,
    hall_littlewood,
    hl_alternant,
    hl_in_p,
    macdonald_in_m,
    macdonald_M,
    morris_phi,
    psi_coeff,
    q_row_series,
    schur,
)
from qtsym.partitions import (
    LengthExceedsN,
    Partition,
    conjugate,
    dominates,
    enumerate_partitions,
    grevlex_key,
    partitions_up_to,
    stats,
    t_factors,
)
from qtsym.ratfun import SYMBOLIC, InexactDivision, IntPoly2, NumericField, RatFun, parse_ratfun, random_point
from qtsym.symfun import (
    NotDivisible,
    NSymPoly,
    SingularTransition,
    SymFun,
    XPoly,
    _p_pairing,
    _pair_product,
    alternant_quotient,
    axpy,
    clear_field_caches,
    convert,
    dp1,
    inner_product,
    p_multiply,
    restrict,
)
from qtsym.verify import check_deigen, check_theorem_basic

F = SYMBOLIC
one = F.one


def P(*parts):
    return Partition(parts)


def rf(s):
    return parse_ratfun(s)


def specialized(f, **bindings):
    out = {}
    for lam, c in f.coeffs.items():
        v = c.specialize(**bindings)
        if v:
            out[lam] = v
    return SymFun(f.basis, out, f.degree_bound, f.field)


# --- Hall-Littlewood ---------------------------------------------------------

def test_hl_alternant_row_two():
    got = hl_alternant(P(2), 2)
    assert got == NSymPoly(2, {P(2): one, P(1, 1): rf("1-t")})


def test_hl_alternant_column():
    assert hl_alternant(P(1, 1), 2) == NSymPoly(2, {P(1, 1): one})


def test_hl_alternant_single_box_three_vars():
    assert hl_alternant(P(1), 3) == NSymPoly(3, {P(1): one})


def test_hl_alternant_requires_enough_variables():
    with pytest.raises(LengthExceedsN):
        hl_alternant(P(2, 1), 1)


def test_hl_alternant_coeffs_in_zt():
    for lam in partitions_up_to(5):
        if not lam:
            continue
        got = hl_alternant(lam, sum(lam))
        for c in got.coeffs.values():
            assert c.den == 1 and c.num.max_deg_q() == 0


def test_hl_alternant_stability():
    for lam in partitions_up_to(4):
        for N in range(max(len(lam), 1), 5):
            cur = hl_alternant(lam, N)
            if len(lam) < N:
                assert cur.set_last_zero() == hl_alternant(lam, N - 1)
            if len(lam) == N and N > 0:
                assert all(len(k) == N for k in cur.coeffs) or not cur.coeffs


@functools.lru_cache(maxsize=8)
def _t_deformed_vandermonde(N, field):
    """The expanded product of (x_i - t x_j) over all pairs i < j <= N."""
    return _pair_product(N, -field.t, field)


def _hl_alternant_reference(lam, N, field):
    # the former library build: the t-deformed Vandermonde shifted by lam,
    # through the alternant quotient and scaled by 1/v_lam(t)
    pad = tuple(lam) + (0,) * (N - len(lam))
    shifted = {}
    for e, c in _t_deformed_vandermonde(N, field).coeffs.items():
        shifted[tuple(e[i] + pad[i] for i in range(N))] = c
    v = t_factors(lam, N=N, field=field).v
    return alternant_quotient(XPoly(N, shifted, field)).scale(field.one / v)


def _assert_hl_matches_alternant(max_degree, alternant_degree, field):
    for lam in partitions_up_to(max_degree):
        expected = _hl_alternant_reference(lam, sum(lam), field).as_symfun(sum(lam))
        b = t_factors(lam, field=field).b
        for kind, ref in (("P", expected), ("Q", expected.scale(b))):
            assert hall_littlewood(lam, kind, field=field) == ref, (lam, kind, field)
            assert hl_in_p(lam, kind, field) == convert(ref, "p").coeffs, (lam, kind, field)
        if sum(lam) <= alternant_degree:
            for N in range(len(lam), sum(lam) + 2):
                assert hl_alternant(lam, N, field) == _hl_alternant_reference(lam, N, field), (lam, N)


def test_hl_matches_alternant_symbolic():
    _assert_hl_matches_alternant(6, 5, F)


def test_hl_matches_alternant_at_sample_points():
    rng = random.Random(20261019)
    for _ in range(2):
        point = random_point(rng)
        try:
            _assert_hl_matches_alternant(7, 5, point)
        finally:
            clear_field_caches(point)
            _t_deformed_vandermonde.cache_clear()


def test_hl_q_scalar_multiple():
    q1 = hall_littlewood(P(1), "Q")
    assert convert(q1, "p") == SymFun("p", {P(1): rf("1-t")}, 1)


def test_hl_specializations():
    # t = 0 gives the Schur function, t = 1 the monomial one
    p2 = hall_littlewood(P(2), "P")
    assert specialized(p2, t=0) == SymFun("m", {P(2): one, P(1, 1): one}, 2)
    p21 = hall_littlewood(P(2, 1), "P")
    assert specialized(p21, t=1) == SymFun("m", {P(2, 1): one}, 3)


def test_schur_matches_hl_at_t_zero():
    for lam in partitions_up_to(6):
        s = schur(lam)
        p_lam = hall_littlewood(lam, "P")
        assert specialized(p_lam, t=0) == s


def test_schur_small():
    assert schur(P(1, 1)) == SymFun("m", {P(1, 1): one}, 2)
    assert schur(P(2)) == SymFun("m", {P(2): one, P(1, 1): one}, 2)
    assert schur(P(2, 1)) == SymFun("m", {P(2, 1): one, P(1, 1, 1): rf("2")}, 3)


# --- the one-row generating series -------------------------------------------

def test_q_row_series_first_terms():
    rows = q_row_series(2)
    assert rows[0] == SymFun("p", {P(1): rf("1-t")}, 2)
    assert rows[1] == SymFun("p", {P(2): rf("(1-t^2)/2"), P(1, 1): rf("(1-t)^2/2")}, 2)


def test_q_row_series_matches_one_row_hl():
    rows = q_row_series(5)
    for n in range(1, 6):
        expected = convert(hall_littlewood(P(n), "Q"), "p")
        assert rows[n - 1] == expected


def test_q_row_vanishes_at_t_one():
    for row in q_row_series(4):
        assert specialized(row, t=1).is_zero()


def test_q_row_restriction_matches_product():
    # restricted to N variables the generating series is the finite product
    # of (1 - t x_i u)/(1 - x_i u); per u-power: the expansion of the product
    # of 1 + (1-t)(x_i u + x_i^2 u^2 + ...)
    from qtsym.symfun import XPoly, expand_x, restrict, xpoly_one

    D = 4
    rows = q_row_series(D)
    for N in (1, 2, 3):
        per_power = [xpoly_one(N)]
        for _ in range(D):
            per_power.append(XPoly.zero(N))
        for i in range(N):
            factor = [xpoly_one(N)]
            for k in range(1, D + 1):
                e = [0] * N
                e[i] = k
                factor.append(XPoly(N, {tuple(e): rf("1-t")}))
            new = [XPoly.zero(N) for _ in range(D + 1)]
            for a in range(D + 1):
                for b in range(D + 1 - a):
                    new[a + b] = new[a + b] + per_power[a] * factor[b]
            per_power = new
        for n in range(1, D + 1):
            got = expand_x(restrict(rows[n - 1], N))
            assert got == per_power[n], (N, n)


# --- Macdonald functions ------------------------------------------------------

def test_macdonald_minimal_is_monomial():
    assert macdonald_M(P(1, 1)) == SymFun("m", {P(1, 1): one}, 2)


def test_macdonald_row_two():
    expected = SymFun("m", {P(2): one, P(1, 1): rf("(1+q)*(1-t)/(1-q*t)")}, 2)
    assert macdonald_M(P(2)) == expected


def test_macdonald_specializes_to_hl():
    for lam in partitions_up_to(5):
        m = macdonald_M(lam)
        assert specialized(m, q=0) == hall_littlewood(lam, "P")


def test_macdonald_orthogonal_and_triangular():
    for d in range(7):
        lams = enumerate_partitions(d)
        ms = {lam: macdonald_M(lam) for lam in lams}
        for lam in lams:
            assert ms[lam].coeffs[lam] == one
            for mu in ms[lam].coeffs:
                assert dominates(lam, mu)
        for i, lam in enumerate(lams):
            for mu in lams[i + 1:]:
                assert not inner_product(ms[lam], ms[mu])


def _gram_schmidt_reference(degree, field):
    # the former library build: Gram-Schmidt in ascending dominance over the
    # (q,t) inner product, paired in the p basis
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


def _assert_matches_gram_schmidt(degree, field):
    expected = _gram_schmidt_reference(degree, field)
    for lam in enumerate_partitions(degree):
        assert macdonald_in_m(lam, field) == expected[lam], (degree, lam, field)


def test_macdonald_matches_gram_schmidt_symbolic():
    for degree in range(7):
        _assert_matches_gram_schmidt(degree, F)


def test_macdonald_matches_gram_schmidt_at_sample_points():
    rng = random.Random(20261018)
    for _ in range(2):
        point = random_point(rng)
        try:
            for degree in range(8):
                _assert_matches_gram_schmidt(degree, point)
        finally:
            clear_field_caches(point)


def _d1_solve_reference(degree, field):
    # the former library build: the D^1 slice lifted to the field, solved
    # from c[lam] = 1 with a field division (a reduced RatFun) at every step
    den = families._dn_denominator(degree, degree, field)
    d1 = {nu: {mu: families._lift(entry[1], den, field) for mu, entry in column.items() if entry[1]}
          for nu, column in families._dn_table(degree, degree, 1, field)}
    order = sorted(d1, key=grevlex_key)
    out = {}
    for pos, lam in enumerate(order):
        vec = {lam: field.one}
        for mu in order[pos + 1:]:
            if not dominates(lam, mu):
                continue
            total = field.zero
            for nu, c in vec.items():
                entry = d1[nu].get(mu)
                if entry is not None:
                    total = total + c * entry
            if total:
                vec[mu] = total / (d1[lam][lam] - d1[mu][mu])
        out[lam] = vec
    return out


def _assert_matches_d1_solve(degree, field):
    expected = _d1_solve_reference(degree, field)
    got = {lam: macdonald_in_m(lam, field) for lam in enumerate_partitions(degree)}
    # term for term, in the same order
    assert [(lam, list(vec.items())) for lam, vec in got.items()] == \
        [(lam, list(expected[lam].items())) for lam in got], (degree, field)


def test_macdonald_matches_field_solve_symbolic():
    for degree in range(8):
        _assert_matches_d1_solve(degree, F)


def test_macdonald_matches_field_solve_at_sample_points():
    rng = random.Random(20261019)
    for _ in range(2):
        point = random_point(rng)
        try:
            for degree in range(8):
                _assert_matches_d1_solve(degree, point)
        finally:
            clear_field_caches(point)


def _c_lam(lam):
    # prod over the boxes of lam of 1 - q^arm t^(leg + 1)
    lam_c = conjugate(lam)
    out = one
    for i, part in enumerate(lam):
        for j in range(part):
            out = out * (one - F.q ** (part - j - 1) * F.t ** (lam_c[j] - i))
    return out


def test_integral_form_lies_in_zqt_and_scales_to_macdonald():
    for degree in range(8):
        for lam in enumerate_partitions(degree):
            j, m, c = families._macdonald_integral(lam), macdonald_in_m(lam), _c_lam(lam)
            assert list(j) == list(m)
            for mu, coeff in j.items():
                assert coeff.den == 1 and min(min(e) for e in coeff.num.terms) >= 0, (lam, mu)
                assert coeff / c == m[mu], (lam, mu)
            assert j[lam] == c == RatFun.from_poly(families._integral_factor(lam)), lam


def test_integral_build_refuses_an_inexact_division(monkeypatch):
    # without the factor 1 - q t of c_(2), the m_(1,1) coefficient of J_(2)
    # would be (1+q)(1-t)^2 / (1-q t), outside Z[q,t]
    def dropped(lam):
        return IntPoly2({(0, 0): 1, (0, 1): -1}) if tuple(lam) == (2,) else factor(lam)

    factor = families._integral_factor
    monkeypatch.setattr(families, "_integral_factor", dropped)
    monkeypatch.delitem(symfun._CACHE, ("macdonald", 2, F), raising=False)
    with pytest.raises(InexactDivision):
        macdonald_in_m((2,))


def test_integral_build_refuses_a_d1_entry_outside_zqt(monkeypatch):
    # an entry t^-2 of D^1 at degree 2 keeps a denominator after the scale t^1
    table = families._dn_table

    def bad_table(degree, N, top, field=F):
        out = dict(table(degree, N, top, field))
        out[Partition((2,))][Partition((1, 1))][1][0, 2] = 1
        return out.items()

    monkeypatch.setattr(symfun, "_CACHE", dict(symfun._CACHE))
    monkeypatch.setattr(families, "_dn_table", bad_table)
    monkeypatch.delitem(symfun._CACHE, ("macdonald", 2, F), raising=False)
    with pytest.raises(InexactDivision):
        macdonald_in_m((2,))


def test_macdonald_is_reduced_on_first_request(monkeypatch):
    # the build solves J only; M_lam is filled in for the partitions asked
    # for, and theorem and deigen ask for none.  At a sample point J_lam is
    # M_lam cleared of denominators, in ints
    point = random_point(random.Random(20261024))
    monkeypatch.delitem(symfun._CACHE, ("macdonald", 4, F), raising=False)
    try:
        for field in (F, point):
            assert check_theorem_basic(2, (2, 1, 1), field).passed() and check_deigen(3, (2, 2), field).passed()
            integral, monic = families._macdonald_degree(4, field)
            assert monic == {}
            m = macdonald_in_m((2, 2), field)
            assert families._macdonald_degree(4, field)[1] == {Partition((2, 2)): m}
        for lam, j in integral.items():
            m = macdonald_in_m(lam, point)
            assert all(type(c) is int for c in j.values()) and list(j) == list(m), lam
            # J_lam = j[lam] M_lam, M_lam[lam] = 1, and no common factor is left
            assert all(c == m[mu] * j[lam] for mu, c in j.items()) and math.gcd(*j.values()) == 1, lam
    finally:
        clear_field_caches(point)


def test_macdonald_at_t_one_is_monomial():
    # c_lam vanishes at t = 1, so a sample point solves from 1, not from c_lam
    point = NumericField(3, 1)
    try:
        for lam in partitions_up_to(4):
            assert macdonald_in_m(lam, point) == {lam: 1}, lam
    finally:
        clear_field_caches(point)


def test_d1_table_diagonal_and_support():
    # the m_nu coefficient of D^1 m_nu is -sum_{i<N} q^(nu_i) t^(-i)
    for d in range(9):
        table = {nu: {mu: entry[1] for mu, entry in column.items()}
                 for nu, column in families._dn_table(d, d, 1)}
        assert list(table) == enumerate_partitions(d)
        for nu, column in table.items():
            padded = tuple(nu) + (0,) * (d - len(nu))
            assert column.get(nu, {}) == {(a, i): -1 for i, a in enumerate(padded)}, nu
            for mu in column:
                assert dominates(nu, mu), (nu, mu)


def test_macdonald_build_refuses_column_outside_order_ideal(monkeypatch):
    # a D^1 column reaching above its nu must raise, not feed the solve; the
    # point's table holds ints over its denominator
    table = families._dn_table

    def bad_table(degree, N, top, field):
        out = dict(table(degree, N, top, field))
        out[Partition((2, 1))][Partition((3,))] = [0, 1]
        return out.items()

    monkeypatch.setattr(symfun, "_CACHE", dict(symfun._CACHE))
    monkeypatch.setattr(families, "_dn_table", bad_table)
    point = NumericField(Fraction(3, 7), Fraction(5, 11))
    try:
        with pytest.raises(SingularTransition):
            macdonald_M((2, 1), field=point)
    finally:
        clear_field_caches(point)


def test_macdonald_coinciding_eigenvalues_raise():
    # at q t = 1 the D^1 eigenvalues of (2) and (1,1) coincide: -6 = -6
    point = NumericField(Fraction(2), Fraction(1, 2))
    try:
        with pytest.raises(SingularTransition):
            macdonald_M((2,), field=point)
    finally:
        clear_field_caches(point)


# --- Green table --------------------------------------------------------------

def test_green_degree_two_entries():
    gt = green_table(2)
    assert gt.x(P(2), P(2)) == one
    assert gt.x(P(2), P(1, 1)) == rf("t-1")
    assert gt.x(P(1, 1), P(2)) == one
    assert gt.x(P(1, 1), P(1, 1)) == rf("1+t")


def test_green_table_refuses_an_entry_outside_z_t(monkeypatch):
    # an entry of transition_matrix("p", "P") times q is not in Z[t]; the
    # memoised table itself is left as it is
    real, before = symfun.transition_matrix, green_table(3)

    def with_q(frm, to, degree, field=F):
        table = real(frm, to, degree, field)
        if (frm, to) != ("p", "P"):
            return table
        table = {lam: dict(row) for lam, row in table.items()}
        table[P(2, 1)][P(2, 1)] = table[P(2, 1)][P(2, 1)] * F.q
        return table

    monkeypatch.setattr(symfun, "transition_matrix", with_q)
    with pytest.raises(NotDivisible, match=re.escape("Green coefficient X[(2, 1),(2, 1)] leaves Z[t]")):
        green_table(3)
    monkeypatch.undo()
    assert green_table(3) == before


def test_green_t_zero_gives_characters():
    gt = green_table(2)
    assert gt.x(P(2), P(1, 1)).specialize(t=0) == rf("-1")
    assert gt.x(P(1, 1), P(1, 1)).specialize(t=0) == rf("1")


def test_green_monic_of_degree_n_stat():
    for degree in range(1, 6):
        gt = green_table(degree)
        for mu in enumerate_partitions(degree):
            n_mu = stats(mu).n_stat
            degs = []
            for lam in enumerate_partitions(degree):
                x = gt.x(lam, mu)
                if x:
                    d = x.num.max_deg_t()
                    degs.append(d)
                    if d == n_mu:
                        assert x.num.terms.get((0, n_mu)) == 1
            assert max(degs) == n_mu


def test_green_orthogonality():
    for degree in range(1, 6):
        gt = green_table(degree)
        lams = enumerate_partitions(degree)
        for mu in lams:
            for nu in lams:
                total = F.zero
                for lam in lams:
                    total = total + gt.x(lam, mu) * gt.x(lam, nu) / t_factors(lam).z_t
                expected = t_factors(mu).b if mu == nu else F.zero
                assert total == expected, (mu, nu)


# --- one-row multiplication coefficients ---------------------------------------

def test_morris_phi_examples():
    assert morris_phi(P(2), P(1)) == rf("1-t")
    assert morris_phi(P(1, 1), P(1)) == rf("1-t^2")
    assert not morris_phi(P(2, 2), P(1))


def test_morris_phi_matches_row_multiplication():
    rows = q_row_series(5)
    for mu in partitions_up_to(4):
        pm = convert(hall_littlewood(mu, "P", 5), "p")
        for n in range(1, 5 - sum(mu) + 1):
            prod = p_multiply(rows[n - 1], pm, 5)
            prod_m = convert(prod, "m")
            for lam in enumerate_partitions(sum(mu) + n):
                coeff = _coeff_on_hl(prod_m, lam)
                assert coeff == morris_phi(lam, mu), (lam, mu, n)


def _coeff_on_hl(f, lam):
    # extract the P_lam coefficient of an m-basis element, top down
    work = dict(f.coeffs)
    order = sorted(enumerate_partitions(sum(lam)), key=grevlex_key)
    coeffs = {}
    for nu in order:
        c = work.get(nu)
        if c is None or not c:
            coeffs[nu] = F.zero
            continue
        coeffs[nu] = c
        for k, v in hall_littlewood(nu, "P").coeffs.items():
            s = work.get(k, F.zero) - c * v
            if s:
                work[k] = s
            else:
                work.pop(k, None)
    return coeffs.get(lam, F.zero)


def test_psi_examples():
    assert psi_coeff(P(2, 1), P(2)) == one
    assert psi_coeff(P(2), P(1)) == rf("1-t")
    assert psi_coeff(P(2, 2), P(2, 1)) == rf("1-t")
    assert not psi_coeff(P(3), P(1))


def test_psi_matches_derivative():
    for lam in partitions_up_to(5):
        if not lam:
            continue
        deriv = convert(dp1(hall_littlewood(lam, "P")), "m")
        for mu in enumerate_partitions(sum(lam) - 1):
            assert _coeff_on_hl(deriv, mu) == psi_coeff(lam, mu), (lam, mu)


def test_dp_pq_relation():
    # (1-t) p1 Q_mu = sum over one-box-ups of psi * Q_lam
    from qtsym.partitions import add_box_positions

    for mu in partitions_up_to(5):
        lhs = p_multiply(
            SymFun("p", {P(1): rf("1-t")}, 1),
            convert(hall_littlewood(mu, "Q", sum(mu) + 1), "p"),
            sum(mu) + 1,
        )
        rhs = SymFun.zero("p", sum(mu) + 1)
        for lam, _ in add_box_positions(mu):
            q_lam = convert(hall_littlewood(lam, "Q"), "p")
            rhs = rhs + q_lam.scale(psi_coeff(lam, mu))
        assert lhs == rhs, mu


def test_laurent_lift_is_the_reduced_fraction():
    # the lift builds its fraction over a monomial as already reduced; RatFun
    # equality compares numerators and denominators term for term, so a
    # fraction left unreduced, or signed differently, would differ here
    rng = random.Random(20261019)
    for _ in range(200):
        entry = {(rng.randint(-4, 4), rng.randint(-4, 4)): rng.choice((-3, -1, 1, 2)) for _ in range(rng.randint(1, 4))}
        shift = rng.randint(-3, 3)
        expected = F.zero
        for (a, i), n in entry.items():
            expected = expected + F.from_int(n) * F.q ** (a + shift) * F.t ** (-i)
        assert families._lift(entry, 1, F, shift) == expected, (entry, shift)


def test_u_product_expands_the_linear_factors():
    # prod (1 - u q^a t^-i) over random pairs (i, a), the empty list among
    # them, against its RatFun expansion one factor at a time, through u^top
    # for top = 0, 1, one below the length and None (the whole product); at
    # a seeded sample point the ints over den, the product of the qd^a tn^i,
    # are the symbolic entries evaluated there
    rng = random.Random(20261022)
    point = random_point(rng)
    (qn, qd), (tn, td) = point.q.as_integer_ratio(), point.t.as_integer_ratio()
    for trial in range(60):
        factors = [(rng.randint(0, 5), rng.randint(0, 4)) for _ in range(trial % 6)]
        expansion = [F.one]
        for i, a in factors:
            m = -F.q ** a * F.t ** (-i)
            expansion = [x + m * y for x, y in zip(expansion + [F.zero], [F.zero] + expansion)]
        den = 1
        for i, a in factors:
            den *= qd ** a * tn ** i
        for top in (0, 1, max(len(factors) - 1, 0), None):
            want = expansion if top is None else (expansion + [F.zero] * top)[:top + 1]
            entries, one = families._u_product(iter(factors), F, top)
            assert (one, [families._lift(e, 1, F) for e in entries]) == (1, want), (factors, top)
            ints, got_den = families._u_product(iter(factors), point, top)
            assert got_den == den, (factors, top)
            assert [Fraction(n, den) for n in ints] == [c.evaluate(point.q, point.t) for c in want], (factors, top)
