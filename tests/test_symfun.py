import math
import random
from itertools import permutations

import pytest

from qtsym.partitions import Partition, conjugate, dominates, enumerate_partitions, partitions_up_to, stats
from qtsym.ratfun import SYMBOLIC, parse_ratfun, random_point
from qtsym.symfun import (
    BasisMismatch,
    BiSymFun,
    NotAlternating,
    NotSymmetric,
    NSymPoly,
    SymFun,
    XPoly,
    _perm_sign,
    adjoint_apply,
    axpy,
    collect_symmetric,
    convert,
    divide_by_vandermonde,
    dp1,
    expand_x,
    inner_product,
    p_multiply,
    restrict,
    schur_in_m,
    transition_matrix,
)

F = SYMBOLIC
one = F.one


def P(*parts):
    return Partition(parts)


def p_elem(*parts):
    return SymFun.generator("p", parts)


def rf(s):
    return parse_ratfun(s)


def test_p_multiply_concatenates_keys():
    f = p_multiply(p_elem(2), p_elem(1))
    assert f == SymFun("p", {P(2, 1): one}, 3)
    g = p_multiply(p_elem(1), p_elem(1))
    assert g == SymFun("p", {P(1, 1): one}, 2)


def test_p_multiply_truncates():
    f = SymFun("p", {P(1): one, P(2): one}, 2)
    g = p_multiply(f, p_elem(1), 2)
    assert g == SymFun("p", {P(1, 1): one}, 2)


def test_p_multiply_rejects_other_bases():
    with pytest.raises(BasisMismatch):
        p_multiply(SymFun.generator("m", (1,)), p_elem(1))


def test_transition_p_to_m_degree2():
    mat = transition_matrix("p", "m", 2)
    assert mat[P(2)] == {P(2): one}
    assert mat[P(1, 1)] == {P(2): one, P(1, 1): rf("2")}


def test_transition_m_to_p_degree2():
    mat = transition_matrix("m", "p", 2)
    assert mat[P(1, 1)] == {P(1, 1): rf("1/2"), P(2): rf("-1/2")}


def _assert_round_trip(a, b, d):
    ab = transition_matrix(a, b, d)
    ba = transition_matrix(b, a, d)
    for lam in enumerate_partitions(d):
        acc = {}
        for mu, c in ab[lam].items():
            for nu, e in ba[mu].items():
                acc[nu] = acc.get(nu, F.zero) + c * e
        acc = {k: v for k, v in acc.items() if v}
        assert acc == {lam: one}, (a, b, lam)
    # the defining property: each column re-expanded in m is the a element
    a_m = transition_matrix(a, "m", d)
    b_m = transition_matrix(b, "m", d)
    for lam, col in ab.items():
        acc = {}
        for mu, c in col.items():
            axpy(acc, b_m[mu], c)
        assert {k: v for k, v in acc.items() if v} == a_m[lam], (a, b, lam)


def test_transition_round_trips():
    for d in range(7):
        for a, b in (("p", "m"), ("m", "p")):
            _assert_round_trip(a, b, d)


def test_transition_round_trips_all_pairs():
    from qtsym.symfun import BASES

    quick = [b for b in BASES if b != "M"]
    for d in range(7):
        for a in quick:
            for b in quick:
                if a != b:
                    _assert_round_trip(a, b, d)
    for d in range(5):
        for other in ("m", "p", "P"):
            _assert_round_trip("M", other, d)
            _assert_round_trip(other, "M", d)


def test_concurrent_cache_fill_is_idempotent():
    import threading

    from qtsym.symfun import clear_caches

    clear_caches()
    results = []
    errors = []

    def worker():
        try:
            results.append(transition_matrix("p", "m", 5))
        except Exception as exc:  # noqa: BLE001 - we want any failure surfaced
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert not errors
    assert all(r == results[0] for r in results)
    clear_caches()


def test_clear_caches_empties_the_gcd_memo():
    from qtsym import ratfun
    from qtsym.symfun import clear_caches

    parse_ratfun("1/(1-q)") + parse_ratfun("q/(1-q*t)")
    assert ratfun._GCD_MEMO
    clear_caches()
    assert not ratfun._GCD_MEMO


def test_p_multiply_graded():
    f = SymFun("p", {P(2, 1): one}, 3)
    g = SymFun("p", {P(1, 1): rf("q")}, 2)
    prod = p_multiply(f, g)
    assert all(sum(k) == 5 for k in prod.coeffs)


def test_p_to_m_dominance_triangular():
    from qtsym.partitions import dominates

    for d in range(1, 7):
        mat = transition_matrix("p", "m", d)
        for lam in enumerate_partitions(d):
            assert mat[lam][lam]
            for mu in mat[lam]:
                assert dominates(mu, lam)


def test_convert_round_trip_random():
    rng = random.Random(3)
    lams = partitions_up_to(5)
    for _ in range(10):
        coeffs = {}
        for lam in rng.sample(lams, 5):
            coeffs[lam] = rf("%d" % rng.randint(-3, 3)) * rf("q") ** rng.randint(0, 1)
        f = SymFun("m", coeffs, 5)
        assert convert(convert(f, "p"), "m") == f


def test_inner_product_power_sums():
    assert inner_product(p_elem(2), p_elem(2)) == rf("2*(1-q^2)/(1-t^2)")
    assert inner_product(p_elem(1), p_elem(2)) == rf("0")
    assert inner_product(p_elem(1, 1), p_elem(1, 1)) == rf("2*(1-q)^2/(1-t)^2")


def test_inner_product_symmetric():
    rng = random.Random(11)
    lams = partitions_up_to(4)
    for _ in range(6):
        fc = {lam: rf(str(rng.randint(-4, 4))) for lam in rng.sample(lams, 4)}
        gc = {lam: rf(str(rng.randint(-4, 4))) for lam in rng.sample(lams, 4)}
        f = SymFun("p", {k: v for k, v in fc.items() if v}, 4)
        g = SymFun("p", {k: v for k, v in gc.items() if v}, 4)
        assert inner_product(f, g) == inner_product(g, f)


def test_adjoint_p1_on_p1_squared():
    f = p_elem(1)
    g = SymFun("p", {P(1, 1): one}, 2)
    got = adjoint_apply(f, g)
    assert got == SymFun("p", {P(1): rf("2*(1-q)/(1-t)")}, 2)


def test_adjoint_p2_kills_p11():
    got = adjoint_apply(p_elem(2), SymFun("p", {P(1, 1): one}, 2))
    assert got.is_zero()


def test_adjointness_random():
    rng = random.Random(17)
    lams = partitions_up_to(4)
    for _ in range(8):
        f = SymFun("p", {rng.choice(lams): one}, 4)
        h = SymFun("p", {rng.choice(lams): rf(str(rng.randint(1, 3)))}, 4)
        g = SymFun("p", {rng.choice(lams): rf(str(rng.randint(1, 3)))}, 4)
        lhs = inner_product(p_multiply(f, h, 8), g.truncate(4))
        rhs = inner_product(h, adjoint_apply(f, g))
        assert lhs == rhs


def test_adjoint_commutes_with_other_multiplication():
    g = SymFun("p", {P(3, 2, 1): one, P(2, 2): rf("q")}, 6)
    a = adjoint_apply(p_elem(2), p_multiply(SymFun.generator("p", (3,)), g, 9))
    b = p_multiply(SymFun.generator("p", (3,)), adjoint_apply(p_elem(2), g), 9)
    assert a == b


def test_dp1():
    assert dp1(SymFun("p", {P(1, 1): one}, 2)) == SymFun("p", {P(1): rf("2")}, 2)
    assert dp1(p_elem(2)).is_zero()
    f = SymFun("p", {P(2, 1): rf("q"), P(1, 1, 1): one}, 3)
    expected = adjoint_apply(p_elem(1), f).scale(rf("(1-t)/(1-q)"))
    assert dp1(f) == expected


def test_restrict_drops_long_partitions():
    f = SymFun.generator("m", (1, 1, 1))
    assert restrict(f, 2).is_zero()
    g = restrict(p_elem(2), 1)
    assert g == NSymPoly(1, {P(2): one})


def test_restrict_stability():
    f = SymFun("m", {P(2, 1): one, P(1, 1, 1): rf("q")}, 3)
    r3 = restrict(f, 3)
    assert r3.set_last_zero() == restrict(f, 2)


def test_expand_x():
    nsp = NSymPoly(2, {P(2, 1): one})
    assert expand_x(nsp) == XPoly(2, {(2, 1): one, (1, 2): one})
    nsp = NSymPoly(3, {P(1, 1): one})
    assert expand_x(nsp) == XPoly(3, {(1, 1, 0): one, (1, 0, 1): one, (0, 1, 1): one})


def test_collect_symmetric_round_trip():
    for n in range(1, 5):
        for d in range(7):
            for lam in enumerate_partitions(d, max_length=n):
                nsp = NSymPoly(n, {lam: rf("q")})
                assert collect_symmetric(expand_x(nsp)) == nsp


def test_collect_symmetric_rejects():
    xp = XPoly(2, {(1, 0): one, (0, 1): -one})
    with pytest.raises(NotSymmetric):
        collect_symmetric(xp)


def test_collect_constant():
    xp = XPoly(3, {(0, 0, 0): rf("5")})
    assert collect_symmetric(xp) == NSymPoly(3, {P(): rf("5")})


def test_divide_by_vandermonde_delta():
    delta = XPoly(2, {(1, 0): one, (0, 1): -one})
    assert divide_by_vandermonde(delta) == NSymPoly(2, {P(): one})


def test_divide_by_vandermonde_simple():
    xp = XPoly(2, {(2, 0): one, (0, 2): -one})
    assert divide_by_vandermonde(xp) == NSymPoly(2, {P(1): one})


def test_divide_by_vandermonde_degree_three():
    # alternation of x1^3 x2: x1^3 x2 - x1 x2^3 has quotient m_(2,1)
    xp = XPoly(2, {(3, 1): one, (1, 3): -one})
    assert divide_by_vandermonde(xp) == NSymPoly(2, {P(2, 1): one})


def test_divide_by_vandermonde_rejects():
    with pytest.raises(NotAlternating):
        divide_by_vandermonde(XPoly(2, {(1, 1): one}))
    with pytest.raises(NotAlternating):
        divide_by_vandermonde(XPoly(2, {(1, 0): one, (0, 1): one}))


def test_schur_in_m_classical():
    assert schur_in_m(P(2)) == {P(2): one, P(1, 1): one}
    assert schur_in_m(P(1, 1)) == {P(1, 1): one}
    assert schur_in_m(P(2, 1)) == {P(2, 1): one, P(1, 1, 1): rf("2")}


# Independent oracles for the integer tables behind the 'p' and 's' bases:
# power sums multiplied out in as many variables as the degree, and the
# Jacobi-Trudi h-determinant over all permutations.


def _p_to_m_reference(degree, field):
    out = {}
    for lam in enumerate_partitions(degree):
        xp = XPoly(degree, {(0,) * degree: field.one}, field)
        for part in lam:
            slots = [tuple(part if j == i else 0 for j in range(degree)) for i in range(degree)]
            xp = xp * XPoly(degree, dict.fromkeys(slots, field.one), field)
        out[lam] = collect_symmetric(xp).coeffs
    return out


def _schur_reference(nu, field):
    ell, degree = len(nu), sum(nu)

    def h_in_p(n):
        return SymFun("p", {lam: field.one / field.from_int(stats(lam).z) for lam in enumerate_partitions(n)}, n, field)

    acc = SymFun.zero("p", degree, field)
    for sigma in permutations(range(ell)):
        prod = SymFun.generator("p", (), degree, field)
        for i in range(ell):
            d = nu[i] - i + sigma[i]
            if d < 0:
                break
            prod = p_multiply(prod, h_in_p(d), degree)
        else:
            acc = acc + prod if _perm_sign(sigma) > 0 else acc - prod
    p_to_m = _p_to_m_reference(degree, field)
    out = {}
    for lam, c in acc.coeffs.items():
        axpy(out, p_to_m[lam], c)
    return {mu: c for mu, c in out.items() if c}


@pytest.mark.parametrize("field", [F, random_point(random.Random(20261018))], ids=["symbolic", "numeric"])
def test_p_and_s_tables_match_the_oracles(field):
    for d in range(7):
        assert transition_matrix("p", "m", d, field) == _p_to_m_reference(d, field), d
        expected = {nu: _schur_reference(nu, field) for nu in enumerate_partitions(d)}
        assert transition_matrix("s", "m", d, field) == expected, d


def _hook_count(nu):
    # f^nu, the number of standard tableaux, by the hook length formula
    hooks = 1
    conj = conjugate(nu)
    for i, row in enumerate(nu):
        for j in range(row):
            hooks *= row - j + conj[j] - i - 1
    return math.factorial(sum(nu)) // hooks


def test_kostka_numbers_classical():
    # K_(nu,1^n) = f^nu, K_(nu,nu) = 1, and K_(nu,mu) = 0 unless nu >= mu
    for d in range(9):
        s_m = transition_matrix("s", "m", d)
        for nu in enumerate_partitions(d):
            row = s_m[nu]
            assert row.get(P(*[1] * d)) == F.from_int(_hook_count(nu)), nu
            assert row[nu] == one, nu
            assert all(dominates(nu, mu) for mu in row), nu


def test_equal_symfuns_hash_equal_and_key_a_dict():
    # equal up to the order of insertion, an explicit zero and the degree bound
    a = SymFun("m", {(2, 1): rf("q"), (3,): rf("1/(1-t)")}, 3)
    b = SymFun("m", {(1, 1, 1): F.zero, (3,): rf("1/(1-t)"), (2, 1): rf("q")}, 4)
    assert a == b and hash(a) == hash(b)
    table = {a: "a"}
    assert table[b] == "a"
    table[SymFun("p", a.coeffs, 3)] = "p"
    table[a.scale(rf("t"))] = "t a"
    assert len(table) == 3 and table[b] == "a"


def test_bisymfun_sum_difference_and_scale():
    x = BiSymFun({((1,), (1,)): one, ((2,), ()): rf("q")}, 2)
    y = BiSymFun({((1,), (1,)): rf("t"), ((1, 1), (1, 1)): one}, 3)
    total = x + y
    assert total.degree_bound == 3
    assert total.coeffs == {(P(1), P(1)): rf("1+t"), (P(2), P()): rf("q"), (P(1, 1), P(1, 1)): one}
    difference = total - y
    assert difference.degree_bound == 3 and difference.coeffs == x.coeffs
    assert (x - x).coeffs == {}
    scaled = x.scale(rf("1-q"))
    assert scaled.degree_bound == 2 and scaled.coeffs == {(P(1), P(1)): rf("1-q"), (P(2), P()): rf("q-q^2")}
    assert x.scale(F.zero).coeffs == {} and x.scale(F.zero).degree_bound == 2
