import dataclasses
import io
import json
import random

import pytest

from qtsym import families, macops, ratfun, symfun, verify
from qtsym.families import macdonald_M
from qtsym.partitions import (
    Compare,
    Partition,
    enumerate_partitions,
    format_partition,
    natural_compare,
    partitions_up_to,
)
from qtsym.ratfun import SYMBOLIC, parse_ratfun, random_point
from qtsym.symfun import BiSymFun, NSymPoly, SymFun, XPoly, convert, divide_by_vandermonde
from qtsym.verify import (
    CheckReport,
    alternant_F,
    check_commute,
    check_corollary,
    check_decomposition,
    check_deigen,
    check_finite_symbol,
    check_green,
    check_hl_cauchy,
    check_kernel_lemma,
    check_proposition,
    check_symbol,
    check_theorem_basic,
    kernel_pi,
    run_suite,
    write_reports,
)
from qtsym.verify import _interlacing

F = SYMBOLIC
one = F.one


def P(*parts):
    return Partition(parts)


def rf(s):
    return parse_ratfun(s)


def test_kernel_pi_low_degrees():
    k = kernel_pi(2)
    empty = P()
    assert k.coeffs[(empty, empty)] == one
    assert k.coeffs[(P(1), P(1))] == rf("(1-t)/(1-q)")
    assert k.coeffs[(P(1, 1), P(1, 1))] == rf("(1-t)^2/(2*(1-q)^2)")
    assert k.coeffs[(P(2), P(2))] == rf("(1-t^2)/(2*(1-q^2))")
    # diagonal in the p (x) p basis
    assert all(a == b for (a, b) in k.coeffs)


def test_kernel_lemma_generators():
    for label, f in (
        ("p1", SymFun.generator("p", (1,))),
        ("p2", SymFun.generator("p", (2,))),
    ):
        report = check_kernel_lemma(f, 3, label=label)
        assert report.passed(), report.witness


def test_kernel_lemma_macdonald():
    report = check_kernel_lemma(macdonald_M((2, 1)), 3, label="M[2,1]")
    assert report.passed(), report.witness


def test_kernel_lemma_fails_on_the_wrong_kernel(monkeypatch):
    # the Hall-Littlewood kernel is not reproducing for the (q,t) product;
    # the witness is the lowest y-power where f*(Pi) and f(y) Pi part
    monkeypatch.setattr(verify, "kernel_pi", verify.hl_kernel)
    for n in (1, 2):
        report = check_kernel_lemma(SymFun.generator("p", (n,)), 3)
        assert not report.passed()
        assert report.witness == "first mismatch at p() (x) p(%d,)" % n


def test_hl_cauchy_small():
    for d in range(1, 6):
        report = check_hl_cauchy(d)
        assert report.passed(), (d, report.witness)


def test_green_check():
    for d in (1, 2, 3):
        report = check_green(d)
        assert report.passed(), (d, report.witness)


def _scaled_hl(mu, c):
    # verify.hall_littlewood with Q_mu scaled by c
    real = verify.hall_littlewood
    return lambda lam, kind, field=F: real(lam, kind, field=field).scale(c if (lam, kind) == (mu, "Q") else F.one)


def test_hl_cauchy_failure_names_the_term(monkeypatch):
    monkeypatch.setattr(verify, "hall_littlewood", _scaled_hl(P(2, 1), F.from_int(2)))
    assert check_hl_cauchy(3).witness == "p(1, 1, 1) (x) p(1, 1, 1)"


def _scaled_green_column(mu, c):
    # verify.green_table with column mu scaled by c
    real = verify.green_table

    def scaled(degree, field=F):
        entries = real(degree, field).entries
        return families.GreenTable(degree, {key: x * c if key[1] == mu else x for key, x in entries.items()})
    return scaled


def _changed(real, at, **changes):
    # real with the given fields of its value at the partition `at` (at
    # every partition when at is None) replaced by functions of their old values
    def changed(lam, **kwargs):
        value = real(lam, **kwargs)
        if at is not None and lam != at:
            return value
        return dataclasses.replace(value, **{name: f(getattr(value, name)) for name, f in changes.items()})
    return changed


@pytest.mark.parametrize("patch, witness", [
    # z_t at (1,1,1) doubled
    (lambda: {"t_factors": _changed(verify.t_factors, P(1, 1, 1), z_t=lambda z: z * F.from_int(2))},
     "orthogonality fails at mu=(3,) nu=(3,)"),
    (lambda: {"hall_littlewood": _scaled_hl(P(2, 1), F.from_int(2))}, "row expansion fails at mu=(2, 1)"),
    # column (2,1) and Q_(2,1) times q, b at (2,1) times q^2: both identities
    # above still hold
    (lambda: {"green_table": _scaled_green_column(P(2, 1), F.q),
              "t_factors": _changed(verify.t_factors, P(2, 1), b=lambda b: b * F.q * F.q),
              "hall_littlewood": _scaled_hl(P(2, 1), F.q)},
     "X[(3,),(2, 1)] leaves Z[t]"),
    (lambda: {"green_table": _scaled_green_column(P(2, 1), -F.one), "hall_littlewood": _scaled_hl(P(2, 1), -F.one)},
     "X[(3,),(2, 1)] is not monic"),
    # n(mu) one too large in every column
    (lambda: {"stats": _changed(verify.stats, None, n_stat=lambda n: n + 1)},
     "max t-degree in column (3,) is 0, not 1"),
    (lambda: {"stats": _changed(verify.stats, P(1, 1, 1), z=lambda z: 2 * z)},
     "character orthogonality fails at mu=(3,) nu=(3,)"),
])
def test_green_failures_name_the_witness(monkeypatch, patch, witness):
    for name, value in patch().items():
        monkeypatch.setattr(verify, name, value)
    report = check_green(3)
    assert (report.status, report.witness) == ("fail", witness)


def test_deigen_examples():
    assert check_deigen(2, P(1)).passed()
    assert check_deigen(2, P(2)).passed()
    assert check_deigen(3, P(1, 1)).passed()


def test_theorem_examples():
    assert check_theorem_basic(1, P(1)).passed()
    assert check_theorem_basic(2, P(1)).passed()
    assert check_theorem_basic(2, P(1, 1)).passed()


def _perturb(monkeypatch, k, degree, change, at=F):
    # the integer table of A_k, which the theorem check reads and A_k_matrix
    # lifts, with change(columns) applied to a copy at one (k, degree, field)
    real = macops._A_matrices

    def perturbed(d, N, field):
        tables = real(d, N, field)
        if (d, N, field) != (degree, degree, at):
            return tables
        matrices, den, shift = tables
        matrices = list(matrices)
        matrices[k] = {mu: dict(column) for mu, column in matrices[k].items()}
        change(matrices[k])
        return matrices, den, shift

    monkeypatch.setattr(macops, "_A_matrices", perturbed)


def _add_one(matrix, row, column, key=(3, 0), n=1):
    # + n q^(a - degree) t^-i, key = (a, i), at one entry of an integer table
    # {(a, i): n} of sum n q^(a - degree) t^-i; the default adds 1 at degree 3
    entry = dict(matrix[column].get(row, {}))
    entry[key] = entry.get(key, 0) + n
    matrix[column][row] = {e: c for e, c in entry.items() if c}


def test_theorem_failure_names_the_monomial(monkeypatch):
    _perturb(monkeypatch, 1, 3, lambda a: _add_one(a, P(1, 1, 1), P(2, 1)))
    report = check_theorem_basic(1, P(2, 1))
    assert not report.passed()
    assert report.witness == "eigen-equation fails at m[1,1,1]"
    assert check_theorem_basic(2, P(2, 1)).passed()


def test_deigen_failure_names_the_u_power(monkeypatch):
    # q t^-1 more in the u^2 entry at row m[1,1,1] of D_3(u) m_(2,1); the
    # Macdonald table is built first, from the true D^1.  The patched table
    # is memoised by apply_DN in a copy of the caches, without the true one
    monkeypatch.setattr(symfun, "_CACHE", dict(symfun._CACHE))
    monkeypatch.delitem(symfun._CACHE, ("dn_table", 3, 3, F), raising=False)
    macdonald_M((1, 1, 1))
    real = families._dn_table

    def perturbed(d, n, top, field=F):
        for nu, column in real(d, n, top, field):
            if (d, n, nu) == (3, 3, P(2, 1)):
                entry = [dict(poly) for poly in column[P(1, 1, 1)]]
                entry[2][1, 1] = entry[2].get((1, 1), 0) + 1
                column = dict(column)
                column[P(1, 1, 1)] = [{key: c for key, c in poly.items() if c} for poly in entry]
            yield nu, column

    monkeypatch.setattr(families, "_dn_table", perturbed)
    report = check_deigen(3, P(2, 1))
    assert not report.passed()
    assert report.witness == "u-power 2 differs"
    # J_(1,1,1) has no m_(2,1) term, and N = 4 reads another table
    assert check_deigen(3, P(1, 1, 1)).passed()
    assert check_deigen(4, P(2, 1)).passed()


def test_deigen_failure_names_the_u_power_at_a_point(monkeypatch):
    # the same u^2 entry at a sample point, an int over the table's
    # denominator, one unit more; the Macdonald table at the point is built
    # first, from the true D^1
    point = random_point(random.Random(20261022))
    monkeypatch.setattr(symfun, "_CACHE", dict(symfun._CACHE))
    macdonald_M((1, 1, 1), field=point)
    real = families._dn_table

    def perturbed(d, n, top, field=F):
        for nu, column in real(d, n, top, field):
            if (d, n, nu, field) == (3, 3, P(2, 1), point):
                column = dict(column)
                entry = list(column[P(1, 1, 1)])
                entry[2] += 1
                column[P(1, 1, 1)] = entry
            yield nu, column

    monkeypatch.setattr(families, "_dn_table", perturbed)
    report = check_deigen(3, P(2, 1), point)
    assert not report.passed()
    assert report.witness == "u-power 2 differs"
    assert check_deigen(3, P(1, 1, 1), point).passed()
    assert check_deigen(4, P(2, 1), point).passed()
    assert check_deigen(3, P(2, 1)).passed()


def test_deigen_sweep_takes_no_gcd(monkeypatch):
    # once the tables of degree <= 3 are built, the symbolic deigen sweep
    # multiplies integers alone: J_lam lies in Z[q,t], so apply_DN clears no
    # denominator, and each side lifts its entries over monomials
    for d in range(4):
        families._macdonald_degree(d, F)
        for N in range(1, 4):
            macops._dn_matrices(d, N, F)
    calls = []
    real = ratfun.poly_gcd

    def counted(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(ratfun, "poly_gcd", counted)
    reports = list(run_suite("deigen", {"N": 3, "max_weight": 3}))
    assert reports and all(r.passed() for r in reports), [r.witness for r in reports]
    assert len(calls) == 0


def test_deigen_takes_a_table_entry_with_an_explicit_zero(monkeypatch):
    # a 0 coefficient beside the real ones in the u^1 entry at row m[1,1,1]
    # of D_3(u) m_(2,1), and one alone in its empty u^0 entry: apply_DN's
    # memo drops them, so its integer products never meet a 0, and the u^0
    # entry stays empty.  The padded table is memoised in a copy of the
    # caches, without the true one
    monkeypatch.setattr(symfun, "_CACHE", dict(symfun._CACHE))
    monkeypatch.delitem(symfun._CACHE, ("dn_table", 3, 3, F), raising=False)
    macdonald_M((1, 1, 1))
    real = families._dn_table

    def padded(d, n, top, field=F):
        for nu, column in real(d, n, top, field):
            if (d, n, nu) == (3, 3, P(2, 1)):
                column = dict(column)
                entry = [dict(poly) for poly in column[P(1, 1, 1)]]
                assert not entry[0]
                entry[0][7, 7] = entry[1][7, 7] = 0
                column[P(1, 1, 1)] = entry
            yield nu, column

    monkeypatch.setattr(families, "_dn_table", padded)
    assert check_deigen(3, P(2, 1)).passed()


def _theorem_by_field(k, lam, field=F):
    # the field route (RatFun, or Fraction at a point): the lifted matrix
    # A_k_matrix applied to J_lam
    m = families._macdonald_integral(lam, field)
    matrix = macops.A_k_matrix(k, sum(lam), field)
    got = {}
    for mu, c in m.items():
        symfun.axpy(got, matrix[mu], c)
    got = verify._nonzero(got)
    e = macops.A_k_eigen(lam, field).entry(k) if len(lam) >= k else field.zero
    key = verify._first_difference(got, verify._nonzero({mu: c * e for mu, c in m.items()}))
    return None if key is None else "eigen-equation fails at m[%s]" % format_partition(key)


def test_packed_theorem_agrees_with_the_field_route():
    for degree in range(7):
        for lam in enumerate_partitions(degree):
            for k in range(1, 5):
                assert (check_theorem_basic(k, lam).witness, _theorem_by_field(k, lam)) == (None, None), (k, lam)


def test_packed_and_field_routes_name_the_same_witness(monkeypatch):
    # one seeded entry of one integer A_k table perturbed by a monomial
    rng = random.Random(1717)
    for _ in range(6):
        degree = rng.randint(2, 5)
        k = rng.randint(1, degree)
        lams = enumerate_partitions(degree)
        row, column = rng.choice(lams), rng.choice(lams)
        key, n = (rng.randint(degree - 2, degree + 2), rng.randint(-2, 3)), rng.choice((-2, -1, 1))
        with monkeypatch.context() as patch:
            _perturb(patch, k, degree, lambda a: _add_one(a, row, column, key, n))
            witnesses = [(check_theorem_basic(k, lam).witness, _theorem_by_field(k, lam)) for lam in lams]
        assert all(a == b for a, b in witnesses), witnesses
        assert any(a for a, _ in witnesses), (degree, k, row, column)


def test_point_theorem_check_names_the_witness_of_the_fraction_route(monkeypatch):
    # one seeded entry of one A_k table at a sample point, an int over the
    # table's denominator, moved by a few units: the int rows and the
    # Fraction route name the same witness on every lam of that degree
    rng = random.Random(1919)
    point = random_point(rng)
    try:
        failing = 0
        for _ in range(8):
            degree = rng.randint(2, 6)
            k = rng.randint(1, degree)
            lams = enumerate_partitions(degree)
            row, column, n = rng.choice(lams), rng.choice(lams), rng.choice((-3, -1, 1, 2))

            def change(matrix):
                entry = matrix[column].get(row, 0) + n
                matrix[column].pop(row, None)
                if entry:
                    matrix[column][row] = entry

            with monkeypatch.context() as patch:
                _perturb(patch, k, degree, change, point)
                witnesses = [(check_theorem_basic(k, lam, point).witness, _theorem_by_field(k, lam, point))
                             for lam in lams]
            assert all(a == b for a, b in witnesses), witnesses
            failing += sum(1 for a, _ in witnesses if a)
        assert failing
        for d in range(6):
            for lam in enumerate_partitions(d):
                for k in range(1, 5):
                    assert check_theorem_basic(k, lam, point).witness is _theorem_by_field(k, lam, point) is None
    finally:
        symfun.clear_field_caches(point)


@pytest.mark.parametrize("change", [lambda ints, den: ([n + den for n in ints], den),
                                    lambda ints, den: (ints, den * 1000003)], ids=["plus-one", "over-a-prime"])
def test_point_theorem_check_refuses_a_wrong_eigenvalue(monkeypatch, change):
    # e_k(lam) + 1, or e_k(lam) / p with p prime to every denominator, at a
    # sample point, on the ints over den of the split: every row where
    # M_lam has a coefficient differs, so the witness is the least monomial
    # of M_lam.  Over a prime, e_k(lam) times the table's denominator keeps
    # its numerator and gains the denominator p, which only the
    # cross-multiplication sees
    point = random_point(random.Random(1920))
    real = macops._eigen_split

    def wrong(lam, field=F):
        return change(*real(lam, field))

    monkeypatch.setattr(macops, "_eigen_split", wrong)
    try:
        for d in range(1, 6):
            for lam in enumerate_partitions(d):
                first = min(families.macdonald_in_m(lam, point))
                for k in range(1, len(lam) + 1):
                    report = check_theorem_basic(k, lam, point)
                    assert report.witness == "eigen-equation fails at m[%s]" % format_partition(first), (k, lam)
    finally:
        symfun.clear_field_caches(point)


def test_theorem_sweep_splits_each_partition_once(monkeypatch):
    # the split of e_k(lam) is kept in the A_table entry of degree |lam|:
    # one split per partition with ell >= 1 (k > ell takes none), none on a
    # second sweep; at a point it is dropped with its entry
    monkeypatch.setattr(symfun, "_CACHE", {})
    for d in range(6):
        families._macdonald_degree(d, F)
        macops._A_matrices(d, d, F)
    calls = []
    real = macops._eigen_split

    def counted(lam, field=F):
        calls.append((lam, field))
        return real(lam, field)

    monkeypatch.setattr(macops, "_eigen_split", counted)
    config = {"max_degree": 5, "max_k": 3}
    assert all(r.passed() for r in run_suite("theorem", config))
    assert len(calls) == 18
    assert sorted(calls) == sorted((lam, F) for d in range(1, 6) for lam in enumerate_partitions(d))
    calls.clear()
    assert all(r.passed() for r in run_suite("theorem", config))
    assert calls == []
    point = random_point(random.Random(2026))
    assert check_theorem_basic(1, P(2, 1), point).passed()
    assert check_theorem_basic(2, P(2, 1), point).passed()
    assert calls == [(P(2, 1), point)]
    symfun.clear_field_caches(point)
    assert not [key for key in symfun._CACHE if key[-1] == point]
    assert check_theorem_basic(1, P(2, 1), point).passed()
    assert calls == [(P(2, 1), point)] * 2
    symfun.clear_field_caches(point)
    # A_k_eigen splits afresh and builds no A_k table
    assert macops.A_k_eigen(P(3, 1), point).entries
    assert not [key for key in symfun._CACHE if key[-1] == point]


def test_symbolic_theorem_check_takes_no_gcd_and_builds_no_ratfun(monkeypatch):
    # once the tables are built, the packed check runs on integers alone
    lams = [lam for d in range(6) for lam in enumerate_partitions(d)]
    for d in range(6):
        families._macdonald_degree(d, F)
        macops._A_matrices(d, d, F)

    def refuse(*args):
        raise AssertionError("a symbolic check took a gcd or built a RatFun")

    monkeypatch.setattr(ratfun, "poly_gcd", refuse)
    monkeypatch.setattr(ratfun.RatFun, "__init__", refuse)
    for lam in lams:
        assert all(check_theorem_basic(k, lam).passed() for k in range(1, 5)), lam


def test_commute_sweep_passes():
    reports = list(run_suite("commute", {"max_degree": 5, "max_k": 3}))
    assert len(reports) == 15
    assert all(r.passed() and r.witness is None for r in reports), [r.witness for r in reports]
    assert [r.parameters for r in reports[:3]] == [{"k": 1, "l": 2, "degree": 1},
                                                   {"k": 1, "l": 3, "degree": 1},
                                                   {"k": 2, "l": 3, "degree": 1}]


def test_commute_sweep_takes_no_gcd(monkeypatch):
    # once the A_k tables of degree <= 5 are built, the symbolic commute
    # sweep compares packed integer rows and lifts its diagonals over
    # monomials
    for d in range(6):
        macops._A_matrices(d, d, F)
    calls = []
    real = ratfun.poly_gcd

    def counted(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(ratfun, "poly_gcd", counted)
    reports = list(run_suite("commute", {"max_degree": 5}))
    assert reports and all(r.passed() for r in reports), [r.witness for r in reports]
    assert len(calls) == 0


@pytest.mark.parametrize("degree", [5, 6])
def test_commute_packs_each_entry_once(monkeypatch, degree):
    # one Kronecker layout for every column: each entry of A_1 and A_2 is
    # packed once, not once per column that reads it
    tables, _, _ = macops._A_matrices(degree, degree, F)
    entries = {id(e) for j in (1, 2) for column in tables[j].values() for e in column.values()}
    calls = []
    real = ratfun._pack

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(ratfun, "_pack", counted)
    assert check_commute(1, 2, degree).passed()
    assert 0 < len(calls) <= len(entries), (len(calls), len(entries))


def test_commute_failure_names_the_entry(monkeypatch):
    _perturb(monkeypatch, 1, 3, lambda a: _add_one(a, P(1, 1, 1), P(2, 1)))
    report = check_commute(1, 2, 3)
    assert not report.passed()
    assert report.witness == "[A_1, A_2] at degree 3: row m[1,1,1], column m[3]"
    assert check_commute(2, 3, 3).passed()


def test_commute_failure_on_the_diagonal(monkeypatch):
    # A_1 + 1 still commutes with A_2; only its diagonal is wrong
    def shift(matrix):
        for mu in matrix:
            _add_one(matrix, mu, mu)

    _perturb(monkeypatch, 1, 3, shift)
    report = check_commute(1, 2, 3)
    assert not report.passed()
    assert report.witness == "diagonal of A_1 at degree 3: row m[3], column m[3]"


def test_commute_failures_at_a_point_name_the_symbolic_witnesses(monkeypatch):
    # the entries of the two perturbations above at a sample point, ints
    # over the table's denominator den: one unit more at row m[1,1,1],
    # column m[2,1], and den more (A_1 + q^-3) on every diagonal
    point = random_point(random.Random(20261023))
    _, den, _ = macops._A_matrices(3, 3, point)

    def add(matrix, row, column, n):
        entry = matrix[column].get(row, 0) + n
        matrix[column].pop(row, None)
        if entry:
            matrix[column][row] = entry

    def shift(matrix):
        for mu in matrix:
            add(matrix, mu, mu, den)

    try:
        assert all(check_commute(k, l, 3, point).passed() for k, l in ((1, 2), (1, 3), (2, 3)))
        with monkeypatch.context() as patch:
            _perturb(patch, 1, 3, lambda a: add(a, P(1, 1, 1), P(2, 1), 1), point)
            assert check_commute(1, 2, 3, point).witness == "[A_1, A_2] at degree 3: row m[1,1,1], column m[3]"
            assert check_commute(2, 3, 3, point).passed()
        with monkeypatch.context() as patch:
            _perturb(patch, 1, 3, shift, point)
            assert check_commute(1, 2, 3, point).witness == "diagonal of A_1 at degree 3: row m[3], column m[3]"
    finally:
        symfun.clear_field_caches(point)


def test_symbol_sweep_passes():
    reports = list(run_suite("symbol", {"max_degree": 3, "max_k": 4}))
    assert all(r.passed() and r.witness is None for r in reports), [r.witness for r in reports]
    assert [r.parameters for r in reports] == [{"degree": d, "max_k": 4} for d in (1, 2, 3)]


def test_symbol_sweep_without_k_makes_no_check():
    # max_k < 1 leaves no matrix to compare, as in the theorem and commute sweeps
    for max_k in (0, -1):
        assert list(run_suite("symbol", {"max_k": max_k})) == []


def test_symbol_failure_names_the_entry(monkeypatch):
    # the matrix disagrees with the Hall-Littlewood operator sum
    _perturb(monkeypatch, 1, 3, lambda a: _add_one(a, P(1, 1, 1), P(2, 1)))
    report = check_symbol(3, 2)
    assert not report.passed()
    assert report.witness == "A_1 against its symbol at degree 3: row m[1,1,1], column m[2,1]"


def test_symbol_failure_names_N(monkeypatch):
    # the finite operator at N = 3, above the degree, gains m_(1,1) in its
    # 1/(u;1/t)_1 term (at N = degree the matrix is A_N(u), so N = 2 is not
    # compared)
    real = macops.apply_AN

    def faulty(f):
        out = real(f)
        if f.N == 3:
            out.entries[1] = out.entries[1] + NSymPoly(3, {P(1, 1): one})
        return out

    monkeypatch.setattr(macops, "apply_AN", faulty)
    report = check_symbol(2, 3)
    assert not report.passed()
    assert report.witness == "A_1 against A_N at N=3, degree 2: row m[1,1], column m[2]"


def test_corollary_examples():
    assert check_corollary(P()).passed()
    assert check_corollary(P(1)).passed()
    assert check_corollary(P(2)).passed()


def test_corollary_failure_names_the_term(monkeypatch):
    # B_1 M_mu scaled by q first breaks the 1/(u;1/t)_1 term of the raising side
    real = verify.step_series_apply

    def faulty(kind, j, f, degree_bound=None):
        out = real(kind, j, f, degree_bound)
        return out.scale(F.q) if (kind, j) == ("B", 1) else out

    monkeypatch.setattr(verify, "step_series_apply", faulty)
    report = check_corollary(P(1))
    assert not report.passed()
    assert report.witness == "raising side, 1/(u;1/t)_1 term: m[1,1] differs"


def test_alternant_empty_seed():
    f = alternant_F(P(), 0, 2)
    assert f == XPoly(2, {(0, 1): one, (1, 0): -one})


def test_alternant_symmetric_seed_vanishes():
    assert alternant_F(P(1), 0, 2).is_zero()


def test_alternant_divisible_by_vandermonde():
    for N in (2, 3):
        for mu in partitions_up_to(3, max_length=N - 1):
            for n in range(0, 3):
                f = alternant_F(mu, n, N)
                divide_by_vandermonde(f)  # must not raise


def test_schur_support_below_target():
    # quotients of the strip alternants only involve Schur terms strictly
    # below the target partition in the natural order
    from qtsym.symfun import antisymmetrize_to_schur

    for N in (3, 4):
        for w in range(1, 5):
            for lam in enumerate_partitions(w, max_length=N - 1):
                if not lam:
                    continue
                for mu in _interlacing(lam, 1):
                    n = sum(lam) - sum(mu)
                    f = alternant_F(mu, n, N)
                    for nu in antisymmetrize_to_schur(f):
                        assert natural_compare(nu, lam) is Compare.LESS, (lam, mu, nu)


def test_proposition_examples():
    assert check_proposition(2, P(1)).passed()
    assert check_proposition(2, P(2)).passed()
    assert check_proposition(3, P(2, 1)).passed()


def test_proposition_reports_failed_decomposition(monkeypatch):
    real = verify.hl_alternant

    def doubled(lam, N, field=F):
        return real(lam, N, field).scale(F.from_int(2))

    monkeypatch.setattr(verify, "hl_alternant", doubled)
    report = check_proposition(3, P(2, 1))
    assert not report.passed()
    assert report.witness.startswith("slot decomposition of the alternant F(mu=(2, 1), n=0, N=3)")


def test_proposition_names_a_surviving_monomial(monkeypatch):
    # every phi doubled: the decompositions hold, the combination does not vanish
    real = verify.morris_phi
    monkeypatch.setattr(verify, "morris_phi", lambda lam, mu, field=F: real(lam, mu, field) * F.from_int(2))
    report = check_proposition(3, P(2, 1))
    assert (report.status, report.witness) == ("fail", "monomial (1, 2, 3) survives with (-1+t^2)")


def test_caches_hold_no_zero_coefficients():
    # the containers' constructors drop zeros and memoised raw dicts are
    # filtered before they are stored, so no cached coefficient is zero
    assert all(r.passed() for r in run_suite("deigen", {"N": 3, "max_weight": 3}))
    assert all(r.passed() for r in run_suite("theorem", {"max_degree": 4, "max_k": 2}))
    zeros = []

    def walk(value, path):
        if isinstance(value, (SymFun, NSymPoly, XPoly, BiSymFun)):
            value = value.coeffs
        if isinstance(value, dict):
            for k, v in value.items():
                walk(v, path + (k,))
        elif not value:
            zeros.append(path)

    for key, value in symfun._CACHE.items():
        walk(value, (key,))
    assert not zeros, zeros[:5]


def test_finite_symbol_small():
    assert check_finite_symbol(1, 2).passed()
    assert check_finite_symbol(2, 2).passed()
    # past N = 2 the determinant has more than two terms
    for N in (3, 4):
        assert check_finite_symbol(N, 3).passed()
        assert check_finite_symbol(N, 3, random_point(random.Random(1729 + N))).passed()


def test_finite_symbol_multiplies_out_one_diagonal_product(monkeypatch):
    # one factor product per row: the determinant is the alternant of the
    # diagonal product, not a sum of N! row products
    calls = []
    real = verify._ts_mul

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(verify, "_ts_mul", counted)
    assert check_finite_symbol(3, 3).passed()
    assert len(calls) == 3


def test_finite_symbol_failure_names_the_component(monkeypatch):
    # P_(2) gains p_(1,1) on the right side only
    real = verify.hall_littlewood

    def faulty(lam, kind, degree_bound=None, field=F):
        out = real(lam, kind, degree_bound, field)
        if (tuple(lam), kind) == ((2,), "P"):
            out = out + convert(SymFun.generator("p", P(1, 1), field=field), out.basis)
        return out

    monkeypatch.setattr(verify, "hall_littlewood", faulty)
    for N in (2, 3):
        report = check_finite_symbol(N, 2)
        assert not report.passed()
        assert report.witness == "u^0, y-component p(1, 1) differs"


def test_decomposition_examples():
    assert check_decomposition(P(1), 2, 1).passed()
    assert check_decomposition(P(2), 2, 2).passed()
    assert check_decomposition(P(), 1, 1).passed()
    assert check_decomposition(P(2, 1), 3, 2).passed()


def test_decomposition_names_the_first_differing_monomial(monkeypatch):
    # every phi doubled: the right side is twice the left
    real = verify.morris_phi
    monkeypatch.setattr(verify, "morris_phi", lambda lam, mu, field=F: real(lam, mu, field) * F.from_int(2))
    report = check_decomposition(P(2, 1), 3, 2)
    assert (report.status, report.witness) == ("fail", "expansion differs at monomial (0, 1, 2)")


def test_decomposition_sweep_passes():
    reports = list(run_suite("decomposition", {"N": 2, "max_weight": 2}))
    assert all(r.passed() and r.witness is None for r in reports), [r.witness for r in reports]
    cases = [((), 1, 1), ((1,), 1, 1), ((2,), 1, 1), ((), 2, 1), ((), 2, 2), ((1,), 2, 1), ((1,), 2, 2),
             ((2,), 2, 1), ((2,), 2, 2), ((1, 1), 2, 1), ((1, 1), 2, 2)]
    assert [r.parameters for r in reports] == [{"lam": P(*lam), "N": N, "i": i} for lam, N, i in cases]


def test_run_suite_all_runs_every_suite_in_order():
    # a config under which every suite makes at least one check
    config = {"max_degree": 1, "max_k": 2, "degree": 1, "max_weight": 1, "N": 2}
    expected = []
    for key in verify.SUITES:
        own = [(r.name, r.parameters) for r in run_suite(key, config)]
        assert own, key
        expected += own
    reports = list(run_suite("all", config))
    assert [(r.name, r.parameters) for r in reports] == expected
    assert all(r.passed() for r in reports), [r.witness for r in reports if not r.passed()]


def test_run_suite_all_fills_only_the_basis_memo_kinds(monkeypatch):
    # every basis table lives in the transition memo; none has a copy of its own
    monkeypatch.setattr(symfun, "_CACHE", {})
    assert all(r.passed() for r in run_suite("all"))
    kinds = {key[0] for key in symfun._CACHE}
    assert kinds <= {"transition", "ip", "hl", "dn_skeleton", "dn_table", "macdonald", "A_table"}, kinds
    assert not kinds & {"p_to_m", "s_m", "green"}


def test_run_suite_kernel_and_reports():
    reports = list(run_suite("kernel", {"max_degree": 2}))
    assert len(reports) == 4
    stream = io.StringIO()
    passed, failed = write_reports(reports, stream)
    assert passed == 4 and failed == 0
    lines = stream.getvalue().strip().split("\n")
    assert len(lines) == 5
    for line in lines[:-1]:
        data = json.loads(line)
        assert data["status"] == "pass"
        assert data["witness"] is None
    summary = json.loads(lines[-1])["summary"]
    assert summary["pass"] == 4 and summary["fail"] == 0


def test_fail_report_carries_witness():
    report = CheckReport(name="x", parameters={}, status="fail", witness="w")
    assert not report.passed()
    data = report.to_json_dict()
    assert data["witness"] == "w"


def test_numeric_mode_agrees_with_symbolic():
    rng = random.Random(20260809)
    config = {"max_degree": 2, "max_k": 2, "degree": 2, "max_weight": 2, "N": 2}
    names = ("hl-cauchy", "green", "theorem", "commute", "symbol", "corollary", "proposition", "finite-symbol")
    symbolic = {}
    for name in names:
        symbolic[name] = [r.passed() for r in run_suite(name, config)]
    for _ in range(3):
        point = random_point(rng)
        for name in names:
            got = [r.passed() for r in run_suite(name, config, field=point)]
            assert got == symbolic[name], (name, point)
