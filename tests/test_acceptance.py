"""Acceptance sweeps: one printed pass/fail line per criterion.

All comparisons are exact (zero tolerance) in Q(q,t).  Run with
`pytest -s tests/test_acceptance.py` to see the per-criterion lines and
timings.  Criterion 5 certifies the one-box step operators on both
sides: the lowering family is single-term at u = q^(-lam_i) t^(i-1); the
raising family is checked there term by term against its matrix
elements, and is single-term at u = q^(1-lam_i) t^(i-1), or, when a new
row is opened (lam_i = 1), by its residue at the pole u = t^(i-1).
"""

import random
import time

from qtsym.families import (
    hall_littlewood,
    macdonald_M,
    morris_phi,
    psi_coeff,
    q_row_series,
    schur,
)
from qtsym.macops import (
    A_k_eigen,
    bc_matrix_coeff,
    pieri_up_coeff,
    step_evaluate,
    step_family_at,
    step_series_apply,
)
from qtsym.partitions import (
    add_box_positions,
    dominates,
    enumerate_partitions,
    grevlex_key,
    partitions_up_to,
    remove_box_positions,
)
from qtsym.ratfun import SYMBOLIC
from qtsym.symfun import SymFun, convert, inner_product, p_multiply
from qtsym.verify import (
    check_corollary,
    check_deigen,
    check_green,
    check_hl_cauchy,
    check_kernel_lemma,
    check_proposition,
    check_theorem_basic,
)

F = SYMBOLIC
one = F.one


def _line(num, name, t0, status="pass", note=""):
    msg = "criterion %02d %-24s %s (%.1fs)%s" % (num, name, status, time.perf_counter() - t0, note)
    print(msg)
    return msg


def test_criterion_01_macdonald_construction():
    t0 = time.perf_counter()
    for degree in range(7):
        lams = enumerate_partitions(degree)
        ms = {lam: macdonald_M(lam) for lam in lams}
        for lam in lams:
            assert ms[lam].coeffs[lam] == one, lam
            for mu in ms[lam].coeffs:
                assert dominates(lam, mu), (lam, mu)
        for i, lam in enumerate(lams):
            for mu in lams[i + 1:]:
                assert not inner_product(ms[lam], ms[mu]), (lam, mu)
    _line(1, "macdonald-construction", t0)


def test_criterion_02_deigen():
    t0 = time.perf_counter()
    for N in range(1, 5):
        for w in range(0, 6):
            for lam in enumerate_partitions(w, max_length=N):
                report = check_deigen(N, lam)
                assert report.passed(), (N, lam, report.witness)
    _line(2, "finite-eigenproblem", t0)


def test_criterion_03_theorem():
    t0 = time.perf_counter()
    for w in range(0, 7):
        for lam in enumerate_partitions(w):
            for k in (1, 2, 3):
                report = check_theorem_basic(k, lam)
                assert report.passed(), (k, lam, report.witness)
            if lam:
                expected = F.zero
                for i, part in enumerate(lam, start=1):
                    expected = expected + (F.q ** (-part) - one) * F.t ** (i - 1)
                assert A_k_eigen(lam).entry(1) == expected, lam
    _line(3, "stable-operators", t0)


def test_criterion_04_corollary():
    t0 = time.perf_counter()
    for w in range(0, 5):
        for mu in enumerate_partitions(w):
            report = check_corollary(mu)
            assert report.passed(), (mu, report.witness)
    # adjointness of the raising and lowering families
    rng = random.Random(20260809)
    lams = partitions_up_to(4)
    for _ in range(4):
        f = SymFun("p", {rng.choice(lams): F.from_int(rng.randint(1, 4))}, 4)
        g = SymFun("p", {rng.choice(lams): F.from_int(rng.randint(1, 4))}, 4)
        for k in (0, 1, 2):
            lhs = inner_product(step_series_apply("B", k, f), g)
            rhs = inner_product(f, step_series_apply("C", k, g))
            assert lhs == rhs, k
    _line(4, "step-commutators", t0)


def test_criterion_05_step_evaluations():
    t0 = time.perf_counter()
    cases = 0
    for w in range(1, 6):
        for lam in enumerate_partitions(w):
            for mu, i in remove_box_positions(lam):
                u0 = F.q ** (-lam[i - 1]) * F.t ** (i - 1)
                ev_b = step_evaluate("B", lam, i)
                ev_c = step_evaluate("C", lam, i)
                assert ev_b.partner == mu and ev_c.partner == mu
                # the reported normalisation gap is q^(lam_i) in every case
                ratio = ev_b.coeff / ev_b.alt_coeff
                assert ratio == F.q ** lam[i - 1], (lam, i)
                assert ev_c.coeff / ev_c.alt_coeff == F.q ** lam[i - 1], (lam, i)
                # the lowering family is exactly one step down at the point;
                # the raising side is certified term by term by
                # test_criterion_05_raising_single_term_literal
                got = step_family_at("C", convert(macdonald_M(lam), "p"), u0)
                expected = convert(macdonald_M(mu), "p").scale(ev_c.coeff)
                assert got == expected, (lam, i)
                cases += 1
    _line(5, "step-evaluations", t0, note=" [%d cases]" % cases)


def _assert_same(got, expected, lam, i, part):
    """Exact p-basis equality; a failure names the first differing key."""
    for key in sorted(set(got.coeffs) | set(expected.coeffs), key=grevlex_key):
        a = got.coeffs.get(key, F.zero)
        b = expected.coeffs.get(key, F.zero)
        assert a == b, "lam=%r i=%d part (%s): p%s: got %s, expected %s" % (
            tuple(lam), i, part, list(key), a, b)


def _raising_residue(mu, i):
    # B(u) M_mu = sum_k B_k M_mu / (u; 1/t)_(k+1); the factor 1 - u t^(1-i)
    # of (u; 1/t)_(k+1) is present for k >= i-1.  Cancel it and set
    # u = t^(i-1): the remaining factors are 1 - t^(i-1-j), j != i-1.
    bound = sum(mu) + 1
    f = convert(macdonald_M(mu), "p")
    total = SymFun.zero("p", bound)
    for k in range(i - 1, bound):
        den = one
        for j in range(k + 1):
            if j != i - 1:
                den = den * (one - F.t ** (i - 1 - j))
        total = total + step_series_apply("B", k, f, bound).scale(one / den)
    return total


def test_criterion_05_raising_single_term_literal():
    # The raising family B(u) on M_mu, mu = lam minus the box in row i.
    # Its matrix element toward lam'' = mu + e_k (k != i) carries the factor
    # q^(-mu_i) - u t^(1-i), so the point that isolates M_lam is fixed by the
    # source mu, not by the target lam.  Three exact statements per (lam, i):
    # (a) at the literal point u = q^(-lam_i) t^(i-1), B(u) M_mu is the sum of
    #     its matrix elements over every addable box of mu; the M_lam term is
    #     step_evaluate("B", lam, i).coeff and every competing term is nonzero;
    # (b) if lam_i >= 2, at u = q^(1-lam_i) t^(i-1) only the M_lam term is left;
    # (c) if lam_i = 1 (a new row, i = len(mu) + 1), u = t^(i-1) is a simple
    #     pole of B_{lam mu} alone, and the residue of B(u) M_mu there, taken
    #     against the factor 1 - u t^(1-i), is
    #     (1-t) pieri_up t^(1-i) prod_{j<i} (q^(-lam_j) - t^(i-j))/(1 - t^(i-j))
    #     times M_lam.
    t0 = time.perf_counter()
    total = competing = raising = new_row = 0
    for w in range(1, 6):
        for lam in enumerate_partitions(w):
            for mu, i in remove_box_positions(lam):
                total += 1
                li = lam[i - 1]
                m_mu = convert(macdonald_M(mu), "p")
                # (a) the literal point
                u0 = F.q ** (-li) * F.t ** (i - 1)
                got = step_family_at("B", m_mu, u0)
                expected = SymFun.zero("p", w)
                ups = [up for up, _ in add_box_positions(mu)]
                for up in ups:
                    c = bc_matrix_coeff("B", up, mu).at(u0)
                    if up == lam:
                        assert c == step_evaluate("B", lam, i).coeff, (
                            "lam=%r i=%d part (a): M_lam coefficient %s differs from "
                            "step_evaluate" % (tuple(lam), i, c))
                    else:
                        assert c, "lam=%r i=%d part (a): competing M%r term vanishes" % (
                            tuple(lam), i, list(up))
                    expected = expected + convert(macdonald_M(up), "p").scale(c)
                _assert_same(got, expected, lam, i, "a")
                competing += len(ups) > 1
                m_lam = convert(macdonald_M(lam), "p")
                if li >= 2:
                    # (b) the raising point, fixed by mu_i = lam_i - 1
                    u1 = F.q ** (1 - li) * F.t ** (i - 1)
                    got = step_family_at("B", m_mu, u1)
                    expected = m_lam.scale(bc_matrix_coeff("B", lam, mu).at(u1))
                    _assert_same(got, expected, lam, i, "b")
                    raising += 1
                else:
                    # (c) a new row: the residue at u = t^(i-1); here j < i
                    # runs over every row of lam other than i
                    res = (one - F.t) * pieri_up_coeff(lam, mu) * F.t ** (1 - i)
                    for j in range(1, i):
                        res = res * (F.q ** (-lam[j - 1]) - F.t ** (i - j)) / (one - F.t ** (i - j))
                    _assert_same(_raising_residue(mu, i), m_lam.scale(res), lam, i, "c")
                    new_row += 1
    _line(5, "raising-single-term", t0,
          note=" [%d cases; (a) literal point: %d with competing terms;"
               " (b) raising point: %d; (c) new-row residue: %d]"
               % (total, competing, raising, new_row))


def test_criterion_06_proposition():
    t0 = time.perf_counter()
    for N in range(2, 5):
        for w in range(1, 6):
            for lam in enumerate_partitions(w, max_length=N - 1):
                report = check_proposition(N, lam)
                assert report.passed(), (N, lam, report.witness)
    _line(6, "alternant-identity", t0)


def test_criterion_07_kernels():
    t0 = time.perf_counter()
    cases = [
        ("p1", SymFun.generator("p", (1,))),
        ("p2", SymFun.generator("p", (2,))),
        ("p3", SymFun.generator("p", (3,))),
        ("M[2,1]", macdonald_M((2, 1))),
    ]
    for label, f in cases:
        report = check_kernel_lemma(f, 4, label=label)
        assert report.passed(), (label, report.witness)
    for d in range(1, 5):
        report = check_hl_cauchy(d)
        assert report.passed(), (d, report.witness)
    _line(7, "reproducing-kernels", t0)


def test_criterion_08_green():
    t0 = time.perf_counter()
    for d in range(1, 7):
        report = check_green(d)
        assert report.passed(), (d, report.witness)
    _line(8, "green-orthogonality", t0)


def test_criterion_09_specialization_chain():
    t0 = time.perf_counter()
    for w in range(0, 6):
        for lam in enumerate_partitions(w):
            m = macdonald_M(lam)
            p = hall_littlewood(lam, "P")
            assert _specialized(m, q=0) == p, lam
            assert _specialized(p, t=0) == schur(lam), lam
            assert _specialized(p, t=1) == SymFun.generator("m", lam), lam
    _line(9, "specialization-chain", t0)


def _specialized(f, **bindings):
    out = {}
    for lam, c in f.coeffs.items():
        v = c.specialize(**bindings)
        if v:
            out[lam] = v
    return SymFun(f.basis, out, f.degree_bound, f.field)


def test_criterion_10_cross_oracle():
    t0 = time.perf_counter()
    rows = q_row_series(5)
    # one-row multiplication against the closed product formula
    for w_mu in range(0, 5):
        for mu in enumerate_partitions(w_mu):
            pm = convert(hall_littlewood(mu, "P", 5), "p")
            for n in range(1, 5 - w_mu + 1):
                prod = convert(p_multiply(rows[n - 1], pm, 5), "P")
                for lam in enumerate_partitions(w_mu + n):
                    assert prod.coeffs.get(lam, F.zero) == morris_phi(lam, mu), (lam, mu, n)
    # first-derivative coefficients against the closed formula
    from qtsym.symfun import dp1

    for w in range(1, 6):
        for lam in enumerate_partitions(w):
            deriv = convert(dp1(hall_littlewood(lam, "P")), "P")
            for mu in enumerate_partitions(w - 1):
                assert deriv.coeffs.get(mu, F.zero) == psi_coeff(lam, mu), (lam, mu)
    _line(10, "cross-oracle", t0)
