import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from qtsym.ratfun import (
    SYMBOLIC,
    DivisionByZero,
    IntPoly2,
    NumericField,
    ParseError,
    PoleAtSpecialization,
    P_ONE,
    P_Q,
    P_T,
    RatFun,
    R_ONE,
    R_Q,
    R_T,
    R_ZERO,
    first_unequal_row,
    format_ratfun,
    parse_ratfun,
    poly_gcd,
    random_point,
)

ONE = P_ONE
Q = P_Q
T = P_T


def poly(s):
    r = parse_ratfun(s)
    assert r.den == ONE
    return r.num


def test_poly_mul_difference_of_squares():
    assert poly("1-t") * poly("1+t") == poly("1-t^2")


def test_poly_add_inverse_is_zero():
    z = Q + (-Q)
    assert not z
    assert z.terms == {}


def test_poly_mul_distributes():
    assert poly("1-q") * poly("1-t") == poly("1-q-t+q*t")


def test_ratfun_div_cancels():
    r = parse_ratfun("(1-t^2)/(1-t)")
    assert r == parse_ratfun("1+t")


def test_ratfun_add_common_denominator():
    r = parse_ratfun("(1-q)/(1-t)") + parse_ratfun("(q-q^2)/(1-t)")
    assert r == parse_ratfun("(1-q^2)/(1-t)")


def test_ratfun_mul_inverse_pair():
    r = parse_ratfun("(1-t)/(1-q*t)") * parse_ratfun("(1-q*t)/(1-t)")
    assert r.is_one()


def test_normalize_cancels_gcd():
    num = poly("1-t^2")
    den = poly("(1-t)*(1-q*t)")
    r = RatFun(num, den)
    assert r == parse_ratfun("(1+t)/(1-q*t)")


def test_normalize_sign():
    r = RatFun(IntPoly2.const(-1) * Q, IntPoly2.const(-1))
    assert r == R_Q
    assert r.den == ONE


def test_normalize_zero_numerator():
    r = RatFun(IntPoly2.const(0), poly("1-t"))
    assert r == R_ZERO
    assert r.den == ONE


def test_specialize_q_zero():
    r = parse_ratfun("(1+q)*(1-t)/(1-q*t)")
    assert r.specialize(q=0) == parse_ratfun("1-t")


def test_specialize_to_zero():
    r = parse_ratfun("(1+q)*(1-t)/(1-q*t)")
    assert r.specialize(t=1) == R_ZERO


def test_specialize_pole():
    r = parse_ratfun("(1-q)/(1-t)")
    with pytest.raises(PoleAtSpecialization):
        r.specialize(t=1)


def test_specialize_rational_point():
    r = parse_ratfun("(1-q)/(1-t)")
    v = r.specialize(q=Fraction(1, 2), t=Fraction(1, 3))
    assert v == RatFun.from_fraction(Fraction(3, 4))


def test_parse_basic():
    r = parse_ratfun("(1-t)/(1-q*t)")
    assert r.num == poly("1-t")
    assert r.den == poly("1-q*t")


def test_format_fixed_order():
    r = RatFun(poly("q^2-1"), ONE)
    assert format_ratfun(r) == "(-1+q^2)"


def test_parse_division_by_zero_literal():
    with pytest.raises((ParseError, DivisionByZero)):
        parse_ratfun("1/(0)")


def test_parse_error_position():
    with pytest.raises(ParseError):
        parse_ratfun("1 + #")
    with pytest.raises(ParseError):
        parse_ratfun("(1+q")


def test_power_and_unary_minus():
    assert parse_ratfun("-q^2") == -(R_Q * R_Q)
    assert parse_ratfun("q^-1") == R_ONE / R_Q
    assert parse_ratfun("2*q^2*t") == RatFun.from_int(2) * R_Q ** 2 * R_T


def _random_poly(rng, max_deg=3, max_terms=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = (rng.randint(0, max_deg), rng.randint(0, max_deg))
        terms[e] = terms.get(e, 0) + rng.randint(-5, 5)
    return IntPoly2.from_terms(terms)


def _random_ratfun(rng):
    num = _random_poly(rng)
    den = _random_poly(rng)
    while not den:
        den = _random_poly(rng)
    return RatFun(num, den)


def test_field_axioms_randomized():
    rng = random.Random(20260809)
    for _ in range(60):
        a, b, c = (_random_ratfun(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        if a:
            assert a * (R_ONE / a) == R_ONE
        assert a + (-a) == R_ZERO


def test_normalize_idempotent():
    rng = random.Random(7)
    for _ in range(40):
        r = _random_ratfun(rng)
        again = RatFun(r.num, r.den)
        assert again.num == r.num and again.den == r.den


def test_format_parse_round_trip():
    rng = random.Random(99)
    for _ in range(60):
        r = _random_ratfun(rng)
        assert parse_ratfun(format_ratfun(r)) == r


def test_evaluation_homomorphism():
    rng = random.Random(4242)
    pts = [(Fraction(2, 3), Fraction(5, 7)), (Fraction(-3, 2), Fraction(4, 5))]
    for _ in range(40):
        a = _random_ratfun(rng)
        b = _random_ratfun(rng)
        for qv, tv in pts:
            try:
                av, bv = a.evaluate(qv, tv), b.evaluate(qv, tv)
                s = (a + b).evaluate(qv, tv)
                m = (a * b).evaluate(qv, tv)
            except PoleAtSpecialization:
                continue
            assert s == av + bv
            assert m == av * bv


def test_gcd_known_factor():
    a = poly("(1-t)*(1-q*t)")
    b = poly("(1-t)*(1+q)")
    assert poly_gcd(a, b) == poly("1-t")


def test_gcd_of_random_products():
    rng = random.Random(31415)
    for _ in range(25):
        g = _random_poly(rng)
        a = _random_poly(rng)
        b = _random_poly(rng)
        if not (g and a and b):
            continue
        h = poly_gcd(a * g, b * g)
        expected = poly_gcd(a, b) * g
        if expected.leading()[1] < 0:
            expected = -expected
        # h is a multiple of g times gcd(a, b); with random a, b the cofactor
        # gcd is almost always trivial, so check divisibility both ways
        from qtsym.ratfun import poly_divexact

        quotient = poly_divexact(h, poly_gcd(h, expected))
        assert quotient.is_const() or poly_gcd(h, expected) == expected


def test_remainder_sequence_fallback_agrees():
    # the fallback remainder sequence must reproduce the primary route's gcd
    from qtsym.ratfun import (
        IntPoly2 as IP,
        _b_content,
        _b_divground,
        _b_gcd_prs,
        _b_smul,
        _from_rec,
        _to_rec,
        _u_gcd,
    )

    rng = random.Random(27182)
    checked = 0
    for _ in range(30):
        g = _random_poly(rng)
        a = _random_poly(rng)
        b = _random_poly(rng)
        if not (g and a and b):
            continue
        x, y = a * g, b * g
        if x.max_deg_q() == 0 or y.max_deg_q() == 0:
            continue
        xr, yr = _to_rec(x.terms), _to_rec(y.terms)
        cf, cg = _b_content(xr), _b_content(yr)
        h = _b_gcd_prs(_b_divground(xr, cf), _b_divground(yr, cg))
        via_prs = IP(_from_rec(_b_smul(h, _u_gcd(cf, cg))))
        if via_prs.leading()[1] < 0:
            via_prs = -via_prs
        assert via_prs == poly_gcd(x, y)
        checked += 1
    assert checked >= 10


def test_numeric_field_point():
    rng = random.Random(1)
    f = random_point(rng)
    assert isinstance(f, NumericField)
    assert f.q != f.t
    assert f.from_int(3) == Fraction(3)
    assert SYMBOLIC.is_symbolic and not f.is_symbolic


def test_inexact_division_raises_under_optimisation():
    # python -O strips assert statements; the exactness check must survive it
    import qtsym

    code = (
        "from qtsym.ratfun import InexactDivision, parse_ratfun, poly_divexact\n"
        "for a, b in (('q^2+t', 'q+1'), ('q^2+t', '2*q')):\n"
        "    try:\n"
        "        print(poly_divexact(parse_ratfun(a).num, parse_ratfun(b).num))\n"
        "    except InexactDivision:\n"
        "        print('InexactDivision')\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(qtsym.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["InexactDivision", "InexactDivision"]


# --- sympy as an independent oracle for the gcd and the normal form ----------

def _random_operand(rng, variables):
    """A nonzero polynomial in the given variables ("qt", "q" or "t"), with
    random integer and monomial content."""
    p = IntPoly2({})
    while not p:
        terms = {}
        for _ in range(rng.randint(1, 4)):
            e = (rng.randint(0, 3) if "q" in variables else 0, rng.randint(0, 3) if "t" in variables else 0)
            terms[e] = terms.get(e, 0) + rng.randint(-5, 5)
        p = IntPoly2.from_terms(terms)
    if rng.random() < 0.3:
        p = p * IntPoly2.const(rng.choice((2, 3, 6, -4)))
    if rng.random() < 0.3:
        p = p * IntPoly2.monomial(rng.randint(0, 2) if "q" in variables else 0,
                                  rng.randint(0, 2) if "t" in variables else 0)
    return p


def _operand_triples(seed, count, shapes=("qt", "qt", "q", "t")):
    # (g, a, b); a and b share the shape of g or are mixed
    rng = random.Random(seed)
    for i in range(count):
        g_shape = shapes[i % len(shapes)]
        yield tuple(_random_operand(rng, rng.choice((g_shape, "qt")) if k else g_shape) for k in range(3))


def _to_sympy(sympy, p):
    q, t = sympy.symbols("q t")
    return sympy.Poly.from_dict(dict(p.terms), q, t)


def _same_up_to_sign(sympy, p, expected):
    got = _to_sympy(sympy, p)
    return got == expected or got == -expected


def test_poly_gcd_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for g, a, b in _operand_triples(20261018, 240):
        x, y = a * g, b * g
        expected = sympy.gcd(_to_sympy(sympy, x), _to_sympy(sympy, y))
        assert _same_up_to_sign(sympy, poly_gcd(x, y), expected), (x, y)


def test_normal_form_matches_sympy_cancel():
    # sympy's cancel over Z keeps integer coefficients, coprime up to sign
    sympy = pytest.importorskip("sympy")
    for g, a, b in _operand_triples(20261019, 200):
        r = RatFun(a * g, b * g)
        num, den = _to_sympy(sympy, a * g).cancel(_to_sympy(sympy, b * g), include=True)
        got = (_to_sympy(sympy, r.num), _to_sympy(sympy, r.den))
        assert got in ((num, den), (-num, -den)), (a * g, b * g)


def test_remainder_sequences_match_sympy():
    # both remainder sequences on primitive inputs: t-polynomials as
    # coefficient tuples, and polynomials in q over Z[t]
    from qtsym.ratfun import (
        _b_content,
        _b_divground,
        _b_gcd_prs,
        _from_rec,
        _to_rec,
        _u_content,
        _u_gcd_prs,
        _u_intdiv,
    )

    sympy = pytest.importorskip("sympy")
    rng = random.Random(20261020)
    for _ in range(100):
        g, a, b = (_random_operand(rng, "t") for _ in range(3))
        f, h = (_to_rec((p * g).terms)[0] for p in (a, b))
        f, h = _u_intdiv(f, _u_content(f)), _u_intdiv(h, _u_content(h))
        got, f, h = (IntPoly2(_from_rec((u,))) for u in (_u_gcd_prs(f, h), f, h))
        assert _same_up_to_sign(sympy, got, sympy.gcd(_to_sympy(sympy, f), _to_sympy(sympy, h))), (f, h)
    for g, a, b in _operand_triples(20261021, 100, shapes=("qt", "q")):
        f, h = _to_rec((a * g).terms), _to_rec((b * g).terms)
        f, h = _b_divground(f, _b_content(f)), _b_divground(h, _b_content(h))
        got, f, h = (IntPoly2(_from_rec(u)) for u in (_b_gcd_prs(f, h), f, h))
        assert _same_up_to_sign(sympy, got, sympy.gcd(_to_sympy(sympy, f), _to_sympy(sympy, h))), (f, h)


# ---------------------------------------------------------------------------
# Kronecker-packed row comparison


def _packed_sides(matrix, vec, scalar, narrower):
    # {row: (lhs, rhs)} packed at the layout of `_packing`, with its bit
    # width B and its slot span W each made narrower by the given amounts
    from qtsym.ratfun import _pack, _packing

    rows, width, span, left, right = _packing(matrix, vec, scalar)
    width, span = width - narrower[0], span - narrower[1]
    packed = {col: _pack(poly, width, span, right) for col, poly in vec.items()}
    return {row: (sum(_pack(entry, width, span, left) * packed[col] for entry, col in pairs),
                  _pack(scalar, width, span, left) * packed.get(row, 0))
            for row, pairs in rows.items()}


@pytest.mark.parametrize("narrower, matrix, vec, scalar, row", [
    # the constant 2^B' against q: equal at bit width B' = B - 1
    ((1, 0), {0: {0: {(0, 0): 2 ** 5}}}, {0: {(0, 0): 1}}, {(1, 0): 1}, 0),
    ((1, 0), {0: {0: {(0, 0): -2 ** 40}}}, {0: {(0, 0): 1}}, {(1, 0): -1}, 0),
    ((1, 0), {0: {0: {(-2, 1): 2 ** 9}}}, {0: {(3, -1): 1}}, {(-1, 1): 1}, 0),
    # q^2 against t: the q-span 2 overflows into the next t slot at W - 1
    ((0, 1), {0: {0: {(2, 0): 1}}}, {0: {(0, 0): 1}}, {(0, 1): 1}, 0),
    ((0, 1), {0: {0: {(-1, -2): 1}}}, {0: {(4, 4): -3}}, {(-3, -1): 1}, 0),
    # the first row agrees, the second aliases at W - 1
    ((0, 1), {0: {0: {(0, 1): 1}, 1: {(2, 0): 1}}}, {0: {(0, 0): 1}, 1: {(0, 0): 1}}, {(0, 1): 1}, 1),
])
def test_packing_tells_apart_what_a_narrower_packing_aliases(narrower, matrix, vec, scalar, row):
    assert first_unequal_row(matrix, vec, scalar) == row
    lhs, rhs = _packed_sides(matrix, vec, scalar, narrower)[row]
    assert lhs == rhs


def _laurent(rng, terms):
    out = {}
    for _ in range(terms):
        key = (rng.randint(-3, 3), rng.randint(-3, 3))
        out[key] = out.get(key, 0) + rng.choice((-1, 1)) * rng.randint(1, 2 ** rng.randint(1, 70))
    return {key: n for key, n in out.items() if n}


def _laurent_axpy(target, a, b, sign=1):
    # target += sign * a * b on Laurent dicts, zeros dropped
    for (x, y), m in a.items():
        for (u, v), n in b.items():
            key = (x + u, y + v)
            target[key] = target.get(key, 0) + sign * m * n
            if not target[key]:
                del target[key]


def _first_unequal_row_by_dicts(matrix, vec, scalar):
    lhs, rhs = {}, {}
    for col, entries in matrix.items():
        for row, entry in entries.items():
            _laurent_axpy(lhs.setdefault(row, {}), entry, vec.get(col, {}))
    for row, poly in vec.items():
        _laurent_axpy(rhs.setdefault(row, {}), scalar, poly)
    return next((row for row in sorted(set(lhs) | set(rhs)) if lhs.get(row, {}) != rhs.get(row, {})), None)


def test_packed_rows_match_dict_arithmetic():
    # scalar on the diagonal plus off-diagonal pairs x v_b at column a and
    # -x v_a at column b of one row, which cancel; half the cases then get one
    # entry perturbed.  Exponents and coefficients take both signs, coefficients
    # reach 70 bits, and entries, vec rows and the scalar may be empty.
    rng = random.Random(20261019)
    outcomes = []
    for _ in range(300):
        n = rng.randint(1, 4)
        vec = {col: _laurent(rng, rng.randint(0, 4)) for col in range(n) if rng.random() < 0.85}
        scalar = _laurent(rng, rng.randint(0, 3))
        matrix = {col: {col: dict(scalar)} for col in range(n)}
        for _ in range(rng.randint(0, 3)):
            a, b, row = rng.randrange(n), rng.randrange(n), rng.randrange(n)
            x = _laurent(rng, 2)
            _laurent_axpy(matrix[a].setdefault(row, {}), x, vec.get(b, {}))
            _laurent_axpy(matrix[b].setdefault(row, {}), x, vec.get(a, {}), -1)
        if rng.random() < 0.5:
            entry = matrix[rng.randrange(n)].setdefault(rng.randrange(n), {})
            _laurent_axpy(entry, _laurent(rng, 1), {(0, 0): 1})
        got = first_unequal_row(matrix, vec, scalar)
        assert got == _first_unequal_row_by_dicts(matrix, vec, scalar), (matrix, vec, scalar)
        outcomes.append(got)
    assert outcomes.count(None) > 100 and len(set(outcomes)) == 5
