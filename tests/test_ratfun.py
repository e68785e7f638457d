import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from qtsym import ratfun
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
    first_unequal_rows,
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


def _shared_factor_pairs(seed, count):
    """Distinct pairs (g, a g (1+qt), b g (1+qt)): every pair has a common
    factor in both q and t, so poly_gcd sends it to the bivariate gcd."""
    rng = random.Random(seed)
    mixed = poly("1+q*t")
    pairs, seen = [], set()
    while len(pairs) < count:
        g, a, b = (_random_poly(rng) for _ in range(3))
        if not (g and a and b):
            continue
        x, y = a * g * mixed, b * g * mixed
        if x != y and (x, y) not in seen:
            seen.add((x, y))
            pairs.append((g * mixed, x, y))
    return pairs


def test_bivariate_gcd_falls_back_to_the_remainder_sequence(monkeypatch):
    # with every evaluation at an integer t refused, _b_gcd must end in its
    # remainder sequence and still return the gcd of the heuristic route
    pairs = _shared_factor_pairs(16180, 12)
    ratfun._GCD_MEMO.clear()
    expected = [poly_gcd(x, y) for _, x, y in pairs]
    ratfun._GCD_MEMO.clear()
    calls = []
    real = ratfun._b_gcd_prs

    def counted(f, g):
        calls.append(f)
        return real(f, g)

    monkeypatch.setattr(ratfun, "_b_eval_t", lambda f, xi: ())
    monkeypatch.setattr(ratfun, "_b_gcd_prs", counted)
    got = [poly_gcd(x, y) for _, x, y in pairs]
    assert len(calls) == len(pairs)
    assert got == expected
    for (g, _, _), h in zip(pairs, got):
        ratfun.poly_divexact(h, g)  # raises unless the known factor divides


def test_gcd_memo_resets_at_its_limit(monkeypatch):
    pairs = _shared_factor_pairs(31337, 8)
    ratfun._GCD_MEMO.clear()
    expected = [poly_gcd(x, y) for _, x, y in pairs]
    ratfun._GCD_MEMO.clear()
    monkeypatch.setattr(ratfun, "_GCD_MEMO_LIMIT", 2)
    got, sizes = [], []
    for _, x, y in pairs:
        got.append(poly_gcd(x, y))
        sizes.append(len(ratfun._GCD_MEMO))
    assert got == expected
    # each miss on a full memo empties it before storing its own entry
    assert sizes == [1, 2] * (len(pairs) // 2)


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


def _packed_sides(monkeypatch, sides, narrower):
    # {row: (lhs, rhs)} packed at the layout `_packing` takes for the one
    # pair, with its bit width B and its slot span W each made narrower by
    # the given amounts
    layouts = set()
    real = ratfun._pack
    monkeypatch.setattr(ratfun, "_pack", lambda poly, *layout: layouts.add(layout) or real(poly, *layout))
    ratfun._packing([sides])
    (width, span, offset), = layouts
    width, span = width - narrower[0], span - narrower[1]
    out = [{} for _ in sides]
    for total, (matrix, vec, n) in zip(out, sides):
        for col, x in vec.items():
            for row, entry in matrix.get(col, {}).items():
                total[row] = total.get(row, 0) + n * real(entry, width, span, offset) * real(x, width, span, offset)
    return {row: (out[0].get(row, 0), out[1].get(row, 0)) for row in out[0].keys() | out[1].keys()}


@pytest.mark.parametrize("narrower, matrix, vec, scalar, row", [
    # the constant 2^B' against q: equal at bit width B' = B - 1
    ((1, 0), {0: {0: {(0, 0): 2 ** 5}}}, {0: {(0, 0): 1}}, {(1, 0): 1}, 0),
    ((1, 0), {0: {0: {(0, 0): -2 ** 40}}}, {0: {(0, 0): 1}}, {(1, 0): -1}, 0),
    ((1, 0), {0: {0: {(-2, 1): 2 ** 9}}}, {0: {(3, -1): 1}}, {(-1, 1): 1}, 0),
    # q q against t 1 at two columns: the product's q-span 2 (a1 - a0)
    # overflows into the next t slot at W - 1
    ((0, 1), {1: {0: {(1, 0): 1}}}, {0: {(0, 0): 1}, 1: {(1, 0): 1}}, {(0, 1): 1}, 0),
    # the same shifted by monomials, with negative exponents: a0 = -3, a1 = 4
    ((0, 1), {1: {0: {(4, -2): 1}}}, {0: {(-3, 4): -3}, 1: {(4, 4): -3}}, {(-3, -1): 1}, 0),
    # the first row agrees, the second aliases at W - 1
    ((0, 1), {0: {0: {(0, 1): 1}, 1: {(1, 0): 1}}}, {0: {(1, 0): 1}, 1: {(0, 0): 1}}, {(0, 1): 1}, 1),
    # 2 * 2^4 against q, the left side factor n = 2 given with the matrix:
    # the norms alone, 2^4 + 1, give B - 1 = 5, where both pack to 2^5;
    # only |n| = 2 in the bound keeps them apart
    ((1, 0), ({0: {0: {(0, 0): 2 ** 4}}}, 2), {0: {(0, 0): 1}}, {(1, 0): 1}, 0),
])
def test_packing_tells_apart_what_a_narrower_packing_aliases(monkeypatch, narrower, matrix, vec, scalar, row):
    # n sum_col matrix[col][row] vec[col] against scalar vec[row], n = 1
    # unless the matrix comes as (matrix, n)
    matrix, n = matrix if isinstance(matrix, tuple) else (matrix, 1)
    sides = (matrix, vec, n), ({col: {col: scalar} for col in vec}, vec, 1)
    assert list(first_unequal_rows([sides])) == [row]
    lhs, rhs = _packed_sides(monkeypatch, sides, narrower)[row]
    assert lhs == rhs


def test_one_layout_takes_the_widest_pair():
    # 2^5 against q needs B = 6; behind a pair whose own bound, 15 + 15,
    # needs only B = 5, it is still told apart, and so is each pair behind it
    small = ({0: {0: {(0, 0): 15}}}, {0: {(0, 0): 1}}, 1), ({0: {0: {(0, 0): 15}}}, {0: {(0, 0): 1}}, 1)
    wide = ({0: {0: {(0, 0): 2 ** 5}}}, {0: {(0, 0): 1}}, 1), ({0: {0: {(1, 0): 1}}}, {0: {(0, 0): 1}}, 1)
    assert list(first_unequal_rows([small, wide, small])) == [None, 0, None]
    assert list(first_unequal_rows([wide, small])) == [0, None]


def _laurent(rng, terms, constant=False):
    out = {}
    for _ in range(terms):
        key = (0, 0) if constant else (rng.randint(-3, 3), rng.randint(-3, 3))
        out[key] = out.get(key, 0) + rng.choice((-1, 1)) * rng.randint(1, 2 ** rng.randint(1, 70))
    return {key: n for key, n in out.items() if n}


def _laurent_axpy(target, a, b, n=1):
    # target += n * a * b on Laurent dicts, zeros dropped
    for (x, y), m in a.items():
        for (u, v), k in b.items():
            key = (x + u, y + v)
            target[key] = target.get(key, 0) + n * m * k
            if not target[key]:
                del target[key]


def _side_by_dicts(matrix, vec, n):
    # {row: n sum_col matrix[col][row] vec[col]} on Laurent dicts
    out = {}
    for col, entries in matrix.items():
        for row, entry in entries.items():
            _laurent_axpy(out.setdefault(row, {}), entry, vec.get(col, {}), n)
    return out


def _first_unequal_row_by_dicts(left, right):
    lhs, rhs = _side_by_dicts(*left), _side_by_dicts(*right)
    return next((row for row in sorted(set(lhs) | set(rhs)) if lhs.get(row, {}) != rhs.get(row, {})), None)


def _scaled(matrix, n):
    return {col: {row: {key: n * c for key, c in entry.items()} for row, entry in entries.items()}
            for col, entries in matrix.items()}


def _product(a, b):
    # the matrix a b in the layout {col: {row: entry}}
    out = {}
    for col, entries in b.items():
        for k, entry in entries.items():
            for row, x in a.get(k, {}).items():
                _laurent_axpy(out.setdefault(col, {}).setdefault(row, {}), x, entry)
    return out


def _theorem_shaped(rng, n, draw):
    # (b M, v, a) against (a s on the diagonal, v, b), M = s on the diagonal
    # plus off-diagonal pairs x v_j at column i and -x v_i at column j of one
    # row, which cancel
    vec = {col: draw(rng.randint(0, 4)) for col in range(n) if rng.random() < 0.85}
    scalar = draw(rng.randint(0, 3))
    matrix = {col: {col: dict(scalar)} for col in range(n)}
    for _ in range(rng.randint(0, 3)):
        i, j, row = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        x = draw(2)
        _laurent_axpy(matrix[i].setdefault(row, {}), x, vec.get(j, {}))
        _laurent_axpy(matrix[j].setdefault(row, {}), x, vec.get(i, {}), -1)
    a, b = (rng.choice((1, 1, -1, 2, 3 ** 40)) for _ in range(2))
    return [_scaled(matrix, b), vec, a], [_scaled({col: {col: scalar} for col in vec}, a), vec, b]


def _commute_shaped(rng, n, draw):
    # (A, (A A)[mu], a) against (A A, A[mu], a), both column mu of A A A
    a = {col: {row: draw(rng.randint(0, 2)) for row in range(n) if rng.random() < 0.6} for col in range(n)}
    square, mu, factor = _product(a, a), rng.randrange(n), rng.choice((1, -1, 5))
    return [a, square.get(mu, {}), factor], [square, a[mu], factor]


def _to_ints(side):
    # a side on constant Laurent dicts as the same side on ints
    def value(poly):
        return poly.get((0, 0), 0)

    matrix, vec, n = side
    return ({col: {row: value(e) for row, e in entries.items()} for col, entries in matrix.items()},
            {col: value(x) for col, x in vec.items()}, n)


def test_packed_rows_match_dict_arithmetic():
    # theorem-shaped sides (one vec, side factors a and b) and commute-shaped
    # ones (two vecs, one factor), over Laurent dicts and over ints; half the
    # cases then get one matrix entry perturbed, or one side factor, which
    # moves every nonzero row of that side alone.  Exponents and coefficients
    # take both signs, coefficients reach 70 bits, and entries, vec rows and
    # the diagonal may be empty
    rng = random.Random(20261019)
    outcomes, cases = [], {False: [], True: []}
    for trial in range(600):
        constant = trial % 4 >= 2
        n = rng.randint(1, 4)
        left, right = (_theorem_shaped, _commute_shaped)[trial % 2](rng, n, lambda k: _laurent(rng, k, constant))
        if rng.random() < 0.5:
            if rng.random() < 0.3:
                right[2] += rng.choice((-1, 1))
            else:
                side = rng.choice((left, right))
                entry = side[0].setdefault(rng.randrange(n), {}).setdefault(rng.randrange(n), {})
                _laurent_axpy(entry, _laurent(rng, 1, constant), {(0, 0): 1})
        want = _first_unequal_row_by_dicts(left, right)
        pair = tuple(map(_to_ints, (left, right))) if constant else (left, right)
        got, = first_unequal_rows([pair])
        assert got == want, (left, right, constant)
        outcomes.append((trial % 4, got))
        cases[constant].append((pair, got))
    for kind in range(4):
        rows = [row for k, row in outcomes if k == kind]
        assert rows.count(None) > 30 and len(set(rows)) == 5, (kind, rows)
    # several pairs in one call, at one layout: both side factors of some
    # pairs scaled by up to 2^300, so the coefficient sizes of one call
    # differ by hundreds of bits; each pair gets its own result
    for pool in cases.values():
        rng.shuffle(pool)
        while pool:
            size = rng.randint(2, 8)
            group, pool = pool[:size], pool[size:]
            pairs = []
            for (left, right), _ in group:
                c = 2 ** rng.choice((0, 0, rng.randint(1, 300)))
                pairs.append(((left[0], left[1], c * left[2]), (right[0], right[1], c * right[2])))
            assert list(first_unequal_rows(pairs)) == [got for _, got in group], pairs


def test_numeric_field_hashes_once(monkeypatch):
    # equal points are equal and hash equal; the hash is taken when the
    # point is built, so a memo lookup hashes no Fraction
    from qtsym import macops, symfun

    a = NumericField(Fraction(7, 11), Fraction(13, 17))
    b = NumericField(Fraction(14, 22), "13/17")
    assert a == b and hash(a) == hash(b)
    assert a != NumericField(Fraction(7, 11), Fraction(17, 13))
    calls = []
    real = Fraction.__hash__

    def counted(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(Fraction, "__hash__", counted)
    assert hash(a) == hash(b)
    assert calls == []
    try:
        tables = macops._A_matrices(3, 3, a)[0]
        assert macops._A_matrices(3, 3, b)[0] is tables
        assert calls == []
    finally:
        symfun.clear_field_caches(a)


def test_reflected_subtraction_and_division():
    # n - r and n / r for a plain number n, as RatFun.from_int(n) - r and
    # RatFun.from_int(n) / r; division by zero is refused
    r = parse_ratfun("(1 - q*t)/(1 + t^2)")
    for n in (-3, 0, 1, 5):
        assert n - r == RatFun.from_int(n) - r
        assert n / r == RatFun.from_int(n) / r
    assert Fraction(1, 2) - r == RatFun.from_fraction(Fraction(1, 2)) - r
    assert 2 / R_Q == parse_ratfun("2/q")
    for n in (0, 5):
        with pytest.raises(DivisionByZero):
            n / R_ZERO
