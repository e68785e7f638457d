"""Exact arithmetic in Z[q,t] and its fraction field Q(q,t).

Polynomials are sparse dictionaries mapping exponent pairs (deg_q, deg_t)
to nonzero integer coefficients.  Rational functions are kept fully
reduced, with the denominator sign-normalised so that its leading
coefficient is positive; "leading" means first in the canonical term
order, ascending graded-lex with q before t, which is also the order the
formatter writes.  Everything is immutable; arithmetic always returns
fresh values.
"""

from __future__ import annotations

import math
from fractions import Fraction


class DivisionByZero(ZeroDivisionError):
    pass


class PoleAtSpecialization(ZeroDivisionError):
    pass


class InexactDivision(ArithmeticError):
    pass


class ParseError(ValueError):
    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


# ---------------------------------------------------------------------------
# dense univariate helpers over Z (tuples indexed by degree, trimmed)

def _trim(c):
    # drop trailing zeros (integers, or empty t-polynomials) into a tuple
    c = list(c)
    while c and not c[-1]:
        c.pop()
    return tuple(c)


def _u_sub(a, b):
    out = list(a) + [0] * (len(b) - len(a))
    for i, x in enumerate(b):
        out[i] -= x
    return _trim(out)


def _u_mul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def _u_smul(a, c):
    if c == 0:
        return ()
    return tuple(x * c for x in a)


def _u_content(a):
    g = 0
    for x in a:
        g = math.gcd(g, x)
        if g == 1:
            return 1
    return g


def _u_intdiv(a, c):
    return tuple(x // c for x in a)


def _u_prem(f, g):
    # pseudo-remainder: some l^k * f mod g, enough for a primitive PRS
    lead = g[-1]
    dg = len(g) - 1
    r = f
    while r and len(r) - 1 >= dg:
        k = len(r) - 1 - dg
        lr = r[-1]
        r = _u_sub(_u_smul(r, lead), tuple([0] * k + [x * lr for x in g]))
    return r


def _u_trial_div(f, g):
    # exact quotient in Z[t], or None when g does not divide f
    if not f:
        return ()
    if len(f) < len(g):
        return None
    rem = list(f)
    lead = g[-1]
    dg = len(g) - 1
    out = [0] * (len(f) - len(g) + 1)
    for k in range(len(f) - len(g), -1, -1):
        c = rem[k + dg]
        if c == 0:
            continue
        if c % lead:
            return None
        c //= lead
        out[k] = c
        for j, y in enumerate(g):
            rem[k + j] -= c * y
    if any(rem):
        return None
    return _trim(out)


def _exact(quotient):
    # a trial quotient that the caller needs to be exact
    if quotient is None:
        raise InexactDivision("the divisor does not divide the dividend")
    return quotient


def _u_eval_int(f, xi):
    total = 0
    for c in reversed(f):
        total = total * xi + c
    return total


def _digits_balanced(n, xi):
    # balanced base-xi expansion; digits lie in (-xi/2, xi/2]
    out = []
    half = xi // 2
    while n:
        d = ((n + half) % xi) - half
        out.append(d)
        n = (n - d) // xi
    return tuple(out)


def _u_gcd_prs(f, g):
    # primitive pseudo-remainder sequence; both inputs primitive
    if len(f) < len(g):
        f, g = g, f
    while g:
        r = _u_prem(f, g)
        if r:
            r = _u_intdiv(r, _u_content(r))
        f, g = g, r
    return f


def _heu_start_point(bound):
    return 2 * bound + 29


def _u_gcd(f, g):
    if not f:
        return _u_smul(g, -1) if g and g[-1] < 0 else g
    if not g:
        return _u_smul(f, -1) if f[-1] < 0 else f
    cf, cg = _u_content(f), _u_content(g)
    c = math.gcd(cf, cg)
    f = _u_intdiv(f, cf)
    g = _u_intdiv(g, cg)
    h = None
    # evaluate / reconstruct / verify, falling back to a remainder sequence
    xi = _heu_start_point(min(max(abs(x) for x in f), max(abs(x) for x in g)))
    for _ in range(6):
        fv, gv = _u_eval_int(f, xi), _u_eval_int(g, xi)
        if fv and gv:
            cand = _digits_balanced(math.gcd(fv, gv), xi)
            cand = _u_intdiv(cand, _u_content(cand))
            if _u_trial_div(f, cand) is not None and _u_trial_div(g, cand) is not None:
                h = cand
                break
        xi = xi * 7 // 2 + 17
    if h is None:
        h = _u_gcd_prs(f, g)
    if h[-1] < 0:
        h = _u_smul(h, -1)
    return _u_smul(h, c)


# ---------------------------------------------------------------------------
# polynomials in q over Z[t] (tuples of t-polynomials, trimmed)

def _b_content(f):
    g = ()
    for c in f:
        if c:
            g = _u_gcd(g, c)
            if g == (1,):
                return g
    return g


def _b_smul(f, c):
    if not c:
        return ()
    return tuple(_u_mul(a, c) for a in f)


def _b_divground(f, c):
    return tuple(_exact(_u_trial_div(a, c)) if a else () for a in f)


def _b_prem(f, g):
    lead = g[-1]
    dg = len(g) - 1
    r = f
    while r and len(r) - 1 >= dg:
        k = len(r) - 1 - dg
        lr = r[-1]
        shifted = tuple([()] * k + [_u_mul(a, lr) for a in g])
        scaled = tuple(_u_mul(a, lead) for a in r)
        out = [scaled[i] if i < len(scaled) else () for i in range(max(len(scaled), len(shifted)))]
        for i, a in enumerate(shifted):
            out[i] = _u_sub(out[i], a)
        r = _trim(out)
    return r


def _b_trial_div(f, g):
    # exact quotient in Z[t][q], or None when g does not divide f
    if not f:
        return ()
    if len(f) < len(g):
        return None
    rem = list(f)
    lead = g[-1]
    dg = len(g) - 1
    out = [()] * (len(f) - len(g) + 1)
    for k in range(len(f) - len(g), -1, -1):
        c = rem[k + dg]
        if not c:
            continue
        c = _u_trial_div(c, lead)
        if c is None:
            return None
        out[k] = c
        for j, a in enumerate(g):
            rem[k + j] = _u_sub(rem[k + j], _u_mul(c, a))
    if any(rem):
        return None
    return _trim(out)


def _b_max_coeff(f):
    return max(max(abs(x) for x in c) for c in f if c)


def _b_eval_t(f, xi):
    return _trim([_u_eval_int(c, xi) for c in f])


def _b_gcd_prs(f, g):
    if len(f) < len(g):
        f, g = g, f
    while g:
        r = _b_prem(f, g)
        if r:
            r = _b_divground(r, _b_content(r))
        f, g = g, r
    return f


def _b_gcd(f, g):
    cf, cg = _b_content(f), _b_content(g)
    c = _u_gcd(cf, cg)
    f = _b_divground(f, cf)
    g = _b_divground(g, cg)
    h = None
    xi = _heu_start_point(min(_b_max_coeff(f), _b_max_coeff(g)))
    for _ in range(6):
        fv, gv = _b_eval_t(f, xi), _b_eval_t(g, xi)
        if fv and gv:
            hv = _u_gcd(fv, gv)
            cand = _trim([_digits_balanced(x, xi) for x in hv])
            cc = _b_content(cand)
            if cc and cc != (1,):
                cand = _b_divground(cand, cc)
            if _b_trial_div(f, cand) is not None and _b_trial_div(g, cand) is not None:
                h = cand
                break
        xi = xi * 7 // 2 + 17
    if h is None:
        h = _b_gcd_prs(f, g)
    return _b_smul(h, c)


def _to_rec(terms):
    cols = {}
    for (dq, dt), c in terms.items():
        cols.setdefault(dq, {})[dt] = c
    if not cols:
        return ()
    out = []
    for dq in range(max(cols) + 1):
        col = cols.get(dq)
        if not col:
            out.append(())
        else:
            out.append(_trim([col.get(i, 0) for i in range(max(col) + 1)]))
    return _trim(out)


def _from_rec(rec):
    terms = {}
    for dq, col in enumerate(rec):
        for dt, c in enumerate(col):
            if c:
                terms[(dq, dt)] = c
    return terms


# ---------------------------------------------------------------------------

def _grlex_key(e):
    return (e[0] + e[1], e[0])


class IntPoly2:
    """Polynomial in q and t with integer coefficients."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms):
        # takes ownership of a clean dict (no zero coefficients)
        self.terms = terms
        self._hash = None

    @classmethod
    def from_terms(cls, items):
        terms = {}
        for e, c in dict(items).items():
            if c:
                terms[(int(e[0]), int(e[1]))] = c
        return cls(terms)

    @classmethod
    def const(cls, n):
        return cls({(0, 0): n} if n else {})

    @classmethod
    def monomial(cls, dq, dt, c=1):
        return cls({(dq, dt): c} if c else {})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, IntPoly2):
            return self.terms == other.terms
        if isinstance(other, int):
            return self.terms == ({(0, 0): other} if other else {})
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def __neg__(self):
        return IntPoly2({e: -c for e, c in self.terms.items()})

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                del out[e]
        return IntPoly2(out)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return P_ZERO
            return IntPoly2({e: c * other for e, c in self.terms.items()})
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out = {}
        for (ea, eb), ca in a.items():
            for (fa, fb), cb in b.items():
                e = (ea + fa, eb + fb)
                s = out.get(e, 0) + ca * cb
                if s:
                    out[e] = s
                else:
                    del out[e]
        return IntPoly2(out)

    def is_const(self):
        return not self.terms or (len(self.terms) == 1 and (0, 0) in self.terms)

    def const_value(self):
        return self.terms.get((0, 0), 0)

    def leading(self):
        # leading (exponent, coefficient): the first term in the canonical
        # ascending graded-lex order with q before t
        e = min(self.terms, key=_grlex_key)
        return e, self.terms[e]

    def min_exponents(self):
        dq = min(e[0] for e in self.terms)
        dt = min(e[1] for e in self.terms)
        return dq, dt

    def shift_down(self, dq, dt):
        if dq == 0 and dt == 0:
            return self
        return IntPoly2({(a - dq, b - dt): c for (a, b), c in self.terms.items()})

    def int_content(self):
        g = 0
        for c in self.terms.values():
            g = math.gcd(g, c)
            if g == 1:
                return 1
        return g

    def divexact_int(self, n):
        if n == 1:
            return self
        return IntPoly2({e: c // n for e, c in self.terms.items()})

    def max_deg_q(self):
        return max((e[0] for e in self.terms), default=0)

    def max_deg_t(self):
        return max((e[1] for e in self.terms), default=0)

    def evaluate(self, qv, tv):
        # exact evaluation at Fractions
        total = Fraction(0)
        for (dq, dt), c in self.terms.items():
            total += c * qv ** dq * tv ** dt
        return total

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return "IntPoly2(%s)" % format_poly(self)


P_ZERO = IntPoly2({})
P_ONE = IntPoly2({(0, 0): 1})
P_Q = IntPoly2({(1, 0): 1})
P_T = IntPoly2({(0, 1): 1})
_UNIT_TERMS = {(0, 0): 1}


_GCD_MEMO = {}
_GCD_MEMO_LIMIT = 200000


def poly_gcd(a, b):
    """gcd in Z[q,t], sign-normalised to a positive leading coefficient."""
    if not a:
        g = b
        return -g if g and g.leading()[1] < 0 else g
    if not b:
        return -a if a.leading()[1] < 0 else a
    if a.terms == b.terms:
        return -a if a.leading()[1] < 0 else a
    # split off the common monomial part first
    aq, at = a.min_exponents()
    bq, bt = b.min_exponents()
    mq, mt = min(aq, bq), min(at, bt)
    a2 = a.shift_down(aq, at)
    b2 = b.shift_down(bq, bt)
    if len(a2.terms) == 1 or len(b2.terms) == 1:
        g = math.gcd(a2.int_content(), b2.int_content())
        return IntPoly2.monomial(mq, mt, g)
    key = (a2, b2)
    core = _GCD_MEMO.get(key)
    if core is None:
        ca, cb = a2.int_content(), b2.int_content()
        core = _gcd_core(a2.divexact_int(ca), b2.divexact_int(cb)) * math.gcd(ca, cb)
        if len(_GCD_MEMO) >= _GCD_MEMO_LIMIT:
            _GCD_MEMO.clear()
        _GCD_MEMO[key] = core
    g = core
    if mq or mt:
        g = g * IntPoly2.monomial(mq, mt)
    if g.leading()[1] < 0:
        g = -g
    return g


def _gcd_core(a, b):
    if a.max_deg_q() == 0 and b.max_deg_q() == 0:
        f = _trim([a.terms.get((0, i), 0) for i in range(a.max_deg_t() + 1)])
        g = _trim([b.terms.get((0, i), 0) for i in range(b.max_deg_t() + 1)])
        h = _u_gcd(f, g)
        return IntPoly2({(0, i): c for i, c in enumerate(h) if c})
    if a.max_deg_t() == 0 and b.max_deg_t() == 0:
        f = _trim([a.terms.get((i, 0), 0) for i in range(a.max_deg_q() + 1)])
        g = _trim([b.terms.get((i, 0), 0) for i in range(b.max_deg_q() + 1)])
        h = _u_gcd(f, g)
        return IntPoly2({(i, 0): c for i, c in enumerate(h) if c})
    h = _b_gcd(_to_rec(a.terms), _to_rec(b.terms))
    return IntPoly2(_from_rec(h))


def poly_divexact(a, b):
    """Exact quotient a/b in Z[q,t]; raises InexactDivision unless b divides a."""
    if not a:
        return P_ZERO
    if len(b.terms) == 1:
        (dq, dt), c = next(iter(b.terms.items()))
        out = {}
        for (ea, eb), ca in a.terms.items():
            if ca % c or ea < dq or eb < dt:
                raise InexactDivision("the monomial divisor does not divide the dividend")
            out[(ea - dq, eb - dt)] = ca // c
        return IntPoly2(out)
    return IntPoly2(_from_rec(_exact(_b_trial_div(_to_rec(a.terms), _to_rec(b.terms)))))


def first_unequal_rows(pairs):
    """For each pair (left, right) of sides, in order, the first row in
    sorted order where the two sides differ, or None, yielded lazily.  A
    side (matrix, vec, n) stands for n sum_col matrix[col][row] vec[col].

    At a sample point the entries and the values of vec are ints, summed as
    they are.  Over Q(q,t) they are Laurent dicts {(a, b): n} of
    sum n x^a y^b, or of sum n q^a t^-b as the operator tables hold them:
    t -> 1/t only renames the second variable.  Each side of a row is then
    one int under the Kronecker ring map x^a y^b -> 2^(B (a - a0 + W (b - b0)))
    (Harvey, arXiv:0712.4046), each distinct entry and vec value of all the
    pairs packed once, at one layout (`_packing`).

    Everything is packed with the least exponents (a0, b0) of all it packs,
    so a product of two lands at 2 (a0, b0), and its x-span is at most
    W - 1 = 2 (a1 - a0), a1 the greatest x-exponent: no two of its monomials
    share a slot.  2^B exceeds, at every row of every pair, the sum over
    both sides of |n| |entry| |vec[col]| (norms as sums of |coefficient|),
    which bounds each coefficient of the row's difference.  So each slot s
    of the packed difference holds one coefficient c_s, |c_s| < 2^B.  If
    some c_s is not 0, take the least such s: the packed difference over
    2^(B s) is c_s plus a multiple of 2^B, which is not 0.  The packed
    difference is therefore 0 only if the row's difference is.

    pairs is a list held for the whole call: the packing is keyed by id,
    which names one object only while every packed object is alive."""
    packed = None
    if not isinstance(next((x for pair in pairs for _, vec, _ in pair for x in vec.values()), 0), int):
        packed = _packing(pairs)
    for pair in pairs:
        (m, lhs), (n, rhs) = ((n, _row_sums(matrix, vec, packed)) for matrix, vec, n in pair)
        yield next((row for row in sorted(lhs.keys() | rhs.keys()) if m * lhs.get(row, 0) != n * rhs.get(row, 0)), None)


def _row_sums(matrix, vec, packed=None):
    # {row: sum_col matrix[col][row] vec[col]}, each entry and vec value read from packed by its id when given
    if packed is not None:
        vec = {col: packed[id(x)] for col, x in vec.items()}
    out = {}
    for col, x in vec.items():
        for row, e in matrix.get(col, {}).items():
            out[row] = out.get(row, 0) + (e if packed is None else packed[id(e)]) * x
    return out


def _packing(pairs):
    # {id(x): packed x} over every entry and vec value of the pairs: one
    # offset (a0, b0), W = 2 (a1 - a0) + 1, and 2^B above each row's sum
    # over both sides of |n| |entry| |vec[col]|, over every pair
    polys, norms, width = {}, {}, 0

    def norm(x):
        key = id(x)
        if key not in norms:
            polys[key], norms[key] = x, _norm(x)
        return norms[key]

    for pair in pairs:
        bound = {}
        for matrix, vec, n in pair:
            for col, x in vec.items():
                scale = abs(n) * norm(x)
                for row, e in matrix.get(col, {}).items():
                    bound[row] = bound.get(row, 0) + scale * norm(e)
        width = max(width, max(bound.values(), default=0).bit_length())
    a0, a1, b0 = _box(polys.values())
    return {key: _pack(x, width, 2 * (a1 - a0) + 1, (a0, b0)) for key, x in polys.items()}


def _box(polys):
    # (least a, greatest a, least b) over the keys (a, b)
    a, b = zip(*[key for poly in polys for key in poly] or [(0, 0)])
    return min(a), max(a), min(b)


def _norm(poly):
    return sum(map(abs, poly.values()))


def _pack(poly, width, span, offset):
    # sum n 2^(B (a - a0 + W (b - b0))) over the items ((a, b), n) of poly
    step, base = width * span, width * (offset[0] + span * offset[1])
    return sum(n << width * a + step * b - base for (a, b), n in poly.items())


class RatFun:
    """Reduced fraction of two IntPoly2 values: an element of Q(q,t)."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num, den, _reduced=False):
        if isinstance(num, int):
            num = IntPoly2.const(num)
        if isinstance(den, int):
            den = IntPoly2.const(den)
        if not _reduced:
            if not den:
                raise DivisionByZero("zero denominator")
            if not num:
                den = P_ONE
            else:
                g = poly_gcd(num, den)
                if not (len(g.terms) == 1 and (0, 0) in g.terms and g.terms[(0, 0)] == 1):
                    num = poly_divexact(num, g)
                    den = poly_divexact(den, g)
                if den.leading()[1] < 0:
                    num, den = -num, -den
        self.num = num
        self.den = den
        self._hash = None

    @classmethod
    def from_int(cls, n):
        return cls(IntPoly2.const(n), P_ONE, _reduced=True)

    @classmethod
    def from_fraction(cls, f):
        f = Fraction(f)
        return cls(IntPoly2.const(f.numerator), IntPoly2.const(f.denominator), _reduced=True)

    @classmethod
    def from_poly(cls, p):
        return cls(p, P_ONE, _reduced=True)

    def __bool__(self):
        return bool(self.num)

    def is_one(self):
        return self.num.terms == {(0, 0): 1} and self.den.terms == {(0, 0): 1}

    def __eq__(self, other):
        if isinstance(other, RatFun):
            return self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction)):
            return self == _coerce(other)
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    def __neg__(self):
        return RatFun(-self.num, self.den, _reduced=True)

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, d = self.num, self.den, other.num, other.den
        if not a:
            return other
        if not c:
            return self
        if b.terms == _UNIT_TERMS and d.terms == _UNIT_TERMS:
            num = a + c
            return RatFun(num, P_ONE, _reduced=True) if num else R_ZERO
        if b == d:
            num = a + c
            if not num:
                return R_ZERO
            g = poly_gcd(num, b)
            if g.is_const() and g.const_value() == 1:
                return RatFun(num, b, _reduced=True)
            return RatFun(poly_divexact(num, g), poly_divexact(b, g), _reduced=True)
        g = poly_gcd(b, d)
        if g.is_const() and g.const_value() == 1:
            num = a * d + c * b
            if not num:
                return R_ZERO
            return RatFun(num, b * d, _reduced=True)
        b1 = poly_divexact(b, g)
        d1 = poly_divexact(d, g)
        num = a * d1 + c * b1
        if not num:
            return R_ZERO
        h = poly_gcd(num, g)
        if not (h.is_const() and h.const_value() == 1):
            num = poly_divexact(num, h)
            g = poly_divexact(g, h)
        return RatFun(num, b1 * d1 * g, _reduced=True)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, d = self.num, self.den, other.num, other.den
        if not a or not c:
            return R_ZERO
        if d.terms != _UNIT_TERMS and a.terms != _UNIT_TERMS:
            g1 = poly_gcd(a, d)
            if not (g1.is_const() and g1.const_value() == 1):
                a = poly_divexact(a, g1)
                d = poly_divexact(d, g1)
        if b.terms != _UNIT_TERMS and c.terms != _UNIT_TERMS:
            g2 = poly_gcd(c, b)
            if not (g2.is_const() and g2.const_value() == 1):
                c = poly_divexact(c, g2)
                b = poly_divexact(b, g2)
        if b.terms == _UNIT_TERMS and d.terms == _UNIT_TERMS:
            return RatFun(a * c, P_ONE, _reduced=True)
        return RatFun(a * c, b * d, _reduced=True)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.num:
            raise DivisionByZero("division by zero in Q(q,t)")
        inv = RatFun(other.den, other.num, _reduced=True)
        if inv.den.leading()[1] < 0:
            inv = RatFun(-inv.num, -inv.den, _reduced=True)
        return self * inv

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n):
        if n == 0:
            return R_ONE
        base = self
        if n < 0:
            if not self.num:
                raise DivisionByZero("inverse of zero")
            base = R_ONE / self
            n = -n
        out = R_ONE
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def specialize(self, q=None, t=None):
        """Exact substitution; unbound variables stay symbolic."""
        qv = _as_ratfun_binding(q, R_Q)
        tv = _as_ratfun_binding(t, R_T)
        num = _poly_apply(self.num, qv, tv)
        den = _poly_apply(self.den, qv, tv)
        if not den.num:
            raise PoleAtSpecialization("denominator vanishes under the given bindings")
        return num / den

    def evaluate(self, qv, tv):
        """Value at an exact rational point, as a Fraction."""
        d = self.den.evaluate(qv, tv)
        if d == 0:
            raise PoleAtSpecialization("denominator vanishes at the given point")
        return self.num.evaluate(qv, tv) / d

    def __str__(self):
        return format_ratfun(self)

    def __repr__(self):
        return "RatFun(%s)" % format_ratfun(self)


def _coerce(x):
    if isinstance(x, RatFun):
        return x
    if isinstance(x, int):
        return RatFun.from_int(x)
    if isinstance(x, Fraction):
        return RatFun.from_fraction(x)
    return NotImplemented


def _as_ratfun_binding(v, default):
    if v is None:
        return default
    if isinstance(v, IntPoly2):
        return RatFun.from_poly(v)
    if isinstance(v, RatFun):
        return v
    return _coerce(v)


def _poly_apply(p, qv, tv):
    total = R_ZERO
    for (dq, dt), c in p.terms.items():
        total = total + RatFun.from_int(c) * qv ** dq * tv ** dt
    return total


R_ZERO = RatFun.from_int(0)
R_ONE = RatFun.from_int(1)
R_Q = RatFun.from_poly(P_Q)
R_T = RatFun.from_poly(P_T)


# ---------------------------------------------------------------------------
# text codec

def format_poly(p):
    if not p.terms:
        return "0"
    parts = []
    for e in sorted(p.terms, key=_grlex_key):
        c = p.terms[e]
        mono = []
        if e[0]:
            mono.append("q" if e[0] == 1 else "q^%d" % e[0])
        if e[1]:
            mono.append("t" if e[1] == 1 else "t^%d" % e[1])
        m = "*".join(mono)
        if not m:
            s = str(c)
        elif c == 1:
            s = m
        elif c == -1:
            s = "-" + m
        else:
            s = "%d*%s" % (c, m)
        parts.append(s)
    out = parts[0]
    for s in parts[1:]:
        out += "-" + s[1:] if s.startswith("-") else "+" + s
    return out


def _is_atom(s):
    if s.isdigit():
        return True
    if s in ("q", "t"):
        return True
    if len(s) > 2 and s[0] in "qt" and s[1] == "^" and s[2:].isdigit():
        return True
    return False


def format_ratfun(r):
    num = format_poly(r.num)
    if len(r.num.terms) > 1:
        num = "(%s)" % num
    if r.den.terms == {(0, 0): 1}:
        return num
    den = format_poly(r.den)
    if not _is_atom(den):
        den = "(%s)" % den
    return "%s/%s" % (num, den)


class _Parser:
    """Recursive descent over integers, q, t, + - * / ^ and parentheses.

    Values are RatFun.  A subclass extends the grammar with extra atoms
    (`_lex` and `_extra_atom`) and mixes its own values with scalars by
    overriding `_add`, `_sub`, `_mul`, `_div` and `_pow`.
    """

    def __init__(self, text):
        self.text = text
        self.toks = []
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            extra = self._lex(text, i)
            if extra is not None:
                tok, i = extra
                self.toks.append(tok)
            elif ch.isdigit():
                j = i
                while j < len(text) and text[j].isdigit():
                    j += 1
                self.toks.append(("int", text[i:j], i))
                i = j
            elif ch in "qt+-*/^()":
                self.toks.append((ch, ch, i))
                i += 1
            else:
                raise ParseError("unexpected character %r" % ch, i)
        self.pos = 0

    def _lex(self, text, i):
        # an extra token (kind, value, position) and the index after it, or None
        return None

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else (None, None, len(self.text))

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def parse(self):
        value = self._sum()
        kind, _, pos = self.peek()
        if kind is not None:
            raise ParseError("trailing input", pos)
        return value

    def _sum(self):
        value = self._product()
        while True:
            kind = self.peek()[0]
            if kind == "+":
                self.next()
                value = self._add(value, self._product())
            elif kind == "-":
                self.next()
                value = self._sub(value, self._product())
            else:
                return value

    def _product(self):
        value = self._factor()
        while True:
            kind = self.peek()[0]
            if kind == "*":
                self.next()
                value = self._mul(value, self._factor())
            elif kind == "/":
                _, _, pos = self.next()
                value = self._div(value, self._factor(), pos)
            else:
                return value

    def _factor(self):
        kind = self.peek()[0]
        if kind == "-":
            self.next()
            return -self._factor()
        if kind == "+":
            self.next()
            return self._factor()
        return self._power()

    def _power(self):
        base = self._atom()
        while self.peek()[0] == "^":
            self.next()
            kind, text, pos = self.next()
            neg = kind == "-"
            if neg:
                kind, text, pos = self.next()
            if kind != "int":
                raise ParseError("exponent must be an integer", pos)
            base = self._pow(base, int(text), neg, pos)
        return base

    def _atom(self):
        kind, text, pos = self.next()
        if kind == "int":
            return RatFun.from_int(int(text))
        if kind == "q":
            return R_Q
        if kind == "t":
            return R_T
        if kind == "(":
            value = self._sum()
            kind, _, pos = self.next()
            if kind != ")":
                raise ParseError("expected ')'", pos)
            return value
        return self._extra_atom(kind, text, pos)

    def _extra_atom(self, kind, value, pos):
        raise ParseError("expected a value", pos)

    def _add(self, a, b):
        return a + b

    def _sub(self, a, b):
        return a - b

    def _mul(self, a, b):
        return a * b

    def _div(self, a, b, pos):
        if not b:
            raise DivisionByZero("division by zero at position %d" % pos)
        return a / b

    def _pow(self, base, e, neg, pos):
        return base ** (-e if neg else e)


def parse_ratfun(text):
    """Parse the +-*/^ grammar over integers and the symbols q, t."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# scalar fields: symbolic Q(q,t) or an exact rational sample point

class SymbolicField:
    """Scalars are RatFun values over the formal parameters q and t."""

    is_symbolic = True

    zero = R_ZERO
    one = R_ONE
    q = R_Q
    t = R_T

    @staticmethod
    def from_int(n):
        return RatFun.from_int(n)

    @staticmethod
    def from_fraction(f):
        return RatFun.from_fraction(f)

    def __repr__(self):
        return "SymbolicField()"


SYMBOLIC = SymbolicField()


class NumericField:
    """Scalars are Fractions with q, t bound to fixed rational values.

    Sample points built by `random_point` are ratios of four distinct
    primes, so q^a t^b = 1 only at a = b = 0 and no denominator of the form
    1 - q^a t^b can vanish.

    Every memo key ends with its field, so a point is hashed on each lookup;
    q and t are never reassigned, and the hash is taken once, here.
    """

    is_symbolic = False

    zero = Fraction(0)
    one = Fraction(1)

    def __init__(self, q, t):
        self.q = Fraction(q)
        self.t = Fraction(t)
        self._hash = hash((NumericField, self.q, self.t))

    @staticmethod
    def from_int(n):
        return Fraction(n)

    @staticmethod
    def from_fraction(f):
        return Fraction(f)

    def __eq__(self, other):
        return isinstance(other, NumericField) and (self.q, self.t) == (other.q, other.t)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "NumericField(q=%s, t=%s)" % (self.q, self.t)


_POINT_PRIMES = (7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


def random_point(rng):
    """Draw a NumericField at a multiplicatively independent rational point."""
    pa, pb, pc, pd = rng.sample(_POINT_PRIMES, 4)
    return NumericField(Fraction(pa, pb), Fraction(pc, pd))
