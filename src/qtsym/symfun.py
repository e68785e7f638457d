"""The graded ring of symmetric functions over Q(q,t), truncated by degree.

Elements are sparse basis-tagged expansions (partition -> coefficient).
Supported bases: monomial 'm', power sum 'p', Schur 's', Hall-Littlewood
'P' and 'Q', Macdonald 'M'.  Every basis change goes through monomial
expansions.  Those of p_lam and s_nu are integer tables (R_(lam,mu) by
adding parts, Kostka numbers by horizontal strips, built in `partitions`)
lifted to the scalar field once per degree; the family constructors give
the others, and a change between two bases other than 'm' is one
triangular solve.
"""

from __future__ import annotations

from .partitions import (
    Partition,
    enumerate_partitions,
    grevlex_key,
    kostka_rows,
    power_sum_step,
    push_parts,
    stats,
    union,
)
from . import ratfun
from .ratfun import SYMBOLIC

BASES = ("m", "p", "s", "P", "Q", "M")


class BasisMismatch(ValueError):
    pass


class SingularTransition(ArithmeticError):
    pass


class NotSymmetric(ValueError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotAlternating(ValueError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotDivisible(ArithmeticError):
    pass


_CACHE = {}


def _memo(key, builder):
    try:
        return _CACHE[key]
    except KeyError:
        pass
    # idempotent first fill: concurrent builders compute identical values
    return _CACHE.setdefault(key, builder())


def clear_caches():
    """Drop every memo: the basis tables and the gcd memo of `ratfun`."""
    _CACHE.clear()
    ratfun._GCD_MEMO.clear()


def clear_field_caches(field):
    """Drop the memo entries of one scalar field; every key ends with its field."""
    for key in [k for k in _CACHE if k[-1] == field]:
        del _CACHE[key]


def axpy(target, source, c):
    """target += c * source on coefficient dicts; the caller drops zeros."""
    for k, v in source.items():
        target[k] = target[k] + c * v if k in target else c * v


def _first_difference(a, b):
    """The first key, in sorted order, whose coefficients differ in the
    dicts a and b; None when they are equal."""
    for key in sorted(set(a) | set(b)):
        if a.get(key) != b.get(key):
            return key
    return None


class _Sparse:
    """Arithmetic shared by the sparse containers.

    `coeffs` maps keys to nonzero scalars: the constructors drop zeros, so
    the arithmetic here only accumulates.  A subclass supplies `_new`, the
    same kind of container over other coefficients (a sum keeps the larger
    degree bound), and `_space`, what equal containers share besides their
    coefficients.
    """

    __slots__ = ()

    def _space(self):
        return None

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._space() == other._space() and self.coeffs == other.coeffs

    def __add__(self, other):
        out = dict(self.coeffs)
        zero = self.field.zero
        for k, c in other.coeffs.items():
            out[k] = out.get(k, zero) + c
        return self._new(out, other)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._new({k: -c for k, c in self.coeffs.items()})

    def scale(self, c):
        if not c:
            return self._new({})
        return self._new({k: v * c for k, v in self.coeffs.items()})


class SymFun(_Sparse):
    """Basis-tagged sparse expansion of a symmetric function."""

    __slots__ = ("basis", "coeffs", "degree_bound", "field")

    def __init__(self, basis, coeffs, degree_bound, field=SYMBOLIC):
        if basis not in BASES:
            raise BasisMismatch("unknown basis tag %r" % (basis,))
        clean = {}
        for k, c in coeffs.items():
            if c:
                k = k if isinstance(k, Partition) else Partition(k)
                if sum(k) > degree_bound:
                    raise ValueError("key %r exceeds degree bound %d" % (tuple(k), degree_bound))
                clean[k] = c
        self.basis = basis
        self.coeffs = clean
        self.degree_bound = degree_bound
        self.field = field

    def _new(self, coeffs, other=None):
        bound = self.degree_bound
        if other is not None:
            self._check_compatible(other)
            bound = max(bound, other.degree_bound)
        return SymFun(self.basis, coeffs, bound, self.field)

    def _space(self):
        return self.basis

    @classmethod
    def zero(cls, basis, degree_bound, field=SYMBOLIC):
        return cls(basis, {}, degree_bound, field)

    @classmethod
    def generator(cls, basis, parts, degree_bound=None, field=SYMBOLIC):
        lam = Partition(parts)
        bound = sum(lam) if degree_bound is None else degree_bound
        return cls(basis, {lam: field.one}, bound, field)

    def max_degree(self):
        return max((sum(k) for k in self.coeffs), default=0)

    def terms(self):
        for k in sorted(self.coeffs, key=grevlex_key):
            yield k, self.coeffs[k]

    def __hash__(self):
        return hash((self.basis, frozenset(self.coeffs.items())))

    def truncate(self, degree_bound):
        out = {k: c for k, c in self.coeffs.items() if sum(k) <= degree_bound}
        return SymFun(self.basis, out, degree_bound, self.field)

    def _check_compatible(self, other):
        if self.basis != other.basis:
            raise BasisMismatch("cannot mix bases %r and %r" % (self.basis, other.basis))
        if self.field is not other.field and self.field != other.field:
            raise ValueError("mixed scalar fields")

    def __repr__(self):
        items = ", ".join("%s: %s" % (tuple(k), c) for k, c in self.terms())
        return "SymFun(%s; {%s})" % (self.basis, items)


def p_multiply(f, g, degree_bound=None):
    """Product in the free commutative algebra on p1, p2, ..., truncated."""
    if f.basis != "p" or g.basis != "p":
        raise BasisMismatch("p_multiply needs both factors in the p basis")
    bound = degree_bound if degree_bound is not None else f.degree_bound + g.degree_bound
    zero = f.field.zero
    out = {}
    for ka, ca in f.coeffs.items():
        wa = sum(ka)
        for kb, cb in g.coeffs.items():
            if wa + sum(kb) > bound:
                continue
            k = union(ka, kb)
            out[k] = out.get(k, zero) + ca * cb
    return SymFun("p", out, bound, f.field)


def multiply(f, g, degree_bound=None):
    """Product of two symmetric functions; computed in the p basis."""
    bound = degree_bound if degree_bound is not None else f.degree_bound + g.degree_bound
    prod = p_multiply(convert(f, "p"), convert(g, "p"), bound)
    return convert(prod, f.basis)


# ---------------------------------------------------------------------------
# transition matrices

def _express_in_basis(vec, expansions, order):
    """Solve vec = sum_i out[i] * expansions[i] by triangular elimination."""
    work = dict(vec)
    out = {}
    for lam in order:
        c = work.get(lam)
        if c is None or not c:
            continue
        exp = expansions[lam]
        coeff = c / exp[lam]
        out[lam] = coeff
        axpy(work, exp, -coeff)
    if any(work.values()):
        raise SingularTransition("triangular solve left a nonzero residue")
    return out


def _in_m(tag, degree, field):
    """{lam: monomial expansion of the `tag` basis element lam} over one degree."""
    if tag == "p":
        return {lam: {mu: field.from_int(r) for mu, r in push_parts(lam, power_sum_step).items()}
                for lam in enumerate_partitions(degree)}
    if tag == "s":
        return {lam: {mu: field.from_int(k) for mu, k in row.items()} for lam, row in kostka_rows(degree).items()}
    from . import families

    if tag in ("P", "Q"):
        return families._hl_degree(degree, field)[tag, "m"]
    return {lam: families.macdonald_in_m(lam, field) for lam in enumerate_partitions(degree)}


def transition_matrix(frm, to, degree, field=SYMBOLIC):
    """Columns express the `frm` basis elements in the `to` basis.

    The tables into 'm' are the memo of every basis expansion; their rows
    are shared with the family memos, so callers only read them."""
    if frm not in BASES or to not in BASES:
        raise BasisMismatch("unknown basis tag")

    def build():
        lams = enumerate_partitions(degree)
        if frm == to:
            return {lam: {lam: field.one} for lam in lams}
        if to == "m":
            return _in_m(frm, degree, field)
        vectors = transition_matrix(frm, "m", degree, field)
        expansions = transition_matrix(to, "m", degree, field)
        # p_lam has monomial support above lam in dominance, so its solve
        # starts at the minimal partition; the family bases have support
        # below and start at the maximal one
        order = sorted(lams, key=grevlex_key)
        if to == "p":
            order.reverse()
        return {lam: _express_in_basis(vectors[lam], expansions, order) for lam in lams}

    return _memo(("transition", frm, to, degree, field), build)


def convert(f, to):
    """Re-express a symmetric function in another basis."""
    if to == f.basis:
        return f
    field = f.field
    out = {}
    by_degree = {}
    for lam, c in f.coeffs.items():
        by_degree.setdefault(sum(lam), {})[lam] = c
    for degree, coeffs in by_degree.items():
        matrix = transition_matrix(f.basis, to, degree, field)
        for lam, c in coeffs.items():
            axpy(out, matrix[lam], c)
    return SymFun(to, out, f.degree_bound, field)


# ---------------------------------------------------------------------------
# the (q,t) inner product and adjoints

def _ip_factor(lam, field):
    def build():
        value = field.from_int(stats(lam).z)
        for part in lam:
            value = value * (field.one - field.q ** part) / (field.one - field.t ** part)
        return value

    return _memo(("ip", lam, field), build)


def inner_product(f, g):
    """<p_lam, p_mu> = delta z_lam prod (1-q^li)/(1-t^li), extended bilinearly."""
    return _p_pairing(convert(f, "p").coeffs, convert(g, "p").coeffs, f.field)


def _p_pairing(a, b, field):
    # the inner product of two p-basis coefficient dicts
    total = field.zero
    small, large = (a, b) if len(a) <= len(b) else (b, a)
    for lam, c in small.items():
        d = large.get(lam)
        if d:
            total = total + c * d * _ip_factor(lam, field)
    return total


def _dpn(coeffs, n, field):
    # derivative with respect to p_n on a p-basis coefficient dict; distinct
    # keys lose one part n each and stay distinct
    out = {}
    for mu, c in coeffs.items():
        k = mu.count(n)
        if not k:
            continue
        removed = list(mu)
        removed.remove(n)
        out[Partition(removed)] = c * field.from_int(k)
    return out


def adjoint_apply(f, g):
    """Apply f*, the adjoint of multiplication by f, to g."""
    field = g.field
    fp = convert(f, "p")
    gp = convert(g, "p")
    result = {}
    for lam, a in fp.coeffs.items():
        work = gp.coeffs
        for n in lam:
            work = _dpn(work, n, field)
            if not work:
                break
        else:
            # prod_n n (1-q^n)/(1-t^n) = z_lam prod (1-q^n)/(1-t^n) / prod m_n!
            axpy(result, work, a * _ip_factor(lam, field) / field.from_int(stats(lam).c))
    return SymFun("p", result, g.degree_bound, field)


def dp1(g):
    """Plain partial derivative with respect to p1."""
    gp = convert(g, "p")
    return SymFun("p", _dpn(gp.coeffs, 1, g.field), g.degree_bound, g.field)


# ---------------------------------------------------------------------------
# finite alphabets

class NSymPoly(_Sparse):
    """Symmetric polynomial in N variables, in the monomial basis."""

    __slots__ = ("N", "coeffs", "field")

    def __init__(self, N, coeffs, field=SYMBOLIC):
        clean = {}
        for k, c in coeffs.items():
            if c:
                k = k if isinstance(k, Partition) else Partition(k)
                if len(k) > N:
                    raise ValueError("key %r longer than N=%d" % (tuple(k), N))
                clean[k] = c
        self.N = N
        self.coeffs = clean
        self.field = field

    def _new(self, coeffs, other=None):
        return NSymPoly(self.N, coeffs, self.field)

    def _space(self):
        return self.N

    def set_last_zero(self):
        out = {k: c for k, c in self.coeffs.items() if len(k) < self.N}
        return NSymPoly(self.N - 1, out, self.field)

    def as_symfun(self, degree_bound=None):
        bound = degree_bound
        if bound is None:
            bound = max((sum(k) for k in self.coeffs), default=0)
        return SymFun("m", dict(self.coeffs), bound, self.field)

    def __repr__(self):
        items = ", ".join(
            "%s: %s" % (tuple(k), self.coeffs[k]) for k in sorted(self.coeffs, key=grevlex_key)
        )
        return "NSymPoly(N=%d; {%s})" % (self.N, items)


def restrict(f, N):
    """Image under x_{N+1} = x_{N+2} = ... = 0."""
    fm = convert(f, "m")
    out = {k: c for k, c in fm.coeffs.items() if len(k) <= N}
    return NSymPoly(N, out, f.field)


class XPoly(_Sparse):
    """Plain multivariate polynomial in x_1..x_N, not necessarily symmetric."""

    __slots__ = ("N", "coeffs", "field")

    def __init__(self, N, coeffs, field=SYMBOLIC):
        self.N = N
        self.coeffs = {e: c for e, c in coeffs.items() if c}
        self.field = field

    def _new(self, coeffs, other=None):
        return XPoly(self.N, coeffs, self.field)

    def _space(self):
        return self.N

    @classmethod
    def zero(cls, N, field=SYMBOLIC):
        return cls(N, {}, field)

    def __mul__(self, other):
        out = {}
        zero = self.field.zero
        a, b = self.coeffs, other.coeffs
        if len(a) > len(b):
            a, b = b, a
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                out[e] = out.get(e, zero) + ca * cb
        return XPoly(self.N, out, self.field)

    def total_degree_cap(self, cap):
        return XPoly(self.N, {e: c for e, c in self.coeffs.items() if sum(e) <= cap}, self.field)

    def __repr__(self):
        return "XPoly(N=%d, %d terms)" % (self.N, len(self.coeffs))


def xpoly_one(N, field=SYMBOLIC):
    return XPoly(N, {(0,) * N: field.one}, field)


def _slot(N, i, n=1):
    # the exponent vector of x_i^n among N variables
    e = [0] * N
    e[i] = n
    return tuple(e)


def _pair_product(N, c, field, skip=None):
    """The expanded product of (x_i + c x_j) over i < j < N, both not skip."""
    out = xpoly_one(N, field)
    idx = [i for i in range(N) if i != skip]
    for a, i in enumerate(idx):
        for j in idx[a + 1:]:
            out = out * XPoly(N, {_slot(N, i): field.one, _slot(N, j): c}, field)
    return out


def _distinct_permutations(items):
    items = sorted(items)
    n = len(items)
    while True:
        yield tuple(items)
        i = n - 2
        while i >= 0 and items[i] >= items[i + 1]:
            i -= 1
        if i < 0:
            return
        j = n - 1
        while items[j] <= items[i]:
            j -= 1
        items[i], items[j] = items[j], items[i]
        items[i + 1:] = reversed(items[i + 1:])


def expand_x(p):
    """Fully expanded polynomial: sum over distinct permutations of each pattern."""
    out = {}
    for lam, c in p.coeffs.items():
        padded = list(lam) + [0] * (p.N - len(lam))
        for e in _distinct_permutations(padded):
            out[e] = c
    return XPoly(p.N, out, p.field)


def collect_symmetric(xp):
    """Collect a symmetric expansion back into the monomial basis: read the
    weakly descending terms of xp, and refuse unless their orbits give xp
    back; the witness is the first exponent where the two differ."""
    out = NSymPoly(xp.N, {Partition(x for x in e if x): c for e, c in xp.coeffs.items()
                          if all(a >= b for a, b in zip(e, e[1:]))}, xp.field)
    e = _first_difference(expand_x(out).coeffs, xp.coeffs)
    if e is not None:
        raise NotSymmetric("coefficients differ on one exponent orbit", witness=e)
    return out


def _descending_sign(e):
    # sign of the permutation sorting e, of distinct entries, into descending order
    return _perm_sign(sorted(range(len(e)), key=e.__getitem__, reverse=True))


def _alternant_index(e):
    """(sign, nu) with A(x^e) = sign * a_(nu + delta), A the signed
    symmetrisation; None when e repeats an exponent and A(x^e) vanishes."""
    N = len(e)
    if len(set(e)) < N:
        return None
    pattern = sorted(e, reverse=True)
    return _descending_sign(e), Partition(x for x in (pattern[i] - (N - 1 - i) for i in range(N)) if x)


def antisymmetrize_to_schur(xp):
    """Schur coefficients of (signed symmetrisation of xp) / Vandermonde.

    Terms with a repeated exponent die under alternation; each surviving
    term lands on the strictly decreasing pattern it sorts to.
    """
    zero = xp.field.zero
    acc = {}
    for e, c in xp.coeffs.items():
        index = _alternant_index(e)
        if index is None:
            continue
        sign, nu = index
        acc[nu] = acc.get(nu, zero) + (c if sign > 0 else -c)
    return {nu: c for nu, c in acc.items() if c}


def antisymmetrize(xp):
    """A(xp), the signed symmetrisation sum_sigma sign(sigma) xp(x_sigma):
    each Schur index nu of `antisymmetrize_to_schur` writes its orbit
    a_(nu + delta) once."""
    N = xp.N
    out = {}
    for nu, c in antisymmetrize_to_schur(xp).items():
        padded = list(nu) + [0] * (N - len(nu))
        for e in _distinct_permutations([x + N - 1 - i for i, x in enumerate(padded)]):
            out[e] = c if _descending_sign(e) > 0 else -c
    return XPoly(N, out, xp.field)


def alternant_quotient(xp):
    """A(xp) / a_delta in the monomial basis, A the signed symmetrisation."""
    out = {}
    for nu, c in antisymmetrize_to_schur(xp).items():
        axpy(out, {mu: k for mu, k in schur_in_m(nu, xp.field).items() if len(mu) <= xp.N}, c)
    return NSymPoly(xp.N, out, xp.field)


def divide_by_vandermonde(xp):
    """Exact quotient of an alternating polynomial by the Vandermonde.

    xp alternates exactly when A(xp) = N! xp, that is when xp is the
    alternant of its strictly descending terms; otherwise this refuses with
    the first exponent where xp and those terms' orbits differ."""
    strict = XPoly(xp.N, {e: c for e, c in xp.coeffs.items() if all(a > b for a, b in zip(e, e[1:]))}, xp.field)
    e = _first_difference(antisymmetrize(strict).coeffs, xp.coeffs)
    if e is not None:
        raise NotAlternating("coefficients differ on one alternation orbit", witness=e)
    return alternant_quotient(strict)


# ---------------------------------------------------------------------------
# Schur expansions (used by the alternant quotient and the 's' basis)

def schur_in_m(nu, field=SYMBOLIC):
    """Monomial expansion of a Schur function: {mu: K_(nu,mu)}."""
    nu = Partition(nu)
    return transition_matrix("s", "m", sum(nu), field)[nu]


def _perm_sign(sigma):
    sign = 1
    seen = [False] * len(sigma)
    for i in range(len(sigma)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = sigma[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


# ---------------------------------------------------------------------------
# two-alphabet expansions in the p (x) p basis

class BiSymFun(_Sparse):
    """Sparse expansion over pairs of power-sum keys: sum c * p_lam(x) p_mu(y)."""

    __slots__ = ("coeffs", "degree_bound", "field")

    def __init__(self, coeffs, degree_bound, field=SYMBOLIC):
        clean = {}
        for (a, b), c in coeffs.items():
            if c:
                key = (Partition(a), Partition(b))
                if sum(key[0]) > degree_bound or sum(key[1]) > degree_bound:
                    continue
                clean[key] = c
        self.coeffs = clean
        self.degree_bound = degree_bound
        self.field = field

    def _new(self, coeffs, other=None):
        bound = self.degree_bound if other is None else max(self.degree_bound, other.degree_bound)
        return BiSymFun(coeffs, bound, self.field)

    @classmethod
    def one(cls, degree_bound, field=SYMBOLIC):
        return cls({(Partition(), Partition()): field.one}, degree_bound, field)

    def __mul__(self, other):
        bound = min(self.degree_bound, other.degree_bound)
        out = {}
        zero = self.field.zero
        for (xa, ya), ca in self.coeffs.items():
            for (xb, yb), cb in other.coeffs.items():
                if sum(xa) + sum(xb) > bound or sum(ya) + sum(yb) > bound:
                    continue
                key = (union(xa, xb), union(ya, yb))
                out[key] = out.get(key, zero) + ca * cb
        return BiSymFun(out, bound, self.field)

    def component(self, xdeg, ydeg):
        out = {k: c for k, c in self.coeffs.items() if sum(k[0]) == xdeg and sum(k[1]) == ydeg}
        return BiSymFun(out, self.degree_bound, self.field)

    def adjoint_x(self, f):
        """Apply f* (adjoint of multiplication by f) on the x slot."""
        fp = convert(f, "p")
        by_y = {}
        for (xk, yk), c in self.coeffs.items():
            by_y.setdefault(yk, {})[xk] = c
        result = {}
        for yk, xs in by_y.items():
            image = adjoint_apply(fp, SymFun("p", xs, self.degree_bound, self.field))
            for xk, c in image.coeffs.items():
                result[(xk, yk)] = c
        return BiSymFun(result, self.degree_bound, self.field)

    def __repr__(self):
        return "BiSymFun(%d terms, bound=%d)" % (len(self.coeffs), self.degree_bound)


# ---------------------------------------------------------------------------
# JSON codec

def to_json_dict(f):
    terms = []
    for lam, c in f.terms():
        terms.append({"partition": list(lam), "coeff": str(c)})
    return {"basis": f.basis, "degree_bound": f.degree_bound, "terms": terms}

