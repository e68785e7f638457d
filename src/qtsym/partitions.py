"""Partition combinatorics: enumeration, conjugation, dominance, statistics,
and the integer tables built by adding parts (Kostka numbers, power sums).

Partitions are value types: validated tuples of weakly decreasing positive
integers, so they hash and compare like plain tuples and never carry
trailing zeros.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .ratfun import SYMBOLIC


class LengthExceedsN(ValueError):
    pass


class Partition(tuple):
    __slots__ = ()

    def __new__(cls, parts=()):
        if type(parts) is Partition:
            return parts
        parts = tuple(int(x) for x in parts)
        for i, x in enumerate(parts):
            if x < 1:
                raise ValueError("parts must be positive integers: %r" % (parts,))
            if i and parts[i - 1] < x:
                raise ValueError("parts must be weakly decreasing: %r" % (parts,))
        return super().__new__(cls, parts)

    @property
    def weight(self):
        return sum(self)

    def __repr__(self):
        return "Partition(%s)" % (tuple(self),)


EMPTY = Partition()


def parse_partition(text):
    """Comma-separated parts; the empty string is the zero partition."""
    text = text.strip()
    if not text:
        return EMPTY
    return Partition(int(p) for p in text.split(","))


def format_partition(p):
    return ",".join(str(x) for x in p)


def grevlex_key(p):
    """Sort key for the canonical graded reverse-lexicographic order."""
    return (sum(p), tuple(-x for x in p))


def enumerate_partitions(weight, max_length=None, exact_length=None):
    """All partitions of `weight` under the constraints, in reverse-lex order."""
    if weight < 0:
        raise ValueError("weight must be nonnegative")
    if exact_length is not None:
        out = []
        for p in enumerate_partitions(weight, max_length=exact_length):
            if len(p) == exact_length:
                out.append(p)
        return out
    limit = weight if max_length is None else min(max_length, weight)
    out = []

    def rec(remaining, largest, prefix):
        if remaining == 0:
            out.append(Partition(prefix))
            return
        if len(prefix) == limit:
            return
        for part in range(min(largest, remaining), 0, -1):
            rec(remaining - part, part, prefix + (part,))

    rec(weight, weight, ())
    return out


def partitions_up_to(weight, **constraints):
    """Partitions of every weight 0..weight, graded reverse-lex order."""
    out = []
    for w in range(weight + 1):
        out.extend(enumerate_partitions(w, **constraints))
    return out


def conjugate(p):
    if not p:
        return EMPTY
    cols = []
    for j in range(1, p[0] + 1):
        cols.append(sum(1 for x in p if x >= j))
    return Partition(cols)


class Compare(enum.Enum):
    LESS = "Less"
    GREATER = "Greater"
    EQUAL = "Equal"
    INCOMPARABLE = "Incomparable"
    DIFFERENT_WEIGHT = "DifferentWeight"


def natural_compare(lam, mu):
    """Dominance comparison of two partitions of the same weight."""
    if sum(lam) != sum(mu):
        return Compare.DIFFERENT_WEIGHT
    if tuple(lam) == tuple(mu):
        return Compare.EQUAL
    ge = le = True
    a = b = 0
    for i in range(max(len(lam), len(mu))):
        a += lam[i] if i < len(lam) else 0
        b += mu[i] if i < len(mu) else 0
        if a < b:
            ge = False
        if a > b:
            le = False
    if ge:
        return Compare.GREATER
    if le:
        return Compare.LESS
    return Compare.INCOMPARABLE


def dominates(lam, mu):
    """lam >= mu in the natural order (equal weights assumed)."""
    return natural_compare(lam, mu) in (Compare.GREATER, Compare.EQUAL)


def multiplicities(p):
    out = {}
    for x in p:
        out[x] = out.get(x, 0) + 1
    return out


@dataclass(frozen=True)
class PartitionStats:
    c: int
    z: int
    n_stat: int


def stats(p):
    c = 1
    z = 1
    for part, k in multiplicities(p).items():
        c *= math.factorial(k)
        z *= part ** k * math.factorial(k)
    n_stat = sum(i * x for i, x in enumerate(p))
    return PartitionStats(c=c, z=z, n_stat=n_stat)


@dataclass(frozen=True)
class TFactors:
    v: object  # None when no ambient N was given
    b: object
    z_t: object


def _t_num_factor(field, j):
    # (1 - t^j) / (1 - t) = 1 + t + ... + t^(j-1)
    acc = field.zero
    p = field.one
    for _ in range(j):
        acc = acc + p
        p = p * field.t
    return acc


def t_factors(p, N=None, field=SYMBOLIC):
    """The t-dependent scalars attached to a partition.

    v needs an ambient alphabet size N >= len(p) and is omitted otherwise;
    b is the product of (1-t^j) over the part multiplicities; z_t is the
    t-deformation of the permutation statistic z.
    """
    mult = multiplicities(p)
    b = field.one
    for k in mult.values():
        f = field.one
        for j in range(1, k + 1):
            f = f * (field.one - field.t ** j)
        b = b * f
    v = None
    if N is not None:
        if N < len(p):
            raise LengthExceedsN("N=%d is smaller than the length of %r" % (N, tuple(p)))
        v = field.one
        for j in range(1, N - len(p) + 1):
            v = v * _t_num_factor(field, j)
        for k in mult.values():
            for j in range(1, k + 1):
                v = v * _t_num_factor(field, j)
    z_t = field.from_int(stats(p).z)
    for part in p:
        z_t = z_t / (field.one - field.t ** part)
    return TFactors(v=v, b=b, z_t=z_t)


def append_one(p):
    """Insert an extra part equal to 1."""
    return Partition(tuple(p) + (1,))


def union(lam, mu):
    """The partition with the parts of both, so that p_lam p_mu = p_(lam u mu)."""
    # parts of two partitions are already valid; skip re-validation
    return tuple.__new__(Partition, sorted(lam + mu, reverse=True))


def horizontal_strip(lam, mu):
    """True when lam/mu is a horizontal strip: lam1 >= mu1 >= lam2 >= mu2 >= ..."""
    lam, mu = tuple(lam), tuple(mu)
    for i in range(max(len(lam), len(mu))):
        li = lam[i] if i < len(lam) else 0
        mi = mu[i] if i < len(mu) else 0
        l_next = lam[i + 1] if i + 1 < len(lam) else 0
        if not (li >= mi >= l_next):
            return False
    return True


def push_parts(parts, step):
    """Push {EMPTY: 1} through `step` once for each part n of `parts`.

    `step(rho, n)` yields pairs (nu, w), w an integer or a scalar; the result
    maps each nu reached to the sum over paths of the product of weights.
    """
    row = {EMPTY: 1}
    for n in parts:
        out = {}
        for rho, c in row.items():
            for nu, w in step(rho, n):
                out[nu] = out.get(nu, 0) + c * w
        row = out
    return row


def kostka_step(rho, n):
    """Each nu with nu/rho a horizontal strip of n boxes, with weight 1.

    Pushed over the parts of mu this gives the Kostka column {nu: K_(nu,mu)}.
    """
    for nu in enumerate_partitions(sum(rho) + n, max_length=len(rho) + 1):
        if horizontal_strip(nu, rho):
            yield nu, 1


def kostka_rows(degree):
    """{nu: {mu: K_(nu,mu)}} over the partitions of `degree`: the Kostka
    columns of `kostka_step` read as rows, nonzero entries only."""
    out = {nu: {} for nu in enumerate_partitions(degree)}
    for mu in out:
        for nu, k in push_parts(mu, kostka_step).items():
            out[nu][mu] = k
    return out


def power_sum_step(rho, n):
    """Add n to one part of rho of value v, where v = 0 makes a new part.

    The weight, the multiplicity of v + n in the result, is the coefficient
    of m_nu in p_n m_rho: pushed over the parts of lam this gives
    p_lam = sum R_(lam,mu) m_mu as {mu: R_(lam,mu)}.
    """
    for v in dict.fromkeys(rho + (0,)):
        rest = list(rho)
        if v:
            rest.remove(v)
        nu = Partition(sorted(rest + [v + n], reverse=True))
        yield nu, nu.count(v + n)


def box_added_index(lam, mu):
    """Index i (1-based) with lam = mu plus one box at term i, else None."""
    lam, mu = tuple(lam), tuple(mu)
    if len(lam) not in (len(mu), len(mu) + 1) or sum(lam) != sum(mu) + 1:
        return None
    idx = None
    for i in range(len(lam)):
        mi = mu[i] if i < len(mu) else 0
        if lam[i] == mi + 1 and idx is None:
            idx = i + 1
        elif lam[i] != mi:
            return None
    return idx


def add_box_positions(mu):
    """All (lam, i) with lam a partition equal to mu with term i increased by 1."""
    mu = tuple(mu)
    out = []
    for i in range(len(mu) + 1):
        parts = list(mu) + [0]
        parts[i] += 1
        if i == 0 or parts[i - 1] >= parts[i]:
            lam = Partition(x for x in parts if x)
            out.append((lam, i + 1))
    return out


def remove_box_positions(lam):
    """All (mu, i) with mu a partition equal to lam with term i decreased by 1."""
    lam = tuple(lam)
    out = []
    for i in range(len(lam)):
        parts = list(lam)
        parts[i] -= 1
        nxt = parts[i + 1] if i + 1 < len(parts) else 0
        if parts[i] >= nxt:
            mu = Partition(x for x in parts if x)
            out.append((mu, i + 1))
    return out
