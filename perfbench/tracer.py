"""Spans around calls into qtsym's public functions, installed from outside.

Each wrapped function records a span (name, parent span, start, end) and
adds to its name's call count and self time, the span's duration minus the
time covered by its child spans.  A function is patched under every name
that refers to it in every qtsym module, since modules import each other's
functions by name.  RatFun arithmetic is only counted: a span per scalar
operation would cost more than the operation.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

# (module, function, span name or a function of the call's arguments)
SPANNED = (
    ("ratfun", "poly_gcd", "ratfun.poly_gcd"),
    ("ratfun", "poly_divexact", "ratfun.poly_divexact"),
    ("partitions", "enumerate_partitions", "partitions.enumerate_partitions"),
    ("symfun", "convert", "symfun.convert"),
    ("symfun", "transition_matrix", "symfun.transition_matrix"),
    ("symfun", "adjoint_apply", "symfun.adjoint_apply"),
    ("symfun", "p_multiply", "symfun.p_multiply"),
    ("symfun", "divide_by_vandermonde", "symfun.divide_by_vandermonde"),
    ("symfun", "expand_x", "symfun.expand_x"),
    ("families", "macdonald_M", "families.macdonald_M"),
    ("families", "hl_in_p", "families.hl_in_p"),
    ("families", "hall_littlewood", "families.hall_littlewood"),
    ("macops", "apply_DN", lambda a, kw: "macops.apply_DN.N%d" % _dn_size(a, kw)),
    ("macops", "A_k_apply", lambda a, kw: "macops.A_k_apply.k%d" % a[0]),
    ("macops", "A_k_eigen", "macops.A_k_eigen"),
    ("cli", "main", "cli.main"),
)

COUNTED = (
    ("__add__", "ratfun.add"),
    ("__radd__", "ratfun.add"),
    ("__mul__", "ratfun.mul"),
    ("__rmul__", "ratfun.mul"),
    ("__truediv__", "ratfun.div"),
)


def _dn_size(args, kwargs):
    n = args[1] if len(args) > 1 else kwargs.get("N")
    return args[0].N if n is None else n


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.trivial_gcd = 0
        self.names = []
        self._name_ids = {}
        # one entry per span, indexed by span id; id 0 is the root
        self.parent = array("l", [-1])
        self.name_id = array("l", [-1])
        self.start = array("d", [0.0])
        self.end = array("d", [0.0])
        # open spans: [span id, time covered by finished children]
        self._stack = [[0, 0.0]]

    def _intern(self, name):
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def span(self, fn, label):
        stack = self._stack
        parent, name_id, start_a, end_a = self.parent, self.name_id, self.start, self.end
        calls, self_s = self.calls, self.self_s
        fixed = label if isinstance(label, str) else None

        def traced(*args, **kwargs):
            name = fixed or label(args, kwargs)
            sid = len(parent)
            parent.append(stack[-1][0])
            name_id.append(self._intern(name))
            end_a.append(0.0)
            frame = [sid, 0.0]
            stack.append(frame)
            start = perf_counter()
            start_a.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                end_a[sid] = end
                stack.pop()
                dur = end - start
                stack[-1][1] += dur
                calls[name] += 1
                self_s[name] += dur - frame[1]

        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def counted(self, fn, name):
        calls = self.calls

        def counter(*args):
            calls[name] += 1
            return fn(*args)

        return counter

    def install(self):
        """Wrap the functions above; qtsym must already be imported."""
        from qtsym import ratfun, verify

        mods = [m for n, m in sorted(sys.modules.items()) if n == "qtsym" or n.startswith("qtsym.")]
        targets = [(getattr(sys.modules["qtsym." + mod], fn), label) for mod, fn, label in SPANNED]
        targets += [(getattr(verify, n), "verify." + n) for n in sorted(vars(verify)) if n.startswith("check_")]
        for orig, label in targets:
            wrapped = self.span(orig, label)
            if label == "ratfun.poly_gcd":
                wrapped = self._note_trivial(wrapped)
            for m in mods:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, wrapped)
        cls = ratfun.RatFun
        wrapped_ops = {}
        for attr, name in COUNTED:
            orig = cls.__dict__[attr]
            if id(orig) not in wrapped_ops:
                wrapped_ops[id(orig)] = self.counted(orig, name)
            setattr(cls, attr, wrapped_ops[id(orig)])

    def _note_trivial(self, gcd):
        def poly_gcd(a, b):
            g = gcd(a, b)
            if g.terms == {(0, 0): 1}:
                self.trivial_gcd += 1
            return g

        return poly_gcd

    def write_spans(self, path):
        """One JSON line per span: id, parent id, name, start, end (seconds)."""
        with open(path, "w") as fh:
            for sid in range(1, len(self.parent)):
                fh.write(json.dumps([sid, self.parent[sid], self.names[self.name_id[sid]],
                                     round(self.start[sid], 7), round(self.end[sid], 7)]))
                fh.write("\n")
