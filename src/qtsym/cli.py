"""Command-line front end: family expansions, operator application, and
verification sweeps with JSON-lines reports.

Exit codes: 0 success / all checks pass, 1 verification failure,
2 usage or parse error, 3 precondition violation.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys

from . import families, macops, verify
from .partitions import Partition, parse_partition
from .ratfun import (
    R_ONE,
    DivisionByZero,
    ParseError,
    RatFun,
    _is_atom,
    _Parser,
    format_ratfun,
    random_point,
)
from .symfun import BASES, SymFun, clear_field_caches, convert, multiply, restrict, to_json_dict

USAGE_ERROR = 2
PRECONDITION_ERROR = 3


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# operand expressions: the scalar grammar plus basis-tagged generators

def _as_symfun(value, like=None):
    if isinstance(value, SymFun):
        return value
    basis = like.basis if isinstance(like, SymFun) else "p"
    return SymFun(basis, {Partition(): value} if value else {}, 0)


class _OperandParser(_Parser):
    """The scalar grammar plus generator atoms such as m[2,1]; sums,
    products, division by a scalar and nonnegative powers mix scalars
    with SymFuns."""

    def _lex(self, text, i):
        if text[i] not in BASES or text[i + 1:i + 2] != "[":
            return None
        j = text.find("]", i + 1)
        if j < 0:
            raise ParseError("unterminated generator bracket", i)
        inner = text[i + 2:j]
        try:
            lam = parse_partition(inner)
        except ValueError:
            raise ParseError("bad partition %r" % inner, i + 2)
        return ("gen", (text[i], lam), i), j + 1

    def _extra_atom(self, kind, value, pos):
        if kind == "gen":
            return SymFun.generator(*value)
        return super()._extra_atom(kind, value, pos)

    def _add(self, a, b):
        if isinstance(a, RatFun) and isinstance(b, RatFun):
            return a + b
        fa = _as_symfun(a, b)
        return fa + convert(_as_symfun(b, a), fa.basis)

    def _sub(self, a, b):
        return self._add(a, -b)

    def _mul(self, a, b):
        if isinstance(a, RatFun):
            return a * b if isinstance(b, RatFun) else b.scale(a)
        return a.scale(b) if isinstance(b, RatFun) else multiply(a, b)

    def _div(self, a, b, pos):
        if not isinstance(b, RatFun):
            raise ParseError("division only by scalars", pos)
        return self._mul(a, super()._div(R_ONE, b, pos))

    def _pow(self, base, e, neg, pos):
        if isinstance(base, RatFun):
            return super()._pow(base, e, neg, pos)
        if neg and e:
            raise ParseError("negative powers apply to scalars only", pos)
        out = _as_symfun(R_ONE, base)
        for _ in range(e):
            out = multiply(out, base)
        return out


def parse_expression(text):
    """Evaluate the operand grammar to a SymFun (or bare scalar)."""
    return _OperandParser(text).parse()


# ---------------------------------------------------------------------------
# rendering

def _wrapped(s):
    if not (s.startswith("(") and s.endswith(")")):
        return False
    depth = 0
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                return i == len(s) - 1
    return False


def _render(f, gen, coeff, scaled):
    """Join the terms of f.  gen % (basis, parts) names a generator, coeff
    formats a RatFun, and scaled(cs, g) writes a coefficient times a generator."""
    if not f.coeffs:
        return "0"
    parts = []
    for lam, c in f.terms():
        g = gen % (f.basis, ",".join(str(x) for x in lam))
        cs = coeff(c) if isinstance(c, RatFun) else str(c)
        if not lam:
            parts.append(cs)
        elif cs == "1":
            parts.append(g)
        elif cs == "-1":
            parts.append("-" + g)
        else:
            parts.append(scaled(cs, g))
    out = parts[0]
    for s in parts[1:]:
        out += " - " + s[1:] if s.startswith("-") else " + " + s
    return out


def _plain_scaled(cs, g):
    if _is_atom(cs) or _wrapped(cs):
        return "%s*%s" % (cs, g)
    return "(%s)*%s" % (cs, g)


def render_plain(f):
    return _render(f, "%s[%s]", format_ratfun, _plain_scaled)


def _latex_poly(p):
    # every exponent braced (q^{10}, not q^10), factors set side by side
    return re.sub(r"\^(\d+)", r"^{\1}", str(p)).replace("*", "")


def _latex_ratfun(c):
    num = _latex_poly(c.num)
    if c.den == 1:
        return num if len(c.num.terms) == 1 else "(%s)" % num
    return "\\frac{%s}{%s}" % (num, _latex_poly(c.den))


def render_latex(f):
    return _render(f, "%s_{(%s)}", _latex_ratfun, lambda cs, g: "%s\\, %s" % (cs, g))


def render_symfun(f, fmt):
    if fmt == "plain":
        return render_plain(f)
    if fmt == "latex":
        return render_latex(f)
    if fmt == "json":
        return json.dumps(to_json_dict(f), sort_keys=True)
    raise CliError("unknown format %r" % fmt, USAGE_ERROR)


# ---------------------------------------------------------------------------
# subcommands

FAMILIES = ("macdonald", "hl-p", "hl-q", "schur", "monomial", "powersum")


def cmd_expand(args):
    if args.to not in BASES:
        raise CliError("unknown basis %r" % args.to, USAGE_ERROR)
    try:
        lam = parse_partition(args.partition)
    except ValueError as exc:
        raise CliError("bad partition: %s" % exc, USAGE_ERROR)
    bound = args.degree_bound if args.degree_bound is not None else sum(lam)
    if sum(lam) > bound:
        raise CliError("degree bound %d below the weight of the partition" % bound, PRECONDITION_ERROR)
    if args.family == "macdonald":
        f = families.macdonald_M(lam, bound)
    elif args.family in ("hl-p", "hl-q"):
        f = families.hall_littlewood(lam, args.family[-1].upper(), bound)
    elif args.family == "schur":
        f = families.schur(lam, bound)
    elif args.family == "monomial":
        f = SymFun.generator("m", lam, bound)
    elif args.family == "powersum":
        f = SymFun.generator("p", lam, bound)
    else:
        raise CliError("unknown family %r" % args.family, USAGE_ERROR)
    print(render_symfun(convert(f, args.to), args.format))
    return 0


def cmd_apply(args):
    if args.to not in (None, *BASES):
        raise CliError("unknown basis %r" % args.to, USAGE_ERROR)
    try:
        value = parse_expression(args.to_expr)
    except (ParseError, DivisionByZero) as exc:
        raise CliError("bad operand expression: %s" % exc, USAGE_ERROR)
    f = _as_symfun(value)
    if args.op == "DN":
        if args.N is None:
            raise CliError("the determinantal operator needs --N", PRECONDITION_ERROR)
        if args.N < 0:
            raise CliError("--N must be nonnegative", PRECONDITION_ERROR)
        nsp = restrict(f, args.N)
        coeffs = macops.apply_DN(nsp)
        to = args.to or "m"
        if args.format == "json":
            data = [to_json_dict(convert(c.as_symfun(f.degree_bound), to)) for c in coeffs]
            print(json.dumps({"u_powers": data}, sort_keys=True))
        else:
            rendered = []
            for k, c in enumerate(coeffs):
                rendered.append("u^%d: %s" % (k, render_symfun(convert(c.as_symfun(f.degree_bound), to), args.format)))
            print(", ".join(rendered))
        return 0
    if args.k is None or args.k < 1:
        raise CliError("operator index --k must be a positive integer", PRECONDITION_ERROR)
    if args.op == "A":
        result = macops.A_k_apply(args.k, f)
    elif args.op in ("B", "C"):
        result = macops.step_series_apply(args.op, args.k - 1, f)
    else:
        raise CliError("unknown operator %r" % args.op, USAGE_ERROR)
    to = args.to or "p"
    print(render_symfun(convert(result, to), args.format))
    return 0


def _verify_config(args):
    config = {}
    for name in ("max_degree", "max_k", "max_weight", "N", "degree"):
        value = getattr(args, name)
        if value is not None:
            if value < 0:
                raise CliError("--%s must be nonnegative" % name.replace("_", "-"), PRECONDITION_ERROR)
            config[name] = value
    return config


def cmd_verify(args):
    if args.suite not in tuple(verify.SUITES) + ("all",):
        raise CliError("unknown suite %r" % args.suite, USAGE_ERROR)
    config = _verify_config(args)
    if args.points < 1:
        raise CliError("--points must be at least 1", PRECONDITION_ERROR)
    if args.mode != "numeric" and args.seed is not None:
        raise CliError("--seed requires --mode numeric", PRECONDITION_ERROR)
    if args.mode == "numeric":
        if args.seed is None:
            raise CliError("numeric mode requires --seed", PRECONDITION_ERROR)
        rng = random.Random(args.seed)
        failed = 0
        for _ in range(args.points):
            point = random_point(rng)
            reports = []
            for report in verify.run_suite(args.suite, config, field=point):
                report.parameters["mode"] = "numeric"
                report.parameters["point"] = "q=%s,t=%s" % (point.q, point.t)
                reports.append(report)
            _, bad = verify.write_reports(reports, sys.stdout)
            failed += bad
            clear_field_caches(point)
        return 1 if failed else 0
    _, failed = verify.write_reports(verify.run_suite(args.suite, config), sys.stdout)
    return 1 if failed else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qtsym",
        description="Exact Macdonald / Hall-Littlewood symmetric functions over Q(q,t)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_expand = sub.add_parser("expand", help="print a family element in a chosen basis")
    p_expand.add_argument("--family", required=True, choices=FAMILIES)
    p_expand.add_argument("--partition", required=True, help="comma-separated parts, empty for the zero partition")
    p_expand.add_argument("--to", default="m", help="target basis tag (%s)" % ",".join(BASES))
    p_expand.add_argument("--format", default="plain", choices=("plain", "json", "latex"))
    p_expand.add_argument("--degree-bound", type=int, dest="degree_bound")
    p_expand.set_defaults(run=cmd_expand)

    p_apply = sub.add_parser("apply", help="apply an operator to an operand expression")
    p_apply.add_argument("--op", required=True, choices=("A", "B", "C", "DN"))
    p_apply.add_argument("--k", type=int, help="operator index (A/B/C)")
    p_apply.add_argument("--N", type=int, help="alphabet size (DN)")
    p_apply.add_argument("--to-expr", required=True, dest="to_expr")
    p_apply.add_argument("--to", help="output basis (default p, or m for DN)")
    p_apply.add_argument("--format", default="plain", choices=("plain", "json", "latex"))
    p_apply.set_defaults(run=cmd_apply)

    p_verify = sub.add_parser("verify", help="run an identity-certification suite")
    p_verify.add_argument("suite", help="one of %s, or all" % ", ".join(verify.SUITES))
    p_verify.add_argument("--max-degree", type=int, dest="max_degree")
    p_verify.add_argument("--max-k", type=int, dest="max_k")
    p_verify.add_argument("--max-weight", type=int, dest="max_weight")
    p_verify.add_argument("--N", type=int)
    p_verify.add_argument("--degree", type=int)
    p_verify.add_argument("--mode", default="symbolic", choices=("symbolic", "numeric"))
    p_verify.add_argument("--seed", type=int)
    p_verify.add_argument("--points", type=int, default=3, help="number of numeric sample points")
    p_verify.set_defaults(run=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.code
    except (ParseError, DivisionByZero) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
