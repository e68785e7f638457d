"""Command-line front end: family expansions, operator application, and
verification sweeps with JSON-lines reports.

Exit codes: 0 success / all checks pass, 1 verification failure,
2 usage or parse error, 3 precondition violation.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import families, macops, verify
from .partitions import Partition, parse_partition
from .ratfun import (
    SYMBOLIC,
    DivisionByZero,
    ParseError,
    RatFun,
    _is_atom,
    format_ratfun,
    random_point,
)
from .symfun import BASES, SymFun, convert, multiply, restrict, to_json_dict

USAGE_ERROR = 2
PRECONDITION_ERROR = 3


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# operand expressions: basis-tagged generators with +, -, * and scalars

class _ExprTokens:
    def __init__(self, text):
        self.toks = []
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch.isdigit():
                j = i
                while j < len(text) and text[j].isdigit():
                    j += 1
                self.toks.append(("int", text[i:j], i))
                i = j
            elif ch in BASES and i + 1 < len(text) and text[i + 1] == "[":
                j = text.find("]", i + 1)
                if j < 0:
                    raise ParseError("unterminated generator bracket", i)
                inner = text[i + 2:j]
                try:
                    lam = parse_partition(inner)
                except ValueError:
                    raise ParseError("bad partition %r" % inner, i + 2)
                self.toks.append(("gen", (ch, lam), i))
                i = j + 1
            elif ch in ("q", "t"):
                self.toks.append(("sym", ch, i))
                i += 1
            elif ch in "+-*/^()":
                self.toks.append((ch, ch, i))
                i += 1
            else:
                raise ParseError("unexpected character %r" % ch, i)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else (None, None, -1)

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok


def _as_symfun(value, like=None, field=SYMBOLIC):
    if isinstance(value, SymFun):
        return value
    basis = like.basis if isinstance(like, SymFun) else "p"
    return SymFun(basis, {Partition(): value} if value else {}, 0, field)


def _expr_add(a, b, sign, field):
    if isinstance(a, RatFun) and isinstance(b, RatFun):
        return a + b if sign > 0 else a - b
    fa = _as_symfun(a, b, field)
    fb = _as_symfun(b, a, field)
    fb = convert(fb, fa.basis)
    return fa + fb if sign > 0 else fa - fb


def _expr_mul(a, b, field):
    if isinstance(a, RatFun) and isinstance(b, RatFun):
        return a * b
    if isinstance(a, RatFun):
        return b.scale(a)
    if isinstance(b, RatFun):
        return a.scale(b)
    return multiply(a, b)


def parse_expression(text, field=SYMBOLIC):
    """Evaluate the operand grammar to a SymFun (or bare scalar)."""
    toks = _ExprTokens(text)
    value = _parse_expr_sum(toks, field)
    kind, _, pos = toks.peek()
    if kind is not None:
        raise ParseError("trailing input", pos)
    return value


def _parse_expr_sum(toks, field):
    value = _parse_expr_product(toks, field)
    while True:
        kind = toks.peek()[0]
        if kind == "+":
            toks.next()
            value = _expr_add(value, _parse_expr_product(toks, field), 1, field)
        elif kind == "-":
            toks.next()
            value = _expr_add(value, _parse_expr_product(toks, field), -1, field)
        else:
            return value


def _parse_expr_product(toks, field):
    value = _parse_expr_factor(toks, field)
    while True:
        kind = toks.peek()[0]
        if kind == "*":
            toks.next()
            value = _expr_mul(value, _parse_expr_factor(toks, field), field)
        elif kind == "/":
            _, _, pos = toks.next()
            rhs = _parse_expr_factor(toks, field)
            if not isinstance(rhs, RatFun):
                raise ParseError("division only by scalars", pos)
            if not rhs:
                raise DivisionByZero("division by zero at position %d" % pos)
            if isinstance(value, RatFun):
                value = value / rhs
            else:
                value = value.scale(field.one / rhs)
        else:
            return value


def _parse_expr_factor(toks, field):
    kind = toks.peek()[0]
    if kind == "-":
        toks.next()
        return -_parse_expr_factor(toks, field)
    if kind == "+":
        toks.next()
        return _parse_expr_factor(toks, field)
    return _parse_expr_power(toks, field)


def _parse_expr_power(toks, field):
    base = _parse_expr_atom(toks, field)
    while toks.peek()[0] == "^":
        toks.next()
        kind, text, pos = toks.next()
        neg = False
        if kind == "-":
            neg = True
            kind, text, pos = toks.next()
        if kind != "int":
            raise ParseError("exponent must be an integer", pos)
        e = int(text)
        if isinstance(base, RatFun):
            base = base ** (-e if neg else e)
        else:
            if neg:
                raise ParseError("negative powers apply to scalars only", pos)
            out = _as_symfun(field.one, base, field)
            for _ in range(e):
                out = multiply(out, base)
            base = out
    return base


def _parse_expr_atom(toks, field):
    kind, text, pos = toks.next()
    if kind == "int":
        return field.from_int(int(text))
    if kind == "sym":
        return field.q if text == "q" else field.t
    if kind == "gen":
        basis, lam = text
        return SymFun.generator(basis, lam, field=field)
    if kind == "(":
        value = _parse_expr_sum(toks, field)
        kind, _, pos = toks.next()
        if kind != ")":
            raise ParseError("expected ')'", pos)
        return value
    raise ParseError("expected a value", pos)


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


def render_plain(f):
    if not f.coeffs:
        return "0"
    parts = []
    for lam, c in f.terms():
        gen = "%s[%s]" % (f.basis, ",".join(str(x) for x in lam))
        cs = format_ratfun(c) if isinstance(c, RatFun) else str(c)
        if not lam:
            parts.append(cs)
            continue
        if cs == "1":
            parts.append(gen)
        elif cs == "-1":
            parts.append("-" + gen)
        elif _is_atom(cs) or _wrapped(cs):
            parts.append("%s*%s" % (cs, gen))
        else:
            parts.append("(%s)*%s" % (cs, gen))
    out = parts[0]
    for s in parts[1:]:
        out += " - " + s[1:] if s.startswith("-") else " + " + s
    return out


def _latex_ratfun(c):
    num = str(c.num)
    if c.den == 1:
        return num if len(c.num.terms) == 1 else "(%s)" % num
    return "\\frac{%s}{%s}" % (num, str(c.den))


def render_latex(f):
    if not f.coeffs:
        return "0"
    parts = []
    for lam, c in f.terms():
        gen = "%s_{(%s)}" % (f.basis, ",".join(str(x) for x in lam))
        cs = _latex_ratfun(c) if isinstance(c, RatFun) else str(c)
        if not lam:
            parts.append(cs)
        elif cs == "1":
            parts.append(gen)
        elif cs == "-1":
            parts.append("-" + gen)
        else:
            parts.append("%s\\, %s" % (cs, gen))
    out = parts[0]
    for s in parts[1:]:
        out += " - " + s[1:] if s.startswith("-") else " + " + s
    return out


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
    try:
        lam = parse_partition(args.partition)
    except ValueError as exc:
        raise CliError("bad partition: %s" % exc, USAGE_ERROR)
    bound = args.degree_bound if args.degree_bound is not None else sum(lam)
    if sum(lam) > bound:
        raise CliError("degree bound %d below the weight of the partition" % bound, PRECONDITION_ERROR)
    if args.family == "macdonald":
        f = families.macdonald_M(lam, bound)
    elif args.family == "hl-p":
        f = families.hall_littlewood(lam, "P", bound)
    elif args.family == "hl-q":
        f = families.hall_littlewood(lam, "Q", bound)
    elif args.family == "schur":
        f = families.schur(lam, bound)
    elif args.family == "monomial":
        f = SymFun.generator("m", lam, bound)
    elif args.family == "powersum":
        f = SymFun.generator("p", lam, bound)
    else:
        raise CliError("unknown family %r" % args.family, USAGE_ERROR)
    if args.to not in BASES:
        raise CliError("unknown basis %r" % args.to, USAGE_ERROR)
    print(render_symfun(convert(f, args.to), args.format))
    return 0


def cmd_apply(args):
    try:
        value = parse_expression(args.to_expr)
    except (ParseError, DivisionByZero) as exc:
        raise CliError("bad operand expression: %s" % exc, USAGE_ERROR)
    f = _as_symfun(value, None, SYMBOLIC)
    if args.op == "DN":
        if args.N is None:
            raise CliError("the determinantal operator needs --N", PRECONDITION_ERROR)
        nsp = restrict(f, args.N)
        coeffs = macops.apply_DN(nsp, args.N)
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
    if args.max_degree is not None:
        config["max_degree"] = args.max_degree
    if args.max_k is not None:
        config["max_k"] = args.max_k
    if args.max_weight is not None:
        config["max_weight"] = args.max_weight
    if args.N is not None:
        config["N"] = args.N
    if args.degree is not None:
        config["degree"] = args.degree
    if args.u_samples:
        try:
            config["u_samples"] = tuple(int(x) for x in args.u_samples.split(","))
        except ValueError:
            raise CliError("bad --u-samples list", USAGE_ERROR)
    return config


def cmd_verify(args):
    if args.suite not in tuple(verify.SUITES) + ("all",):
        raise CliError("unknown suite %r" % args.suite, USAGE_ERROR)
    config = _verify_config(args)
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
    p_verify.add_argument("--u-samples", dest="u_samples", help="comma-separated integers")
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
