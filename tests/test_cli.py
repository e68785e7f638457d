import json
import random
import re

import pytest

from qtsym.cli import main, parse_expression, render_plain
from qtsym.partitions import Partition, enumerate_partitions
from qtsym import families, macops, symfun, verify
from qtsym.ratfun import SYMBOLIC, IntPoly2, ParseError, RatFun, parse_ratfun, random_point
from qtsym.symfun import BASES, SymFun, convert


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expand_macdonald_row(capsys):
    code, out, _ = run_cli(
        capsys, "expand", "--family", "macdonald", "--partition", "2", "--to", "m", "--format", "plain"
    )
    assert code == 0
    assert out.strip() == "m[2] + ((1-t+q-q*t)/(1-q*t))*m[1,1]"


def test_expand_hl_q_to_p(capsys):
    code, out, _ = run_cli(capsys, "expand", "--family", "hl-q", "--partition", "1", "--to", "p")
    assert code == 0
    assert out.strip() == "(1-t)*p[1]"


def test_expand_schur(capsys):
    code, out, _ = run_cli(capsys, "expand", "--family", "schur", "--partition", "1,1", "--to", "m")
    assert code == 0
    assert out.strip() == "m[1,1]"


def test_expand_json_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "expand", "--family", "macdonald", "--partition", "2,1", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["basis"] == "m"
    assert [term["partition"] for term in data["terms"]] == [[2, 1], [1, 1, 1]]
    for term in data["terms"]:
        parse_ratfun(term["coeff"])


def test_expand_latex(capsys):
    code, out, _ = run_cli(
        capsys, "expand", "--family", "hl-p", "--partition", "2", "--format", "latex"
    )
    assert code == 0
    assert out.strip() == "m_{(2)} + (1-t)\\, m_{(1,1)}"


def test_expand_latex_braces_exponents(capsys):
    code, out, _ = run_cli(
        capsys, "expand", "--family", "macdonald", "--partition", "5", "--format", "latex"
    )
    assert code == 0
    assert out.startswith(
        "m_{(5)} + \\frac{1-t+q-qt+q^{2}-q^{2}t+q^{3}-q^{3}t+q^{4}-q^{4}t}{1-q^{4}t}\\, m_{(4,1)} + "
    )
    assert "q^{10}" in out
    assert "*" not in out and not re.search(r"\^\d", out)


def test_expand_empty_partition(capsys):
    code, out, _ = run_cli(capsys, "expand", "--family", "macdonald", "--partition", "")
    assert code == 0
    assert out.strip() == "1"


def test_expand_deterministic(capsys):
    args = ("expand", "--family", "macdonald", "--partition", "3,1", "--to", "p")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_expand_monomial_and_powersum(capsys):
    code, out, _ = run_cli(capsys, "expand", "--family", "monomial", "--partition", "2,1", "--to", "p")
    assert (code, out.strip()) == (0, "-p[3] + p[2,1]")
    code, out, _ = run_cli(capsys, "expand", "--family", "powersum", "--partition", "2,1", "--to", "m")
    assert (code, out.strip()) == (0, "m[3] + m[2,1]")


def _refuse(*args, **kwargs):
    raise AssertionError("built before the output basis was checked")


def test_expand_refuses_an_unknown_basis_first(capsys, monkeypatch):
    # exit 2 with the usage message, and the family is never built
    monkeypatch.setattr(families, "macdonald_M", _refuse)
    argv = ("expand", "--family", "macdonald", "--partition", "2,1", "--to", "z")
    assert run_cli(capsys, *argv) == (2, "", "error: unknown basis 'z'\n")


def test_apply_refuses_an_unknown_basis_first(capsys, monkeypatch):
    # exit 2 with the usage message, in every output format, and the
    # operator is never applied
    monkeypatch.setattr(macops, "A_k_apply", _refuse)
    monkeypatch.setattr(macops, "apply_DN", _refuse)
    for argv in (("--op", "A", "--k", "1", "--to-expr", "p[1]"),
                 ("--op", "DN", "--N", "2", "--to-expr", "p[1]"),
                 ("--op", "DN", "--N", "2", "--to-expr", "p[1]", "--format", "json")):
        assert run_cli(capsys, "apply", *argv, "--to", "z") == (2, "", "error: unknown basis 'z'\n"), argv


def test_apply_A(capsys):
    code, out, _ = run_cli(capsys, "apply", "--op", "A", "--k", "1", "--to-expr", "p[1]")
    assert code == 0
    assert out.strip() == "((1-q)/q)*p[1]"


def test_apply_C(capsys):
    code, out, _ = run_cli(capsys, "apply", "--op", "C", "--k", "1", "--to-expr", "p[1]")
    assert code == 0
    assert out.strip() == "(1-q)"


def test_apply_DN(capsys):
    code, out, _ = run_cli(
        capsys, "apply", "--op", "DN", "--N", "1", "--to-expr", "m[2]"
    )
    assert code == 0
    assert out.strip() == "u^0: m[2], u^1: (-q^2)*m[2]"
    # N = 0 keeps the constant; at N = 2 a mixed-degree operand keeps m[2,1]
    # and the degree-0 term
    code, out, _ = run_cli(capsys, "apply", "--op", "DN", "--N", "0", "--to-expr", "m[2,1]+3")
    assert code == 0
    assert out.strip() == "u^0: 3"
    code, out, _ = run_cli(capsys, "apply", "--op", "DN", "--N", "2", "--to-expr", "m[2,1]+m[1]+1")
    assert code == 0
    assert out.strip() == (
        "u^0: 1 + m[1] + m[2,1], u^1: (-1-t)/t + ((-1-q*t)/t)*m[1] + ((-q-q^2*t)/t)*m[2,1], "
        "u^2: 1/t + (q/t)*m[1] + (q^3/t)*m[2,1]"
    )
    # the same u-powers as JSON, term by term
    code, out, _ = run_cli(capsys, "apply", "--op", "DN", "--N", "2", "--to-expr", "m[2,1]+m[1]+1",
                           "--format", "json")
    assert code == 0
    powers = [["1", "1", "1"], ["(-1-t)/t", "(-1-q*t)/t", "(-q-q^2*t)/t"], ["1/t", "q/t", "q^3/t"]]
    assert json.loads(out) == {"u_powers": [
        {"basis": "m", "degree_bound": 3,
         "terms": [{"coeff": c, "partition": lam} for c, lam in zip(coeffs, ([], [1], [2, 1]))]}
        for coeffs in powers]}


def test_apply_B_raises_degree(capsys):
    code, out, _ = run_cli(capsys, "apply", "--op", "B", "--k", "1", "--to-expr", "m[]")
    assert code == 0
    assert out.strip() == "(1-t)*p[1]"


def test_exit_code_parse_error(capsys):
    code, _, err = run_cli(capsys, "apply", "--op", "A", "--k", "1", "--to-expr", "p[1")
    assert code == 2
    assert "error" in err
    # a malformed generator partition, and a division by a non-scalar
    for expr, message in (("m[2,x]", "bad partition '2,x'"), ("p[1]/p[1]", "division only by scalars")):
        code, out, err = run_cli(capsys, "apply", "--op", "A", "--k", "1", "--to-expr", expr)
        assert (code, out) == (2, ""), expr
        assert message in err, expr


def test_exit_code_bad_partition(capsys):
    code, _, err = run_cli(capsys, "expand", "--family", "schur", "--partition", "1,2")
    assert code == 2


def test_exit_code_precondition(capsys):
    code, _, err = run_cli(capsys, "apply", "--op", "DN", "--to-expr", "m[2]")
    assert code == 3
    code, _, err = run_cli(capsys, "apply", "--op", "A", "--to-expr", "p[1]")
    assert code == 3
    code, _, err = run_cli(capsys, "verify", "green", "--mode", "numeric")
    assert code == 3
    code, out, err = run_cli(capsys, "expand", "--family", "schur", "--partition", "2,1", "--degree-bound", "2")
    assert (code, out) == (3, "") and "degree bound 2 below the weight" in err
    # a seed without numeric mode would run the symbolic sweep and draw no point
    code, out, err = run_cli(capsys, "verify", "theorem", "--max-degree", "10", "--seed", "7")
    assert (code, out) == (3, "") and "--seed requires --mode numeric" in err


def test_exit_code_out_of_range_verify_options(capsys):
    # each bad value is refused before any check runs, naming its option
    cases = [
        (("verify", "theorem", "--mode", "numeric", "--seed", "1", "--points", "0"), "--points"),
        (("verify", "theorem", "--max-degree", "-1"), "--max-degree"),
        (("verify", "deigen", "--N", "-1"), "--N"),
        (("verify", "kernel", "--max-k", "-2"), "--max-k"),
        (("verify", "deigen", "--max-weight", "-1"), "--max-weight"),
        (("verify", "finite-symbol", "--degree", "-3"), "--degree"),
    ]
    for argv, option in cases:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, ""), argv
        assert option in err, argv


def test_exit_code_u_samples_option_removed(capsys):
    # the checks compare whole functions of u, so no option picks samples
    for argv in (("verify", "corollary", "--u-samples", "2,3,5"), ("verify", "finite-symbol", "--u-samples", "2")):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert (exc.value.code, capsys.readouterr().out) == (2, ""), argv


def test_exit_code_negative_alphabet_size(capsys):
    code, out, err = run_cli(capsys, "apply", "--op", "DN", "--N", "-1", "--to-expr", "m[1]")
    assert (code, out) == (3, "")
    assert "--N" in err
    code, out, _ = run_cli(capsys, "apply", "--op", "DN", "--N", "0", "--to-expr", "m[1]")
    assert (code, out.strip()) == (0, "u^0: 0")


def test_exit_code_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "verify", "nonsense")
    assert code == 2


def test_verify_exits_1_naming_the_failed_check(capsys, monkeypatch):
    # one check made to fail: exit 1, its witness on its line, and the
    # summary counts it
    real = verify.check_hl_cauchy

    def planted(degree, field=SYMBOLIC):
        report = real(degree, field)
        if degree == 2:
            report.status, report.witness = "fail", "planted witness"
        return report

    monkeypatch.setattr(verify, "check_hl_cauchy", planted)
    code, out, _ = run_cli(capsys, "verify", "hl-cauchy", "--max-degree", "2")
    lines = [json.loads(line) for line in out.strip().split("\n")]
    assert code == 1
    assert [(r["status"], r["witness"]) for r in lines[:-1]] == [("pass", None), ("fail", "planted witness")]
    assert (lines[-1]["summary"]["pass"], lines[-1]["summary"]["fail"]) == (1, 1)


def test_verify_small_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "hl-cauchy", "--max-degree", "2")
    assert code == 0
    lines = out.strip().split("\n")
    reports = [json.loads(line) for line in lines]
    assert all(r["status"] == "pass" for r in reports[:-1])
    assert reports[-1]["summary"]["fail"] == 0


def test_verify_numeric_mode(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "hl-cauchy", "--max-degree", "2",
        "--mode", "numeric", "--seed", "7", "--points", "2",
    )
    assert code == 0
    lines = out.strip().split("\n")
    points = {json.loads(l)["parameters"]["point"] for l in lines if "summary" not in json.loads(l)}
    assert len(points) == 2
    # memo keys end with their field; a point's tables go once its reports
    # are written, so many --points do not pile up tables
    rng = random.Random(7)
    sampled = {random_point(rng) for _ in range(2)}
    held = [key for key in symfun._CACHE if any(part in sampled for part in key)]
    assert not held, held[:3]
    # the theorem checks memoise the A_k matrices per field, and a point's
    # matrices go with its other tables
    code, _, _ = run_cli(capsys, "verify", "theorem", "--max-degree", "3", "--max-k", "2",
                         "--mode", "numeric", "--seed", "7", "--points", "2")
    assert code == 0
    held = [key for key in symfun._CACHE if key[0] == "A_table" and key[-1] in sampled]
    assert not held, held[:3]
    code, _, _ = run_cli(capsys, "verify", "theorem", "--max-degree", "3", "--max-k", "2")
    assert code == 0
    assert ("A_table", 3, 3, SYMBOLIC) in symfun._CACHE


def test_expression_grammar():
    f = parse_expression("(1-t)*p[1] + 2*m[2,1]")
    assert f.basis == "p"
    g = parse_expression("p[1]^2")
    assert g.coeffs == {Partition((1, 1)): parse_ratfun("1")}
    h = parse_expression("P[2] - P[2]")
    assert h.is_zero()
    k = parse_expression("M[1,1]*Q[1]")
    assert not k.is_zero()
    scalar_only = parse_expression("q^2 - 1")
    assert scalar_only == parse_ratfun("q^2-1")
    # a zero exponent may carry a sign; other negative powers need a scalar
    assert parse_expression("p[1]^-0") == parse_expression("p[1]^0") == SymFun("p", {Partition(): parse_ratfun("1")}, 0)
    with pytest.raises(ParseError):
        parse_expression("p[1]^-1")


def test_expression_mixed_bases_via_conversion():
    f = parse_expression("m[1,1] + p[2]")
    expected = SymFun.generator("m", (1, 1)) + convert(SymFun.generator("p", (2,)), "m")
    assert f == expected


def test_expression_reports_end_of_input_position():
    for text in ("p[1]+", "(p[1]"):
        with pytest.raises(ParseError) as err:
            parse_expression(text)
        assert err.value.position == len(text) == 5


def _random_ratfun(rng):
    def poly():
        return IntPoly2.from_terms(
            {(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-4, 4) for _ in range(rng.randint(1, 3))}
        )

    den = poly()
    while not den:
        den = poly()
    return RatFun(poly(), den)


def test_render_parse_round_trip():
    rng = random.Random(20261018)
    gens = [lam for d in (1, 2, 3) for lam in enumerate_partitions(d)]
    for basis in BASES:
        for _ in range(8):
            coeffs = {Partition(): _random_ratfun(rng)}
            for lam in rng.sample(gens, rng.randint(1, 4)):
                coeffs[lam] = _random_ratfun(rng)
            f = SymFun(basis, coeffs, 3)
            if f.max_degree() == 0:
                continue
            text = render_plain(f)
            assert parse_expression(text) == f, text

