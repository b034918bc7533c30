import json
import os
import random
import subprocess
import sys

import pytest

import freebax
from freebax import INT, RAT, Context, Zmod, WitnessReport, one, unit_word
from freebax.cli import main
from freebax.lang import MAX_NESTING, EvalError, ParseError, evaluate_source, parse, render
from freebax.verify import SUITES, random_element

BAXTER_SOURCE = "P(x) * P(y) - P(x*P(y)) - P(y*P(x)) - lam*P(x*y)"

CONTEXTS = [
    Context(INT, INT.coeff(0), ("x", "y")),
    Context(INT, INT.coeff(2), ("x", "y")),
    Context(RAT, RAT.coeff(1), ("x", "y")),
    Context(Zmod(9), Zmod(9).coeff(3), ("x", "y")),
    Context(Zmod(5), Zmod(5).coeff(2), ("x", "y")),
]


class TestRoundTrip:
    def test_parse_render_identity_on_random_elements(self):
        rng = random.Random(101)
        for i in range(200):
            ctx = CONTEXTS[i % len(CONTEXTS)]
            a = random_element(rng, ctx, max_terms=4, max_word_len=3)
            assert evaluate_source(render(a), ctx) == a

    def test_render_canonical_order(self):
        ctx = Context(INT, INT.coeff(3))
        a = unit_word(ctx, 2).scaled(2) + unit_word(ctx, 1).scaled(3)
        assert render(a) == "3*T(1,1) + 2*T(1,1,1)"

    def test_render_zero(self):
        ctx = Context(INT, INT.coeff(3))
        assert render(one(ctx) - one(ctx)) == "0"

    def test_negative_leading_coefficient_reparses(self):
        ctx = Context(INT, INT.coeff(1), ("x",))
        a = -unit_word(ctx, 1)
        assert render(a) == "-T(1,1)"
        assert evaluate_source(render(a), ctx) == a


class TestEvaluation:
    @pytest.mark.parametrize("ctx", CONTEXTS, ids=lambda c: f"{c.ring}-lam{c.lam}")
    def test_baxter_identity_evaluates_to_zero(self, ctx):
        assert evaluate_source(BAXTER_SOURCE, ctx).is_zero()

    def test_unit_word_sugar(self):
        ctx = Context(INT, INT.coeff(1))
        assert evaluate_source("U(1)", ctx) == evaluate_source("T(1,1)", ctx)
        assert evaluate_source("U(0)", ctx) == one(ctx)

    def test_tensor_with_polynomials(self):
        ctx = Context(INT, INT.coeff(1), ("x", "y"))
        a = evaluate_source("T(x, y^2) + 3*T(1)", ctx)
        assert len(a.terms) == 2

    def test_tensor_expands_multilinearly(self):
        ctx = Context(INT, INT.coeff(1), ("x", "y"))
        assert evaluate_source("T(x + 1, y)", ctx) == evaluate_source("T(x, y) + T(1, y)", ctx)

    def test_geom_witness(self):
        ctx = Context(RAT, RAT.coeff(1))
        value = evaluate_source("U(1) * geom(-1)", ctx, precision=12)
        assert value.is_zero() and value.precision == 12

    def test_power_at_weight_zero(self):
        ctx = Context(RAT, RAT.coeff(0))
        assert render(evaluate_source("U(1)^3", ctx)) == "6*T(1,1,1,1)"

    def test_rational_literal_needs_invertible_denominator(self):
        assert evaluate_source("1/2", Context(Zmod(5), Zmod(5).coeff(1))).terms[0][1].value == 3
        with pytest.raises(EvalError):
            evaluate_source("1/2", Context(INT, INT.coeff(1)))
        with pytest.raises(EvalError):
            evaluate_source("1/5", Context(Zmod(5), Zmod(5).coeff(1)))

    def test_geom_requires_scalar_ratio(self):
        ctx = Context(INT, INT.coeff(1))
        with pytest.raises(EvalError):
            evaluate_source("geom(U(1))", ctx)

    def test_lam_literal(self):
        ctx = Context(INT, INT.coeff(7))
        assert evaluate_source("lam", ctx) == one(ctx).scaled(7)


class TestParseErrors:
    def test_nested_tensor_diagnostic(self):
        with pytest.raises(ParseError) as err:
            parse("T(T(1))")
        assert "inside T" in str(err.value)

    def test_unknown_variable_with_position(self):
        with pytest.raises(ParseError) as err:
            parse("x + 1", variables=("y",))
        assert "position 0" in str(err.value)

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("1 + 2 )")

    def test_power_needs_literal(self):
        with pytest.raises(ParseError):
            parse("U(1)^x")

    def test_nesting_limit(self):
        # P^n(x) is nested n + 1 levels deep
        deepest = "P(" * (MAX_NESTING - 1) + "x" + ")" * (MAX_NESTING - 1)
        ctx = Context(INT, INT.coeff(1), ("x",))
        assert len(evaluate_source(deepest, ctx).terms[0][0]) == MAX_NESTING
        with pytest.raises(ParseError, match="nests deeper"):
            parse("(" + deepest + ")")
        with pytest.raises(ParseError, match="nests deeper"):
            parse("-" * MAX_NESTING + "1")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCommandLine:
    def test_eval_ok(self, capsys):
        code, out, _ = run_cli(capsys, "--ring", "mod:9", "--lambda", "3", "eval", "U(1)*U(1)")
        assert code == 0
        assert out.strip() == "3*T(1,1) + 2*T(1,1,1)"

    def test_byte_identical_reruns(self, capsys):
        argv = ["--ring", "int", "--lambda", "2", "--vars", "x,y", "eval", BAXTER_SOURCE]
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first == second == (0, "0\n", "")

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "eval", "T(")
        assert code == 2 and "error" in err

    def test_unknown_variable_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "eval", "zz + 1")
        assert code == 2 and "zz" in err

    def test_json_eval(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "--ring", "mod:9", "--lambda", "3", "eval", "U(1)*U(1)")
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "eval"
        assert payload["context"]["ring"] == "mod:9"
        assert payload["result"]["terms"][0] == {"coeff": "3", "word": [[], []]}

    def test_enumerate_shuffles(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate-shuffles", "2", "2")
        assert code == 0
        assert out.strip().endswith("count 13")

    def test_enumerate_shuffles_json(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "enumerate-shuffles", "1", "1")
        payload = json.loads(out)
        assert code == 0 and payload["count"] == 3

    @pytest.mark.parametrize("m, n", [("3", "-1"), ("-1", "3")])
    def test_enumerate_shuffles_rejects_negative_lengths(self, capsys, m, n):
        code, out, err = run_cli(capsys, "enumerate-shuffles", m, n)
        assert code == 2 and out == "" and "nonnegative" in err

    def test_deep_nesting_exits_two_without_traceback(self):
        deep = "P(" * 400 + "x" + ")" * 400
        src = os.path.dirname(os.path.dirname(freebax.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "freebax.cli", "--vars", "x", "eval", deep],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "nests deeper" in proc.stderr and "Traceback" not in proc.stderr

    def test_phi_command(self, capsys):
        code, out, _ = run_cli(capsys, "--ring", "int", "--lambda", "2", "phi", "U(1)", "--len", "4")
        assert code == 0
        assert out == "[1] 0\n[2] 2*T(1)\n[3] 4*T(1)\n[4] 6*T(1)\n"

    @pytest.mark.parametrize("length", ["0", "-3"])
    def test_phi_rejects_nonpositive_length(self, capsys, length):
        code, out, err = run_cli(capsys, "phi", "U(1)", "--len", length)
        assert code == 2 and out == "" and "length" in err

    def test_ideal_member_vars(self, capsys):
        code, out, _ = run_cli(capsys, "--vars", "x,y", "ideal-member", "--gens", "x", "T(x,y) + T(x,1)")
        assert code == 0 and out.strip() == "true"

    def test_ideal_member_scalar(self, capsys):
        code, out, _ = run_cli(capsys, "ideal-member", "--gens", "scalar:2", "2*U(1) + 3*U(2)")
        assert code == 0 and out.strip() == "false"

    def test_verify_pass_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "prop-unit", "weight0-nilpotent")
        assert code == 0
        assert "checks passed" in out

    def test_verify_json(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "verify", "charp")
        payload = json.loads(out)
        assert code == 0 and payload["ok"] is True
        assert all(r["verdict"] == "pass" for r in payload["report"])

    def test_verify_failure_exit_one(self, capsys, monkeypatch):
        bad = lambda seed, precision: [WitnessReport("rigged", (), False, "forced failure")]
        monkeypatch.setitem(SUITES, "rigged", bad)
        code, out, _ = run_cli(capsys, "verify", "rigged")
        assert code == 1
        assert "FAIL" in out

    def test_reserved_variable_rejected(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--vars", "lam", "eval", "1"])
        assert err.value.code == 2
