import contextlib
import inspect
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from sinkhornlab import PositiveMatrix, cli, engine
from sinkhornlab.cli import build_parser, main
from sinkhornlab.closed_form import bordered_limit_triangular, limit_2x2_exact
from sinkhornlab.numerics import format_rational

F = Fraction

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "bench" / "golden" / "cli_golden.json").read_text())
GOLDEN_CASES = GOLDEN["cases"] + GOLDEN["errors"]

# 2,200 digits: its square is past the 4,300 digits that str() renders
BIG = 10**2199 + 7


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestScale:
    def test_exact_one_step(self, capsys):
        code, out, _ = run(capsys, "scale", "--exact", "1,12;3,4")
        assert code == 0
        assert "terminated finitely, L = 1" in out
        assert "1/4" in out and "3/4" in out

    def test_bracketed_input_is_accepted(self, capsys):
        code, out, _ = run(capsys, "scale", "--exact", "[[1,12],[3,4]]")
        assert code == 0
        assert "terminated finitely, L = 1" in out

    def test_approximate_convergence(self, capsys):
        code, out, _ = run(capsys, "scale", "1,3;3,4", "--tol", "1e-12")
        assert code == 0
        assert "converged within tolerance" in out
        assert "0.4" in out and "0.6" in out

    def test_nonpositive_entry_exits_one(self, capsys, tmp_path):
        code, _, err = run(capsys, "scale", "1,2;0,4")
        assert code == 1
        assert "entry (2,1) is not positive" in err
        for text in ("NaN", "Infinity", "1e400"):
            path = tmp_path / "m.json"
            path.write_text('{"rows": [[1, 2], [%s, 4]]}' % text)
            code, out, err = run(capsys, "scale", str(path))
            assert (code, out) == (1, "")
            assert err.startswith("error: entry (2,1) is not finite")
        for argv in (
            ("scale", "1e400,1;1,1"),
            ("rc-scale", "1,1;1,1", "--row-targets", "1e400,1", "--col-targets", "1,1"),
            ("limit", "--bordered", "3", "1e400"),
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (1, "")
            assert err.startswith("error: ") and err.count("\n") == 1

    def test_garbage_input_exits_one(self, capsys):
        code, _, err = run(capsys, "scale", "1,two;3,4")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("token,matrix,message", [
        ("x" * 3001, "{},1;1,1", "not a rational number"),
        ("1" + "0" * 400, "{},1;1,1", "number out of float range"),
        (";" * 3001, "{}", "empty matrix"),
    ], ids=["not-a-number", "out-of-float-range", "empty"])
    def test_long_token_is_echoed_clipped(self, capsys, token, matrix, message):
        assert run(capsys, "scale", matrix.format(token)) == (1, "", f"error: {message}: {token!r:.57}...\n")

    @pytest.mark.parametrize("exponent", [400, 4300])
    def test_huge_exact_values_are_echoed_clipped(self, capsys, exponent):
        # an entry and a target total, each past the int-to-str digit limit
        # at 1e-4300, are rendered in full and cut to 60 characters
        assert run(capsys, "scale", "--exact", "--", f"-1e-{exponent},1;1,1") == (
            1, "", f"error: entry (1,1) is not positive: -1/1{'0' * 53}...\n"
        )
        argv = ("rc-scale", "--exact", "1,1;1,1", "--row-targets", f"1,1e-{exponent}", "--col-targets", "1,1")
        assert run(capsys, *argv) == (1, "", f"error: target totals differ: sum(r) = 1{'0' * 56}..., sum(c) = 2\n")

    @pytest.mark.parametrize("flags", [(), ("--exact",)], ids=["approx", "exact"])
    def test_zero_step_budget_exits_one(self, capsys, flags):
        argv = ("scale", *flags, "1,2;3,4", "--max-steps", "0")
        assert run(capsys, *argv) == (1, "", "error: max_steps must be >= 1, got 0\n")

    def test_budget_exhaustion_exits_two(self, capsys):
        code, out, _ = run(capsys, "scale", "1,3;3,4", "--max-steps", "3", "--tol", "1e-15")
        assert code == 2
        assert "max steps reached" in out

    def test_long_exact_run_prints_in_full(self, capsys):
        code, out, err = run(capsys, "scale", "--exact", "3/2,1/3;4/3,6/5", "--max-steps", "100")
        assert (code, err) == (2, "")
        assert "max steps reached after 100 steps" in out
        left = out.split("left scaling:  diag(")[1].split(",")[0]
        assert len(left.split("/")[0]) > 4300

    @pytest.mark.parametrize("matrix", ["1e-300,1e-300;1e300,1e300", "1e-300,1e300;1e300,1e-300"])
    def test_leaving_float_range_exits_one(self, capsys, matrix):
        code, out, err = run(capsys, "scale", matrix)
        assert (code, out) == (1, "")
        assert err.startswith("error: iteration left float range by step 1: ")
        assert err.count("\n") == 1

    def test_json_output_round_trips(self, capsys):
        code, out, _ = run(capsys, "scale", "--exact", "1,12;3,4", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "terminated-finite"
        assert payload["steps"] == 1
        limit = PositiveMatrix.from_json_obj(payload["limit"])
        assert limit == PositiveMatrix(((F(1, 4), F(3, 4)), (F(3, 4), F(1, 4))))

    def test_approx_json_round_trips_bitwise(self, capsys):
        code, out, _ = run(capsys, "scale", "1,3;3,4", "--format", "json")
        payload = json.loads(out)
        limit = PositiveMatrix.from_json_obj(payload["limit"])
        rerun_code, rerun_out, _ = run(capsys, "scale", "1,3;3,4", "--format", "json")
        assert limit == PositiveMatrix.from_json_obj(json.loads(rerun_out)["limit"])

    def test_json_file_input(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"rows": [["1", "12"], ["3", "4"]]}')
        code, out, _ = run(capsys, "scale", str(path))
        assert code == 0
        assert "terminated finitely, L = 1" in out

    def test_exact_flag_reparses_file_numbers_exactly(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"rows": [[1, 12], [3, 4]]}')
        code, out, _ = run(capsys, "scale", "--exact", str(path))
        assert code == 0
        assert "mode: exact" in out

    @pytest.mark.parametrize("digits", [400, 5_000])
    def test_huge_integer_literal_of_a_float_file_is_not_finite(self, capsys, tmp_path, digits):
        # read as a float, as 1e400 is: int() refuses literals past 4,300 digits
        path = tmp_path / "m.json"
        path.write_text('{"rows": [[1, %s], [1, 1]]}' % ("9" * digits))
        assert run(capsys, "scale", str(path)) == (1, "", "error: entry (1,2) is not finite: inf\n")

    @pytest.mark.parametrize("depth", [1_000, 100_000])
    @pytest.mark.parametrize("argv", [("scale",), ("scale", "--exact"), ("classify",)])
    def test_deeply_nested_json_file_is_one_error_line(self, capsys, tmp_path, argv, depth):
        # json.loads raises RecursionError, not a ValueError: from about 1,000
        # levels before Python 3.12, and by 10,000 levels on 3.12 and 3.13
        path = tmp_path / "deep.json"
        path.write_text('{"rows": ' + "[" * depth + "1" + "]" * depth + "}")
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        if depth > 10_000 or sys.version_info < (3, 12):
            assert err == f"error: {path}: JSON nests too deeply to read\n"

    @pytest.mark.parametrize("tol", ["inf", "1e400", "nan", "-1"])
    def test_tolerance_must_be_finite_and_nonnegative(self, capsys, tol):
        # inf once reported the unscaled input as converged after 0 steps
        code, out, err = run(capsys, "scale", "1,2;3,4", "--tol", tol)
        assert (code, out) == (1, "")
        assert err.startswith("error: tolerance must be finite and nonnegative") and err.count("\n") == 1

    def test_output_does_not_depend_on_the_environment(self, capsys, monkeypatch):
        # main()'s output depends on argv alone: --tol sets the tolerance
        argv = ("scale", "1,3;3,4", "--format", "json")
        monkeypatch.delenv("SINKHORNLAB_TOLERANCE", raising=False)
        default = run(capsys, *argv)
        monkeypatch.setenv("SINKHORNLAB_TOLERANCE", "1e-2")
        assert run(capsys, *argv) == default


class TestRcScale:
    def test_flat_matrix_with_targets(self, capsys):
        code, out, _ = run(
            capsys, "rc-scale", "--exact", "1,1;1,1",
            "--row-targets", "1,3", "--col-targets", "2,2",
        )
        assert code == 0
        assert "terminated finitely, L = 2" in out
        assert "3/2" in out

    def test_unequal_totals_exit_one(self, capsys):
        code, _, err = run(
            capsys, "rc-scale", "--exact", "1,1;1,1",
            "--row-targets", "1,2", "--col-targets", "2,2",
        )
        assert code == 1
        assert "totals differ" in err


class TestLimit:
    def test_bordered(self, capsys):
        code, out, _ = run(capsys, "limit", "--bordered", "3", "2")
        assert code == 0
        assert "0.4384471871911697" in out
        for n in ("3.5", "1e400"):
            assert run(capsys, "limit", "--bordered", n, "2") == (
                1, "", f"error: --bordered N must be an integer, got '{n}'\n"
            )

    @pytest.mark.parametrize("digits", [200, 400])
    def test_bordered_n_past_float_range_exits_one(self, capsys, digits):
        code, out, err = run(capsys, "limit", "--bordered", "1" + "0" * digits, "2")
        assert (code, out) == (1, "")
        floor = (10**digits).bit_length() - 1
        assert err == f"error: bordered limit of n >= 2**{floor}, K = 2.0 leaves float range: n is too large\n"

    def test_bordered_n_of_a_hundred_and_one_digits_prints(self, capsys):
        code, out, err = run(capsys, "limit", "--bordered", "1" + "0" * 100, "2")
        assert (code, err) == (0, "")
        assert out.startswith(f"bordered family: n = 1{'0' * 100}, K = 2.0\nalpha = 2e-100\n")

    def test_bordered_n_past_the_digit_limit_is_echoed_clipped(self, capsys):
        # int() refuses more than 4,300 digits
        assert run(capsys, "limit", "--bordered", "1" + "0" * 5000, "2") == (
            1, "", "error: --bordered N must be an integer, got '1" + "0" * 55 + "...\n"
        )

    def test_matrix_other_than_2x2_exits_one(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"rows": [[1, 2, 3], [4, 5, 6]]}')
        for matrix, shape in (("1,2,3;4,5,6;7,8,9", "3x3"), (str(path), "2x3")):
            assert run(capsys, "limit", matrix) == (1, "", (
                f"error: closed forms cover 2x2 matrices (got {shape}); "
                "use --bordered N K for the bordered n x n family\n"
            ))

    def test_exact_irrational(self, capsys):
        code, out, _ = run(capsys, "limit", "--exact", "1,2;3,4")
        assert code == 0
        assert "irrational: ad/bc = 2/3" in out

    def test_exact_rational(self, capsys):
        # no golden case covers a rational --exact limit
        code, out, _ = run(capsys, "limit", "--exact", "1,3;3,4")
        assert code == 0
        assert out == "alpha = 2/5 (exact)\nbeta  = 3/5 (exact)\nlimit:\n  2/5  3/5\n  3/5  2/5\n"
        code, out, _ = run(capsys, "limit", "--exact", "1,3;3,4", "--format", "json")
        assert code == 0
        assert out == (
            '{\n  "command": "limit",\n  "family": "exact-2x2",\n  "rational": true,\n'
            '  "ratio": "4/9",\n  "alpha": "2/5",\n  "beta": "3/5"\n}\n'
        )

    def test_exact_values_past_the_str_digit_limit(self, capsys):
        irrational = f"{BIG},1;2,{BIG}"
        ratio = format_rational(F(BIG * BIG, 2))
        assert len(ratio) > 4300
        assert run(capsys, "limit", "--exact", irrational) == (
            0, f"irrational: ad/bc = {ratio} is not a rational square\n", ""
        )
        code, out, err = run(capsys, "limit", "--exact", irrational, "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out) == {
            "command": "limit", "family": "exact-2x2", "rational": False,
            "ratio": ratio, "alpha": None, "beta": None,
        }
        lim = limit_2x2_exact(F(BIG), F(1), F(4), F(BIG))
        code, out, err = run(capsys, "limit", "--exact", f"{BIG},1;4,{BIG}", "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["ratio"] == format_rational(F(BIG * BIG, 4))
        assert json.loads(out)["alpha"] == format_rational(lim.alpha)

    def test_triangular_past_the_str_digit_limit(self, capsys):
        lim = bordered_limit_triangular(BIG)
        K = format_rational(lim.K)
        assert len(K) > 4300
        code, out, err = run(capsys, "limit", "--triangular", str(BIG))
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            f"triangular family: k = {BIG}, K = {K}",
            *(f"{name:<5} = {format_rational(getattr(lim, name))} (exact)" for name in ("alpha", "beta", "gamma")),
        ]
        code, out, err = run(capsys, "limit", "--triangular", str(BIG), "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["K"] == K

    def test_symmetric(self, capsys):
        code, out, _ = run(capsys, "limit", "--symmetric", "1,2;2,4")
        assert code == 0
        assert "1/2" in out or "0.5" in out

    def test_symmetric_rejects_asymmetric_input(self, capsys):
        code, _, err = run(capsys, "limit", "--symmetric", "1,2;3,4")
        assert code == 1

    def test_triangular(self, capsys):
        code, out, _ = run(capsys, "limit", "--triangular", "3")
        assert code == 0
        assert "alpha = 3/5" in out

    def test_general_2x2(self, capsys):
        code, out, _ = run(capsys, "limit", "1,3;3,4")
        assert code == 0
        assert "alpha = 0.4" in out

    def test_inconsistent_flags_exit_one(self, capsys):
        code, _, err = run(capsys, "limit", "1,2;3,4", "--bordered", "3", "2")
        assert code == 1
        assert "exactly one" in err

    def test_missing_input_exits_one(self, capsys):
        code, _, _ = run(capsys, "limit")
        assert code == 1

    @pytest.mark.parametrize(
        "first,second,rest",
        [
            ("--exact", "--symmetric", ["1,2;2,4"]),
            ("--exact", "--bordered", ["3", "2"]),
            ("--exact", "--triangular", ["3"]),
            ("--symmetric", "--bordered", ["3", "2"]),
            ("--symmetric", "--triangular", ["3"]),
            ("--exact", "--triangular", ["0"]),
            ("--symmetric", "--triangular", ["0"]),
        ],
    )
    def test_two_families_exit_one(self, capsys, first, second, rest):
        # each pair once printed the second family's output and exited 0
        code, out, err = run(capsys, "limit", first, second, *rest)
        assert (code, out) == (1, "")
        assert err == f"error: {first} cannot be combined with {second}: a limit call takes one family\n"

    @pytest.mark.parametrize("k", ["0", "1", "-1"])
    def test_triangular_below_two_exits_one(self, capsys, k):
        # --triangular 0 was once counted as no family given
        code, out, err = run(capsys, "limit", "--triangular", k)
        assert (code, out) == (1, "")
        assert err == f"error: triangular family needs k >= 2, got {k} (k = 1 gives the flat all-ones matrix)\n"


class TestClassify:
    def test_two_step(self, capsys):
        code, out, _ = run(capsys, "classify", "2,6;5,15", "--start-side", "row")
        assert code == 0
        assert "two-step-column-last" in out
        assert "p = 2, r = 5, t = 3" in out
        assert "1/2" in out

    def test_infinite_appends_closed_form(self, capsys):
        code, out, _ = run(capsys, "classify", "1,3;3,4")
        assert code == 0
        assert "infinite" in out
        assert "alpha = 2/5" in out

    def test_infinite_with_irrational_closed_form(self, capsys):
        code, out, _ = run(capsys, "classify", "1,2;3,4")
        assert code == 0
        assert "ad/bc = 2/3" in out

    def test_closed_form_note_past_the_str_digit_limit(self, capsys):
        ratio = format_rational(F(BIG * BIG, 2))
        code, out, err = run(capsys, "classify", f"{BIG},1;2,{BIG}")
        assert (code, err) == (0, "")
        assert out.endswith(f"\nclosed-form limit is irrational: ad/bc = {ratio} is not a rational square\n")
        code, out, err = run(capsys, "classify", f"{BIG},1;2,{BIG}", "--both-orders", "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["closed_form"] == {"ratio": ratio, "rational": False}

    def test_already_doubly_stochastic(self, capsys):
        code, out, _ = run(capsys, "classify", "1/2,1/2;1/2,1/2")
        assert code == 0
        assert "L = 0" in out

    def test_decimal_entries_are_converted_with_a_note(self, capsys):
        code, out, _ = run(capsys, "classify", "0.5,0.5;0.5,0.5")
        assert code == 0
        assert "converted to exact rationals" in out
        assert "L = 0" in out

    def test_non_2x2_exits_one_citing_open_problem(self, capsys):
        code, _, err = run(capsys, "classify", "1,1,1;1,1,1;1,1,1")
        assert code == 1
        assert "open problem" in err

    def test_both_orders(self, capsys):
        code, out, _ = run(capsys, "classify", "1,2;2,4", "--both-orders")
        assert code == 0
        assert "step difference |N1 - N2| = 0" in out

    def test_both_orders_json(self, capsys):
        code, out, _ = run(capsys, "classify", "1,12;3,4", "--both-orders", "--format", "json")
        payload = json.loads(out)
        assert payload["column_first"]["length"] == 1
        assert payload["row_first"]["length"] is None
        assert payload["step_difference"] is None

    def test_agrees_with_exact_scale(self, capsys):
        for matrix in ("1,12;3,4", "2,6;5,15", "1,1;1,1", "1/2,1/2;1/2,1/2", "1,3;3,4"):
            _, classify_out, _ = run(capsys, "classify", matrix, "--format", "json")
            length = json.loads(classify_out)["length"]
            scale_code, scale_out, _ = run(capsys, "scale", "--exact", matrix, "--format", "json")
            payload = json.loads(scale_out)
            if length is None:
                assert scale_code == 2
                assert payload["status"] == "max-steps-reached"
            else:
                assert payload["status"] == "terminated-finite"
                assert payload["steps"] == length


class TestTrace:
    def test_exact_trace_reproduces_margin_errors(self, capsys):
        code, out, _ = run(capsys, "trace", "--exact", "1,3;3,4", "--steps", "3")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "step,side,max_row_err,max_col_err,max_entry_bits"
        # A^(1) = (1/4 3/7; 3/4 4/7): rows sum to 19/28 and 37/28
        assert lines[2] == "1,col,9/28,0,3"
        assert len(lines) == 5

    def test_doubly_stochastic_trace_is_a_single_row(self, capsys):
        code, out, _ = run(capsys, "trace", "--exact", "1/2,1/2;1/2,1/2")
        lines = out.strip().split("\n")
        assert len(lines) == 2
        # entries 1/2: numerator is 1 bit, denominator 2 is 2 bits
        assert lines[1] == "0,-,0,0,2"

    def test_exact_errors_past_the_integer_digit_limit(self, capsys):
        # by step 8 a margin error's numerator has more than 4,300 digits,
        # the interpreter's limit for str() of an int
        code, out, err = run(
            capsys, "trace", "--exact", "--steps", "8", "1,2,3,4;5,6,7,8;9,1,2,3;4,5,6,8"
        )
        assert (code, err) == (0, "")
        lines = out.strip().split("\n")
        assert [line.split(",", 1)[0] for line in lines[1:]] == [str(k) for k in range(9)]
        # step 8 scales rows, and its column error is a long p/q
        _, side, row_err, col_err, _ = lines[-1].split(",")
        assert (side, row_err) == ("row", "0")
        numerator, denominator = col_err.split("/")
        assert numerator.isdigit() and denominator.isdigit() and len(numerator) > 4300

    def test_approx_margin_errors_shrink(self, capsys):
        code, out, _ = run(capsys, "trace", "1,2;3,4", "--tol", "1e-12")
        lines = out.strip().split("\n")
        errs = [max(float(l.split(",")[2]), float(l.split(",")[3])) for l in lines[1:]]
        assert errs[-1] <= 1e-12
        assert all(e2 <= e1 * 1.001 for e1, e2 in zip(errs, errs[1:]))


class TestSearch:
    def test_two_by_two_catalog(self, capsys):
        code, out, _ = run(capsys, "search", "--n", "2", "--bound", "3")
        assert code == 0
        assert "candidates: 81" in out
        assert "L = 1" in out and "L = 2" in out
        lengths = [
            int(line.split("L = ")[1].split(",")[0])
            for line in out.splitlines()
            if "->" in line
        ]
        assert lengths and all(L <= 2 for L in lengths)

    def test_bound_one(self, capsys):
        code, out, _ = run(capsys, "search", "--n", "2", "--bound", "1")
        assert code == 0
        assert "finite terminations: 1" in out

    def test_three_by_three_smoke(self, capsys):
        code, out, _ = run(capsys, "search", "--n", "3", "--bound", "1")
        assert code == 0
        assert "finite terminations: 1" in out

    def test_candidate_cap_exits_one(self, capsys):
        code, _, err = run(capsys, "search", "--n", "3", "--bound", "9", "--candidate-cap", "1000")
        assert code == 1
        assert "exceeds" in err

    def test_defaults_are_the_engine_constants(self):
        args = build_parser().parse_args(["search", "--n", "2", "--bound", "2"])
        assert args.candidate_cap == engine.DEFAULT_SEARCH_CANDIDATE_CAP
        defaults = inspect.signature(engine.finite_termination_search).parameters
        assert defaults["candidate_cap"].default == engine.DEFAULT_SEARCH_CANDIDATE_CAP

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "search", "--n", "2", "--bound", "2", "--format", "json")
        payload = json.loads(out)
        assert payload["candidates"] == 16
        assert all(h["length"] <= 2 for h in payload["hits"])


@pytest.mark.parametrize(
    "argv",
    [
        # fails in a print inside the command: the output outgrows the buffer
        ["search", "--n", "3", "--bound", "2", "--format", "json"],
        # fails in the flush after main() returns
        ["limit", "--triangular", "3"],
    ],
)
def test_closed_stdout_exits_141_quietly(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "sinkhornlab", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (cli.EXIT_BROKEN_PIPE, b"")


@pytest.mark.parametrize(
    "argv",
    [
        ["scale", "1e10000000,1;1,1"],
        ["scale", "--exact", "1e-10000000,1;1,1", "--max-steps", "1"],
        ["scale", "--exact", "MATRIX_FILE", "--max-steps", "1"],
        ["rc-scale", "1,1;1,1", "--row-targets", "1e10000000,1", "--col-targets", "1,1"],
        ["rc-scale", "--exact", "1,1;1,1", "--row-targets", "1,1", "--col-targets", "1,1e-10000000"],
        ["limit", "--bordered", "3", "1e10000000"],
        ["limit", "--bordered", "1" + "0" * 200, "2"],
        ["limit", "--bordered", "1" + "0" * 400, "1"],
        ["scale", "--exact", "--", "-1e-4300,1;1,1"],
        ["rc-scale", "--exact", "1,1;1,1", "--row-targets", "1,1e-4300", "--col-targets", "1,1"],
    ],
)
def test_huge_numbers_exit_one_at_once(argv, tmp_path):
    """Each number-reading path refuses an exponent past the digit limit
    before Fraction builds the power (13.6 s at 1e10000000), and --bordered
    refuses an N past float range: one error line, within the timeout."""
    path = tmp_path / "m.json"
    path.write_text('{"rows": [["1e10000000", "1"], ["1", "1"]]}')
    argv = [str(path) if arg == "MATRIX_FILE" else arg for arg in argv]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "sinkhornlab", *argv], capture_output=True, text=True, env=env, timeout=10,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def assert_golden(case, code, out, err):
    """A case stored without output must fail cleanly: exit 1 and one error line."""
    if case["stdout"] is None:
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
    else:
        assert (code, out, err) == (case["exit"], case["stdout"], case["stderr"])


def golden_case(*argv):
    return next(case for case in GOLDEN_CASES if case["argv"] == list(argv))


@pytest.mark.parametrize(
    "case", GOLDEN_CASES, ids=[" ".join(case["argv"]) for case in GOLDEN_CASES]
)
def test_golden_replay(case, capsys, monkeypatch):
    """Every recorded CLI case replays byte for byte: exit code, stdout, stderr.

    The cases name matrix files relative to the repository root.
    """
    monkeypatch.chdir(ROOT)
    assert_golden(case, *run(capsys, *case["argv"]))


LIMIT_JSON = json.loads((ROOT / "tests" / "limit_json_pins.json").read_text())


@pytest.mark.parametrize("key", sorted(LIMIT_JSON))
def test_limit_json_pinned(key, capsys, monkeypatch):
    """Every exit-0 golden limit case, rerun with --format json, prints the
    bytes captured before the limit families shared their renderers."""
    case = golden_case(*key.split(" "))
    assert case["exit"] == 0
    monkeypatch.chdir(ROOT)
    assert run(capsys, *case["argv"], "--format", "json") == (0, LIMIT_JSON[key], "")


def test_limit_json_pins_cover_every_family():
    limit_cases = [" ".join(c["argv"]) for c in GOLDEN["cases"] if c["argv"][0] == "limit" and c["exit"] == 0]
    assert sorted(limit_cases) == sorted(LIMIT_JSON)
    families = {json.loads(out)["family"] for out in LIMIT_JSON.values()}
    assert families == {"bordered", "triangular", "symmetric", "exact-2x2", "general-2x2"}


class TestParserReuse:
    """main() builds its parser once per process; no call may leak into the next."""

    def test_main_builds_its_parser_once(self, capsys):
        build_parser.cache_clear()
        argvs = [("scale", "1,3;3,4"), ("classify", "1,2;3,4", "--format", "json"),
                 ("limit", "--triangular", "3"), ("scale", "1,x;1,1")]
        for i in range(20):
            run(capsys, *argvs[i % len(argvs)])
        info = build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 19)

    def test_usage_error_then_valid_call(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scale", "1,3;3,4", "--max-steps", "x"])
        assert exc.value.code == 2
        capsys.readouterr()
        case = golden_case("classify", "2,6;5,15", "--start-side", "row")
        assert_golden(case, *run(capsys, *case["argv"]))

    def test_json_then_human(self, capsys):
        case = golden_case("limit", "--symmetric", "1,2;2,4")
        code, out, _ = run(capsys, *case["argv"], "--format", "json")
        assert code == 0 and json.loads(out)["family"] == "symmetric"
        assert_golden(case, *run(capsys, *case["argv"]))

    def test_golden_cases_replay_again_in_reverse(self, capsys, monkeypatch):
        monkeypatch.chdir(ROOT)
        for case in reversed(GOLDEN_CASES):
            assert_golden(case, *run(capsys, *case["argv"]))


def _option(flags, dest, default=None, type=None, choices=None, nargs=None, required=False, metavar=None):
    return {"flags": flags, "dest": dest, "default": default, "type": type,
            "choices": choices, "nargs": nargs, "required": required, "metavar": metavar}


MATRIX = _option((), "matrix", required=True)
EXACT = _option(("--exact",), "exact", default=False, nargs=0)
START_SIDE = _option(("--start-side",), "start_side", default="column", choices=("column", "row"))
TOL = _option(("--tol",), "tol", type=float)
FORMAT = _option(("--format",), "format", default="human", choices=("human", "json"))
RUN = [MATRIX, EXACT, START_SIDE, _option(("--max-steps",), "max_steps", type=int), TOL, FORMAT]
OPTIONS = {
    "scale": RUN,
    "rc-scale": RUN + [_option(("--row-targets",), "row_targets", required=True),
                      _option(("--col-targets",), "col_targets", required=True)],
    "limit": [_option((), "matrix", nargs="?"), EXACT, _option(("--symmetric",), "symmetric", default=False, nargs=0),
              _option(("--bordered",), "bordered", nargs=2, metavar=("N", "K")),
              _option(("--triangular",), "triangular", type=int, metavar="k"), FORMAT],
    "classify": [MATRIX, START_SIDE, _option(("--both-orders",), "both_orders", default=False, nargs=0), FORMAT],
    "trace": [MATRIX, EXACT, START_SIDE, _option(("--steps",), "max_steps", type=int, metavar="STEPS"), TOL],
    "search": [_option(("--n",), "n", type=int, required=True), _option(("--bound",), "bound", type=int, required=True),
               START_SIDE, _option(("--candidate-cap",), "candidate_cap", default=engine.DEFAULT_SEARCH_CANDIDATE_CAP, type=int),
               FORMAT],
}


def _options_of(parser):
    """Each argument's parse-relevant settings, keyed by its flags (or dest)."""
    out = {}
    for action in parser._actions:
        if action.dest == "help":
            continue
        choices = tuple(action.choices) if action.choices is not None else None
        out[action.option_strings[0] if action.option_strings else action.dest] = _option(
            tuple(action.option_strings), action.dest, action.default, action.type, choices,
            action.nargs, action.required, action.metavar,
        )
    return out


def test_each_subcommand_takes_the_pinned_options():
    """Every subcommand's arguments, in any declaration order: the flags,
    dest, default, type, choices, nargs, required and metavar of each."""
    sub = build_parser()._subparsers._group_actions[0]
    assert sorted(sub.choices) == sorted(OPTIONS)
    for name, options in OPTIONS.items():
        expected = {o["flags"][0] if o["flags"] else o["dest"]: o for o in options}
        assert _options_of(sub.choices[name]) == expected, name


def mostly(valid, invalid):
    """Values drawn from valid three times as often as from invalid, so
    that most fuzzed argvs get past parsing and run a command."""
    return st.sampled_from(tuple(valid) * 3 + tuple(invalid))


entry = mostly(("1", "2", "3", "7", "1/2", "4/3", "0.25"),
               ("1/0", "nan", "inf", "1e400", "5e-324", "1e300", "1e-300", "", "x", "0", "-1"))
# An exact run that is not 2x2 and never terminates grows to its step
# budget: from entries like 5e-324 its bit sizes double each step, so steps
# stay at most 4 (ROADMAP item 5).
step_budget = mostly(("1", "2", "3", "4"), ("0", "-1"))
flag_values = {
    "--start-side": mostly(("column", "row"), ("diagonal",)),
    "--tol": mostly(("0", "1e-9", "0.5"), ("-1", "nan", "1e400", "x")),
    "--format": mostly(("human", "json"), ("xml",)),
    "--max-steps": step_budget,
    "--candidate-cap": mostly(("100",), ("1", "-1")),
}


@st.composite
def matrix_text(draw, sizes=(2, 2, 3, 1)):
    rows = draw(st.sampled_from(sizes))
    cols = draw(mostly((rows,), (1, 2, 3)))
    cells = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    if rows > 1 and draw(mostly((False,), (True,))):
        cells[-1].pop()  # ragged, or an empty last row
    return [";".join(map(",".join, cells))]


@st.composite
def optional_flags(draw, *flags):
    argv = []
    for flag in flags:
        if draw(st.booleans()):
            argv += [flag, draw(flag_values[flag])] if flag in flag_values else [flag]
    return argv


def flat(parts):
    return [arg for part in parts for arg in part]


def argv_of(*parts):
    return st.tuples(*parts).map(flat)


vector_text = st.lists(entry, min_size=1, max_size=3).map(",".join)
limit_sources = st.one_of(
    matrix_text(),
    st.tuples(st.just("--bordered"), mostly(("3", "4", "10"), ("2", "-1", "x")), entry),
    st.integers(-1, 30).map(lambda k: ["--triangular", str(k)]),
)
fuzz_argv = st.one_of(
    argv_of(st.just(["scale"]), matrix_text(), st.tuples(st.just("--max-steps"), step_budget),
            optional_flags("--exact", "--start-side", "--tol", "--format")),
    argv_of(st.just(["rc-scale"]), matrix_text(),
            st.tuples(st.just("--row-targets"), vector_text, st.just("--col-targets"), vector_text),
            st.tuples(st.just("--max-steps"), step_budget),
            optional_flags("--exact", "--start-side", "--tol", "--format")),
    argv_of(st.just(["trace"]), matrix_text(), st.tuples(st.just("--steps"), step_budget),
            optional_flags("--exact", "--start-side", "--tol")),
    argv_of(st.just(["limit"]), st.lists(limit_sources, max_size=2).map(flat),
            optional_flags("--exact", "--symmetric", "--format")),
    argv_of(st.just(["classify"]), matrix_text(sizes=(2, 2, 2, 3)),
            optional_flags("--start-side", "--both-orders", "--format")),
    argv_of(st.just(["search", "--n", "2"]), st.tuples(st.just("--bound"), mostly(("1", "2", "3"), ("0", "-1"))),
            optional_flags("--start-side", "--format", "--candidate-cap")),
)


@given(fuzz_argv)
@example(["limit", "--bordered", "3", "1e300"])
@example(["limit", "--bordered", "10", "5e-324"])
@example(["limit", "--bordered", "3", "1.7976931348623157e308"])
@example(["limit", "1e-300,1/2;1e-300,1"])
@example(["limit", "1e-200,1e-200;1e-200,1e-200", "--symmetric"])
@settings(max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_fuzzed_argv_exits_cleanly(argv):
    """main() on any argv exits 0, 1 or 2 (argparse's usage exit included),
    an exit of 1 prints exactly one error line, and nothing else escapes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), argv
    if code == 1:
        assert (out.getvalue(), err.getvalue().count("\n")) == ("", 1), argv
        assert err.getvalue().startswith("error: "), argv
