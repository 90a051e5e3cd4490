import contextlib
import inspect
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from sinkhornlab import PositiveMatrix, cli, engine
from sinkhornlab.cli import build_parser, main

F = Fraction

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "bench" / "golden" / "cli_golden.json").read_text())
GOLDEN_CASES = GOLDEN["cases"] + GOLDEN["errors"]


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

    @pytest.mark.parametrize("tol", ["inf", "1e400", "nan", "-1"])
    def test_tolerance_must_be_finite_and_nonnegative(self, capsys, tol):
        # inf once reported the unscaled input as converged after 0 steps
        code, out, err = run(capsys, "scale", "1,2;3,4", "--tol", tol)
        assert (code, out) == (1, "")
        assert err.startswith("error: tolerance must be finite and nonnegative") and err.count("\n") == 1

    def test_tolerance_env_override(self, capsys, monkeypatch):
        """The variable is read on every call, so a change between calls counts."""
        argv = ("scale", "1,3;3,4", "--format", "json")
        _, before_out, _ = run(capsys, *argv)
        monkeypatch.setenv("SINKHORNLAB_TOLERANCE", "1e-2")
        _, loose_out, _ = run(capsys, *argv)
        monkeypatch.delenv("SINKHORNLAB_TOLERANCE")
        _, tight_out, _ = run(capsys, *argv)
        steps = [json.loads(out)["steps"] for out in (before_out, loose_out, tight_out)]
        assert steps[1] < steps[0] == steps[2]


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
        ],
    )
    def test_two_families_exit_one(self, capsys, first, second, rest):
        # each pair once printed the second family's output and exited 0
        code, out, err = run(capsys, "limit", first, second, *rest)
        assert (code, out) == (1, "")
        assert err == f"error: {first} cannot be combined with {second}: a limit call takes one family\n"


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

    @pytest.mark.parametrize("flag", [["--max-steps", "0"], ["--max-steps", "-5"], ["--bits-cap", "-1"]])
    def test_empty_budget_exits_one(self, capsys, flag):
        # these once printed "finite terminations: 0" and exited 0
        code, out, err = run(capsys, "search", "--n", "2", "--bound", "3", *flag)
        assert (code, out) == (1, "")
        assert err.startswith("error: search needs ") and err.count("\n") == 1

    def test_defaults_are_the_engine_constants(self):
        args = build_parser().parse_args(["search", "--n", "2", "--bound", "2"])
        assert args.max_steps == engine.DEFAULT_MAX_STEPS_EXACT
        assert args.bits_cap == engine.DEFAULT_SEARCH_BITS_CAP
        assert args.candidate_cap == engine.DEFAULT_SEARCH_CANDIDATE_CAP
        defaults = inspect.signature(engine.finite_termination_search).parameters
        assert defaults["max_steps"].default == engine.DEFAULT_MAX_STEPS_EXACT
        assert defaults["entry_bits_cap"].default == engine.DEFAULT_SEARCH_BITS_CAP
        assert defaults["candidate_cap"].default == engine.DEFAULT_SEARCH_CANDIDATE_CAP

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "search", "--n", "2", "--bound", "2", "--format", "json")
        payload = json.loads(out)
        assert payload["candidates"] == 16
        assert all(h["length"] <= 2 for h in payload["hits"])


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

    def test_main_builds_its_parser_once(self, capsys, monkeypatch, request):
        builds = []

        def counting_build_parser():
            builds.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        cli._parser.cache_clear()
        request.addfinalizer(cli._parser.cache_clear)
        argvs = [("scale", "1,3;3,4"), ("classify", "1,2;3,4", "--format", "json"),
                 ("limit", "--triangular", "3"), ("scale", "1,x;1,1")]
        for i in range(20):
            run(capsys, *argvs[i % len(argvs)])
        assert len(builds) == 1

    def test_build_parser_returns_a_new_parser(self, capsys):
        changed = build_parser()
        assert changed is not build_parser()
        changed.add_argument("--extra", required=True)
        case = golden_case("scale", "--exact", "1,12;3,4")
        assert_golden(case, *run(capsys, *case["argv"]))

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


def mostly(valid, invalid):
    """Values drawn from valid three times as often as from invalid, so
    that most fuzzed argvs get past parsing and run a command."""
    return st.sampled_from(tuple(valid) * 3 + tuple(invalid))


entry = mostly(("1", "2", "3", "7", "1/2", "4/3", "0.25"),
               ("1/0", "nan", "inf", "1e400", "5e-324", "1e300", "1e-300", "", "x", "0", "-1"))
# An exact run that is not 2x2 has no bits cap: from entries like 5e-324
# its bit sizes double each step, so steps stay at most 4 (ROADMAP item 4).
step_budget = mostly(("1", "2", "3", "4"), ("0", "-1"))
flag_values = {
    "--start-side": mostly(("column", "row"), ("diagonal",)),
    "--tol": mostly(("0", "1e-9", "0.5"), ("-1", "nan", "1e400", "x")),
    "--format": mostly(("human", "json"), ("xml",)),
    "--max-steps": step_budget,
    "--bits-cap": mostly(("8", "64"), ("0", "-1")),
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
            optional_flags("--start-side", "--normalize-rows", "--format", "--max-steps",
                           "--bits-cap", "--candidate-cap")),
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
