"""Command-line front end.

Subcommands:

* scale     -- run the alternating scaling iteration
* rc-scale  -- scaling toward explicit row/column margin targets
* limit     -- closed-form limits (general 2x2, symmetric, bordered family)
* classify  -- exact 0/1/2/infinite termination verdict for a 2x2 matrix
* trace     -- per-step margin-error CSV for convergence studies
* search    -- catalog small integer matrices with finite exact termination

Matrices are given inline ('1,3;3,4': rows split by ';', entries by ',',
rationals as 'p/q', decimals allowed) or as a path to a JSON file of the
form {"rows": [[...]]} where plain numbers mean the approximate regime
and "p/q" strings the exact one. Under --exact, decimal entries are
expanded exactly (0.25 -> 1/4), never round-tripped through a float.

Exit codes: 0 success, 1 malformed input or inconsistent flags, 2
iteration budget exhausted (scale/rc-scale), 141 (128 + SIGPIPE) when
the reader closes stdout early, with nothing on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import re
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

from .classify import (
    Termination,
    TerminationClass,
    classify_2x2,
    classify_both_orders,
)
from .closed_form import (
    bordered_limit,
    bordered_limit_triangular,
    limit_2x2,
    limit_2x2_exact,
    limit_2x2_symmetric,
)
from .engine import (
    DEFAULT_MAX_STEPS_APPROX,
    DEFAULT_MAX_STEPS_EXACT,
    DEFAULT_SEARCH_CANDIDATE_CAP,
    IterationConfig,
    StartSide,
    Status,
    finite_termination_search,
    sinkhorn,
)
from .matrices import MarginTarget, PositiveMatrix
from .numerics import format_rational, parse_rational

_ROW_BRACKETS = re.compile(r"\]\s*[,;]?\s*\[")


class CliError(ValueError):
    """Bad input or inconsistent flags; maps to exit code 1."""


def _parse_scalar(text: str, exact: bool):
    """One number given on the command line: a Fraction, or a float
    unless exact. A value beyond float range is a CliError."""
    q = parse_rational(text)
    if exact:
        return q
    try:
        return float(q)
    except OverflowError as exc:
        raise CliError(f"number out of float range: {text!r}") from exc


def _parse_inline(text: str, exact: bool) -> PositiveMatrix:
    s = _ROW_BRACKETS.sub(";", text.strip())
    s = s.replace("[", "").replace("]", "")
    rows = [r for r in s.split(";") if r.strip()]
    if not rows:
        raise CliError(f"empty matrix: {text!r}")
    return PositiveMatrix([[_parse_scalar(e, exact) for e in row.split(",")] for row in rows])


def read_matrix(source: str, exact: bool) -> PositiveMatrix:
    """Load a matrix from a JSON file path or inline text.

    Inline text is exact iff requested. A JSON file infers its regime
    from entry types unless --exact forces exact parsing.
    """
    if os.path.isfile(source):
        text = Path(source).read_text()
        if exact:
            obj = json.loads(text, parse_float=str, parse_int=str)
        else:
            obj = json.loads(text)
        return PositiveMatrix.from_json_obj(obj)
    return _parse_inline(source, exact)


# Human lines are rendered from the values of the JSON result, so each
# exact rational is converted to text once: the accumulated diagonals of
# a 64-step exact run hold thousands of digits.

def _json_scalar(x):
    return format_rational(x) if isinstance(x, Fraction) else float(x)


def _text(v) -> str:
    """Human form of a JSON scalar: 'p/q' strings as they are, floats by repr."""
    return v if isinstance(v, str) else repr(v)


def _fmt_diag(values) -> str:
    return f"diag({', '.join(map(_text, values))})"


def _fmt_matrix(rows) -> str:
    cells = [[_text(v) for v in row] for row in rows]
    widths = [max(map(len, col)) for col in zip(*cells)]
    return "\n".join(
        "  " + "  ".join(cell.rjust(w) for cell, w in zip(row, widths))
        for row in cells
    )


def _value_lines(obj: dict, *names: str, exact: bool = False) -> list[str]:
    """'name = value' lines of JSON fields, each name padded to 5 columns."""
    suffix = " (exact)" if exact else ""
    return [f"{name:<5} = {_text(obj[name])}{suffix}" for name in names]


def _limit_lines(limit: dict) -> list[str]:
    return ["limit:", _fmt_matrix(limit["rows"])]


def _scaling_lines(obj: dict) -> list[str]:
    return [f"left scaling:  {_fmt_diag(obj['left'])}", f"right scaling: {_fmt_diag(obj['right'])}"]


def _matrix_inline(rows) -> str:
    return ";".join(",".join(map(_text, row)) for row in rows)


def _emit(fmt: str, obj: dict, lines: list[str]) -> None:
    """Print a result as --format asks: the JSON object or the human lines."""
    if fmt == "json":
        print(json.dumps(obj, indent=2))
    else:
        print("\n".join(lines))


def _iteration_config(args, exact: bool) -> IterationConfig:
    target = None
    if getattr(args, "row_targets", None) is not None:
        target = MarginTarget(
            [_parse_scalar(x, exact) for x in args.row_targets.split(",")],
            [_parse_scalar(x, exact) for x in args.col_targets.split(",")],
        )
    return IterationConfig(
        start_side=StartSide(args.start_side),
        max_steps=args.max_steps,
        tolerance=args.tol,
        margin_target=target,
    )


_STATUS_LINES = {
    Status.TERMINATED_FINITE: "terminated finitely, L = {}",
    Status.CONVERGED: "converged within tolerance after {} steps",
    Status.MAX_STEPS_REACHED: "max steps reached after {} steps",
}


def cmd_scale(args) -> int:
    """scale and rc-scale: rc-scale carries --row-targets/--col-targets."""
    A = read_matrix(args.matrix, args.exact)
    res = sinkhorn(A, _iteration_config(args, A.exact))
    mode = "exact" if A.exact else "approximate"
    obj = {
        "command": args.command,
        "mode": mode,
        "status": res.status.value,
        "steps": res.steps_taken,
        "limit": res.limit.to_json_obj(),
        "left": [_json_scalar(x) for x in res.left_accum.diag],
        "right": [_json_scalar(x) for x in res.right_accum.diag],
    }
    lines = [f"mode: {mode}", f"status: {_STATUS_LINES[res.status].format(res.steps_taken)}"]
    lines += _limit_lines(obj["limit"]) + _scaling_lines(obj)
    _emit(args.format, obj, lines)
    return 0 if res.status in (Status.TERMINATED_FINITE, Status.CONVERGED) else 2


def _verdict_lines(v: dict) -> list[str]:
    """Human lines of a verdict's JSON form."""
    length = "infinite" if v["length"] is None else f"L = {v['length']}"
    lines = [f"verdict: {v['verdict']} ({length})", f"start side: {v['start_side']}"]
    if v["params"]:
        lines.append("parameters: " + ", ".join(f"{k} = {val}" for k, val in v["params"].items()))
    if v["limit"] is not None:
        lines += _limit_lines(v["limit"])
    return lines


def _verdict_json(v: TerminationClass):
    return {
        "verdict": v.variant.value,
        "length": v.length,
        "start_side": v.start_side.value,
        "params": {k: format_rational(val) for k, val in v.params.items()},
        "limit": None if v.limit is None else v.limit.to_json_obj(),
    }


def _closed_form_note(A: PositiveMatrix):
    (a, b), (c, d) = A.entries
    exact = limit_2x2_exact(a, b, c, d)
    if exact.is_rational:
        fields = {"alpha": str(exact.alpha), "beta": str(exact.beta), "rational": True}
        return f"closed-form limit: alpha = {fields['alpha']}, beta = {fields['beta']}", fields
    fields = {"ratio": str(exact.ratio), "rational": False}
    return f"closed-form limit is irrational: ad/bc = {fields['ratio']} is not a rational square", fields


def cmd_classify(args) -> int:
    converted = "." in args.matrix or (
        os.path.isfile(args.matrix) and "." in Path(args.matrix).read_text()
    )
    A = read_matrix(args.matrix, exact=True)
    if (A.rows, A.cols) != (2, 2):
        raise CliError(
            f"termination classification is defined for 2x2 matrices only "
            f"(got {A.rows}x{A.cols}); whether larger matrices admit finite "
            f"termination bounds is an open problem -- try 'search' instead"
        )
    lines = ["note: decimal entries were converted to exact rationals"] if converted else []

    if args.both_orders:
        comparison = classify_both_orders(A)
        obj = {
            "column_first": _verdict_json(comparison.column_first),
            "row_first": _verdict_json(comparison.row_first),
            "step_difference": comparison.step_difference,
        }
        for v in (obj["row_first"], obj["column_first"]):
            lines += _verdict_lines(v) + [""]
        if comparison.step_difference is not None:
            lines.append(f"step difference |N1 - N2| = {comparison.step_difference}")
        else:
            lines.append("step difference |N1 - N2| undefined (not both finite)")
        infinite = comparison.column_first.variant is Termination.INFINITE
    else:
        verdict = classify_2x2(A, StartSide(args.start_side))
        obj = _verdict_json(verdict)
        lines += _verdict_lines(obj)
        infinite = verdict.variant is Termination.INFINITE

    if infinite:
        note, fields = _closed_form_note(A)
        obj["closed_form"] = fields
        lines.append(note)
    _emit(args.format, {"command": "classify", **obj}, lines)
    return 0


def cmd_limit(args) -> int:
    # by `is not None`: --triangular 0 is given, and gets the k >= 2 error
    bordered, triangular = args.bordered is not None, args.triangular is not None
    if bordered + triangular + bool(args.matrix) != 1:
        raise CliError(
            "pass exactly one of: a 2x2 matrix, --bordered N K, or --triangular k"
        )
    # each of these flags picks a family (--bordered with --triangular fails above)
    flags = {"exact": args.exact, "symmetric": args.symmetric,
             "bordered": bordered, "triangular": triangular}
    given = [f"--{name}" for name, on in flags.items() if on]
    if len(given) > 1:
        raise CliError(f"{given[0]} cannot be combined with {given[1]}: a limit call takes one family")
    if args.matrix:
        A = read_matrix(args.matrix, args.exact)
        if (A.rows, A.cols) != (2, 2):
            raise CliError(
                f"closed forms cover 2x2 matrices (got {A.rows}x{A.cols}); "
                f"use --bordered N K for the bordered n x n family"
            )
        (a, b), (c, d) = A.entries

    if bordered:
        n = int(args.bordered[0])
        K = _parse_scalar(args.bordered[1], exact=False)
        obj = {"family": "bordered", **dataclasses.asdict(bordered_limit(n, K))}
        lines = [
            f"bordered family: n = {n}, K = {K!r}",
            *_value_lines(obj, "alpha", "beta", "gamma"),
            f"scaler: diag(x1, x2, ..., x2) with x1 = {obj['x1']!r}, x2 = {obj['x2']!r}",
        ]
    elif triangular:
        lim = bordered_limit_triangular(args.triangular)
        obj = {"family": "triangular", "k": args.triangular}
        obj.update((name, str(getattr(lim, name))) for name in ("K", "alpha", "beta", "gamma"))
        lines = [
            f"triangular family: k = {args.triangular}, K = {obj['K']}",
            *_value_lines(obj, "alpha", "beta", "gamma", exact=True),
        ]
    elif args.symmetric:
        if b != c:
            raise CliError("--symmetric needs a symmetric matrix (entry (1,2) = entry (2,1))")
        lim = limit_2x2_symmetric(float(a), float(b), float(d))
        obj = {
            "family": "symmetric",
            "alpha": lim.alpha,
            "beta": lim.beta,
            "lambda": lim.lam,
            "scaler": [float(x) for x in lim.scaler.diag],
            "limit": lim.matrix().to_json_obj(),
        }
        lines = _value_lines(obj, "alpha", "beta", "lambda")
        lines += [f"scaler: {_fmt_diag(obj['scaler'])}"] + _limit_lines(obj["limit"])
    elif args.exact:
        lim = limit_2x2_exact(a, b, c, d)
        obj = {
            "family": "exact-2x2",
            "rational": lim.is_rational,
            "ratio": str(lim.ratio),
            "alpha": None if lim.alpha is None else str(lim.alpha),
            "beta": None if lim.beta is None else str(lim.beta),
        }
        if lim.is_rational:
            lines = _value_lines(obj, "alpha", "beta", exact=True)
            lines += _limit_lines(lim.matrix().to_json_obj())
        else:
            lines = [f"irrational: ad/bc = {lim.ratio} is not a rational square"]
    else:
        lim = limit_2x2(float(a), float(b), float(c), float(d))
        obj = {
            "family": "general-2x2",
            "alpha": lim.alpha,
            "beta": lim.beta,
            "left": [float(x) for x in lim.left.diag],
            "right": [float(x) for x in lim.right.diag],
            "limit": lim.matrix().to_json_obj(),
        }
        lines = _value_lines(obj, "alpha", "beta") + _scaling_lines(obj) + _limit_lines(obj["limit"])
    _emit(args.format, {"command": "limit", **obj}, lines)
    return 0


def trace_csv(trace) -> str:
    """Render trace records as CSV, one row per step, step 0 first.

    Columns: step, side, max_row_err, max_col_err, and (exact regime
    only) max_entry_bits. Every run records step 0, and its
    max_entry_bits is set exactly when the run is exact. Approximate
    errors print in scientific notation with 17 significant digits;
    exact errors print as reduced rationals.
    """
    if trace[0].max_entry_bits is not None:
        header = "step,side,max_row_err,max_col_err,max_entry_bits"
        row = "{0.step},{0.side},{0.max_row_err},{0.max_col_err},{0.max_entry_bits}"
    else:
        header = "step,side,max_row_err,max_col_err"
        row = "{0.step},{0.side},{0.max_row_err:.16e},{0.max_col_err:.16e}"
    return "\n".join([header, *map(row.format, trace)]) + "\n"


def cmd_trace(args) -> int:
    A = read_matrix(args.matrix, args.exact)
    res = sinkhorn(A, _iteration_config(args, A.exact))
    sys.stdout.write(trace_csv(res.trace))
    return 0


def cmd_search(args) -> int:
    hits = finite_termination_search(
        args.n,
        args.bound,
        start_side=StartSide(args.start_side),
        normalize_rows=args.normalize_rows,
        candidate_cap=args.candidate_cap,
    )
    histogram = Counter(h.length for h in hits)
    total = args.bound ** (args.n * args.n)
    obj = {
        "command": "search",
        "n": args.n,
        "bound": args.bound,
        "candidates": total,
        "hits": [
            {"matrix": h.matrix.to_json_obj(), "length": h.length, "limit": h.limit.to_json_obj()}
            for h in hits
        ],
        "histogram": {str(k): v for k, v in sorted(histogram.items())},
    }
    lines = [
        f"{_matrix_inline(h['matrix']['rows'])}  ->  L = {h['length']}, limit {_matrix_inline(h['limit']['rows'])}"
        for h in obj["hits"]
    ]
    lines.append(f"candidates: {total}, finite terminations: {len(hits)}")
    lines += [f"  L = {L}: {histogram[L]}" for L in sorted(histogram)]
    _emit(args.format, obj, lines)
    return 0


def _add_matrix_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("matrix", help="inline matrix 'a,b;c,d' or path to a JSON file")


def _add_start_side_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--start-side", choices=("column", "row"), default="column")


def _add_iteration_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--exact", action="store_true", help="exact rational regime")
    _add_start_side_flag(p)
    budget = f"step budget (default {DEFAULT_MAX_STEPS_APPROX} approximate / {DEFAULT_MAX_STEPS_EXACT} exact)"
    p.add_argument("--max-steps", type=int, default=None, help=budget)
    p.add_argument("--tol", type=float, default=None, help="margin tolerance (approximate regime)")


def _add_format_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("human", "json"), default="human")


def build_parser() -> argparse.ArgumentParser:
    """A new parser on every call, so changing it cannot affect main()."""
    parser = argparse.ArgumentParser(
        prog="sinkhornlab",
        description="Alternating row/column scaling of positive matrices: "
        "iteration, closed-form limits, exact termination classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scale", help="run the scaling iteration")
    _add_matrix_arg(p)
    _add_iteration_flags(p)
    _add_format_flag(p)
    p.set_defaults(func=cmd_scale)

    p = sub.add_parser("rc-scale", help="scaling toward margin targets r and c")
    _add_matrix_arg(p)
    p.add_argument("--row-targets", required=True, help="comma-separated row sums r")
    p.add_argument("--col-targets", required=True, help="comma-separated column sums c")
    _add_iteration_flags(p)
    _add_format_flag(p)
    p.set_defaults(func=cmd_scale)

    p = sub.add_parser("limit", help="evaluate a closed-form limit")
    p.add_argument("matrix", nargs="?", default=None)
    p.add_argument("--exact", action="store_true", help="exact rational 2x2 limit or irrationality witness")
    p.add_argument("--symmetric", action="store_true", help="symmetric 2x2 form with a single scaler D")
    p.add_argument("--bordered", nargs=2, metavar=("N", "K"), default=None, help="bordered n x n family")
    p.add_argument("--triangular", type=int, metavar="k", default=None, help="exact rational bordered family, K = k(k+1)/2")
    _add_format_flag(p)
    p.set_defaults(func=cmd_limit)

    p = sub.add_parser("classify", help="exact 2x2 termination verdict")
    _add_matrix_arg(p)
    _add_start_side_flag(p)
    p.add_argument("--both-orders", action="store_true", help="classify under both start orders")
    _add_format_flag(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("trace", help="per-step margin-error CSV on stdout")
    _add_matrix_arg(p)
    p.add_argument("--exact", action="store_true")
    _add_start_side_flag(p)
    p.add_argument("--steps", dest="max_steps", metavar="STEPS", type=int, default=None, help="step budget")
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("search", help="catalog finite-termination integer matrices")
    p.add_argument("--n", type=int, required=True, help="matrix size (n >= 2)")
    p.add_argument("--bound", type=int, required=True, help="largest integer entry")
    _add_start_side_flag(p)
    p.add_argument("--normalize-rows", action="store_true", help="divide each candidate's rows by their sums first")
    p.add_argument("--candidate-cap", type=int, default=DEFAULT_SEARCH_CANDIDATE_CAP, help="refuse enumerations larger than this")
    _add_format_flag(p)
    p.set_defaults(func=cmd_search)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """main's parser, built on first use and then reused: building one
    costs about 30 times as much as a parse. Parsing leaves the parser as
    it was."""
    return build_parser()


#: exit code for a closed stdout, as a shell reports a process killed by SIGPIPE
EXIT_BROKEN_PIPE = 141


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # the reader left: not an input error
        return EXIT_BROKEN_PIPE
    except (ValueError, OSError) as exc:  # CliError and every input error are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        code = EXIT_BROKEN_PIPE
    if code == EXIT_BROKEN_PIPE:
        # the interpreter flushes stdout again at exit, and anything left
        # in its buffer would fail on stderr; the Python docs' recipe is to
        # point stdout at devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
    raise SystemExit(code)
