"""The four seeded workloads and the check of every op they run.

A workload is an endless sequence of cycles; a cycle is a list of items
with a fixed mix of kinds. One pass, in one fresh interpreter, runs the
first PASS_CYCLES cycles, so every pass does the same work whatever the
host's speed. An item is one call into the
package (`run`) plus the oracle check of its output (`check`); it counts
as `ops` benchmark ops (one, except for a search, where every enumerated
candidate is one op). Only the generated inputs reach the package.

A check returns None, or (kind, message, n_failed). A WRONG failure is a
wrong answer or exit code and makes the run incorrect; a NO_ANSWER
failure (an exception, a float solve that did not converge) counts as
failed but is not a wrong output.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracles

WRONG = "wrong"
NO_ANSWER = "no-answer"

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(BENCH_DIR, "golden")

#: reduced rationals with numerator and denominator at most 6: the
#: 23 values of the acceptance sweep
NARROW = sorted({Fraction(p, q) for p in range(1, 7) for q in range(1, 7)})
FLOAT_TOL = 1e-12
SWEEP_MAX_STEPS = 64


@dataclass
class Item:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], tuple | None]
    ops: int = 1


@dataclass
class Calls:
    """The package entry points the ops call, resolved once per run.

    A traced run resolves them after the tracer has rebound the module
    attributes, so the same op code records spans or not.
    """

    construct: Callable
    classify_2x2: Callable
    fastpath: Callable
    sinkhorn: Callable
    limit_2x2: Callable
    search: Callable
    cli_main: Callable
    IterationConfig: type
    MarginTarget: type
    StartSide: type


def resolve_calls(pkg, construct=None) -> Calls:
    return Calls(
        construct=construct or pkg.matrices.PositiveMatrix,
        classify_2x2=pkg.classify.classify_2x2,
        fastpath=pkg.engine.termination_length_2x2,
        sinkhorn=pkg.engine.sinkhorn,
        limit_2x2=pkg.closed_form.limit_2x2,
        search=pkg.engine.finite_termination_search,
        cli_main=pkg.cli.main,
        IterationConfig=pkg.engine.IterationConfig,
        MarginTarget=pkg.matrices.MarginTarget,
        StartSide=pkg.engine.StartSide,
    )


def _side(calls: Calls, side: str):
    return calls.StartSide.COLUMN_FIRST if side == "column" else calls.StartSide.ROW_FIRST


def _narrow(rng) -> Fraction:
    return rng.choice(NARROW)


def _wide(rng) -> Fraction:
    return Fraction(rng.randint(1, 64), rng.randint(1, 64))


def _unit_interval(rng) -> Fraction:
    q = rng.randint(2, 6)
    return Fraction(rng.randint(1, q - 1), q)


# --- exact-2x2-sweep -------------------------------------------------------

#: 13 acceptance-domain, 2 wide-domain and 5 parametrized ops (one of each
#: form) per cycle. The parametrized ops are finite and never wait on the
#: fast-path cache, so with the warm acceptance-domain ops they keep the
#: median op clear of the cache-miss mode.
SWEEP_CYCLE = ("narrow", "param", "narrow", "narrow", "wide", "narrow", "param", "narrow",
               "narrow", "param", "narrow", "narrow", "param", "narrow", "wide", "narrow",
               "narrow", "param", "narrow", "narrow")
PARAM_FORMS = ("already", "one-step-column", "one-step-row", "rank-one-rows", "rank-one-cols")


def sweep_matrix(rng, slot: str, form: str | None):
    """Entries (a, b, c, d) for one sweep op."""
    if slot == "narrow":
        return tuple(_narrow(rng) for _ in range(4))
    if slot == "wide":
        return tuple(_wide(rng) for _ in range(4))
    if form == "already":
        a = _unit_interval(rng)
        return a, 1 - a, 1 - a, a
    x, y, t = _narrow(rng), _narrow(rng), _narrow(rng)
    if form == "one-step-column":  # (a ct; c at)
        return x, y * t, y, x * t
    if form == "one-step-row":  # (a b; bt at)
        return x, y, y * t, x * t
    if form == "rank-one-rows":  # (p q; pt qt)
        return x, y, x * t, y * t
    return x, x * t, y, y * t  # rank-one-cols: (p pt; r rt)


def sweep_cycles(rng, calls: Calls):
    while True:
        forms = iter(rng.sample(PARAM_FORMS, len(PARAM_FORMS)))
        cycle = []
        for slot in SWEEP_CYCLE:
            entries = sweep_matrix(rng, slot, next(forms) if slot == "param" else None)
            side = rng.choice(("column", "row"))
            cycle.append(_sweep_item(calls, slot, entries, side))
        yield cycle


def _sweep_item(calls: Calls, slot, entries, side) -> Item:
    a, b, c, d = entries
    start = _side(calls, side)

    def run():
        A = calls.construct(((a, b), (c, d)))
        verdict = calls.classify_2x2(A, start)
        return verdict, calls.fastpath(A, start, max_steps=SWEEP_MAX_STEPS)

    def check(out):
        verdict, length = out
        want, want_len = oracles.classify_2x2(a, b, c, d, side)
        where = f"({a} {b}; {c} {d}) from the {side} side"
        if verdict.variant.value != want or verdict.length != want_len:
            return WRONG, f"{where}: classified {verdict.variant.value}, expected {want}", 1
        if length != want_len:
            return WRONG, f"{where}: fast path gives L = {length}, expected {want_len}", 1
        if want_len is not None:
            bad = oracles.check_doubly_stochastic(verdict.limit.entries)
            if bad:
                return WRONG, f"{where}: {bad}", 1
        return None

    return Item(slot, run, check)


# --- exact-search ----------------------------------------------------------

#: hit counts of the seed commit, captured by capture_golden.py
def load_search_counts() -> dict:
    with open(os.path.join(GOLDEN_DIR, "search_counts.json")) as fh:
        return json.load(fh)


def search_key(n: int, bound: int, side: str) -> str:
    return f"n{n}-b{bound}-{side}"


def search_cycles(rng, calls: Calls):
    counts = load_search_counts()
    plan = [(3, 2, "column"), (3, 2, "row"), (2, 10, rng.choice(("column", "row")))]
    rng.shuffle(plan)
    finite_2x2 = {}
    while True:
        yield [_search_item(calls, n, bound, side, counts, finite_2x2) for n, bound, side in plan]


def _search_item(calls: Calls, n, bound, side, counts, finite_2x2) -> Item:
    key = search_key(n, bound, side)

    def run():
        return calls.search(n, bound, start_side=_side(calls, side))

    def check(hits):
        bad = []
        want = counts[key]
        if len(hits) != want:
            bad.append(f"{len(hits)} hits, the seed commit found {want}")
        if n == 2:
            if key not in finite_2x2:
                finite_2x2[key] = oracles.count_finite_2x2(bound, side)
            if len(hits) != finite_2x2[key]:
                bad.append(f"{len(hits)} hits, the integer classifier finds {finite_2x2[key]}")
        for h in hits:
            A, L = h.matrix.entries, h.limit.entries
            msg = oracles.check_doubly_stochastic(L) or oracles.check_cross_ratios(A, L)
            if msg is None and n == 2:
                _, want_len = oracles.classify_2x2(*A[0], *A[1], side)
                if h.length != want_len:
                    msg = f"length {h.length}, the integer classifier says {want_len}"
            if msg:
                bad.append(f"hit {A}: {msg}")
        if bad:
            return WRONG, f"search {key}: " + "; ".join(bad[:3]), max(len(bad), abs(len(hits) - want))
        return None

    return Item(key, run, check, ops=bound ** (n * n))


# --- float-scale -----------------------------------------------------------

#: ops per cycle of each kind: (n, entry exponent range, ops, ops with
#: (r, c) targets). Cumulative shares: n = 2 and 4 make 35%, n = 32 the next
#: 30%, so the median op is an n = 32 solve.
FLOAT_MIX = {
    "n2": (2, 1, 8, 0),
    "n4": (4, 1, 20, 4),
    "n32": (32, 1, 24, 8),
    "n16-slow": (16, 6, 16, 0),
    "n128": (128, 1, 12, 0),
}
#: Slow solves at n = 16 with entries 10^U(-6, 6) take from about 240 to
#: several thousand steps. A run draws too few of them for its slowest
#: ones to repeat from seed to seed, so they come from one fixed pool, and
#: every cycle solves each pool matrix once, in a seeded order.
SLOW_POOL_SEED = "float-scale:slow-pool"


def float_rows(rng, n: int, spread: int):
    return tuple(tuple(10.0 ** rng.uniform(-spread, spread) for _ in range(n)) for _ in range(n))


def float_targets(rng, n: int):
    r = [rng.uniform(0.5, 2.0) for _ in range(n)]
    c = [rng.uniform(0.5, 2.0) for _ in range(n)]
    scale = math.fsum(r) / math.fsum(c)
    return r, [x * scale for x in c]


def float_cycles(rng, calls: Calls):
    n, spread, count, _ = FLOAT_MIX["n16-slow"]
    pool_rng = random.Random(SLOW_POOL_SEED)
    pool = [float_rows(pool_rng, n, spread) for _ in range(count)]
    slots = [kind for kind, (_, _, ops, _) in FLOAT_MIX.items() for _ in range(ops)]
    while True:
        rng.shuffle(slots)
        slow = iter(rng.sample(pool, len(pool)))
        rc_left = {kind: mix[3] for kind, mix in FLOAT_MIX.items()}
        cycle = []
        for kind in slots:
            n, spread, _, _ = FLOAT_MIX[kind]
            rows = next(slow) if kind == "n16-slow" else float_rows(rng, n, spread)
            targets = None
            if rc_left[kind]:
                rc_left[kind] -= 1
                targets = float_targets(rng, n)
            cycle.append(_float_item(calls, kind if targets is None else kind + "-rc", rows, targets))
        yield cycle


def _float_item(calls: Calls, kind, rows, targets) -> Item:
    n = len(rows)

    def run():
        A = calls.construct(rows)
        target = None if targets is None else calls.MarginTarget(*targets)
        res = calls.sinkhorn(A, calls.IterationConfig(tolerance=FLOAT_TOL, margin_target=target))
        closed = calls.limit_2x2(*rows[0], *rows[1]) if n == 2 else None
        return res, closed

    def check(out):
        res, closed = out
        if res.status.name != "CONVERGED":
            return NO_ANSWER, f"{kind}: {res.status.value} after {res.steps_taken} steps", 1
        rt, ct = targets or ((1.0,) * n, (1.0,) * n)
        L = res.limit.entries
        msg = oracles.check_float_limit(
            rows, L, res.left_accum.diag, res.right_accum.diag, rt, ct, FLOAT_TOL
        )
        if msg is None and n == 2:
            alpha = oracles.alpha_2x2(*rows[0], *rows[1])
            msg = oracles.check_limit_2x2(L, alpha, 1e-9)
            if msg is None and not abs(closed.alpha - alpha) <= 1e-12:
                msg = f"limit_2x2 alpha = {closed.alpha!r}, closed form {alpha!r}"
        return None if msg is None else (WRONG, f"{kind}: {msg}", 1)

    return Item(kind, run, check)


# --- cli-mix ---------------------------------------------------------------

#: 12 golden human-format commands, 9 generated JSON/CSV commands and 3
#: documented-error commands per cycle. An error case without a golden
#: output is a known defect: it runs as a probe, not as an op (see probes).
CLI_CYCLE = ("golden", "generated", "golden", "golden", "generated", "error", "golden",
             "generated", "golden", "generated", "golden", "golden", "generated", "error",
             "golden", "generated", "golden", "generated", "golden", "golden", "generated",
             "error", "golden", "generated")
GENERATED_KINDS = ("scale-float", "scale-exact", "rc-scale", "classify", "classify-both",
                   "limit", "search", "trace")


def load_cli_golden() -> dict:
    with open(os.path.join(GOLDEN_DIR, "cli_golden.json")) as fh:
        return json.load(fh)


def run_cli(main, argv):
    """main(argv) in-process with captured output: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _fmt_inline(rows) -> str:
    return ";".join(",".join(str(x) if isinstance(x, Fraction) else repr(x) for x in row) for row in rows)


def _json_rows(rows):
    return {"rows": [[str(x) if isinstance(x, Fraction) else x for x in row] for row in rows]}


def cli_cycles(rng, calls: Calls, tmpdir: str):
    golden = load_cli_golden()
    cases = list(golden["cases"])
    errors = [case for case in golden["errors"] if case["stdout"] is not None]
    rng.shuffle(cases)
    offset = rng.randrange(len(errors))
    g = e = k = 0
    while True:
        cycle = []
        for pos, slot in enumerate(CLI_CYCLE):
            if slot == "golden":
                cycle.append(_golden_item(calls, cases[g % len(cases)], "golden"))
                g += 1
            elif slot == "error":
                cycle.append(_golden_item(calls, errors[(offset + e) % len(errors)], "documented-error"))
                e += 1
            else:
                kind = GENERATED_KINDS[k % len(GENERATED_KINDS)]
                k += 1
                # one file name per cycle position: a cycle's files are
                # all written before its first op runs
                path = os.path.join(tmpdir, f"m{pos}.json") if rng.random() < 0.3 else None
                cycle.append(_generated_item(rng, calls, kind, path))
        yield cycle


def _golden_item(calls: Calls, case: dict, kind: str) -> Item:
    argv = case["argv"]

    def run():
        return run_cli(calls.cli_main, argv)

    def check(out):
        code, stdout, stderr = out
        if case["stdout"] is None:  # no output to compare: a clean error is required
            ok = code == 1 and stdout == "" and stderr.startswith("error: ") and stderr.count("\n") == 1
            expected = "exit 1 with one 'error: ' line"
        else:
            ok = (code, stdout, stderr) == (case["exit"], case["stdout"], case["stderr"])
            expected = f"exit {case['exit']} and the golden output"
        if ok:
            return None
        return WRONG, f"{argv}: exit {code}, expected {expected}", 1

    return Item(kind, run, check)


def _matrix_arg(rows, path) -> str:
    """Inline text, or a JSON file written now (before the op is timed)."""
    if path is None:
        return _fmt_inline(rows)
    with open(path, "w") as fh:
        json.dump(_json_rows(rows), fh)
    return path


def _exact_rows(rng):
    return ((_narrow(rng), _narrow(rng)), (_narrow(rng), _narrow(rng)))


def _generated_item(rng, calls: Calls, kind: str, path) -> Item:
    side = rng.choice(("column", "row"))
    if kind == "scale-float":
        rows = float_rows(rng, rng.choice((2, 3, 4)), 1)
        argv = ["scale", _matrix_arg(rows, path), "--format", "json"]
        check = _check_float_scale(rows, None)
    elif kind == "rc-scale":
        n = rng.choice((2, 3))
        r = [rng.randint(1, 4) for _ in range(n)]
        c = [1] * n
        for _ in range(sum(r) - n):
            c[rng.randrange(n)] += 1
        rows = float_rows(rng, n, 1)
        argv = ["rc-scale", _matrix_arg(rows, path), "--row-targets", ",".join(map(str, r)),
                "--col-targets", ",".join(map(str, c)), "--format", "json"]
        check = _check_float_scale(rows, ([float(x) for x in r], [float(x) for x in c]))
    elif kind == "scale-exact":
        rows = _exact_rows(rng)
        argv = ["scale", "--exact", _matrix_arg(rows, path), "--start-side", side, "--format", "json"]
        check = _check_exact_scale(rows, side)
    elif kind in ("classify", "classify-both"):
        rows = _exact_rows(rng)
        argv = ["classify", _matrix_arg(rows, path), "--format", "json"]
        argv += ["--both-orders"] if kind == "classify-both" else ["--start-side", side]
        check = _check_classify(rows, None if kind == "classify-both" else side)
    elif kind == "limit":
        rows = float_rows(rng, 2, 1)
        argv = ["limit", _matrix_arg(rows, path), "--format", "json"]
        check = _check_limit(rows)
    elif kind == "search":
        bound = rng.choice((2, 3))
        argv = ["search", "--n", "2", "--bound", str(bound), "--start-side", side, "--format", "json"]
        check = _check_search_json(bound, side)
    else:  # trace
        rows = float_rows(rng, rng.choice((2, 3)), 1)
        argv = ["trace", _matrix_arg(rows, path), "--tol", repr(FLOAT_TOL)]
        check = _check_trace(rows)

    def run():
        return run_cli(calls.cli_main, argv)

    def checked(out):
        code, stdout, stderr = out
        try:
            msg = check(code, stdout)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            msg = f"unreadable output ({type(exc).__name__}: {exc})"
        return None if msg is None else (WRONG, f"{argv}: {msg}", 1)

    return Item(kind, run, checked)


def _rows_of(obj):
    """Matrix rows from the package's JSON: numbers or "p/q" strings."""
    return [[Fraction(x) if isinstance(x, str) else x for x in row] for row in obj["rows"]]


def _check_float_scale(rows, targets):
    n = len(rows)
    rt, ct = targets or ((1.0,) * n, (1.0,) * n)

    def check(code, stdout):
        if code != 0:
            return f"exit {code}"
        res = json.loads(stdout)
        if res["status"] != "converged-within-tolerance":
            return f"status {res['status']}"
        return oracles.check_float_limit(
            rows, _rows_of(res["limit"]), res["left"], res["right"], rt, ct, FLOAT_TOL
        )

    return check


def _check_exact_scale(rows, side):
    (a, b), (c, d) = rows
    _, length = oracles.classify_2x2(a, b, c, d, side)

    def check(code, stdout):
        res = json.loads(stdout)
        if length is None:
            if code != 2 or res["status"] != "max-steps-reached":
                return f"exit {code}, status {res['status']}; expected exit 2, budget exhausted"
            return None
        if code != 0 or res["status"] != "terminated-finite" or res["steps"] != length:
            return f"exit {code}, status {res['status']}, steps {res['steps']}; expected L = {length}"
        L = _rows_of(res["limit"])
        left = [Fraction(x) for x in res["left"]]
        right = [Fraction(x) for x in res["right"]]
        return oracles.check_doubly_stochastic(L) or oracles.check_exact_scaling(rows, L, left, right)

    return check


def _check_verdict(rows, side, v):
    want, length = oracles.classify_2x2(*rows[0], *rows[1], side)
    if v["verdict"] != want or v["length"] != length or v["start_side"] != side:
        return f"{side} verdict {v['verdict']}, expected {want}"
    if length is not None:
        return oracles.check_doubly_stochastic(_rows_of(v["limit"]))
    return None


def _check_classify(rows, side):
    def check(code, stdout):
        if code != 0:
            return f"exit {code}"
        res = json.loads(stdout)
        if side is not None:
            return _check_verdict(rows, side, res)
        return _check_verdict(rows, "column", res["column_first"]) or _check_verdict(
            rows, "row", res["row_first"]
        )

    return check


def _check_limit(rows):
    alpha = oracles.alpha_2x2(*rows[0], *rows[1])

    def check(code, stdout):
        if code != 0:
            return f"exit {code}"
        res = json.loads(stdout)
        if not abs(res["alpha"] - alpha) <= 1e-12:
            return f"alpha = {res['alpha']!r}, closed form {alpha!r}"
        return oracles.check_limit_2x2(res["limit"]["rows"], alpha, 1e-12)

    return check


def _check_search_json(bound, side):
    want = oracles.count_finite_2x2(bound, side)

    def check(code, stdout):
        if code != 0:
            return f"exit {code}"
        res = json.loads(stdout)
        if len(res["hits"]) != want or res["candidates"] != bound ** 4:
            return f"{len(res['hits'])} hits of {res['candidates']}, expected {want} of {bound ** 4}"
        for h in res["hits"]:
            msg = oracles.check_doubly_stochastic(_rows_of(h["limit"]))
            if msg:
                return msg
        return None

    return check


def _check_trace(rows):
    def check(code, stdout):
        if code != 0:
            return f"exit {code}"
        table = list(csv.reader(stdout.splitlines()))
        if table[0] != ["step", "side", "max_row_err", "max_col_err"]:
            return f"trace header {table[0]}"
        if [int(r[0]) for r in table[1:]] != list(range(len(table) - 1)):
            return "trace steps are not 0, 1, 2, ..."
        last = table[-1]
        if not max(float(last[2]), float(last[3])) <= FLOAT_TOL:
            return f"trace ends at errors {last[2]}, {last[3]}"
        return None

    return check


def probes(name: str, calls: Calls) -> list[Item]:
    """Inputs the package is known to mishandle, run once after a pass.

    At the seed commit `scale '1e400,1;1,1'` dies with an uncaught
    OverflowError instead of exiting 1. A run with an op that fails on
    every pass would report failures that scale with its length, so the
    case is checked here instead: once fixed it must exit 1 with one
    clean error line.
    """
    if name != "cli-mix":
        return []
    cases = [case for case in load_cli_golden()["errors"] if case["stdout"] is None]
    return [_golden_item(calls, case, " ".join(case["argv"])) for case in cases]


def cycles(name: str, seed: int, calls: Calls, tmpdir: str):
    """The endless cycle generator of workload `name`, seeded by `seed`."""
    rng = random.Random(f"{name}:{seed}")
    if name == "exact-2x2-sweep":
        return sweep_cycles(rng, calls)
    if name == "exact-search":
        return search_cycles(rng, calls)
    if name == "float-scale":
        return float_cycles(rng, calls)
    if name == "cli-mix":
        return cli_cycles(rng, calls, tmpdir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("exact-2x2-sweep", "exact-search", "float-scale", "cli-mix")
#: cycles in one pass: 2 to 10 seconds of work each on a 2-vCPU Xeon
PASS_CYCLES = {"exact-2x2-sweep": 800, "exact-search": 1, "float-scale": 3, "cli-mix": 40}
