"""Capture the reference outputs the benchmark compares against.

    python3 bench/capture_golden.py

Run it from the root of a source tree whose outputs are the reference:
it writes golden/cli_golden.json (argv, exit code, stdout and stderr of
every human-format cli-mix command and every documented-error command),
golden/search_counts.json (hit counts of the exact-search searches) and
the JSON matrix files those commands read. An error command that raises
instead of exiting is stored without output; the benchmark then requires
exit 1 with a single 'error: ' line on stderr.

JSON-format commands are not captured: their float digits and fields may
change, so the benchmark checks them with oracles instead.
"""

from __future__ import annotations

import json
import os
import random
import sys
from fractions import Fraction

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

from sinkhornlab.cli import main  # noqa: E402
from sinkhornlab.engine import StartSide, finite_termination_search  # noqa: E402

from workloads import GOLDEN_DIR, NARROW, run_cli, search_key  # noqa: E402

MATRIX_DIR = os.path.join(GOLDEN_DIR, "matrices")
#: paths in argv are relative to the root of the source tree
MATRIX_REL = os.path.relpath(MATRIX_DIR, ROOT)

README = [
    ["scale", "--exact", "1,12;3,4"],
    ["scale", "--exact", "[[1,12],[3,4]]"],
    ["scale", "1,3;3,4", "--max-steps", "3", "--tol", "1e-15"],
    ["rc-scale", "--exact", "1,1;1,1", "--row-targets", "1,3", "--col-targets", "2,2"],
    ["limit", "1,3;3,4"],
    ["limit", "--exact", "1,2;3,4"],
    ["limit", "--symmetric", "1,2;2,4"],
    ["limit", "--bordered", "3", "2"],
    ["limit", "--triangular", "3"],
    ["classify", "2,6;5,15", "--start-side", "row"],
    ["classify", "1,3;3,4", "--both-orders"],
    ["trace", "1,2;3,4", "--tol", "1e-12"],
    ["trace", "--exact", "1,2;3,4", "--steps", "10"],
    ["search", "--n", "2", "--bound", "4"],
]

ERRORS = [
    ["scale", "0,1;1,1"],
    ["scale", "1,2;3"],
    ["scale", "1,x;1,1"],
    ["scale", ""],
    ["scale", "--exact", "1,1;1,1", "--tol", "0.1"],
    ["scale", f"{MATRIX_REL}/mixed.json"],
    ["classify", "1,2,3;4,5,6;7,8,9"],
    ["limit"],
    ["limit", "--symmetric", "1,2;3,4"],
    ["limit", "--bordered", "3", "0"],
    ["rc-scale", "1,1;1,1", "--row-targets", "1,2", "--col-targets", "1,1"],
    ["scale", "1e400,1;1,1"],
]


def _inline(rows) -> str:
    return ";".join(",".join(str(x) for x in row) for row in rows)


def _write(name: str, rows) -> str:
    obj = {"rows": [[str(x) if isinstance(x, Fraction) else x for x in row] for row in rows]}
    with open(os.path.join(MATRIX_DIR, name), "w") as fh:
        json.dump(obj, fh)
        fh.write("\n")
    return f"{MATRIX_REL}/{name}"


def generated_commands(rng: random.Random):
    """A fixed pool of human-format commands on generated matrices."""
    out = []
    for k in range(8):
        rows = [[rng.choice(NARROW) for _ in range(2)] for _ in range(2)]
        M = _inline(rows)
        side = ("column", "row")[k % 2]
        out += [
            ["scale", "--exact", M, "--start-side", side],
            ["classify", M, "--start-side", side],
            ["classify", M, "--both-orders"],
            ["limit", "--exact", M],
            ["trace", "--exact", M, "--steps", "6"],
        ]
        if k < 2:
            path = _write(f"exact{k}.json", rows)
            out += [["scale", "--exact", path], ["classify", path, "--both-orders"]]
    for k in range(4):
        n = 2 + k % 2
        rows = [[round(10 ** rng.uniform(-1, 1), 3) for _ in range(n)] for _ in range(n)]
        M = _inline(rows)
        r = [rng.randint(1, 3) for _ in range(n)]
        c = [sum(r) - (n - 1)] + [1] * (n - 1)
        out += [
            ["scale", M],
            ["trace", M, "--tol", "1e-10"],
            ["rc-scale", M, "--row-targets", ",".join(map(str, r)), "--col-targets", ",".join(map(str, c))],
        ]
        if n == 2:
            out.append(["limit", M])
        if k < 2:
            path = _write(f"float{k}.json", rows)
            out += [["scale", path], ["limit", path] if n == 2 else ["trace", path]]
    for _ in range(2):
        a, b, d = (round(10 ** rng.uniform(-1, 1), 2) for _ in range(3))
        out.append(["limit", "--symmetric", f"{a},{b};{b},{d}"])
    out += [["limit", "--bordered", "4", "5"], ["limit", "--bordered", "6", "1/2"]]
    out += [["limit", "--triangular", str(k)] for k in (1, 2, 5)]
    return out


def capture(argv) -> dict:
    try:
        code, stdout, stderr = run_cli(main, argv)
    except Exception as exc:  # a known defect: stored without output
        print(f"  {argv}: raises {type(exc).__name__}; stored as 'clean exit 1 required'")
        return {"argv": argv, "exit": 1, "stdout": None, "stderr": None}
    return {"argv": argv, "exit": code, "stdout": stdout, "stderr": stderr}


def main_capture() -> None:
    os.chdir(ROOT)
    os.environ.pop("SINKHORNLAB_TOLERANCE", None)
    os.makedirs(MATRIX_DIR, exist_ok=True)
    _write("mixed.json", [[1.0, Fraction(1, 2)], [1.0, 1.0]])
    cases = README + generated_commands(random.Random("cli-golden-pool"))
    golden = {
        "cases": [capture(argv) for argv in cases],
        "errors": [capture(argv) for argv in ERRORS],
    }
    for case in golden["errors"]:
        if case["stdout"] is not None and case["exit"] != 1:
            raise SystemExit(f"{case['argv']} exits {case['exit']}, not 1")
    with open(os.path.join(GOLDEN_DIR, "cli_golden.json"), "w") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")
    counts = {}
    for n, bound in ((3, 2), (2, 10)):
        for side in ("column", "row"):
            start = StartSide.COLUMN_FIRST if side == "column" else StartSide.ROW_FIRST
            counts[search_key(n, bound, side)] = len(finite_termination_search(n, bound, start_side=start))
    with open(os.path.join(GOLDEN_DIR, "search_counts.json"), "w") as fh:
        json.dump(counts, fh, indent=1)
        fh.write("\n")
    print(f"{len(golden['cases'])} cases, {len(golden['errors'])} errors, search counts {counts}")


if __name__ == "__main__":
    main_capture()
