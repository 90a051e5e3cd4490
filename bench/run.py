"""Seeded benchmark of sinkhornlab: one workload run, one report.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a sinkhornlab source tree; the package is
imported from src/ there, nothing is installed. Workloads (see
BENCHMARK.json for why each exists): exact-2x2-sweep, exact-search,
float-scale, cli-mix.

--trace 0 measures the end-to-end metrics. The run repeats one pass of
the workload, each in a fresh interpreter, closed loop, until about S
seconds have gone; a pass does a fixed amount of work, the same inputs
every time for one seed. Each op's time is its median over the passes,
and peak_rss_mb is the median over them.
Times are corrected for the shared host's speed, sampled during every
pass (see hostspeed.py); the uncorrected medians are in the report.
setup_s is the median import time of `sinkhornlab, sinkhornlab.cli` over
the passes' interpreters and SETUP_PROBES more. --trace 1 runs one pass
with spans at every layer boundary, then one untraced pass to get
trace.overhead_ratio, and reports the per-layer metrics.

Every op is checked against an oracle. The report (machine facts, seed,
every metric with its unit, failures, known defects) is printed and kept
in .bench_out/; the last line of stdout is the JSON object
{"correct", "attempted", "failed", "metrics"}. `correct` is false when an
op gave a wrong answer or exit code; an op that raised or did not
converge counts as failed only. The exit code is 0 unless the run itself
broke.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import metrics
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")
#: fresh interpreters that only time the import, after the passes
SETUP_PROBES = 14
#: every run, with all its processes, ends within this many seconds
RUN_BUDGET_S = 170.0


class RunError(RuntimeError):
    """A worker process failed; the run has no result."""


def machine_facts() -> dict:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
    }


def worker(args, deadline: float) -> dict:
    """Run worker.py in a fresh interpreter and return its last-line JSON."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, *map(str, args)],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise RunError(f"worker {args} did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise RunError(f"worker {args} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _median_of(passes, key):
    return statistics.median(p[key] for p in passes)


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "machine": machine_facts()}
    if not trace:
        passes, start, last = [], time.monotonic(), 0.0
        while not passes or time.monotonic() - start + last <= seconds:
            t0 = time.monotonic()
            passes.append(worker([workload, seed, 0], deadline))
            last = time.monotonic() - t0
        setup = [p["import_s"] for p in passes]
        setup += [worker(["--setup-only"], deadline)["import_s"] for _ in range(SETUP_PROBES)]
        item_ops = passes[0]["item_ops"]
        if any(p.pop("item_ops") != item_ops for p in passes):
            raise RunError("the passes of one seed ran different items")
        values, pct = metrics.end_to_end([p.pop("op_ns") for p in passes], item_ops)
        raw, _ = metrics.end_to_end([p.pop("op_raw_ns") for p in passes], item_ops)
        values.update(setup_s=statistics.median(setup), peak_rss_mb=_median_of(passes, "peak_rss_mb"))
        report.update(
            runs=passes,
            metrics=values,
            uncorrected=raw,
            speed_factor=_median_of(passes, "speed_factor"),
            tail_percentile=pct,
            ops=sum(p["attempted"] for p in passes),
            latency_samples=len(item_ops),
            setup_samples=setup,
            defects=passes[-1]["defects"],
        )
    else:
        traced = worker([workload, seed, 1], deadline)
        plain = worker([workload, seed, 0], deadline)
        values = dict(traced["layers"], **{"trace.overhead_ratio": traced["timed_s"] / plain["timed_s"]})
        report.update(
            runs=[traced, plain],
            metrics=values,
            unexercised=traced["unexercised"],
            spans=traced["spans"],
            spans_file=os.path.relpath(traced["spans_file"], ROOT),
            defects=plain["defects"],
        )
    runs = report["runs"]
    report.update(
        attempted=sum(r["attempted"] for r in runs),
        failed=sum(r["failed"] for r in runs),
        wrong=sum(r["wrong"] for r in runs),
        failures=[f"{note} ({count} ops)" for r in runs for note, count in r["failures"].items()],
    )
    report["failed_ratio"] = report["failed"] / report["attempted"]
    return report


def render(report: dict) -> str:
    m = report["machine"]
    lines = [
        f"workload {report['workload']}  seed {report['seed']}  trace {report['trace']}  "
        f"({m['nproc']} CPUs, {m['cpu_model']}, Python {m['python']})"
    ]
    for name, value in report["metrics"].items():
        note = ""
        if name == "op_ms_tail":
            pct = report["tail_percentile"]
            n = report["latency_samples"]
            note = f"max of {n} samples" if pct is None else f"p{pct:.3f} of {n} samples"
            note += f", each the median of {len(report['runs'])} passes"
        elif name == "setup_s":
            note = f"median of {len(report['setup_samples'])} fresh interpreters"
        elif name in report.get("unexercised", ()):
            note = "not exercised by this workload"
        lines.append(f"  {name:34s} {value:14.6g} {metrics.UNITS[name]:6s} {note}".rstrip())
    if not report["trace"]:
        raw = report["uncorrected"]
        lines.append(f"  {'ops':34s} {report['ops']:14d} count")
        lines.append(
            f"  host speed factor {report['speed_factor']:.3f}; uncorrected: "
            + ", ".join(f"{name} {value:.6g}" for name, value in raw.items())
        )
    lines.append(
        f"  {'failed_ratio':34s} {report['failed_ratio']:14.6g} ratio  "
        f"{report['failed']} of {report['attempted']}"
    )
    lines += [f"  failed op: {note}" for note in report["failures"]]
    lines += [f"  known defect probe: {argv}: {outcome}" for argv, outcome in report["defects"].items()]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "sinkhornlab", "__init__.py")):
        print(f"error: no sinkhornlab source tree at {ROOT}/src", file=sys.stderr)
        return 2
    try:
        report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
    print(render(report))
    print(f"  report: {os.path.relpath(path, ROOT)}")
    final = {
        "correct": report["wrong"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": value, "unit": metrics.UNITS[name]}
            for name, value in report["metrics"].items()
        },
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
