"""One pass of a workload in a fresh interpreter; bench/run.py starts it.

    python3 bench/worker.py --setup-only
    python3 bench/worker.py WORKLOAD SEED TRACE [CYCLES]

The first statements time `import sinkhornlab, sinkhornlab.cli` from the
source tree next to this directory, before anything the package imports
is loaded, so the figure is what a fresh interpreter pays; calibration
loops just before and after it give the host's speed at that moment
(see hostspeed.py). The pass then runs the workload's fixed number of
cycles (CYCLES when given) in a closed loop, one client and no threads,
and prints one JSON object as its last line.
"""

import os
import sys
import time

import hostspeed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
HAVE_SOURCE = os.path.isfile(os.path.join(SRC, "sinkhornlab", "__init__.py"))
#: calibration loops run just before and just after the import
IMPORT_CALIBRATIONS = 5
_CAL = [hostspeed.calibration_loop() for _ in range(IMPORT_CALIBRATIONS)]
_T0 = time.perf_counter()
if HAVE_SOURCE:
    sys.path.insert(0, SRC)
    import sinkhornlab
    import sinkhornlab.cli
IMPORT_RAW_S = time.perf_counter() - _T0
_CAL += [hostspeed.calibration_loop() for _ in range(IMPORT_CALIBRATIONS)]
IMPORT_S = IMPORT_RAW_S * hostspeed.speed_factor(_CAL)

import contextlib  # noqa: E402
import json  # noqa: E402
from array import array  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402
from time import perf_counter, perf_counter_ns  # noqa: E402

import metrics  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

#: distinct failure messages kept for the report, with their op counts
MAX_FAILURE_NOTES = 5


def _observe_run(args, kwargs, res):
    A = args[0]
    cap = kwargs.get("entry_bits_cap")
    last_bits = res.trace[-1].max_entry_bits if res.trace else None
    return {
        "n": A.rows,
        "exact": A.exact,
        "steps": res.steps_taken,
        "bits": max(r.max_entry_bits for r in res.trace) if A.exact else None,
        "done": res.status.name in ("TERMINATED_FINITE", "CONVERGED"),
        "capped": cap is not None and last_bits is not None and last_bits > cap,
    }


def _observe_search(args, kwargs, hits):
    n, bound = args[0], args[1]
    return {"hits": len(hits), "candidates": bound ** (n * n)}


def _observe_exit(args, kwargs, code):
    return {"exit": code}


def install_spans(tracer: Tracer, pkg) -> None:
    """Rebind the public functions at every layer boundary to traced wrappers.

    Modules bind what they import under their own names, so each binding
    a caller resolves is wrapped on its own: the engine's for the search
    and the benchmark, the classifier's for its cross-check, the CLI's
    for the commands.
    """
    engine, classify, closed_form, cli = pkg.engine, pkg.classify, pkg.closed_form, pkg.cli
    plan = [
        (engine, "sinkhorn", metrics.SINKHORN, _observe_run),
        (engine, "rc_sinkhorn", metrics.RC_SINKHORN, _observe_run),
        (engine, "termination_length_2x2", metrics.FASTPATH, None),
        (engine, "finite_termination_search", metrics.SEARCH, _observe_search),
        (classify, "classify_2x2", metrics.CLASSIFY, None),
        (classify, "classify_both_orders", metrics.CLASSIFY_BOTH, None),
        (classify, "termination_length_2x2", metrics.FASTPATH, None),
        (cli, "main", metrics.CLI_MAIN, _observe_exit),
        (cli, "read_matrix", metrics.CLI_PARSE, None),
        (cli, "sinkhorn", metrics.SINKHORN, _observe_run),
        (cli, "rc_sinkhorn", metrics.RC_SINKHORN, _observe_run),
        (cli, "classify_2x2", metrics.CLASSIFY, None),
        (cli, "classify_both_orders", metrics.CLASSIFY_BOTH, None),
        (cli, "finite_termination_search", metrics.SEARCH, _observe_search),
    ]
    for fn in metrics.CLOSED_FORM_FUNCS:
        plan.append((closed_form, fn, metrics.CLOSED_FORM + fn, None))
        plan.append((cli, fn, metrics.CLOSED_FORM + fn, None))
    for module, attr, name, observe in plan:
        tracer.install(module, attr, name, observe)


def _record(notes: dict, note: str, count: int) -> None:
    if note in notes or len(notes) < MAX_FAILURE_NOTES:
        notes[note] = notes.get(note, 0) + count


def run_probes(calls, name: str) -> tuple[int, dict, dict]:
    """Run the workload's defect probes once: (wrong, failure notes, defects).

    A probe whose input the package is known to mishandle is not an op:
    an exception is reported as a defect, and only a wrong answer or exit
    code counts, as wrong.
    """
    wrong, notes, defects = 0, {}, {}
    for item in workloads.probes(name, calls):
        try:
            out = item.run()
        except Exception as exc:  # the known defect is still there
            defects[item.kind] = f"raises {type(exc).__name__}: {exc}"
            continue
        verdict = item.check(out)
        if verdict is None:
            defects[item.kind] = "fixed: exits 1 with one clean error line"
        else:
            wrong += 1
            _record(notes, f"{verdict[0]}: {verdict[1]}", 1)
    return wrong, notes, defects


def run(name: str, seed: int, traced: bool, n_cycles: int) -> dict:
    tracer = Tracer() if traced else None
    construct = None
    if tracer is not None:
        install_spans(tracer, sinkhornlab)
        construct = tracer.wrap(sinkhornlab.matrices.PositiveMatrix, metrics.CONSTRUCT)
    calls = workloads.resolve_calls(sinkhornlab, construct)
    os.makedirs(os.path.join(ROOT, ".bench_tmp"), exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix=f"{name}-", dir=os.path.join(ROOT, ".bench_tmp"))
    speed = None if traced else hostspeed.HostSpeed()
    starts, ends, op_counts, notes = array("q"), array("q"), array("q"), {}
    attempted = failed = wrong = 0
    try:
        gen = workloads.cycles(name, seed, calls, tmpdir)
        start = perf_counter()
        with speed or contextlib.nullcontext():
            for _ in range(n_cycles):
                for item in next(gen):
                    if tracer is not None:
                        tracer.op = attempted
                    t0 = perf_counter_ns()
                    sid = tracer.begin(metrics.OP, t0) if tracer is not None else None
                    error = None
                    try:
                        out = item.run()
                    except Exception as exc:  # a failed op; the run goes on
                        error = exc
                    t1 = perf_counter_ns()
                    if tracer is not None:
                        tracer.end(sid, t1)
                    starts.append(t0)
                    ends.append(t1)
                    op_counts.append(item.ops)
                    attempted += item.ops
                    if error is not None:
                        verdict = (workloads.NO_ANSWER, f"{item.kind}: {type(error).__name__}: {error}", item.ops)
                    else:
                        try:
                            verdict = item.check(out)
                        except Exception as exc:  # output of an unexpected shape
                            verdict = (workloads.WRONG, f"{item.kind}: unreadable output: {exc!r}", item.ops)
                    if verdict is not None:
                        kind, message, n_failed = verdict
                        failed += n_failed
                        wrong += n_failed if kind == workloads.WRONG else 0
                        _record(notes, f"{kind}: {message}", n_failed)
        wall_s = perf_counter() - start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        cached = getattr(sinkhornlab.engine, "_steps_until_doubly_stochastic", None)
        info = cached.cache_info() if hasattr(cached, "cache_info") else None
        defects = {}
        if not traced:
            probe_wrong, probe_notes, defects = run_probes(calls, name)
            wrong += probe_wrong
            for note, count in probe_notes.items():
                _record(notes, note, count)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    if speed is None:
        own = [t1 - t0 for t0, t1 in zip(starts, ends)]
    else:
        own = [speed.own_ns(t0, t1) for t0, t1 in zip(starts, ends)]
    result = {
        "import_s": IMPORT_S,
        "import_raw_s": IMPORT_RAW_S,
        "cycles": n_cycles,
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "failures": notes,
        "defects": defects,
        "timed_s": sum(own) / 1e9,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "cache": None if info is None else [info.hits, info.misses],
    }
    if tracer is None:
        result.update(
            op_ns=[t * speed.factor(t0, t1) for t, t0, t1 in zip(own, starts, ends)],
            op_raw_ns=own,
            item_ops=list(op_counts),
            speed_factor=hostspeed.speed_factor(speed.took),
            speed_samples=len(speed.took),
        )
    else:
        layers, unexercised = metrics.layer_metrics(
            tracer.names, tracer.starts, tracer.ends, tracer.parents, tracer.attrs,
            attempted, result["cache"],
        )
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"spans-{name}-seed{seed}.csv.gz")
        tracer.write_csv_gz(path)
        result.update(layers=layers, unexercised=unexercised, spans=len(tracer), spans_file=path)
    return result


def main(argv) -> int:
    if not HAVE_SOURCE or not sinkhornlab.__file__.startswith(SRC + os.sep):
        print(f"error: no sinkhornlab source tree at {SRC}", file=sys.stderr)
        return 2
    if argv == ["--setup-only"]:
        print(json.dumps({"import_s": IMPORT_S, "import_raw_s": IMPORT_RAW_S}))
        return 0
    name, seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    n_cycles = int(argv[3]) if len(argv) > 3 else workloads.PASS_CYCLES[name]
    os.chdir(ROOT)
    os.environ.pop("SINKHORNLAB_TOLERANCE", None)  # the golden outputs use the default
    print(json.dumps(run(name, seed, trace, n_cycles)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
