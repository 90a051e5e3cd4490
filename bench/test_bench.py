"""Tests of the benchmark itself: oracles, the tail rule, span arithmetic,
the host-speed correction.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import hostspeed
import metrics
import oracles
import workloads
from spans import Tracer, check_nesting, self_times

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

F = Fraction


# --- oracles ----------------------------------------------------------------

@pytest.mark.parametrize(
    "entries, side, verdict, length",
    [
        ((1, 12, 3, 4), "column", oracles.ONE_COL, 1),
        ((1, 12, 3, 4), "row", oracles.INFINITE, None),
        ((1, 3, 6, 2), "row", oracles.ONE_ROW, 1),
        ((2, 6, 5, 15), "column", oracles.TWO_ROW_LAST, 2),
        ((2, 6, 5, 15), "row", oracles.TWO_COL_LAST, 2),
        ((1, 3, 3, 4), "column", oracles.INFINITE, None),
        ((F(1, 4), F(3, 4), F(3, 4), F(1, 4)), "row", oracles.ALREADY, 0),
        ((F(1, 2), F(1, 3), F(3, 2), 1), "column", oracles.TWO_ROW_LAST, 2),
    ],
)
def test_integer_classifier_known_cases(entries, side, verdict, length):
    assert oracles.classify_2x2(*(F(x) for x in entries), side) == (verdict, length)


def test_integer_classifier_agrees_with_engine_iteration():
    from sinkhornlab import PositiveMatrix, StartSide, sinkhorn
    from sinkhornlab.engine import IterationConfig

    values = [F(1), F(2), F(1, 2), F(3), F(2, 3)]
    rng = random.Random(7)
    for _ in range(200):
        entries = [rng.choice(values) for _ in range(4)]
        for side, start in (("column", StartSide.COLUMN_FIRST), ("row", StartSide.ROW_FIRST)):
            res = sinkhorn(PositiveMatrix([entries[:2], entries[2:]]),
                           IterationConfig(start_side=start, max_steps=8))
            steps = res.steps_taken if res.status.name == "TERMINATED_FINITE" else None
            assert oracles.classify_2x2(*entries, side)[1] == steps


def test_finite_count_matches_seed_search_counts():
    counts = workloads.load_search_counts()
    for side in ("column", "row"):
        assert oracles.count_finite_2x2(10, side) == counts[workloads.search_key(2, 10, side)]


def test_exact_checks_accept_a_scaling_and_reject_a_perturbation():
    A = [[F(1), F(12)], [F(3), F(4)]]
    L = [[F(1, 4), F(3, 4)], [F(3, 4), F(1, 4)]]
    left, right = [F(1), F(1)], [F(1, 4), F(1, 16)]
    assert oracles.check_doubly_stochastic(L) is None
    assert oracles.check_cross_ratios(A, L) is None
    assert oracles.check_exact_scaling(A, L, left, right) is None
    bent = [[F(1, 3), F(2, 3)], [F(2, 3), F(1, 3)]]
    assert oracles.check_doubly_stochastic(bent) is None
    assert oracles.check_cross_ratios(A, bent) is not None
    assert oracles.check_doubly_stochastic([[F(1, 2), F(1, 2)], [F(1, 2), F(1, 3)]]) is not None


def test_float_checks():
    alpha = oracles.alpha_2x2(1.0, 3.0, 3.0, 4.0)
    assert alpha == pytest.approx(0.4, abs=1e-15)
    A = [[1.0, 3.0], [3.0, 4.0]]
    L = [[alpha, 1 - alpha], [1 - alpha, alpha]]
    # left = (1, 1/2) with right = (0.4, 0.2) maps A onto L
    left, right = [1.0, 0.5], [0.4, 0.2]
    unit = (1.0, 1.0)
    assert oracles.check_float_limit(A, L, left, right, unit, unit, 1e-12) is None
    assert oracles.check_float_limit(A, L, left, [0.4, 0.21], unit, unit, 1e-12) is not None
    off = [[alpha + 1e-9, 1 - alpha], [1 - alpha, alpha]]
    assert oracles.check_float_limit(A, off, left, right, unit, unit, 1e-12) is not None
    assert oracles.check_limit_2x2(L, alpha, 1e-12) is None
    assert oracles.check_limit_2x2(off, alpha, 1e-12) is not None


# --- tail rule ----------------------------------------------------------------

def test_tail_is_the_eleventh_largest_sample():
    value, pct = metrics.tail(range(1, 1001))
    assert value == 990 and pct == pytest.approx(99.0)
    samples = list(range(11))
    random.Random(1).shuffle(samples)
    assert metrics.tail(samples) == (0, pytest.approx(100 / 11))


def test_tail_with_ten_samples_or_fewer_is_the_maximum():
    assert metrics.tail([3, 1, 2]) == (3, None)
    assert metrics.tail(range(10)) == (9, None)


def test_end_to_end_metrics():
    one_pass = [1e6] * 20 + [5e6] * 11
    e2e, pct = metrics.end_to_end([one_pass], [1] * 31)
    assert e2e["ops_per_s"] == pytest.approx(31 / 0.075)
    assert e2e["op_ms_p50"] == 1.0 and e2e["op_ms_tail"] == 5.0
    assert pct == pytest.approx(100 * 21 / 31)


def test_end_to_end_takes_each_item_at_its_median_over_the_passes():
    # a stall of 90 ms hits a different item in each of three passes
    passes = [[1e6] * 31 for _ in range(3)]
    for k, times in enumerate(passes):
        times[k] = 9e7
    e2e, _ = metrics.end_to_end(passes, [1] * 31)
    assert e2e["op_ms_tail"] == 1.0 and e2e["ops_per_s"] == pytest.approx(1000)
    # an item of 4 ops: its latency is per op
    e2e, _ = metrics.end_to_end([[8e6, 1e6], [8e6, 1e6]], [4, 1])
    assert e2e["op_ms_p50"] == 1.5 and e2e["ops_per_s"] == pytest.approx(5 / 0.009)


# --- host-speed correction -----------------------------------------------------

def test_speed_factor_is_nominal_over_the_harmonic_mean():
    nominal = hostspeed.NOMINAL_NS
    assert hostspeed.speed_factor([nominal]) == 1.0
    # loops of 1x and 3x nominal: mean speed 2/3, so a 2/3 factor
    assert hostspeed.speed_factor([nominal, 3 * nominal]) == pytest.approx(2 / 3)


def _synthetic_speed(at, took, spent):
    speed = hostspeed.HostSpeed()
    speed.at.extend(at)
    speed.took.extend(took)
    speed.spent.extend(spent)
    return speed


def test_own_time_drops_the_samples_taken_inside_an_op():
    speed = _synthetic_speed([100, 500, 900], [50, 50, 50], [60, 70, 80])
    assert speed.own_ns(0, 1000) == 1000 - 210
    assert speed.own_ns(101, 900) == 799 - 70  # the sample at 900 began after the op
    assert speed.own_ns(950, 990) == 40


def test_speed_factor_of_an_op_reads_the_samples_near_it():
    w, nominal = hostspeed.WINDOW_NS, hostspeed.NOMINAL_NS
    speed = _synthetic_speed([0, 10 * w, 10 * w + 1], [nominal, 2 * nominal, 2 * nominal], [1, 1, 1])
    assert speed.factor(w // 2, w // 2 + 10) == 1.0
    assert speed.factor(10 * w, 10 * w + 5) == 0.5
    # no sample in the window: the last one before, or the first of all
    assert speed.factor(4 * w, 5 * w) == 1.0
    assert speed.factor(20 * w, 21 * w) == 0.5
    assert speed.factor(-9 * w, -8 * w) == 1.0


def test_host_speed_samples_while_active_and_restores_the_signal():
    import signal
    import time

    with hostspeed.HostSpeed() as speed:
        t0 = time.perf_counter_ns()
        end = time.monotonic() + 0.05
        while time.monotonic() < end:
            pass
        t1 = time.perf_counter_ns()
    assert len(speed.took) >= 4 and list(speed.at) == sorted(speed.at)
    assert 0 < speed.own_ns(t0, t1) < t1 - t0
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


# --- spans ----------------------------------------------------------------------

def test_self_time_subtracts_the_union_of_children():
    # parent 0..100; children 10..30 and 20..50 overlap; 90..120 is clipped
    starts, ends, parents = [0, 10, 20, 90], [100, 30, 50, 120], [-1, 0, 0, 0]
    assert self_times(starts, ends, parents)[0] == 100 - 40 - 10


def test_self_time_of_nested_spans():
    starts, ends, parents = [0, 10, 15, 60], [100, 40, 25, 70], [-1, 0, 1, 0]
    assert self_times(starts, ends, parents) == [60, 20, 10, 10]


def test_nesting_check_rejects_a_child_outside_its_parent():
    check_nesting([0, 10], [100, 100], [-1, 0])
    with pytest.raises(ValueError):
        check_nesting([0, 10], [100, 101], [-1, 0])
    with pytest.raises(ValueError):
        check_nesting([0], [-1], [-1])


def _traced_calls(tracer):
    inner = tracer.wrap(lambda x: x + 1, "inner")

    def middle(x):
        return inner(x) + inner(x)

    def failing():
        inner(0)
        raise KeyError("boom")

    return tracer.wrap(middle, "outer"), tracer.wrap(failing, "failing")


def test_tracer_spans_nest_and_self_times_add_up():
    tracer = Tracer()
    outer, failing = _traced_calls(tracer)
    for op in range(3):
        tracer.op = op
        root = tracer.begin("op")
        assert outer(op) == 2 * op + 2
        tracer.end(root)
    tracer.op = 3
    root = tracer.begin("op")
    with pytest.raises(KeyError):
        failing()
    tracer.end(root)
    check_nesting(tracer.starts, tracer.ends, tracer.parents)
    own = self_times(tracer.starts, tracer.ends, tracer.parents)
    for sid, name in enumerate(tracer.names):
        assert own[sid] >= 0
        if name == "op":
            members = [k for k in range(len(tracer)) if tracer.ops[k] == tracer.ops[sid]]
            assert sum(own[k] for k in members) == tracer.ends[sid] - tracer.starts[sid]
    assert tracer.names[-2:] == ["failing", "inner"]
    assert tracer.ends[-2] >= tracer.ends[-1]


def test_layer_metrics_from_synthetic_spans():
    names = ["op", metrics.CLASSIFY, metrics.FASTPATH, metrics.FASTPATH, "op", metrics.SINKHORN]
    starts = [0, 0, 100, 1000, 2000, 2000]
    ends = [2000, 400, 300, 1900, 3000, 3000]
    parents = [-1, 0, 1, 0, -1, 4]
    attrs = {5: {"n": 4, "exact": False, "steps": 10, "bits": None, "done": True, "capped": False}}
    m, unexercised = metrics.layer_metrics(names, starts, ends, parents, attrs, ops=2, cache=(3, 1))
    assert m["classify.call_us"] == pytest.approx(0.4)
    assert m["classify.self_us"] == pytest.approx(0.2)
    assert m["classify.crosscheck_share"] == pytest.approx(0.5)
    assert m["engine.fastpath_us"] == pytest.approx(0.9)
    assert m["engine.fastpath_cache_hit_ratio"] == 0.75
    assert m["engine.float_step_us.n4"] == pytest.approx(0.1)
    assert m["engine.float_converged_ratio"] == 1.0
    assert "engine.exact_runs" in unexercised and m["engine.exact_runs"] == 0.0
    without_cache, _ = metrics.layer_metrics(names, starts, ends, parents, attrs, ops=2)
    assert "engine.fastpath_cache_hit_ratio" not in without_cache


# --- workloads and the benchmark definition -------------------------------------

def test_benchmark_json_lists_what_the_code_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(metrics.PER_LAYER)


def test_sweep_inputs_depend_only_on_the_seed_and_cover_every_verdict():
    def verdicts(seed):
        rng = random.Random(seed)
        out = []
        for form in workloads.PARAM_FORMS * 4:
            entries = workloads.sweep_matrix(rng, "param", form)
            out += [oracles.classify_2x2(*entries, side) for side in ("column", "row")]
        return out

    assert verdicts(3) == verdicts(3)
    names = {v for v, _ in verdicts(3)}
    assert names == {oracles.ALREADY, oracles.ONE_COL, oracles.ONE_ROW, oracles.TWO_ROW_LAST,
                     oracles.TWO_COL_LAST, oracles.INFINITE}


@pytest.mark.parametrize("name", ["exact-2x2-sweep", "float-scale", "cli-mix"])
def test_first_cycle_passes_its_checks(name, tmp_path):
    import sinkhornlab
    import sinkhornlab.cli  # noqa: F401

    calls = workloads.resolve_calls(sinkhornlab)
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        cycle = next(workloads.cycles(name, 5, calls, str(tmp_path)))
        results = [item.check(item.run()) for item in cycle]
    finally:
        os.chdir(cwd)
    assert all(r is None for r in results), results


def test_known_defect_runs_as_a_probe_and_never_as_an_op(tmp_path):
    calls = workloads.Calls(*([None] * 10))
    probes = workloads.probes("cli-mix", calls)
    assert [p.kind for p in probes] == ["scale 1e400,1;1,1"]
    assert workloads.probes("float-scale", calls) == []
    gen = workloads.cycles("cli-mix", 5, calls, str(tmp_path))
    kinds = [item.kind for _ in range(8) for item in next(gen)]
    assert kinds.count("documented-error") == 24


def test_golden_check_compares_bytes():
    case = {"argv": ["x"], "exit": 0, "stdout": "a\n", "stderr": ""}
    calls = workloads.Calls(*([None] * 10))
    calls.cli_main = lambda argv: print("a") or 0
    item = workloads._golden_item(calls, case, "golden")
    assert item.check(item.run()) is None
    calls.cli_main = lambda argv: print("a ") or 0
    assert item.check(item.run())[0] == workloads.WRONG


def test_clean_error_rule_for_cases_without_a_golden():
    case = {"argv": ["x"], "exit": 1, "stdout": None, "stderr": None}
    calls = workloads.Calls(*([None] * 10))
    calls.cli_main = lambda argv: print("error: too large", file=sys.stderr) or 1
    item = workloads._golden_item(calls, case, "documented-error")
    assert item.check(item.run()) is None
    calls.cli_main = lambda argv: 2
    assert item.check(item.run())[0] == workloads.WRONG


def _worker(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py"), *args],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_worker_pass_reports_corrected_and_raw_metrics_and_the_probe():
    res = _worker("cli-mix", "1", "0", "2")
    assert res["cycles"] == 2 and res["attempted"] == 48 and res["failed"] == 0
    assert len(res["op_ns"]) == len(res["op_raw_ns"]) == len(res["item_ops"]) == 48
    assert res["speed_samples"] >= 2 and res["speed_factor"] > 0
    assert list(res["defects"]) == ["scale 1e400,1;1,1"]


def test_traced_worker_reports_every_layer_metric():
    res = _worker("exact-2x2-sweep", "1", "1", "2")
    assert res["cycles"] == 2 and res["failed"] == 0
    names = {name for name, _, _ in metrics.PER_LAYER} - {"trace.overhead_ratio"}
    assert set(res["layers"]) == names
    assert res["layers"]["classify.call_us"] > res["layers"]["classify.crosscheck_us"] > 0
