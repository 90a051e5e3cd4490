"""End-to-end and per-layer metrics, and the span names they are read from."""

from __future__ import annotations

import statistics

from spans import check_nesting, self_times

#: span names; closed-form spans share the CLOSED_FORM prefix
OP = "op"
CONSTRUCT = "matrices.construct"
CLASSIFY = "classify.classify_2x2"
CLASSIFY_BOTH = "classify.classify_both_orders"
FASTPATH = "engine.termination_length_2x2"
SINKHORN = "engine.sinkhorn"
RC_SINKHORN = "engine.rc_sinkhorn"
SEARCH = "engine.finite_termination_search"
CLOSED_FORM = "closed_form."
CLI_MAIN = "cli.main"
CLI_PARSE = "cli.read_matrix"

CLOSED_FORM_FUNCS = ("limit_2x2", "limit_2x2_exact", "limit_2x2_symmetric",
                     "bordered_limit", "bordered_limit_triangular")
RUNS = (SINKHORN, RC_SINKHORN)
CLI_COMPUTE = RUNS + (CLASSIFY, CLASSIFY_BOTH, SEARCH)

#: (name, unit, better) of every end-to-end metric; BENCHMARK.json lists them with bounds
END_TO_END = (
    ("ops_per_s", "1/s", "higher"),
    ("op_ms_p50", "ms", "lower"),
    ("op_ms_tail", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: (name, unit, better) of every per-layer metric of a traced run
PER_LAYER = (
    ("matrices.construct_us", "us", "lower"),
    ("classify.call_us", "us", "lower"),
    ("classify.self_us", "us", "lower"),
    ("classify.crosscheck_us", "us", "lower"),
    ("classify.crosscheck_share", "ratio", "lower"),
    ("engine.fastpath_us", "us", "lower"),
    ("engine.fastpath_cache_hit_ratio", "ratio", "higher"),
    ("engine.exact_runs", "1/kop", "lower"),
    ("engine.exact_steps", "1/kop", "lower"),
    ("engine.exact_step_us.n2", "us", "lower"),
    ("engine.exact_step_us.n3", "us", "lower"),
    ("engine.exact_max_bits", "bits", "lower"),
    ("engine.bits_capped", "1/kop", "lower"),
    ("engine.budget_exhausted", "1/kop", "lower"),
    ("engine.search_self_s", "s", "lower"),
    ("engine.search_confirm_s", "s", "lower"),
    ("engine.search_hit_ratio", "ratio", "higher"),
    ("engine.float_step_us.n4", "us", "lower"),
    ("engine.float_step_us.n16", "us", "lower"),
    ("engine.float_step_us.n32", "us", "lower"),
    ("engine.float_step_us.n128", "us", "lower"),
    ("engine.float_steps_per_solve", "steps", "lower"),
    ("engine.float_converged_ratio", "ratio", "higher"),
    ("cli.parse_ms", "ms", "lower"),
    ("cli.self_ms", "ms", "lower"),
    ("cli.compute_ms", "ms", "lower"),
    ("cli.exit_nonzero", "1/kop", "lower"),
    ("closed_form.call_us", "us", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)
UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}

#: samples that must lie beyond the tail percentile
TAIL_BEYOND = 10


def tail(samples):
    """(value, percentile) of the highest percentile with 10 samples beyond it.

    That is the 11th largest sample, at percentile 100 * (n - 10) / n.
    With 10 samples or fewer no percentile qualifies, and the largest
    sample is returned with percentile None.
    """
    s = sorted(samples)
    if len(s) <= TAIL_BEYOND:
        return s[-1], None
    return s[-TAIL_BEYOND - 1], 100.0 * (len(s) - TAIL_BEYOND) / len(s)


def end_to_end(passes_ns, item_ops):
    """Throughput and latency metrics of one untraced run, and the tail's percentile.

    `passes_ns` holds, for each pass, the time in ns of every item; all
    passes ran the same items, and item i counts as item_ops[i] ops. An
    item's time is its median over the passes, so a stall that hit one
    pass drops out; latencies are per op, and ops_per_s is the ops of one
    pass over the sum of the items' times.
    """
    per_item = [statistics.median(times) for times in zip(*passes_ns)]
    latencies = [t / n for t, n in zip(per_item, item_ops)]
    value, pct = tail(latencies)
    return {
        "ops_per_s": sum(item_ops) / (sum(per_item) / 1e9),
        "op_ms_p50": statistics.median(latencies) / 1e6,
        "op_ms_tail": value / 1e6,
    }, pct


def _mean(total, count):
    return total / count if count else None


def layer_metrics(names, starts, ends, parents, attrs, ops: int, cache=None):
    """Per-layer metrics of a traced run from its spans.

    Returns (metrics, unexercised): a metric whose layer never ran in this
    workload reads 0 and is listed in `unexercised`. Counts are per
    thousand benchmark ops; times are means per call, per step or per
    search call, as the names say.
    """
    check_nesting(starts, ends, parents)
    own = self_times(starts, ends, parents)
    dur = [e - s for s, e in zip(starts, ends)]
    kids: dict[int, list[int]] = {}
    by_name: dict[str, list[int]] = {}
    for sid, name in enumerate(names):
        by_name.setdefault(name, []).append(sid)
        if parents[sid] >= 0:
            kids.setdefault(parents[sid], []).append(sid)

    def spans(*wanted):
        return [sid for name in wanted for sid in by_name.get(name, ())]

    per_kop = 1000.0 / ops
    m: dict[str, float | None] = {}
    m["matrices.construct_us"] = _mean(sum(dur[s] for s in spans(CONSTRUCT)) / 1e3, len(spans(CONSTRUCT)))

    classify = spans(CLASSIFY)
    under_classify = {s: parents[s] >= 0 and names[parents[s]] == CLASSIFY for s in spans(FASTPATH)}
    cross = [s for s, under in under_classify.items() if under]
    classify_total = sum(dur[s] for s in classify)
    cross_total = sum(dur[s] for s in cross)
    m["classify.call_us"] = _mean(classify_total / 1e3, len(classify))
    m["classify.self_us"] = _mean(sum(own[s] for s in classify) / 1e3, len(classify))
    m["classify.crosscheck_us"] = _mean(cross_total / 1e3, len(classify))
    m["classify.crosscheck_share"] = _mean(cross_total, classify_total)
    direct = [s for s, under in under_classify.items() if not under]
    m["engine.fastpath_us"] = _mean(sum(dur[s] for s in direct) / 1e3, len(direct))
    if cache is not None:
        hits, misses = cache
        m["engine.fastpath_cache_hit_ratio"] = _mean(hits, hits + misses)

    runs = [s for s in spans(*RUNS) if s in attrs]
    exact = [s for s in runs if attrs[s]["exact"]]
    floats = [s for s in runs if not attrs[s]["exact"]]
    m["engine.exact_runs"] = len(exact) * per_kop if exact else None
    m["engine.exact_steps"] = sum(attrs[s]["steps"] for s in exact) * per_kop if exact else None

    def step_us(group, n):
        sel = [s for s in group if attrs[s]["n"] == n]
        return _mean(sum(dur[s] for s in sel) / 1e3, sum(max(attrs[s]["steps"], 1) for s in sel))

    m["engine.exact_step_us.n2"] = step_us(exact, 2)
    m["engine.exact_step_us.n3"] = step_us(exact, 3)
    m["engine.exact_max_bits"] = max((attrs[s]["bits"] for s in exact), default=None)
    m["engine.bits_capped"] = sum(attrs[s]["capped"] for s in runs) * per_kop if exact else None
    m["engine.budget_exhausted"] = (
        sum(not attrs[s]["done"] and not attrs[s]["capped"] for s in runs) * per_kop if runs else None
    )

    searches = [s for s in spans(SEARCH) if s in attrs]
    confirm = sum(
        dur[k] for s in searches for k in kids.get(s, ()) if k in attrs and attrs[k].get("n") == 2
    )
    m["engine.search_self_s"] = _mean(sum(own[s] for s in searches) / 1e9, len(searches))
    m["engine.search_confirm_s"] = _mean(confirm / 1e9, len(searches))
    m["engine.search_hit_ratio"] = _mean(
        sum(attrs[s]["hits"] for s in searches), sum(attrs[s]["candidates"] for s in searches)
    )

    for n in (4, 16, 32, 128):
        m[f"engine.float_step_us.n{n}"] = step_us(floats, n)
    m["engine.float_steps_per_solve"] = _mean(sum(attrs[s]["steps"] for s in floats), len(floats))
    m["engine.float_converged_ratio"] = _mean(sum(attrs[s]["done"] for s in floats), len(floats))

    mains = spans(CLI_MAIN)
    parse = compute = 0
    for s in mains:
        for k in kids.get(s, ()):
            if names[k] == CLI_PARSE:
                parse += dur[k]
            elif names[k] in CLI_COMPUTE or names[k].startswith(CLOSED_FORM):
                compute += dur[k]
    m["cli.parse_ms"] = _mean(parse / 1e6, len(mains))
    m["cli.self_ms"] = _mean(sum(own[s] for s in mains) / 1e6, len(mains))
    m["cli.compute_ms"] = _mean(compute / 1e6, len(mains))
    m["cli.exit_nonzero"] = (
        sum(attrs.get(s, {}).get("exit") != 0 for s in mains) * per_kop if mains else None
    )
    closed = [s for s, name in enumerate(names) if name.startswith(CLOSED_FORM)]
    m["closed_form.call_us"] = _mean(sum(dur[s] for s in closed) / 1e3, len(closed))

    unexercised = sorted(name for name, value in m.items() if value is None)
    return {name: (0.0 if value is None else value) for name, value in m.items()}, unexercised
