"""Self-tests of the benchmark's statistics, span arithmetic and metric names.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import json
from pathlib import Path

import pytest

from perfbench import metrics, spans

ROOT = Path(__file__).resolve().parents[2]


def _span(name, start, end, sid, parent=None, pid=1, **args):
    return {"name": name, "pid": pid, "id": sid, "parent": parent,
            "start_ns": start, "end_ns": end, "args": args}


@pytest.mark.parametrize("n, rank, pct", [
    (11, 1, 100 / 11),
    (20, 10, 50.0),
    (25, 15, 60.0),
    (110, 100, 100 * 100 / 110),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, rank, pct):
    samples = [float(i) for i in range(n, 0, -1)]  # unsorted on purpose
    value, percentile = metrics.tail(samples)
    assert value == float(rank)
    assert percentile == pytest.approx(pct)
    assert sum(1 for s in samples if s > value) == 10


def test_tail_undefined_with_ten_samples_or_fewer():
    assert metrics.tail([1.0] * 10) == (None, None)
    assert metrics.tail([]) == (None, None)


def test_spread_is_interquartile_distance_over_median():
    assert metrics.spread([1.0] * 10) == 0.0
    assert metrics.spread([9, 10, 10, 10, 11]) == pytest.approx(1 / 10)


def test_self_time_subtracts_children_once_and_clips_them():
    tree = [
        _span("parent", 0, 100, 1),
        _span("a", 10, 30, 2, parent=1),
        _span("b", 20, 40, 3, parent=1),   # overlaps a: 10..40 covered once
        _span("c", 90, 120, 4, parent=1),  # clipped at the parent's end
        _span("grandchild", 12, 18, 5, parent=2),
        _span("other pid", 0, 100, 1, pid=2),
    ]
    own = spans.self_ns(tree)
    assert own[(1, 1)] == 100 - 30 - 10
    assert own[(1, 2)] == 20 - 6
    assert own[(1, 5)] == 6
    assert own[(2, 1)] == 100


def test_recorder_nests_spans_and_flushes(tmp_path):
    recorder = spans.Recorder(tmp_path)
    with recorder.span("outer"):
        with recorder.span("inner", note=1):
            pass
    inner, outer = recorder.spans
    assert inner["parent"] == outer["id"] and outer["parent"] is None
    assert outer["start_ns"] <= inner["start_ns"] <= inner["end_ns"] <= outer["end_ns"]
    recorder.flush()
    assert recorder.spans == []
    loaded = spans.load_dir(tmp_path)
    assert [s["name"] for s in loaded] == ["inner", "outer"]
    trace = spans.chrome_trace(loaded)
    assert {e["ph"] for e in trace["traceEvents"]} == {"X"}


def _run_span(sid, backend, mode, start, end, instructions, parent=None, pid=1):
    counts = dict.fromkeys(
        ("windows", "cde_invocations", "pvt_lookups", "pvt_hits", "switches",
         "translations_built", "interpreted_instructions", "l1_accesses",
         "l1_misses", "mlc_misses", "mispredicts"), 1)
    return _span("backends.run", start, end, sid, parent, pid, backend=backend,
                 mode=mode, instructions=instructions, **counts)


def test_layer_metrics_self_time_ns_per_instr_and_pool_busy():
    tree = [
        _span("engine.run_jobs", 0, 1000, 1, pid=10),
        _span("engine.execute", 0, 800, 1, pid=20),
        _run_span(2, "vectorized", "full", 100, 700, 300, parent=1, pid=20),
        _span("core.cde", 200, 250, 3, parent=2, pid=20),
        _span("power.finalize", 600, 700, 4, parent=2, pid=20),
        _span("engine.cache_get", 0, 5, 2, parent=1, pid=10, hit=False),
        _span("engine.cache_get", 5, 10, 3, parent=1, pid=10, hit=True),
    ]
    values = metrics.layer_metrics(tree, workers=2, cache_put_bytes=7)
    assert values["backends.run_s"] == pytest.approx((600 - 50 - 100) / 1e9)
    assert values["backends.ns_per_instr.vectorized.full"] == pytest.approx(600 / 300)
    assert values["backends.ns_per_instr.reference.full"] == 0.0
    assert values["backends.runs.vectorized"] == 1
    assert values["engine.pool_busy_frac"] == pytest.approx(800 / (2 * 1000))
    assert values["engine.cache_hit_ratio"] == 0.5
    assert values["engine.cache_put_bytes"] == 7
    assert values["sim.instructions"] == 300 and values["sim.jobs"] == 1


def test_every_name_matches_the_pattern_and_is_unique():
    names = metrics.names(metrics.END_TO_END) + metrics.names(metrics.PER_LAYER)
    assert len(names) == len(set(names))
    assert all(metrics.NAME_RE.match(name) for name in names)
    assert not metrics.NAME_RE.match("bad name")
    assert not metrics.NAME_RE.match(".leading-dot")


def test_benchmark_json_lists_exactly_the_emitted_names():
    with open(ROOT / "BENCHMARK.json") as handle:
        declared = json.load(handle)
    assert declared["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound}
        for n, u, b, bound in metrics.END_TO_END
    ]
    assert declared["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b in metrics.PER_LAYER
    ]


def test_layer_metrics_emit_every_per_layer_name_with_the_run_extras():
    emitted = set(metrics.layer_metrics([]))
    extras = {"cli_p50_s", "cli_tail_s", "cli_tail_pct", "cli_samples", "fail_frac",
              "sim_pc_power_saving_pct", "sim_pc_slowdown_pct", "trace.overhead_frac"}
    assert emitted | extras == set(metrics.names(metrics.PER_LAYER))
    assert not emitted & extras


def test_host_factor_is_median_kernel_time_over_the_reference():
    from perfbench import hostspeed

    ref = hostspeed.REFERENCE_KERNEL_S
    assert hostspeed.factor([ref, 2 * ref, 9 * ref]) == pytest.approx(2.0)
    samples = hostspeed.calibrate(0.02)
    assert samples and all(cost > 0 for cost in samples)


def test_tracing_overhead_uses_the_host_speed_around_each_body():
    from perfbench import hostspeed, run

    ref = hostspeed.REFERENCE_KERNEL_S
    # The traced body ran on a host twice as slow and took twice as long.
    before, between, after = [ref, ref], [ref, 2 * ref], [2 * ref, 2 * ref]
    assert run.overhead(10.0, 20.0, before, between, after) == pytest.approx(0.0)
    assert run.overhead(10.0, 22.0, before, between, after) == pytest.approx(0.1)
