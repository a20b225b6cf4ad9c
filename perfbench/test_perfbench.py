"""Tests of the benchmark's own code: span arithmetic, percentiles, inputs, wrappers.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
for entry in (HERE, HERE.parent / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

import run  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402


# ------------------------------------------------------------- self times
def test_self_times_subtract_direct_children_only():
    # a [0, 10] -> b [1, 6] -> c [2, 3];  a -> d [7, 9];  e [12, 13] top level.
    tree = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 6.0, 0],
        ["c", 2.0, 3.0, 1],
        ["d", 7.0, 9.0, 0],
        ["e", 12.0, 13.0, -1],
    ]
    layers, unattributed = spans.self_times(tree, wall=15.0)
    assert layers["a"] == [1, 10.0 - 5.0 - 2.0]
    assert layers["b"] == [1, 5.0 - 1.0]
    assert layers["c"] == [1, 1.0]
    assert layers["d"] == [1, 2.0]
    assert layers["e"] == [1, 1.0]
    assert unattributed == pytest.approx(15.0 - 11.0)
    total = sum(self_s for _calls, self_s in layers.values()) + unattributed
    assert total == pytest.approx(15.0)


def test_self_times_merge_recursive_spans_of_one_layer():
    tree = [["x", 0.0, 4.0, -1], ["x", 1.0, 3.0, 0], ["y", 1.5, 2.0, 1]]
    layers, unattributed = spans.self_times(tree, wall=4.0)
    assert layers["x"] == [2, (4.0 - 2.0) + (2.0 - 0.5)]
    assert layers["y"] == [1, 0.5]
    assert unattributed == 0.0


def test_layer_metrics_close_the_sum_per_pass():
    tree = [["simulator", 0.0, 3.0, -1], ["core.env", 4.0, 6.0, -1],
            ["simulator", 4.5, 5.5, 1]]
    out = spans.layer_metrics(tree, wall=8.0, passes=2, counts={})
    self_sum = sum(out[f"{layer}.self_s"][0] for layer in spans.LAYERS)
    assert self_sum + out["unattributed.self_s"][0] == pytest.approx(8.0 / 2)
    shares = sum(out[f"{layer}.share"][0] for layer in spans.LAYERS)
    assert shares + out["unattributed.share"][0] == pytest.approx(1.0)
    assert out["simulator.calls"] == (1.0, "count")
    assert out["nn.stacked.share"] == (0.0, "ratio")


# ------------------------------------------------------------- percentiles
@pytest.mark.parametrize(
    "n, pct, ok",
    [(100, 90, True), (99, 90, False), (20, 50, True), (19, 50, False),
     (1000, 99, True), (999, 99, False), (10_000, 99.9, True), (0, 50, False)],
)
def test_percentile_needs_ten_samples_beyond_it(n, pct, ok):
    assert stats.supports(n, pct) is ok


def test_percentile_metrics_report_only_supported_percentiles():
    samples = list(range(1, 101))  # 1..100
    out = stats.percentile_metrics(samples, prefix="t")
    assert out == {"t_n": 100, "t_p50": 50, "t_p90": 90}
    assert "t_p90" not in stats.percentile_metrics(samples[:99], prefix="t")


def test_median_even_and_odd():
    assert stats.median([3.0, 1.0, 2.0]) == 2.0
    assert stats.median([4.0, 1.0, 2.0, 3.0]) == 2.5


# ------------------------------------------------------------------ inputs
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_are_a_pure_function_of_the_seed(name):
    workload = workloads.REGISTRY[name]
    first = workloads.inputs_digest(workload.make_inputs(7))
    assert workloads.inputs_digest(workload.make_inputs(7)) == first
    assert workloads.inputs_digest(workload.make_inputs(8)) != first


def test_deploy_inputs_mix_large_mixed_faulted_and_drifting_requests():
    parts = workloads.REGISTRY["deploy"].make_inputs(3)["parts"]
    requests = [r for part in parts for r in part["requests"]]
    sizes = [r["dataset"].total_bytes / 1e9 for r in requests]
    assert min(sizes) >= 9.5 and max(sizes) <= 100.0
    large = [r for r in requests if r["dataset"].name.startswith("large")]
    assert len(large) == len(requests) // 2
    kinds = {type(e).__name__ for r in requests for e in r["events"]}
    assert {"DataCorruption", "StorageStall", "BandwidthRamp"} <= kinds
    assert any(not r["events"] for r in requests)


# ---------------------------------------------------------------- wrappers
def test_install_wraps_every_target_and_restore_puts_originals_back():
    resolved = [
        (spans._resolve(t), t) for targets in spans.LAYERS.values() for t in targets
    ]
    before = [
        owner[key] if is_dict else vars(owner)[key]
        for (owner, key, is_dict), _t in resolved
    ]
    tracer = spans.Tracer()
    tracer.install()
    try:
        during = [
            owner[key] if is_dict else vars(owner)[key]
            for (owner, key, is_dict), _t in resolved
        ]
        assert all(a is not b for a, b in zip(before, during))
    finally:
        tracer.restore()
    after = [
        owner[key] if is_dict else vars(owner)[key]
        for (owner, key, is_dict), _t in resolved
    ]
    assert all(a is b for a, b in zip(before, after))
    assert not tracer._slots


def test_traced_calls_record_nested_spans_and_counters():
    from repro.autograd.tensor import Tensor
    from repro.fleet import scheduler
    from repro.transfer.files import uniform_dataset
    from repro.transfer.integrity import TransferManifest

    tracer = spans.Tracer()
    tracer.install()
    try:
        alloc = scheduler.weighted_max_min(10.0, {"a": 8.0, "b": 8.0})
        x = Tensor(np.ones(3), requires_grad=True)
        (x * x).sum().backward()
        manifest = TransferManifest.from_dataset(uniform_dataset(2, 8e6), 4e6)
    finally:
        tracer.restore()
    assert alloc == {"a": 5.0, "b": 5.0}
    assert np.array_equal(x.grad, 2 * np.ones(3))
    assert len(manifest) == 4
    names = [s[0] for s in tracer.spans]
    assert names == ["fleet.scheduler", "autograd", "transfer.integrity", "utils.checksum"]
    # The checksum kernel ran inside manifest construction.
    assert tracer.spans[3][3] == 2
    assert tracer.counts["checksum.bytes"] > 0
    assert all(end >= start for _n, start, end, _p in tracer.spans)


def test_restore_survives_an_exception_inside_a_traced_call():
    from repro.fleet import scheduler

    original = scheduler.weighted_max_min
    tracer = spans.Tracer()
    tracer.install()
    try:
        with pytest.raises(Exception):
            scheduler.weighted_max_min(-1.0, {"a": "not a number"})
        assert tracer.spans and tracer.spans[0][2] >= tracer.spans[0][1]
        assert not tracer._stack
    finally:
        tracer.restore()
    assert scheduler.weighted_max_min is original


# ------------------------------------------------------------ the contract
def test_benchmark_json_lists_exactly_what_the_benchmark_prints():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert tuple(workloads.WORKLOADS) == run.WORKLOADS
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    emitted = {name: unit for name, (_v, unit) in spans.layer_metrics([], 1.0, 1, {}).items()}
    emitted.update({"trace.wall_s": "s", "trace.overhead_frac": "ratio"})
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == emitted


def test_run_refuses_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the run exits non-zero silently."""
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
