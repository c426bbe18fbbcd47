"""The benchmark's own checks: seeded inputs repeat, spans add up, and the
metric list in BENCHMARK.json matches what the runner reports.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import pytest

from perfbench import crash_recovery, oltp
from perfbench.measure import Recorder
from perfbench.run import COUNTERS
from perfbench.spans import layer_breakdown, layer_metrics

ROOT = Path(__file__).resolve().parents[2]


def _zero_counters() -> dict[str, float]:
    return {name: 0.0 for names in COUNTERS.values() for name in names}


def _stream(seed: int, client: int, n: int = 500) -> list:
    return list(itertools.islice(oltp.client_ops(seed, client), n))


def test_oltp_same_seed_same_operations_per_client():
    for client in range(oltp.CLIENTS):
        assert _stream(7, client) == _stream(7, client)


def test_oltp_streams_differ_across_seeds_and_clients():
    assert _stream(7, 0) != _stream(8, 0)
    assert _stream(7, 0) != _stream(7, 1)


def test_oltp_program_receives_only_generated_sql():
    kinds = set()
    for kind, statements, _expected in _stream(3, 1, 2000):
        kinds.add(kind)
        assert statements and all(isinstance(sql, str) for sql in statements)
    assert kinds == {"read", "scan", "txn"}


def test_oltp_mix_is_close_to_the_stated_shares():
    counts = {"read": 0, "scan": 0, "txn": 0}
    for kind, _statements, _expected in _stream(11, 0, 5000):
        counts[kind] += 1
    assert counts["read"] / 5000 == pytest.approx(0.6, abs=0.03)
    assert counts["scan"] / 5000 == pytest.approx(0.1, abs=0.02)
    assert counts["txn"] / 5000 == pytest.approx(0.3, abs=0.03)


def test_oltp_transfers_update_in_ascending_key_order():
    for kind, statements, _expected in _stream(5, 0, 1000):
        if kind == "txn":
            keys = [int(sql.rsplit("= ", 1)[1]) for sql in statements[:2]]
            assert keys == sorted(keys)


def test_crash_recovery_cycles_repeat_per_seed():
    inputs = crash_recovery.generate(4, 5.0)
    again = crash_recovery.generate(4, 5.0)
    assert inputs.detail == again.detail and inputs.cycles == again.cycles
    plans = [crash_recovery.cycle_plan(4, i, inputs.cycles) for i in range(inputs.cycles)]
    assert plans == [crash_recovery.cycle_plan(4, i, inputs.cycles)
                     for i in range(inputs.cycles)]
    assert plans != [crash_recovery.cycle_plan(5, i, inputs.cycles)
                     for i in range(inputs.cycles)]


def test_crash_recovery_group_counts_are_stratified():
    cycles = 9
    groups = sorted(crash_recovery.cycle_plan(2, i, cycles)[0] for i in range(cycles))
    width = (2_500 - 100) / cycles
    for slot, value in enumerate(groups):
        assert 100 + width * slot <= value < 100 + width * (slot + 1)


def test_crash_recovery_reference_matches_sql_shape():
    detail = [(0, 5, 1), (1, 7, 2), (2, 12, 3)]
    assert crash_recovery.reference(detail, 5) == [(0, 1, 1), (2, 2, 5)]


def test_segments_scale_times_and_rates_to_the_reference_speed():
    rec = Recorder()
    for _ in range(2):
        with rec.segment_op("read"):
            pass
    rec.samples[("timed", "read", 1)] = [0.010]
    rec.samples[("timed", "read", 2)] = [0.020]
    rec.segment_seconds.update({("timed", 1): 1.0, ("timed", 2): 1.0})
    rec.segment_scale.update({("timed", 1): 0.5, ("timed", 2): 1.0})
    assert rec.scaled("read") == pytest.approx([0.005, 0.020])
    assert rec.get("read") == [0.010, 0.020]
    assert rec.rate(("read",)) == pytest.approx(2 / 1.5)


def test_self_time_subtracts_children_once_and_unattributed_is_the_rest():
    # op 1 runs 0..10; a core span 1..9 holds an odbc span 2..8, whose
    # server-side child (another thread) covers 3..7 and overlaps 4..6.
    ops = [(1, "read", 0.0, 10.0)]
    spans = [
        (2, 1, 1, "core", "PhoenixCursor.execute", 1.0, 9.0, 0),
        (3, 2, 1, "odbc", "DriverConnection.execute", 2.0, 8.0, 0),
        (4, 3, 1, "engine.server", "DatabaseServer.execute", 3.0, 7.0, 0),
        (5, 3, 1, "engine.server", "DatabaseServer.fetch", 4.0, 6.0, 0),
    ]
    breakdown = layer_breakdown(spans, ops)
    sums = breakdown["sums"]
    assert sums[("self", "core", "read")] == pytest.approx(2.0)
    assert sums[("self", "odbc", "read")] == pytest.approx(2.0)
    assert sums[("count", "odbc", "read")] == 1
    assert breakdown["unattributed"] == pytest.approx(2.0)
    counters = _zero_counters()
    metrics = layer_metrics(breakdown, counters)
    assert metrics["odbc.requests_per_read"] == 1
    assert metrics["engine.server.busy_us_per_request"] == pytest.approx(3e6)
    assert metrics["unattributed_us_per_op"] == pytest.approx(2e6)


def test_benchmark_json_lists_what_the_runner_reports():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((ROOT / "perfbench" / "metrics.json").read_text())
    for group in ("end_to_end", "per_layer"):
        listed = [(m["name"], m["unit"], m["better"]) for m in bench[group]]
        described = [(m["name"], m["unit"], m["better"]) for m in spec[group]]
        assert listed == described
    counters = _zero_counters()
    reported = set(layer_metrics(layer_breakdown([], []), counters)) | {"tracing.overhead_frac"}
    assert reported == {m["name"] for m in bench["per_layer"]}
    assert [w["name"] for w in bench["workloads"]] == ["oltp", "crash_recovery"]
