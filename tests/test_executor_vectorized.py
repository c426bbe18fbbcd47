"""Vectorized executor: ordered indexes, range probes, top-k, and parity.

Pins the PR-9 executor work (docs/ARCHITECTURE.md "Vectorized execution &
access paths"):

* :class:`~repro.engine.table.OrderedIndex` maintains sorted keys and
  sorted postings incrementally — equality probes stop re-sorting per
  call, range probes are bisect slices, and ordered iteration matches a
  stable ``sort_key`` sort exactly (NULLS first ascending).
* Range probes and index-ordered top-k return byte-identical results to
  an index-free twin (same rows, no ``CREATE INDEX``: every query full-
  scans and sorts) over range / BETWEEN / ORDER BY ... LIMIT workloads,
  and scan exactly the rows they return.
* Index maintenance stays consistent across rollback, crash recovery,
  escalated row locks, and AS OF time-travel reconstruction, because
  every one of those paths routes through the same Table primitives.
* The executor counters surface in ``registry.snapshot()["executor"]``.
"""

from __future__ import annotations

import random

import pytest

import repro
from repro.engine import DatabaseServer
from repro.engine.table import OrderedIndex
from repro.errors import DataError
from tests.conftest import execute


# ------------------------------------------------------------- OrderedIndex


def test_ordered_index_postings_stay_sorted_without_per_call_sort():
    index = OrderedIndex()
    for rowid in (5, 1, 9, 3, 7):
        index.add("x", rowid)
    # eq() returns the maintained posting list order — no sort on probe
    assert index.eq("x") == [1, 3, 5, 7, 9]
    index.remove("x", 5)
    assert index.eq("x") == [1, 3, 7, 9]
    assert index.eq("missing") == []


def test_ordered_index_range_inclusivity():
    index = OrderedIndex()
    for rowid, value in enumerate([10, 20, 20, 30, 40]):
        index.add(value, rowid)
    assert index.range(20, 30) == [1, 2, 3]
    assert index.range(20, 30, low_inclusive=False) == [3]
    assert index.range(20, 30, high_inclusive=False) == [1, 2]
    assert index.range(None, 20) == [0, 1, 2]          # unbounded low
    assert index.range(30, None) == [3, 4]             # unbounded high
    assert index.range(25, 15) == []                   # empty interval
    assert index.range(20, 30, desc=True) == [3, 1, 2]  # key order flips only


def test_ordered_index_nulls_never_match_ranges_but_order_first_asc():
    index = OrderedIndex()
    index.add(None, 4)
    index.add(None, 2)
    index.add(1, 0)
    index.add(3, 1)
    assert index.range(None, None) == [0, 1]      # NULLs excluded from ranges
    assert index.eq(None) == [2, 4]
    assert list(index.ordered()) == [2, 4, 0, 1]        # NULLS first asc
    assert list(index.ordered(desc=True)) == [1, 0, 2, 4]  # NULLS last desc
    assert len(index) == 4


def test_ordered_index_remove_cleans_empty_keys():
    index = OrderedIndex()
    index.add(7, 1)
    index.remove(7, 1)
    assert index.range(None, None) == []
    assert len(index) == 0
    index.remove(7, 1)  # idempotent on absent entries
    index.remove(None, 1)


# ------------------------------------------------ indexed vs index-free twin


def _seeded_pair():
    """Two servers with identical data: the first with ordered indexes on
    ``v`` and ``s``, the second (the reference) without any."""
    rng = random.Random(17)
    rows = []
    for k in range(300):
        v = "NULL" if rng.random() < 0.1 else str(rng.randrange(40))
        s = "NULL" if rng.random() < 0.1 else f"'s{rng.randrange(9)}'"
        rows.append(f"({k}, {v}, {s})")
    dml = "INSERT INTO t VALUES " + ", ".join(rows)
    pair = []
    for indexes in (["CREATE INDEX iv ON t (v)", "CREATE INDEX istr ON t (s)"], []):
        server = DatabaseServer()
        sid = server.connect()
        execute(server, sid, "CREATE TABLE t (k INT PRIMARY KEY, v INT, s VARCHAR(10))")
        for sql in indexes:
            execute(server, sid, sql)
        execute(server, sid, dml)
        pair.append((server, sid))
    return pair


PARITY_QUERIES = [
    "SELECT k, v FROM t WHERE v >= 10 AND v < 20 ORDER BY k",
    "SELECT k FROM t WHERE v BETWEEN 5 AND 8 ORDER BY k",
    "SELECT k FROM t WHERE v > 35 ORDER BY k",
    "SELECT k FROM t WHERE v <= 2 ORDER BY k",
    "SELECT k, v FROM t ORDER BY v LIMIT 9",
    "SELECT k, v FROM t ORDER BY v DESC LIMIT 9",
    "SELECT k, v FROM t ORDER BY v LIMIT 6 OFFSET 4",
    "SELECT k, v FROM t WHERE v > 20 ORDER BY v LIMIT 5",
    "SELECT k, s FROM t WHERE s BETWEEN 's2' AND 's4' ORDER BY k",
    "SELECT k, s FROM t ORDER BY s DESC LIMIT 8",
    "SELECT s, COUNT(*), SUM(v) FROM t WHERE v >= 15 GROUP BY s ORDER BY s",
    "SELECT DISTINCT v FROM t WHERE v BETWEEN 0 AND 10 ORDER BY v",
    "SELECT k FROM t WHERE v = 7 AND s = 's3' ORDER BY k",
    "SELECT a.k FROM t a, t b WHERE a.v = b.k AND a.k < 20 ORDER BY a.k, a.v",
]


def test_compiled_matches_index_free_twin_fingerprints():
    (xs, xid), (ts, tid) = _seeded_pair()
    for sql in PARITY_QUERIES:
        assert execute(xs, xid, sql) == execute(ts, tid, sql), sql
    # the twin really is the full-scan reference
    plans = "\n".join(
        row[0] for sql in PARITY_QUERIES for row in execute(ts, tid, f"EXPLAIN {sql}")
    )
    assert "IndexRange" not in plans and "TopK" not in plans


def test_range_probe_error_parity_on_incomparable_bound():
    """A range bound the column type can't coerce must raise exactly as the
    full scan does (the probe falls back to a full scan so the per-row
    compare surfaces the same DataError), not silently return zero rows."""
    for server, sid in _seeded_pair():
        with pytest.raises(DataError):
            execute(server, sid, "SELECT k FROM t WHERE v > 'abc'")


def test_null_range_bound_matches_nothing_in_both_modes():
    (xs, xid), (ts, tid) = _seeded_pair()
    sql = "SELECT k FROM t WHERE v > NULL"
    assert execute(xs, xid, sql) == execute(ts, tid, sql) == []


def test_topk_ties_resolved_identically():
    """Duplicate ORDER BY keys: index-ordered streaming must reproduce the
    stable-sort tie order (postings ascend by rowid) for asc and desc."""
    results = []
    for indexed in (True, False):
        server = DatabaseServer()
        sid = server.connect()
        execute(server, sid, "CREATE TABLE d (k INT PRIMARY KEY, v INT)")
        if indexed:
            execute(server, sid, "CREATE INDEX dv ON d (v)")
        execute(
            server, sid,
            "INSERT INTO d VALUES " + ", ".join(f"({i}, {i % 3})" for i in range(30)),
        )
        results.append((
            execute(server, sid, "SELECT k, v FROM d ORDER BY v LIMIT 12"),
            execute(server, sid, "SELECT k, v FROM d ORDER BY v DESC LIMIT 12"),
        ))
    assert results[0] == results[1]


def test_range_and_topk_scan_only_the_rows_they_return():
    """The access-path gate as a work counter: range, BETWEEN, equality and
    ORDER BY ... LIMIT statements over an ordered index read exactly the
    rows they return, where the index-free twin reads the whole table for
    every statement."""
    rows, values = 1000, 500  # two rows per distinct indexed value
    window = values // 50
    statements = []
    for i in range(8):
        low = (i * 131) % (values - window)
        statements += [
            f"SELECT k, v FROM e WHERE v >= {low} AND v < {low + window} ORDER BY k",
            f"SELECT k FROM e WHERE v BETWEEN {low} AND {low + window} ORDER BY k",
            f"SELECT k, v FROM e WHERE v > {values - window} ORDER BY v LIMIT 10",
            "SELECT k, v FROM e ORDER BY v LIMIT 10",
            "SELECT k, v FROM e ORDER BY v DESC LIMIT 10",
            f"SELECT k FROM e WHERE v = {low}",
        ]
    answers, counters = [], []
    for with_index in (True, False):
        system = repro.make_system(dsn="exec-work")
        server = system.server
        sid = server.connect()
        execute(server, sid, "CREATE TABLE e (k INT PRIMARY KEY, v INT)")
        execute(
            server, sid,
            "INSERT INTO e VALUES "
            + ", ".join(f"({k}, {k % values})" for k in range(rows)),
        )
        if with_index:
            execute(server, sid, "CREATE INDEX ev ON e (v)")
        system.registry.reset()
        answers.append([execute(server, sid, sql) for sql in statements])
        counters.append(system.registry.snapshot()["executor"])
    assert answers[0] == answers[1]
    indexed, twin = counters
    assert indexed["rows_scanned"] == indexed["rows_returned"] == twin["rows_returned"]
    assert twin["rows_scanned"] == len(statements) * rows


# --------------------------------------------------------------- EXPLAIN


@pytest.fixture()
def indexed(session):
    server, sid = session
    execute(server, sid, "CREATE TABLE t (k INT PRIMARY KEY, v INT)")
    execute(server, sid, "CREATE INDEX iv ON t (v)")
    execute(
        server, sid,
        "INSERT INTO t VALUES " + ", ".join(f"({i}, {i % 10})" for i in range(50)),
    )
    return server, sid


def _explain(server, sid, sql):
    return "\n".join(r[0] for r in execute(server, sid, f"EXPLAIN {sql}"))


def test_explain_shows_index_range(indexed):
    server, sid = indexed
    plan = _explain(server, sid, "SELECT k FROM t WHERE v >= 3 AND v < 7")
    assert "IndexRange t (v >= const AND v < const)" in plan
    plan = _explain(server, sid, "SELECT k FROM t WHERE v BETWEEN 2 AND 4")
    assert "IndexRange t (v >= const AND v <= const)" in plan


def test_explain_shows_topk_instead_of_sort(indexed):
    server, sid = indexed
    plan = _explain(server, sid, "SELECT k, v FROM t ORDER BY v DESC LIMIT 5")
    assert "TopK 5 Offset 0 ORDER BY v DESC (index-ordered, no sort)" in plan
    assert "Sort" not in plan
    # no index on k beyond the PK hash → ordinary sort path
    plan = _explain(server, sid, "SELECT k, v FROM t ORDER BY k LIMIT 5")
    assert "Sort k" in plan and "TopK" not in plan


def test_explain_eq_probe_outranks_range(indexed):
    server, sid = indexed
    plan = _explain(server, sid, "SELECT k FROM t WHERE v = 3 AND v < 9")
    assert "IndexScan t (v = const)" in plan and "IndexRange" not in plan


# --------------------------------------------------------------- counters


def test_executor_counters_in_registry_snapshot():
    system = repro.make_system(dsn="exec-counters")
    server = system.server
    sid = server.connect()
    execute(server, sid, "CREATE TABLE t (k INT PRIMARY KEY, v INT)")
    execute(server, sid, "CREATE INDEX iv ON t (v)")
    execute(
        server, sid,
        "INSERT INTO t VALUES " + ", ".join(f"({i}, {i})" for i in range(20)),
    )
    system.registry.reset()
    execute(server, sid, "SELECT k FROM t WHERE v >= 5 AND v < 10")
    execute(server, sid, "SELECT k FROM t ORDER BY v DESC LIMIT 3")
    execute(server, sid, "SELECT k FROM t WHERE v = 7")
    snap = system.registry.snapshot()["executor"]
    assert snap["index_range_scans"] == 1
    assert snap["topk_shortcuts"] == 1
    assert snap["index_eq_probes"] == 1
    assert snap["rows_returned"] == 5 + 3 + 1
    assert snap["rows_scanned"] >= snap["rows_returned"]
    assert snap["compiled_plans"] >= 3
    system.registry.reset()
    assert system.registry.snapshot()["executor"]["rows_scanned"] == 0


# ------------------------------------------------------- maintenance paths


def _range_and_topk(server, sid):
    return (
        execute(server, sid, "SELECT k FROM t WHERE v BETWEEN 2 AND 5 ORDER BY k"),
        execute(server, sid, "SELECT k, v FROM t ORDER BY v LIMIT 5"),
    )


def _expected_via_scan(server, sid):
    """The same answers with every secondary index dropped (full scans)."""
    execute(server, sid, "DROP INDEX iv")
    return _range_and_topk(server, sid)


def test_index_consistent_after_rollback(indexed):
    server, sid = indexed
    before = _range_and_topk(server, sid)
    execute(server, sid, "BEGIN")
    execute(server, sid, "INSERT INTO t VALUES (100, 3)")
    execute(server, sid, "UPDATE t SET v = 4 WHERE k = 0")
    execute(server, sid, "DELETE FROM t WHERE k = 1")
    execute(server, sid, "ROLLBACK")
    assert _range_and_topk(server, sid) == before
    assert _expected_via_scan(server, sid) == before


def test_index_consistent_after_crash_recovery(indexed):
    server, sid = indexed
    execute(server, sid, "UPDATE t SET v = 99 WHERE k = 5")
    before = _range_and_topk(server, sid)
    server.crash()
    server.restart()
    sid = server.connect()
    assert _range_and_topk(server, sid) == before
    assert _expected_via_scan(server, sid) == before


def test_index_consistent_under_escalated_row_locks(indexed):
    """A transaction whose row locks escalate to a table lock must leave
    the ordered index exactly as consistent as one that never escalated."""
    server, sid = indexed
    server.database.locks.escalation_threshold = 3
    execute(server, sid, "BEGIN")
    for k in range(8):  # crosses the threshold mid-transaction
        execute(server, sid, f"UPDATE t SET v = {k + 20} WHERE k = {k}")
    execute(server, sid, "COMMIT")
    assert server.database.locks.stats.escalations >= 1
    fast = _range_and_topk(server, sid)
    assert _expected_via_scan(server, sid) == fast


def test_index_consistent_in_as_of_reconstruction(system):
    server = system.server
    sid = server.connect()
    execute(server, sid, "CREATE TABLE t (k INT PRIMARY KEY, v INT)")
    execute(server, sid, "CREATE INDEX iv ON t (v)")
    execute(
        server, sid,
        "INSERT INTO t VALUES " + ", ".join(f"({i}, {i})" for i in range(20)),
    )
    ts = server.time_travel.clock.now()
    pinned = (
        execute(server, sid, "SELECT k FROM t WHERE v BETWEEN 3 AND 8 ORDER BY k"),
        execute(server, sid, "SELECT k FROM t ORDER BY v DESC LIMIT 4"),
    )
    execute(server, sid, "UPDATE t SET v = 0 WHERE k > 2")
    execute(server, sid, "DELETE FROM t WHERE k = 4")
    got = (
        execute(
            server, sid,
            f"SELECT k FROM t WHERE v BETWEEN 3 AND 8 ORDER BY k AS OF {ts!r}",
        ),
        execute(server, sid, f"SELECT k FROM t ORDER BY v DESC LIMIT 4 AS OF {ts!r}"),
    )
    assert got == pinned
