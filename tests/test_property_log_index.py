"""Property test for the durable log index.

A boot rebuilds the time-travel log index from the commit index archived
with each log segment plus the live log, without decoding archived
records.  Whatever history the system went through — commits, aborts,
transactions left open across checkpoints, quiescent checkpoints that
archive the log prefix, torn log tails, ``restore_to`` cuts below and
above the live log's base, crashes — the rebuilt index must equal the one
derived by decoding the whole history with :func:`full_log_records`.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.engine import DatabaseServer
from repro.engine.storage import FileStableStorage, InMemoryStableStorage, StorageFault
from repro.engine.timetravel import full_log_records
from repro.engine.wal import RecordType

operations = st.lists(
    st.one_of(
        st.tuples(st.just("commit"), st.integers(min_value=1, max_value=3)),
        st.tuples(st.just("abort")),
        st.tuples(st.just("open")),
        st.tuples(st.just("close_open")),
        st.tuples(st.just("checkpoint")),
        st.tuples(st.just("torn")),
        st.tuples(st.just("crash")),
        st.tuples(st.just("restore"), st.floats(min_value=0.0, max_value=1.0)),
    ),
    max_size=20,
)

_directories = itertools.count()


def _derived_index(storage) -> list[tuple[float, int, int]]:
    """``(ts, lsn, end)`` per commit, decoded from the whole history with
    the same synthesized-timestamp rule the index applies."""
    records, _start, ends = full_log_records(storage)
    derived = []
    last_ts = 0.0
    for record, end in zip(records, ends):
        if record.type is not RecordType.COMMIT:
            continue
        ts = getattr(record, "commit_ts", None)
        if ts is None or ts <= last_ts:
            ts = last_ts + 1e-9
        last_ts = ts
        derived.append((ts, record.lsn, end))
    return derived


def _assert_index_matches_history(server: DatabaseServer) -> None:
    index = server.time_travel.log_index
    derived = _derived_index(server.storage)
    assert index.cuts() == [(ts, lsn) for ts, lsn, _end in derived]
    for _ts, lsn, end in derived:
        assert index.end_for(lsn) == end


def _run_history(server: DatabaseServer, ops) -> None:
    keys = itertools.count()
    sid = server.connect()
    server.execute(sid, "CREATE TABLE t (k INT PRIMARY KEY, v INT)")
    holder = None  # a second session whose transaction stays open

    def restarted() -> int:
        nonlocal holder
        holder = None
        _assert_index_matches_history(server)
        return server.connect()

    for op in ops:
        kind = op[0]
        if kind == "commit":
            server.execute(sid, "BEGIN")
            for _ in range(op[1]):
                server.execute(sid, f"INSERT INTO t VALUES ({next(keys)}, 0)")
            server.execute(sid, "COMMIT")
        elif kind == "abort":
            server.execute(sid, "BEGIN")
            server.execute(sid, f"INSERT INTO t VALUES ({next(keys)}, 1)")
            server.execute(sid, "ROLLBACK")
        elif kind == "open" and holder is None:
            holder = server.connect()
            server.execute(holder, "BEGIN")
            server.execute(holder, f"INSERT INTO t VALUES ({next(keys)}, 2)")
        elif kind == "close_open" and holder is not None:
            server.execute(holder, "COMMIT")
            server.disconnect(holder)
            holder = None
        elif kind == "checkpoint":
            # archives (and indexes) the log prefix only when quiescent
            server.checkpoint()
        elif kind == "torn":
            server.storage.inject_append_fault("torn", torn_bytes=5)
            with pytest.raises(StorageFault):
                server.execute(sid, f"INSERT INTO t VALUES ({next(keys)}, 3)")
            server.crash()
            server.restart()
            sid = restarted()
        elif kind == "crash":
            server.crash()
            server.restart()
            sid = restarted()
        elif kind == "restore":
            cuts = server.time_travel.log_index.cuts()
            ts = cuts[int(op[1] * (len(cuts) - 1))][0] if cuts else None
            server.restore_to(ts)  # disconnects every session
            sid = restarted()
        _assert_index_matches_history(server)
    server.crash()
    server.restart()
    restarted()


@pytest.mark.parametrize("device", ["memory", "file"])
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(ops=operations)
def test_rebuilt_index_equals_index_derived_from_full_history(device, ops, tmp_path):
    if device == "memory":
        storage = InMemoryStableStorage()
    else:
        storage = FileStableStorage(str(tmp_path / f"db{next(_directories)}"))
    _run_history(DatabaseServer(storage=storage), ops)
