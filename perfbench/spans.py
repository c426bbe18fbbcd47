"""Span tracing installed from outside the program, for the traced run.

:meth:`Tracer.install` replaces the public functions listed in
:data:`TARGETS` with wrappers that call through unchanged and record one
span per call: id, parent span, operation id, layer, name, start, end and a
small per-call figure (bytes appended, records scanned, ...).  Spans stay in
memory; :meth:`Tracer.dump` writes them out when the run ends, and
:meth:`Tracer.uninstall` restores every original.  Timed runs never install
the wrappers.

Parents follow the calling thread's span stack.  Work the server runs on
another thread (the dispatcher's workers, the TCP event loop) finds its
parent through the session id it serves: while a client's
``ClientChannel.send`` is in flight, its span is registered under the
request's session id, and the dispatcher wrapper and the server-side
``decode_message`` wrapper look it up there.  So every span of one
application operation shares that operation's id, whichever thread ran it.

:func:`layer_breakdown` sums the spans by layer and by the kind of
operation they served, and :func:`layer_metrics` turns the sums into the
per-layer metrics.  A
span's self time is its duration minus the part of it that its children
cover; a layer's busy time counts only its outermost spans, so nested calls
inside one layer are not counted twice.
"""

from __future__ import annotations

import gzip
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

__all__ = ["Tracer", "TARGETS", "layer_breakdown", "layer_metrics"]

_now = time.perf_counter

#: (module, class or None, attribute, layer).  A class of None patches a
#: module-level function in that module's namespace, i.e. where the caller
#: looks the name up.
TARGETS: list[tuple[str, str | None, str, str]] = [
    ("repro.core.cursor", "PhoenixCursor", "execute", "core"),
    ("repro.core.cursor", "PhoenixCursor", "executemany", "core"),
    ("repro.core.cursor", "PhoenixCursor", "fetchone", "core"),
    ("repro.core.cursor", "PhoenixCursor", "fetchmany", "core"),
    ("repro.core.cursor", "PhoenixCursor", "fetchall", "core"),
    ("repro.core.connection", "PhoenixConnection", "begin", "core"),
    ("repro.core.connection", "PhoenixConnection", "commit", "core"),
    ("repro.core.connection", "PhoenixConnection", "rollback", "core"),
    ("repro.core.cursor", None, "parse_script", "core.parse"),
    ("repro.core.interceptor", None, "parse_script", "core.parse"),
    ("repro.core.recovery", "PhoenixRecovery", "recover", "core.recovery"),
    ("repro.odbc.driver", "DriverConnection", "execute", "odbc"),
    ("repro.odbc.driver", "DriverConnection", "execute_batch", "odbc"),
    ("repro.odbc.driver", "DriverConnection", "fetch", "odbc"),
    ("repro.odbc.driver", "DriverConnection", "advance", "odbc"),
    ("repro.odbc.driver", "DriverConnection", "close_cursor", "odbc"),
    ("repro.odbc.driver", "DriverConnection", "table_schema", "odbc"),
    ("repro.odbc.driver", "DriverConnection", "set_option", "odbc"),
    ("repro.net.transport", "ClientChannel", "send", "net"),
    ("repro.net.transport", None, "encode_message", "net.codec"),
    ("repro.net.transport", None, "decode_message", "net.codec"),
    ("repro.engine.dispatch", "SessionDispatcher", "run", "engine.dispatch"),
    ("repro.engine.dispatch", "SessionDispatcher", "submit", "engine.dispatch"),
    ("repro.engine.server", "DatabaseServer", "execute", "engine.server"),
    ("repro.engine.server", "DatabaseServer", "execute_batch", "engine.server"),
    ("repro.engine.server", "DatabaseServer", "fetch", "engine.server"),
    ("repro.engine.server", "DatabaseServer", "advance", "engine.server"),
    ("repro.engine.server", "DatabaseServer", "close_cursor", "engine.server"),
    ("repro.engine.server", "DatabaseServer", "connect", "engine.server"),
    ("repro.engine.server", "DatabaseServer", "disconnect", "engine.server"),
    ("repro.engine.server", None, "parse_script", "sql.parse"),
    ("repro.engine.executor", "Executor", "execute", "engine.executor"),
    ("repro.engine.locks", "LockManager", "acquire", "engine.locks"),
    ("repro.engine.wal", "WriteAheadLog", "force", "engine.wal.force"),
    ("repro.engine.wal", "WriteAheadLog", "group_force", "engine.wal.force"),
    ("repro.engine.wal", "WriteAheadLog", "append", "engine.wal.append"),
    ("repro.engine.storage", "StableStorage", "append_log", "engine.storage"),
    ("repro.engine.server", "DatabaseServer", "checkpoint", "engine.storage.checkpoint"),
    ("repro.engine.server", "DatabaseServer", "restart", "engine.recovery.restart"),
    ("repro.engine.server", None, "recover", "engine.recovery"),
    ("repro.engine.timetravel", "TimeTravelManager", "rebuild", "engine.timetravel.rebuild"),
    ("repro.engine.timetravel", None, "full_log_records", "engine.timetravel.scan"),
]


def _argument(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _phase_totals(stats) -> tuple[float, float, int]:
    return (stats.virtual_session_seconds_total, stats.sql_state_seconds_total,
            stats.recovery_pings)


def _send_enter(tracer: "Tracer", args: tuple, kwargs: dict, sid: int, op: int):
    """Register the request's session so server-side spans find this one."""
    key = getattr(_argument(args, kwargs, 1, "request"), "session_id", None)
    if key is not None:
        tracer._inflight[key] = (sid, op)
    return key


def _send_exit(tracer: "Tracer", args, kwargs, result, key) -> int:
    if key is not None:
        tracer._inflight.pop(key, None)
    return 0


def _recovery_enter(tracer, args, kwargs, sid, op):
    return _phase_totals(args[0].connection.stats)


def _recovery_exit(tracer, args, kwargs, result, before) -> tuple:
    """Phase-1 and phase-2 seconds and failed pings this recovery added."""
    after = _phase_totals(args[0].connection.stats)
    return tuple(a - b for a, b in zip(after, before))


#: per-call hooks: ``enter`` runs before the call and returns what ``exit``
#: receives; ``exit`` returns the span's figure (0 when there is none)
_ENTER = {"ClientChannel.send": _send_enter, "PhoenixRecovery.recover": _recovery_enter}
_EXIT = {
    "ClientChannel.send": _send_exit,
    "PhoenixRecovery.recover": _recovery_exit,
    "StableStorage.append_log":
        lambda tracer, args, kwargs, result, _: len(_argument(args, kwargs, 1, "payload")),
    "DatabaseServer.execute_batch":
        lambda tracer, args, kwargs, result, _: len(_argument(args, kwargs, 2, "statements")),
    "full_log_records":
        lambda tracer, args, kwargs, result, _: len(result[0]) if result else 0,
    "recover":
        lambda tracer, args, kwargs, result, _:
            (result[1].records_scanned, result[1].records_redone) if result else (0, 0),
}


class Tracer:
    """Records spans in memory while installed."""

    def __init__(self) -> None:
        #: (sid, parent, op, layer, name, start, end, figure)
        self.spans: list[tuple] = []
        #: (op id, kind, start, end) — the application operations
        self.ops: list[tuple] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        #: session id -> (send span id, op id) while a request is in flight
        self._inflight: dict[int, tuple[int, int]] = {}
        self._undo: list[tuple[object, str, object]] = []

    # -- operations -----------------------------------------------------------

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def begin_op(self, kind: str):
        stack = self._stack()
        op = next(self._ids)
        stack.append((op, op))
        return op, kind, _now(), len(stack) - 1

    def end_op(self, token) -> None:
        op, kind, started, depth = token
        ended = _now()
        del self._stack()[depth:]
        self.ops.append((op, kind, started, ended))

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        if self._undo:
            return
        for module_name, class_name, attr, layer in TARGETS:
            module = importlib.import_module(module_name)
            owner = module if class_name is None else getattr(module, class_name)
            original = owner.__dict__[attr] if class_name else getattr(module, attr)
            name = attr if class_name is None else f"{class_name}.{attr}"
            setattr(owner, attr, self._wrapper(original, layer, name))
            self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrapper(self, fn, layer: str, name: str):
        if name in ("SessionDispatcher.run", "SessionDispatcher.submit"):
            return self._dispatch_wrapper(fn)
        if name == "decode_message":
            return self._decode_wrapper(fn, layer, name)
        tracer, stack_of, ids, spans = self, self._stack, self._ids, self.spans
        enter, leave = _ENTER.get(name), _EXIT.get(name)

        def wrapper(*args, **kwargs):
            stack = stack_of()
            parent, op = stack[-1] if stack else (0, 0)
            sid = next(ids)
            entered = enter(tracer, args, kwargs, sid, op) if enter else None
            stack.append((sid, op))
            result = None
            started = _now()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                ended = _now()
                stack.pop()
                figure = leave(tracer, args, kwargs, result, entered) if leave else 0
                spans.append((sid, parent, op, layer, name, started, ended, figure))

        return wrapper

    def _decode_wrapper(self, fn, layer, name):
        stack_of, ids, spans, inflight = self._stack, self._ids, self.spans, self._inflight

        def decode(raw):
            started = _now()
            message = fn(raw)
            ended = _now()
            stack = stack_of()
            if stack:
                parent, op = stack[-1]
            else:  # the TCP event loop: find the client by session
                parent, op = inflight.get(getattr(message, "session_id", None), (0, 0))
            spans.append((next(ids), parent, op, layer, name, started, ended, 0))
            return message

        return decode

    def _dispatch_wrapper(self, fn):
        """Wrap the submitted callable: the gap between submission and its
        start is the queue wait, its run is the dispatch hop's own span."""
        stack_of, ids, spans, inflight = self._stack, self._ids, self.spans, self._inflight

        def dispatch(dispatcher, key, work, *rest):
            stack = stack_of()
            parent, op = stack[-1] if stack else inflight.get(key, (0, 0))
            submitted = _now()

            def timed():
                started = _now()
                spans.append((next(ids), parent, op, "engine.dispatch.wait",
                              "dispatch.wait", submitted, started, 0))
                worker_stack = stack_of()
                sid = next(ids)
                worker_stack.append((sid, op))
                try:
                    return work()
                finally:
                    ended = _now()
                    worker_stack.pop()
                    spans.append((sid, parent, op, "engine.dispatch", "dispatch.item",
                                  started, ended, 0))

            return fn(dispatcher, key, timed, *rest)

        return dispatch

    # -- output ---------------------------------------------------------------

    def dump(self, path: Path) -> None:
        """Write ops and spans as gzip'd JSON lines (one record a line)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            for op, kind, started, ended in self.ops:
                out.write(json.dumps({"op": op, "kind": kind, "start": started,
                                      "end": ended}) + "\n")
            for sid, parent, op, layer, name, started, ended, figure in self.spans:
                out.write(json.dumps({"span": sid, "parent": parent, "op": op,
                                      "layer": layer, "name": name, "start": started,
                                      "end": ended, "figure": figure}) + "\n")


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def layer_breakdown(spans: list[tuple], ops: list[tuple]) -> dict:
    """Aggregate spans by layer and by the kind of operation they served.

    Returns a dict of sums keyed ``(quantity, layer, kind)`` where quantity
    is ``self``/``busy``/``count``/``figure``; kind ``*`` sums every kind.
    Also ``ops`` (kind -> count) and ``unattributed`` (seconds of op time
    no layer span covers).
    """
    kind_of = {op: kind for op, kind, _s, _e in ops}
    layer_of = {span[0]: span[3] for span in spans}
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        children[span[1]].append((span[5], span[6]))
    sums: dict[tuple[str, str, str], float] = defaultdict(float)
    by_name: dict[tuple[str, str], float] = defaultdict(float)
    figures: dict[str, list] = defaultdict(list)
    for sid, parent, op, layer, name, started, ended, figure in spans:
        kind = kind_of.get(op, "none")
        duration = ended - started
        own = duration - _covered(started, ended, children.get(sid, ()))
        outermost = layer_of.get(parent) != layer
        for k in (kind, "*"):
            sums[("self", layer, k)] += own
            if outermost:
                sums[("busy", layer, k)] += duration
                sums[("count", layer, k)] += 1
            if isinstance(figure, int):
                sums[("figure", layer, k)] += figure
            by_name[(name, k)] += figure if name == "DatabaseServer.execute_batch" else 1
        if not isinstance(figure, int):
            figures[layer].append(figure)
    counts: dict[str, int] = defaultdict(int)
    unattributed = 0.0
    for op, kind, started, ended in ops:
        counts[kind] += 1
        counts["*"] += 1
        unattributed += (ended - started) - _covered(started, ended, children.get(op, ()))
    return {"sums": sums, "by_name": by_name, "figures": figures, "ops": counts,
            "unattributed": unattributed}


def layer_metrics(breakdown: dict, counters: dict[str, float]) -> dict[str, float]:
    """The per-layer metrics from a :func:`layer_breakdown` and the change
    in the system's own counters over the traced phases."""
    sums, ops, by_name = breakdown["sums"], breakdown["ops"], breakdown["by_name"]
    figures = breakdown["figures"]
    reads, txns, everything = ops.get("read", 0), ops.get("txn", 0), ops.get("*", 0)

    def per(value: float, base: float) -> float:
        return value / base if base else 0.0

    def total(quantity: str, layer: str, kind: str = "*") -> float:
        return sums.get((quantity, layer, kind), 0.0)

    def mean_busy(layer: str) -> float:
        return per(total("busy", layer), total("count", layer))

    def mean_figure(layer: str, index: int) -> float:
        values = [figure[index] for figure in figures.get(layer, ()) if any(figure)]
        return per(sum(values), len(values))

    executes = sum(by_name.get((name, "read"), 0)
                   for name in ("DatabaseServer.execute", "DatabaseServer.execute_batch"))
    c = counters
    return {
        "core.self_us_per_read": per(total("self", "core", "read"), reads) * 1e6,
        "core.self_us_per_txn": per(total("self", "core", "txn"), txns) * 1e6,
        "core.client_parse_us": per(total("busy", "core.parse"), everything) * 1e6,
        "odbc.requests_per_read": per(total("count", "odbc", "read"), reads),
        "odbc.requests_per_txn": per(total("count", "odbc", "txn"), txns),
        "net.transit_us": per(total("self", "net"), total("count", "net")) * 1e6,
        "net.codec_us_per_msg": mean_busy("net.codec") * 1e6,
        "net.bytes_per_op": per(c["bytes_sent"] + c["bytes_received"], everything),
        "engine.dispatch.queue_wait_us": mean_busy("engine.dispatch.wait") * 1e6,
        "engine.dispatch.self_us_per_request":
            per(total("self", "engine.dispatch"), total("count", "engine.dispatch")) * 1e6,
        "engine.server.busy_us_per_request": mean_busy("engine.server") * 1e6,
        "engine.server.statements_per_read": per(executes, reads),
        "sql.parse_us": per(total("busy", "sql.parse"), total("count", "engine.server")) * 1e6,
        "engine.plancache.parse_hit_rate":
            per(c["parse_hits"], c["parse_hits"] + c["parse_misses"]),
        "engine.plancache.plan_hit_rate": per(c["plan_hits"], c["plan_hits"] + c["plan_misses"]),
        "engine.plancache.plan_invalidations": c["plan_invalidations"],
        "engine.executor.rows_scanned_per_returned": per(c["rows_scanned"], c["rows_returned"]),
        "engine.executor.busy_us_per_op": per(total("busy", "engine.executor"), everything) * 1e6,
        "engine.locks.acquires_per_txn": per(total("count", "engine.locks", "txn"), txns),
        "engine.locks.waits": c["waits"],
        "engine.locks.wait_ms_per_txn": per(c["total_wait_time"], txns) * 1e3,
        "engine.locks.deadlocks": c["deadlocks"],
        "engine.wal.forces_per_txn": per(total("count", "engine.wal.force", "txn"), txns),
        "engine.wal.force_us": mean_busy("engine.wal.force") * 1e6,
        "engine.wal.records_per_txn": per(total("count", "engine.wal.append", "txn"), txns),
        "engine.storage.log_bytes_per_txn": per(total("figure", "engine.storage", "txn"), txns),
        "engine.storage.checkpoint_ms": mean_busy("engine.storage.checkpoint") * 1e3,
        "engine.recovery.restart_ms": mean_busy("engine.recovery.restart") * 1e3,
        "engine.recovery.redo_ms": mean_busy("engine.recovery") * 1e3,
        "engine.recovery.records_scanned": mean_figure("engine.recovery", 0),
        "engine.recovery.records_redone": mean_figure("engine.recovery", 1),
        "engine.timetravel.rebuild_ms": mean_busy("engine.timetravel.rebuild") * 1e3,
        "engine.timetravel.rebuild_share":
            per(total("busy", "engine.timetravel.rebuild"),
                total("busy", "engine.recovery.restart")),
        "engine.timetravel.history_records":
            per(total("figure", "engine.timetravel.scan"), total("count", "engine.timetravel.scan")),
        "core.recovery.phase1_ms": mean_figure("core.recovery", 0) * 1e3,
        "core.recovery.phase2_ms": mean_figure("core.recovery", 1) * 1e3,
        "core.recovery.pings": mean_figure("core.recovery", 2),
        "unattributed_us_per_op": per(breakdown["unattributed"], everything) * 1e6,
    }
