"""Statement and plan caching: stop re-parsing and re-planning hot SQL.

The paper's evaluation repeats statements relentlessly — TPC-H power runs
execute the same 22 query texts over and over, and Phoenix *doubles*
statement traffic with generated probes (``WHERE 0=1``), fill procedures,
and status-table writes.  The seed engine re-lexed, re-parsed, and re-built
a fresh ``_SelectPlan`` for every one of them.  This module provides the
two reuse layers and the counters that prove they work:

* :class:`ParseCache` — server-wide LRU mapping raw SQL text to the parsed
  statement tuple.  Parsing is pure, so entries are shared across sessions.
  The cache lives on the :class:`~repro.engine.server.DatabaseServer` and is
  **volatile**: ``crash()`` discards it and restart recovery starts cold,
  exactly like every other non-logged structure.

* :class:`PlanCache` — per-session (per-:class:`~repro.engine.executor
  .Executor`) LRU mapping a parsed SELECT statement to its compiled plan.
  Keys are object identities of statements returned by the parse cache
  (entries pin the statement, so an id can never be reused while its entry
  lives), which makes hits O(1) with no re-rendering.  Entries are
  validated against a pair of monotonic version counters:

  - ``Database.catalog_version`` — bumped on every persistent DDL (tables,
    views, procedures, indexes), including undo/rollback of DDL.  Phoenix's
    ``phx_*`` result tables, fill procedures, and redirected temp objects
    are ordinary persistent DDL, so their churn invalidates dependent plans
    the moment they land.
  - ``Session.temp_version`` — bumped on every session temp-table or
    temp-procedure create/drop, so a plan compiled against a temp object
    (or against a persistent table a temp object later shadows) can never
    be served stale.

  A version mismatch counts as an *invalidation* and recompiles.

The cache is deliberately conservative: only top-level SELECT / UNION
statements with no bound placeholders or procedure parameters are cached
(placeholder values are baked into compiled closures, so such plans are
single-use by construction).

:class:`EngineMetrics` aggregates the hit/miss/invalidation counters and is
surfaced through the bench harness next to the round-trip counts — the
paper's observability discipline applied to the engine's own hot path.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any

__all__ = ["EngineMetrics", "ExecutorStats", "LRUCache", "ParseCache", "PlanCache"]

#: Server-wide parse cache capacity (distinct SQL texts).
PARSE_CACHE_CAPACITY = 256
#: Per-session plan cache capacity (distinct cached statements).
PLAN_CACHE_CAPACITY = 128


class EngineMetrics:
    """Cache observability counters for one server.

    Reset semantics follow the system-wide contract defined in
    :mod:`repro.obs.metrics`: like :class:`~repro.engine.server.ServerStats`
    and :class:`~repro.net.metrics.NetworkMetrics`, these are cumulative
    across crashes and restarts — they describe the simulation, not server
    state — and only an explicit :meth:`reset` zeroes them.  The *caches
    themselves* are volatile; the counters let tests prove it (a restart
    shows fresh misses for SQL that used to hit).
    """

    def __init__(self) -> None:
        self.parse_hits = 0
        self.parse_misses = 0
        self.plan_hits = 0
        self.plan_misses = 0
        self.plan_invalidations = 0

    @property
    def parse_hit_rate(self) -> float:
        total = self.parse_hits + self.parse_misses
        return self.parse_hits / total if total else 0.0

    @property
    def plan_hit_rate(self) -> float:
        total = self.plan_hits + self.plan_misses
        return self.plan_hits / total if total else 0.0

    def reset(self) -> None:
        self.parse_hits = 0
        self.parse_misses = 0
        self.plan_hits = 0
        self.plan_misses = 0
        self.plan_invalidations = 0

    def merge(self, other: "EngineMetrics") -> None:
        """Fold another server's counters in (same surface as
        ``NetworkMetrics.merge`` — multi-system benchmarks aggregate both)."""
        self.parse_hits += other.parse_hits
        self.parse_misses += other.parse_misses
        self.plan_hits += other.plan_hits
        self.plan_misses += other.plan_misses
        self.plan_invalidations += other.plan_invalidations

    def snapshot(self) -> dict[str, float]:
        return {
            "parse_hits": self.parse_hits,
            "parse_misses": self.parse_misses,
            "parse_hit_rate": self.parse_hit_rate,
            "plan_hits": self.plan_hits,
            "plan_misses": self.plan_misses,
            "plan_hit_rate": self.plan_hit_rate,
            "plan_invalidations": self.plan_invalidations,
        }

    def __repr__(self) -> str:
        return (
            f"EngineMetrics(parse={self.parse_hits}/{self.parse_hits + self.parse_misses}, "
            f"plan={self.plan_hits}/{self.plan_hits + self.plan_misses}, "
            f"invalidations={self.plan_invalidations})"
        )


class ExecutorStats:
    """Access-path and pipeline counters for one server's executors.

    Same reset semantics as :class:`EngineMetrics` (defined in
    :mod:`repro.obs.metrics`): cumulative across crashes and restarts, only
    an explicit :meth:`reset` zeroes them.  The counters are the
    observability surface of the vectorized executor — which access path
    each query actually took (PK probe, secondary equality, secondary
    range, full scan narrowed or not), how many rows it touched versus
    returned, and how often the index-ordered top-k shortcut fired.
    """

    def __init__(self) -> None:
        #: base-table rows read (full scans + probe results + top-k streams)
        self.rows_scanned = 0
        #: rows returned by SELECT plans (subquery and union parts included)
        self.rows_returned = 0
        #: PK / secondary equality probes executed
        self.index_eq_probes = 0
        #: secondary range probes executed (<, <=, >, >=, BETWEEN)
        self.index_range_scans = 0
        #: ORDER BY ... LIMIT served by index-ordered streaming (no sort)
        self.topk_shortcuts = 0
        #: SELECT plans compiled (row-closure pipeline)
        self.compiled_plans = 0

    def reset(self) -> None:
        self.rows_scanned = 0
        self.rows_returned = 0
        self.index_eq_probes = 0
        self.index_range_scans = 0
        self.topk_shortcuts = 0
        self.compiled_plans = 0

    def merge(self, other: "ExecutorStats") -> None:
        """Fold another server's counters in (multi-system benchmarks)."""
        self.rows_scanned += other.rows_scanned
        self.rows_returned += other.rows_returned
        self.index_eq_probes += other.index_eq_probes
        self.index_range_scans += other.index_range_scans
        self.topk_shortcuts += other.topk_shortcuts
        self.compiled_plans += other.compiled_plans

    def snapshot(self) -> dict[str, int]:
        return {
            "rows_scanned": self.rows_scanned,
            "rows_returned": self.rows_returned,
            "index_eq_probes": self.index_eq_probes,
            "index_range_scans": self.index_range_scans,
            "topk_shortcuts": self.topk_shortcuts,
            "compiled_plans": self.compiled_plans,
        }

    def __repr__(self) -> str:
        return (
            f"ExecutorStats(scanned={self.rows_scanned}, "
            f"returned={self.rows_returned}, eq={self.index_eq_probes}, "
            f"range={self.index_range_scans}, topk={self.topk_shortcuts}, "
            f"compiled={self.compiled_plans})"
        )


class LRUCache:
    """Tiny LRU map: get/put/pop with least-recently-used eviction."""

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self._entries: OrderedDict[Any, Any] = OrderedDict()

    def get(self, key: Any) -> Any | None:
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def put(self, key: Any, value: Any) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def pop(self, key: Any) -> None:
        self._entries.pop(key, None)

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Any) -> bool:
        return key in self._entries


class ParseCache:
    """SQL text → parsed statement tuple (server-wide, volatile).

    Statements handed out are shared: the server-side executor treats parsed
    ASTs as immutable (only the *client-side* Phoenix interceptor rewrites
    ASTs, and it parses its own copies), so one parse serves every session
    issuing the same text.
    """

    def __init__(self, capacity: int = PARSE_CACHE_CAPACITY):
        self._cache = LRUCache(capacity)

    def get(self, sql: str) -> tuple | None:
        return self._cache.get(sql)

    def put(self, sql: str, statements: tuple) -> None:
        self._cache.put(sql, tuple(statements))

    def clear(self) -> None:
        self._cache.clear()

    def __len__(self) -> int:
        return len(self._cache)


class _PlanEntry:
    __slots__ = ("stmt", "versions", "runner")

    def __init__(self, stmt: Any, versions: tuple[int, int], runner: Any):
        #: strong reference pins the statement object: while this entry is
        #: alive, id(stmt) cannot be reused, so identity keys are sound.
        self.stmt = stmt
        #: (catalog_version, temp_version) the plan was compiled under
        self.versions = versions
        self.runner = runner


class PlanCache:
    """Parsed statement (by identity) → compiled plan, version-validated."""

    def __init__(self, capacity: int = PLAN_CACHE_CAPACITY):
        self._cache = LRUCache(capacity)

    def lookup(self, stmt: Any, versions: tuple[int, int], metrics: EngineMetrics) -> Any | None:
        """Return the cached runner for ``stmt`` if still valid, else None.

        A version mismatch evicts the entry and counts an invalidation (the
        subsequent recompile is counted as a miss by the caller's store).
        """
        entry: _PlanEntry | None = self._cache.get(id(stmt))
        if entry is None or entry.stmt is not stmt:
            metrics.plan_misses += 1
            return None
        if entry.versions != versions:
            self._cache.pop(id(stmt))
            metrics.plan_invalidations += 1
            metrics.plan_misses += 1
            return None
        metrics.plan_hits += 1
        return entry.runner

    def store(self, stmt: Any, versions: tuple[int, int], runner: Any) -> None:
        self._cache.put(id(stmt), _PlanEntry(stmt, versions, runner))

    def clear(self) -> None:
        self._cache.clear()

    def __len__(self) -> int:
        return len(self._cache)
