"""``tpch_power``: the paper's Table 1, the TPC-H power test at sf 0.001.

One client, in-process transport.  A pass runs the 22 queries, each
executed and fully fetched, then RF1 and RF2 as two transactions each, then
undoes both so the next pass sees the same data.  Every pair of passes runs
once through the plain stack and once through Phoenix, alternating which
goes first; the run's first pair is warm-up and is discarded.

The data is the generator's fixed default, as TPC-H's own data is fixed
for a scale factor: at sf 0.001 a different data seed moves the cost of
single queries by tens of percent.  The seed instead orders the 22 queries
of each pair of passes, as TPC-H's throughput test orders its streams.

Not gated by ``BENCHMARK.json``: its run-to-run spread on the build host
exceeded the bounds even at the reference speed (see ``README.md``).
"""

from __future__ import annotations

import gc
import hashlib
import random
from dataclasses import dataclass

import repro
from repro.workloads import tpch
from repro.workloads.tpch.queries import QUERY_ORDER
from repro.workloads.tpch.refresh import reload_deleted, undo_rf1_statements

from perfbench.measure import Recorder, median, percentile

SF = 0.001
LOOPBACK = False
#: pairs of passes per second of requested run length: a round is a fixed
#: count of pairs, because every Phoenix pass leaves 22 materialized results
#: in its session, so the heap (and the collector's work) depends on how
#: many passes ran before
PAIRS_PER_SECOND = 0.45


@dataclass
class Inputs:
    seed: int
    data: tpch.TpchData
    #: measured pairs of passes per round
    pairs: int


def generate(seed: int, round_seconds: float) -> Inputs:
    return Inputs(seed, tpch.generate(SF), max(1, round(round_seconds * PAIRS_PER_SECOND)))


def query_order(seed: int, pair: int) -> list[str]:
    """The seeded order of the 22 queries in one pair of passes."""
    order = list(QUERY_ORDER)
    random.Random(f"tpch_power:{seed}:{pair}").shuffle(order)
    return order


def _value(value):
    """Numbers compare by value, to 10 significant digits: a refresh pass and
    its undo reorder rows, which moves float sums in the last ulps, and the
    plain stack returns ints in some columns it describes as FLOAT where
    Phoenix's materialized copy returns floats."""
    if isinstance(value, float):
        return str(int(value)) if value.is_integer() else f"{value:.10g}"
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    return value


def _fingerprint(rows: list[tuple]) -> str:
    digest = hashlib.sha256()
    for row in rows:
        digest.update(repr(tuple(_value(v) for v in row)).encode())
    return digest.hexdigest()[:16]


@dataclass
class Fixture:
    system: repro.System
    inputs: Inputs
    plain: object
    phoenix: object
    pairs_run: int = 0
    #: the first pass's fingerprints; every later pass must equal them
    reference: dict | None = None

    def phoenix_connections(self) -> list:
        return [self.phoenix]

    def warm_up(self, rec: Recorder) -> None:
        self._pair(rec)

    def measure(self, rec: Recorder, part: int, parts: int) -> None:
        """Part ``part`` of ``parts`` of the round's fixed count of pairs."""
        pairs = self.inputs.pairs
        for _ in range(pairs * part // parts, pairs * (part + 1) // parts):
            self._pair(rec)

    def _pair(self, rec: Recorder) -> None:
        stacks = [("", self.plain), ("phoenix", self.phoenix)]
        if self.pairs_run % 2:
            stacks.reverse()
        queries = query_order(self.inputs.seed, self.pairs_run)
        self.pairs_run += 1
        for stack, connection in stacks:
            # every pass starts from the same collector state, so the
            # collections its own allocations trigger land at the same
            # statements in every run, not wherever the last pass left off
            gc.collect()
            self._pass(rec, stack, connection, queries)

    def _pass(self, rec: Recorder, stack: str, connection, queries: list[str]) -> None:
        prefix = "" if stack == "phoenix" else "plain_"
        data = self.inputs.data
        cursor = connection.cursor()
        digests = {}
        for query_id in queries:
            sql = tpch.query_sql(query_id, data.sf)
            with rec.segment_op(prefix + "read"):
                cursor.execute(sql)
                rows = cursor.fetchall()
            digests[query_id] = _fingerprint(rows)
        # the refresh functions too start from a clean collector state: which
        # query crossed the last collection threshold depends on the order
        gc.collect()
        for name, transactions in (("RF1", tpch.rf1_statements(data)),
                                   ("RF2", tpch.rf2_statements(data))):
            for index, statements in enumerate(transactions):
                with rec.segment_op(prefix + "txn"):
                    connection.begin()
                    rowcounts = []
                    for sql in statements:
                        cursor.execute(sql)
                        rowcounts.append(cursor.rowcount)
                    connection.commit()
                digests[f"{name}.{index}"] = rowcounts
        with rec.op(prefix + "undo"):
            for sql in undo_rf1_statements(data):
                cursor.execute(sql)
            reload_deleted(data, cursor.execute)
        cursor.close()
        if self.reference is None:
            self.reference = digests
        rec.require(digests == self.reference,
                    f"tpch_power: {stack or 'plain'} pass {self.pairs_run} results differ "
                    f"from the first pass")

    def verify(self, rec: Recorder) -> None:
        """Checked per pass: plain and Phoenix agree with the first pass."""

    def close(self) -> None:
        self.system.close()


def setup(inputs: Inputs, dsn: str) -> Fixture:
    """Schema, generated data and checkpoint, loaded through the plain stack."""
    system = repro.make_system(dsn=dsn)
    plain = repro.connect(system, phoenix=False)
    cursor = plain.cursor()
    tpch.load(cursor.execute, inputs.data)
    cursor.close()
    system.server.checkpoint()
    return Fixture(system, inputs, plain, repro.connect(system))


def _per_pass(samples: list[float], per_pass: int) -> list[float]:
    """Totals of consecutive groups: the samples of one pass each."""
    return [sum(samples[i:i + per_pass]) for i in range(0, len(samples), per_pass)]


def summarize(rec: Recorder) -> tuple[dict, dict]:
    """Medians over the passes, at the reference speed."""
    reads, txns = rec.scaled("read"), rec.scaled("txn")
    queries = len(QUERY_ORDER)
    passes = len(reads) // queries
    query_s = median(_per_pass(reads, queries))
    gated = {
        "ops_per_s": queries / query_s,
        "latency_p50_ms": median(reads) * 1e3,
        "latency_p90_ms": percentile(reads, 90) * 1e3,
        "write_p50_ms": median(txns) * 1e3,
    }
    named = {
        "query_s": (query_s, "s", passes),
        "plain_query_s": (median(_per_pass(rec.scaled("plain_read"), queries)), "s", passes),
        "refresh_s": (median(_per_pass(txns, len(txns) // passes)), "s", passes),
        "query_p50_ms": (gated["latency_p50_ms"], "ms", len(reads)),
        "rf_txn_p50_ms": (gated["write_p50_ms"], "ms", len(txns)),
        "unscaled_query_s": (median(_per_pass(rec.get("read"), queries)), "s", passes),
    }
    return gated, named
