"""``crash_recovery``: the paper's Figure 2, a result that survives crashes.

One Phoenix client, in-process transport.  A cycle opens a
``GROUP BY k % S`` result over a 10,000-row detail table (S drawn from
100-2,500), fetches all but its last 5 rows, commits a few transfers and
leaves one more transfer open after its first statement.  Then the server
crashes and restarts.  The application's next call (the open transfer's
second statement) recovers the session; the transfer commits and the
result is fetched to its end.  A checkpoint runs every
``CHECKPOINT_EVERY`` committed transfers, so the log since the last
checkpoint stays short while the archived history keeps growing.

A run is a fixed count of cycles, set by ``--seconds`` alone and not by
how fast the cycles go, because restart cost depends on how much history
the earlier cycles left behind.
"""

from __future__ import annotations

import gc
import random
from dataclasses import dataclass

import repro

from perfbench.measure import Recorder, median, percentile

DETAIL_ROWS = 10_000
ACCOUNTS = 1_000
INITIAL_BALANCE = 1_000
TRANSFERS_PER_CYCLE = 8
CHECKPOINT_EVERY = 20
UNREAD_ROWS = 5
LOOPBACK = False


#: cycles per second of requested run length
CYCLES_PER_SECOND = 1.8


@dataclass
class Inputs:
    seed: int
    detail: list[tuple[int, int, int]]
    #: cycles per round: a count derived from the requested run length only
    cycles: int


def generate(seed: int, round_seconds: float) -> Inputs:
    rng = random.Random(f"crash_recovery:{seed}:detail")
    detail = [(i, rng.randrange(1_000_000), rng.randrange(1_000)) for i in range(DETAIL_ROWS)]
    return Inputs(seed, detail, max(2, round(round_seconds * CYCLES_PER_SECOND)))


def cycle_plan(seed: int, cycle: int, cycles: int) -> tuple[int, list[tuple[int, int, int]]]:
    """(S, transfers) of cycle ``cycle`` of ``cycles``; the last transfer is
    the one left open.

    S is stratified: the cycles of a round draw one S from each of
    ``cycles`` equal slices of 100-2,500, visiting the slices in one fixed
    shuffled order.  Each result adds about S rows to the history a restart
    scans, so every seed builds the same history over a round and the seed
    moves only the values drawn: the detail rows, S within its slice, and
    the transfers.
    """
    slots = list(range(cycles))
    random.Random("crash_recovery:slots").shuffle(slots)
    rng = random.Random(f"crash_recovery:{seed}:cycle:{cycle}")
    width = (2_500 - 100) / cycles
    groups = 100 + int(width * (slots[cycle % cycles] + rng.random()))
    transfers = []
    for _ in range(TRANSFERS_PER_CYCLE + 1):
        debit, credit = rng.sample(range(ACCOUNTS), 2)
        transfers.append((debit, credit, rng.randint(1, 100)))
    return groups, transfers


def result_sql(groups: int) -> str:
    return (f"SELECT k % {groups} AS g, COUNT(*) AS n, SUM(v) AS total FROM detail "
            f"GROUP BY k % {groups} ORDER BY g")


def reference(detail: list[tuple[int, int, int]], groups: int) -> list[tuple]:
    counts: dict[int, list[int]] = {}
    for _id, k, v in detail:
        entry = counts.setdefault(k % groups, [0, 0])
        entry[0] += 1
        entry[1] += v
    return [(g, n, total) for g, (n, total) in sorted(counts.items())]


def transfer_sql(audit_id: int, debit: int, credit: int, amount: int) -> list[str]:
    updates = sorted(
        [(debit, f"UPDATE accounts SET balance = balance - {amount} WHERE id = {debit}"),
         (credit, f"UPDATE accounts SET balance = balance + {amount} WHERE id = {credit}")]
    )
    return [sql for _key, sql in updates] + [
        f"INSERT INTO audit VALUES ({audit_id}, {debit}, {credit}, {amount})"
    ]


class Fixture:
    def __init__(self, system: repro.System, inputs: Inputs):
        self.system = system
        self.inputs = inputs
        self.connection = repro.connect(system)
        self.results = self.connection.cursor()
        self.writes = self.connection.cursor()
        self.cycle = 0
        self.commits = 0
        self.since_checkpoint = 0

    def phoenix_connections(self) -> list:
        return [self.connection]

    def warm_up(self, rec: Recorder) -> None:
        """None: every cycle is measured, the first included."""

    def measure(self, rec: Recorder, part: int, parts: int) -> None:
        """Run part ``part`` of ``parts`` of the round's fixed cycle count."""
        cycles = self.inputs.cycles
        for _ in range(cycles * part // parts, cycles * (part + 1) // parts):
            # every cycle starts from the same collector state: the
            # collections its allocations trigger land at the same calls
            gc.collect()
            self._cycle(rec)

    def _transfer(self, rec: Recorder, debit: int, credit: int, amount: int) -> None:
        statements = transfer_sql(self.commits + 1, debit, credit, amount)
        with rec.segment_op("txn"):
            self.connection.begin()
            for sql in statements:
                self.writes.execute(sql)
            self.connection.commit()
        self._committed()

    def _committed(self) -> None:
        self.commits += 1
        self.since_checkpoint += 1
        if self.since_checkpoint >= CHECKPOINT_EVERY:
            self.system.server.checkpoint()
            self.since_checkpoint = 0

    def _cycle(self, rec: Recorder) -> None:
        groups, transfers = cycle_plan(self.inputs.seed, self.cycle, self.inputs.cycles)
        self.cycle += 1
        expected = reference(self.inputs.detail, groups)
        with rec.segment_op("read"):
            self.results.execute(result_sql(groups))
            head = self.results.fetchmany(len(expected) - UNREAD_ROWS)
        for debit, credit, amount in transfers[:-1]:
            self._transfer(rec, debit, credit, amount)

        first, second, audit = transfer_sql(self.commits + 1, *transfers[-1])
        with rec.segment_op("txn_open"):
            self.connection.begin()
            self.writes.execute(first)
        server = self.system.server
        with rec.segment_op("stall"):
            server.crash()
            server.restart()
            self.writes.execute(second)
        with rec.segment_op("txn_close"):
            self.writes.execute(audit)
            self.connection.commit()
        self._committed()
        with rec.segment_op("fetch"):
            tail = self.results.fetchall()
        rec.check(head + tail == expected,
                  f"crash_recovery: cycle {self.cycle} result (S={groups}) differs after "
                  f"recovery: {len(head)}+{len(tail)} rows vs {len(expected)}")

    def verify(self, rec: Recorder) -> None:
        """Every acknowledged transfer applied exactly once, money conserved."""
        cursor = self.connection.cursor()
        cursor.execute("SELECT COUNT(*), MIN(id), MAX(id) FROM audit")
        count, low, high = cursor.fetchall()[0]
        rec.require((count, low, high) == (self.commits, 1, self.commits),
                    f"crash_recovery: audit rows (count, min, max) = {(count, low, high)} "
                    f"for {self.commits} acknowledged commits")
        cursor.execute("SELECT SUM(balance) FROM accounts")
        total = cursor.fetchall()[0][0]
        rec.require(total == ACCOUNTS * INITIAL_BALANCE,
                    f"crash_recovery: balance total {total} != {ACCOUNTS * INITIAL_BALANCE}")
        cursor.close()

    def close(self) -> None:
        self.system.close()


def setup(inputs: Inputs, dsn: str) -> Fixture:
    system = repro.make_system(dsn=dsn)
    loader = repro.connect(system, phoenix=False)
    cursor = loader.cursor()
    cursor.execute("CREATE TABLE detail (id INT PRIMARY KEY, k INT NOT NULL, v INT NOT NULL)")
    cursor.execute("CREATE TABLE accounts (id INT PRIMARY KEY, balance INT NOT NULL)")
    cursor.execute(
        "CREATE TABLE audit (id INT PRIMARY KEY, debit INT NOT NULL, credit INT NOT NULL, "
        "amount INT NOT NULL)"
    )
    for start in range(0, DETAIL_ROWS, 500):
        values = ", ".join(f"({i}, {k}, {v})" for i, k, v in inputs.detail[start:start + 500])
        cursor.execute(f"INSERT INTO detail VALUES {values}")
    values = ", ".join(f"({i}, {INITIAL_BALANCE})" for i in range(ACCOUNTS))
    cursor.execute(f"INSERT INTO accounts VALUES {values}")
    loader.close()
    system.server.checkpoint()
    return Fixture(system, inputs)


def summarize(rec: Recorder) -> tuple[dict, dict]:
    """Percentiles over every cycle, at the reference speed."""
    stalls, txns = rec.scaled("stall"), rec.scaled("txn")
    ops_per_s = rec.rate(("read", "txn", "txn_open", "stall", "txn_close", "fetch"))
    gated = {
        "ops_per_s": ops_per_s,
        "latency_p50_ms": median(stalls) * 1e3,
        "latency_p90_ms": percentile(stalls, 90) * 1e3,
        "write_p50_ms": median(txns) * 1e3,
    }
    named = {
        "recovery_p50_ms": (gated["latency_p50_ms"], "ms", len(stalls)),
        "recovery_p90_ms": (gated["latency_p90_ms"], "ms", len(stalls)),
        "cycle_ops_per_s": (ops_per_s, "ops/s", sum(map(len, rec.kinds().values()))),
        "txn_p50_ms": (gated["write_p50_ms"], "ms", len(txns)),
        "unscaled_recovery_p50_ms": (median(rec.get("stall")) * 1e3, "ms", len(stalls)),
    }
    return gated, named
