"""``oltp``: two Phoenix clients over ``tcp://`` loopback, closed loop.

10,000 ``accounts`` rows (100 branches, secondary index on ``branch``),
uniform keys.  Each client draws its own seeded stream: about 60% point
reads by primary key, 10% branch range reads (``ORDER BY id``, first 20
rows) and 30% transfers (two primary-key ``UPDATE``s in ascending id order,
an audit ``INSERT``, ``COMMIT``).  The program only ever sees the generated
SQL text.  Literals vary per statement, as an application that formats its
SQL would send them.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field

import repro

from perfbench.measure import Recorder, median, percentile

ACCOUNTS = 10_000
BRANCHES = 100
INITIAL_BALANCE = 1_000
CLIENTS = 2
WARMUP_OPS = 40
SCAN_ROWS = 20
#: target length of one measurement segment (a time slice)
SLICE_SECONDS = 0.25
#: operations per client per second of requested run length: the run is a
#: fixed count of operations, so the history and memory it leaves behind do
#: not depend on how fast the host ran; twice the requested time is a cap
OPS_PER_CLIENT_SECOND = 70
LOOPBACK = True


def client_ops(seed: int, client: int):
    """The endless, seeded operation stream of one client.

    Yields ``(kind, statements, expected)``: the SQL the client sends and
    what its output check expects (the key for a read, the 20 ids for a
    range read, ``None`` for a transfer).
    """
    rng = random.Random(f"oltp:{seed}:{client}")
    serial = 0
    while True:
        draw = rng.random()
        if draw < 0.6:
            key = rng.randrange(ACCOUNTS)
            yield "read", [f"SELECT id, branch, balance FROM accounts WHERE id = {key}"], key
        elif draw < 0.7:
            branch = rng.randrange(BRANCHES)
            sql = f"SELECT id, balance FROM accounts WHERE branch = {branch} ORDER BY id"
            yield "scan", [sql], [branch + BRANCHES * i for i in range(SCAN_ROWS)]
        else:
            debit, credit = rng.sample(range(ACCOUNTS), 2)
            amount = rng.randint(1, 100)
            serial += 1
            audit_id = client * 10_000_000 + serial
            updates = sorted(
                [(debit, f"UPDATE accounts SET balance = balance - {amount} WHERE id = {debit}"),
                 (credit, f"UPDATE accounts SET balance = balance + {amount} WHERE id = {credit}")]
            )
            yield "txn", [sql for _key, sql in updates] + [
                f"INSERT INTO audit VALUES ({audit_id}, {client}, {debit}, {credit}, {amount})"
            ], None


@dataclass
class Inputs:
    seed: int
    round_seconds: float
    #: operations per client per round
    ops_per_client: int


def generate(seed: int, round_seconds: float) -> Inputs:
    return Inputs(seed, round_seconds, round(round_seconds * OPS_PER_CLIENT_SECOND))


@dataclass
class _Client:
    connection: object
    cursor: object
    ops: object
    commits: int = 0
    #: operations this client still has to run in the current stretch
    quota: int = 0


@dataclass
class Fixture:
    system: repro.System
    inputs: Inputs
    clients: list[_Client] = field(default_factory=list)

    def phoenix_connections(self) -> list:
        return [client.connection for client in self.clients]

    def warm_up(self, rec: Recorder) -> None:
        for client in self.clients:
            client.quota = WARMUP_OPS
        self._run(rec)

    def measure(self, rec: Recorder, part: int, parts: int) -> None:
        """Each client's share of the round's operation count, in time
        slices that are segments of their own."""
        total = self.inputs.ops_per_client
        for client in self.clients:
            client.quota = total * (part + 1) // parts - total * part // parts
        cap = time.perf_counter() + 2 * self.inputs.round_seconds / parts
        while any(client.quota for client in self.clients) and time.perf_counter() < cap:
            with rec.new_segment():
                self._run(rec, deadline=min(time.perf_counter() + SLICE_SECONDS, cap))

    def _run(self, rec: Recorder, *, deadline: float | None = None) -> None:
        errors: list[BaseException] = []

        def loop(client: _Client) -> None:
            try:
                while client.quota and (deadline is None or time.perf_counter() < deadline):
                    _one_op(rec, client)
                    client.quota -= 1
            except BaseException as exc:  # surfaced on the main thread below
                errors.append(exc)

        threads = [threading.Thread(target=loop, args=(c,)) for c in self.clients]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]

    def verify(self, rec: Recorder) -> None:
        """Money is conserved and every acknowledged commit left one audit row."""
        cursor = self.clients[0].cursor
        cursor.execute("SELECT SUM(balance) FROM accounts")
        total = cursor.fetchall()[0][0]
        rec.require(total == ACCOUNTS * INITIAL_BALANCE,
                    f"oltp: balance total {total} != {ACCOUNTS * INITIAL_BALANCE}")
        cursor.execute("SELECT COUNT(*) FROM audit")
        audits = cursor.fetchall()[0][0]
        commits = sum(client.commits for client in self.clients)
        rec.require(audits == commits, f"oltp: {audits} audit rows for {commits} commits")

    def close(self) -> None:
        self.system.close()


def _one_op(rec: Recorder, client: _Client) -> None:
    kind, statements, expected = next(client.ops)
    cursor = client.cursor
    with rec.op(kind):
        if kind == "read":
            cursor.execute(statements[0])
            rows = cursor.fetchall()
        elif kind == "scan":
            cursor.execute(statements[0])
            rows = cursor.fetchmany(SCAN_ROWS)
        else:
            client.connection.begin()
            for sql in statements:
                cursor.execute(sql)
            client.connection.commit()
    if kind == "read":
        rec.check(len(rows) == 1 and rows[0][0] == expected and rows[0][1] == expected % BRANCHES,
                  f"oltp: read of {expected} returned {rows}")
    elif kind == "scan":
        rec.check([row[0] for row in rows] == expected,
                  f"oltp: range read expected ids {expected[:3]}..., got {rows[:3]}...")
    else:
        client.commits += 1


def setup(inputs: Inputs, dsn: str) -> Fixture:
    """Schema, 10k accounts, checkpoint; then the two client sessions."""
    system = repro.make_system(dsn=dsn, listen="127.0.0.1:0")
    loader = repro.connect(system, phoenix=False)
    cursor = loader.cursor()
    cursor.execute(
        "CREATE TABLE accounts (id INT PRIMARY KEY, branch INT NOT NULL, balance INT NOT NULL)"
    )
    cursor.execute("CREATE INDEX accounts_branch ON accounts (branch)")
    cursor.execute(
        "CREATE TABLE audit (id INT PRIMARY KEY, client INT NOT NULL, debit INT NOT NULL, "
        "credit INT NOT NULL, amount INT NOT NULL)"
    )
    for start in range(0, ACCOUNTS, 500):
        values = ", ".join(
            f"({i}, {i % BRANCHES}, {INITIAL_BALANCE})" for i in range(start, start + 500)
        )
        cursor.execute(f"INSERT INTO accounts VALUES {values}")
    loader.close()
    system.server.checkpoint()
    fixture = Fixture(system, inputs)
    for client in range(CLIENTS):
        connection = repro.connect(system)
        fixture.clients.append(
            _Client(connection, connection.cursor(), client_ops(inputs.seed, client))
        )
    return fixture


def summarize(rec: Recorder) -> tuple[dict, dict]:
    """(gated metrics, metrics by their descriptive names) of the timed
    phase, at the reference speed (see :class:`~perfbench.measure.Recorder`)."""
    reads, scans, txns = rec.scaled("read"), rec.scaled("scan"), rec.scaled("txn")
    ops_per_s = rec.rate(("read", "scan", "txn"))
    gated = {
        "ops_per_s": ops_per_s,
        "latency_p50_ms": median(reads) * 1e3,
        "latency_p90_ms": percentile(reads, 90) * 1e3,
        "write_p50_ms": median(txns) * 1e3,
    }
    named = {
        "ops_per_s": (ops_per_s, "ops/s", len(reads) + len(scans) + len(txns)),
        "read_p50_ms": (gated["latency_p50_ms"], "ms", len(reads)),
        "read_p99_ms": (percentile(reads, 99) * 1e3, "ms", len(reads)),
        "scan_p50_ms": (median(scans) * 1e3, "ms", len(scans)),
        "txn_p50_ms": (gated["write_p50_ms"], "ms", len(txns)),
        "txn_p99_ms": (percentile(txns, 99) * 1e3, "ms", len(txns)),
        "unscaled_read_p50_ms": (median(rec.get("read")) * 1e3, "ms", len(reads)),
    }
    return gated, named
