"""A fixed epilogue of the traced run that touches every layer once.

Not every workload exercises every layer: only ``crash_recovery`` restarts
the server, and only ``oltp`` has two clients that can wait on each other's
locks.  So each traced run ends with the same short sequence on the
workload's own system and data: one checkpoint, one lock wait between two
new Phoenix sessions, then one crash and restart that every one of the
workload's Phoenix sessions recovers from on its next call.  Its spans and
counters join the traced run's, so every per-layer metric is measured on
every workload.  It runs after the workload's output checks.
"""

from __future__ import annotations

import threading
import time

import repro

from perfbench.measure import Recorder

#: how long the lock holder keeps its row before committing
HOLD_SECONDS = 0.02
TABLE = "perfbench_probe"


def run(system: repro.System, rec: Recorder, sessions: list) -> None:
    with rec.op("probe"):
        system.server.checkpoint()

    holder, waiter = repro.connect(system), repro.connect(system)
    hold, wait = holder.cursor(), waiter.cursor()
    with rec.op("probe"):
        hold.execute(f"CREATE TABLE {TABLE} (id INT PRIMARY KEY, v INT NOT NULL)")
        hold.execute(f"INSERT INTO {TABLE} VALUES (1, 0)")
    update = f"UPDATE {TABLE} SET v = v + 1 WHERE id = 1"
    errors: list[BaseException] = []

    def contend() -> None:
        try:
            with rec.op("probe"):
                waiter.begin()
                wait.execute(update)
                waiter.commit()
        except BaseException as exc:  # surfaced on the main thread below
            errors.append(exc)

    with rec.op("probe"):
        holder.begin()
        hold.execute(update)
    thread = threading.Thread(target=contend)
    thread.start()
    time.sleep(HOLD_SECONDS)
    with rec.op("probe"):
        holder.commit()
    thread.join()
    if errors:
        raise errors[0]
    hold.execute(f"SELECT v FROM {TABLE} WHERE id = 1")
    value = hold.fetchall()
    rec.require(value == [(2,)], f"probe: two committed increments left {value}")
    holder.close()
    waiter.close()

    with rec.op("probe"):
        system.server.crash()
        system.server.restart()
    for session in sessions:
        cursor = session.cursor()
        with rec.op("probe"):
            cursor.execute(f"SELECT v FROM {TABLE} WHERE id = 1")
            value = cursor.fetchall()
        rec.require(value == [(2,)], f"probe: after restart the row reads {value}")
        cursor.close()
