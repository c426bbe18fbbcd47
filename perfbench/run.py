"""Run one workload of the repository benchmark and print its metrics.

Usage::

    python3 perfbench/run.py --workload oltp --seed 1 --seconds 36 --trace 0

Run from the repository root.  ``--workload`` is ``oltp``,
``tpch_power``, ``crash_recovery``, or ``all`` (every workload in turn;
prints every descriptive metric).  Each run sets the system up
``ROUNDS`` times from scratch (the set-up time is their median) and
measures, over the rounds, a fixed amount of work that ``--seconds`` sets
(it takes about that long on the 2-CPU build host).  ``--trace 0`` measures
with nothing installed and reports the end-to-end metrics; ``--trace 1``
measures half of each round with span wrappers installed, ends with the
probe in ``perfbench/probe.py``, and reports the per-layer metrics and the
tracing overhead.  Lines before the last describe the run; the last line
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ROUNDS = 3
WORKLOADS = ("oltp", "tpch_power", "crash_recovery")
#: the system counters whose change over the traced phases feeds the
#: per-layer metrics, by their place in ``system.registry.snapshot()``
COUNTERS = {
    "network": ("bytes_sent", "bytes_received"),
    "engine": ("parse_hits", "parse_misses", "plan_hits", "plan_misses", "plan_invalidations"),
    "executor": ("rows_scanned", "rows_returned"),
    "locks": ("waits", "deadlocks", "total_wait_time"),
}


def _counters(system) -> dict[str, float]:
    snapshot = system.registry.snapshot()
    return {name: snapshot[group][name] for group, names in COUNTERS.items() for name in names}


def _module(workload: str):
    import importlib

    return importlib.import_module(f"perfbench.{workload}")


def _tracing_overhead(rec) -> float:
    """Traced over untraced time for the same mix of operation kinds, - 1,
    both at the reference speed."""
    traced_total = untraced_total = 0.0
    for kind in rec.kinds("traced"):
        base = rec.scaled(kind, "timed")
        if not base or kind == "probe":
            continue
        samples = rec.scaled(kind, "traced")
        traced_total += sum(samples)
        untraced_total += len(samples) * sum(base) / len(base)
    return traced_total / untraced_total - 1 if untraced_total else 0.0


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    """Returns (recorder, gated metrics, named metrics)."""
    from perfbench import probe
    from perfbench.measure import (
        REFERENCE_SECONDS, Recorder, median, peak_rss_mb, reference_seconds,
    )
    from perfbench.spans import Tracer, layer_breakdown, layer_metrics

    module = _module(name)
    rec = Recorder()
    tracer = Tracer() if trace else None
    inputs = module.generate(seed, seconds / ROUNDS)
    setups = []
    counters = {key: 0.0 for names in COUNTERS.values() for key in names}

    def traced(system, body) -> None:
        before = _counters(system)
        rec.phase, rec.tracer = "traced", tracer
        tracer.install()
        try:
            body()
        finally:
            tracer.uninstall()
            rec.tracer = None
        after = _counters(system)
        for key in counters:
            counters[key] += after[key] - before[key]

    for round_index in range(ROUNDS):
        # the last round's system is garbage now: collect it here rather
        # than inside this round's timed set-up
        gc.collect()
        before = reference_seconds()
        started = time.perf_counter()
        fixture = module.setup(inputs, dsn="perfbench")
        elapsed = time.perf_counter() - started
        setups.append(elapsed * 2 * REFERENCE_SECONDS / (before + reference_seconds()))
        try:
            if round_index == 0:
                rec.phase = "warmup"
                fixture.warm_up(rec)
            phases = ["timed"]
            if trace:
                phases = ["timed", "traced"] if round_index % 2 == 0 else ["traced", "timed"]
            for part, phase in enumerate(phases):
                if phase == "traced":
                    traced(fixture.system, lambda: fixture.measure(rec, part, len(phases)))
                else:
                    rec.phase = "timed"
                    fixture.measure(rec, part, len(phases))
            rec.phase = "checks"
            fixture.verify(rec)
            if trace and round_index == ROUNDS - 1:
                traced(fixture.system,
                       lambda: probe.run(fixture.system, rec, fixture.phoenix_connections()))
        finally:
            fixture.close()

    named = {"setup_s": (median(setups), "s", len(setups))}
    if not trace:
        gated, extra = module.summarize(rec)
        gated = {"setup_s": median(setups), **gated, "peak_rss_mb": peak_rss_mb()}
        named.update(extra)
    else:
        breakdown = layer_breakdown(tracer.spans, tracer.ops)
        gated = layer_metrics(breakdown, counters)
        gated["tracing.overhead_frac"] = _tracing_overhead(rec)
        out = ROOT / ".perfbench" / f"spans-{name}.jsonl.gz"
        tracer.dump(out)
        print(f"# spans: {len(tracer.spans)} spans over {len(tracer.ops)} ops written to "
              f"{out.relative_to(ROOT)}")
    named["failed_frac"] = (rec.failed / max(rec.attempted, 1), "ratio", rec.attempted)
    named["peak_rss_mb"] = (peak_rss_mb(), "MB", 1)
    return rec, gated, named


def _units() -> dict[str, str]:
    spec = json.loads((ROOT / "perfbench" / "metrics.json").read_text())
    return {m["name"]: m["unit"] for group in ("end_to_end", "per_layer") for m in spec[group]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.measure import run_metadata

    units = _units()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    correct = True
    for name in names:
        module = _module(name)
        meta = run_metadata(ROOT, workload=name, seed=args.seed, seconds=args.seconds,
                            trace=bool(args.trace), loopback=module.LOOPBACK)
        print("# run " + json.dumps(meta, sort_keys=True))
        try:
            rec, gated, named = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except Exception:
            traceback.print_exc()
            print(f"# {name}: the run stopped on an exception", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": max(attempted, 1),
                              "failed": failed + 1, "metrics": {}}))
            return 1
        attempted += rec.attempted
        failed += rec.failed
        for message in rec.failures[:20]:
            print(f"# CHECK FAILED: {message}")
        correct = correct and rec.failed == 0
        for metric, (value, unit, samples) in named.items():
            print(f"# {name:<15} {metric:<22} {value:>14.4f} {unit:<6} n={samples}")
        if args.trace:
            for metric, value in gated.items():
                print(f"# {name:<15} {metric:<42} {value:>14.4f} {units[metric]}")
        if args.workload == "all":
            metrics.update({f"{name}.{metric}": {"value": value, "unit": unit}
                            for metric, (value, unit, _samples) in named.items()})
            if args.trace:
                metrics.update({f"{name}.{metric}": {"value": value, "unit": units[metric]}
                                for metric, value in gated.items()})
        else:
            metrics.update({metric: {"value": value, "unit": units[metric]}
                            for metric, value in gated.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
