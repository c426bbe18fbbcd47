"""The repository benchmark: three closed-loop workloads driven through the
public API, timed end to end, and split by layer in a separate traced run.

Run it with ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>``; see ``perfbench/README.md``.
"""
