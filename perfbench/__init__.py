"""The repository benchmark: four workloads, one command, outside-in tracing.

Run ``python3 perfbench/run.py --workload <name> --seed N --seconds S
--trace 0|1`` from the repository root; ``NOTES.md`` explains the
workloads, metrics and the open defects the baseline shows.
"""
