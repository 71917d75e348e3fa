"""Benchmark for the vframe package: seeded workloads, a runner and a tracer.

Run one workload with ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root; see NOTES.md.
"""
