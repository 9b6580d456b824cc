"""Benchmark of the `ltt` episode engine: workloads, tracing and statistics.

Run it with `python3 perfbench/run.py`; see perfbench/README.md.
"""
