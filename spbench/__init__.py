"""The repository benchmark: seeded closed-loop workloads over the SpNeRF stack.

Run one workload per invocation from the repository root::

    python3 spbench/run.py --workload render-frames --seed 1 --seconds 20 --trace 0

``BENCHMARK.json`` at the root lists the workloads and metrics;
:mod:`spbench.metrics` declares every metric with the end-to-end metric and
workload it should move.
"""
