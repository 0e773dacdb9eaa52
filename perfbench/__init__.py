"""Host-time benchmark of the engine: four seeded workloads, end-to-end
metrics from untraced runs and per-layer metrics from a traced run.

Run ``python3 perfbench/run.py --help`` from the repository root.
"""
