"""Whole-stack benchmark for the chase: four workloads, timed end to end
and, in a separate traced run, layer by layer.

The benchmark drives only the package's public API (variant runners,
``decide_termination``, ``analyze_termination``, ``BatchExecutor``,
``mixed_workload_jobs``, ``ChaseServiceClient`` and ``python -m repro
serve``).  See ``perfbench/README.md`` for the workloads and metrics.
"""
