"""The repository benchmark: three closed-loop workloads over the public API.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload; see ``perfbench/DESIGN.md`` for what each workload
measures, why it was chosen, and which end-to-end metric each per-layer
metric should move.
"""
