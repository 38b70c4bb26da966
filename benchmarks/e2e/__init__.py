"""End-to-end + per-layer benchmark of the TDRAM simulator.

``python -m benchmarks.e2e --seed 7`` runs every workload; see README.md.
"""
