"""Simulator-aware static analysis for the TDRAM reproduction.

The simulator's headline guarantees — bit-identical parallel campaigns,
per-seed reproducible fault injection, honest campaign cache keys —
rest on coding invariants that ordinary linters do not know about: no
wall-clock reads or unseeded randomness inside simulated components, no
float equality on timestamps, no mixed time units, every counter read
somewhere declared, every config knob consumed, no ordering-sensitive
iteration over sets. This package parses each file once and runs nine
rules over the trees (:mod:`repro.analysis.rules`,
:mod:`repro.analysis.units`); inline ``# tdram: noqa[RULE] -- reason``
comments suppress a finding on one line.

Run it as ``python -m repro.analysis src/repro`` or
``tdram-repro lint``; the catalogue lives in ``docs/static-analysis.md``.
"""

from repro.analysis.engine import (
    Analyzer,
    Finding,
    Report,
    Rule,
    SourceFile,
    all_rules,
)

__all__ = [
    "Analyzer",
    "Finding",
    "Report",
    "Rule",
    "SourceFile",
    "all_rules",
]
