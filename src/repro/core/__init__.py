"""TDRAM device internals — the paper's primary contribution.

Tag mats, HM-bus packets, the fused command set, the flush buffer,
early-tag-probing policy, and the area/pin overhead models.

The package re-exports nothing: import each name from its submodule
(``repro.core.flush_buffer``, ``repro.core.probe``, ...). A simulation
loads only the flush buffer and the probe engine; the analytic models
(``area``, ``ways``, ``tag_mats``, ``commands``, ``ecc``, ``hm_bus``)
load when a figure or a test asks for them.
"""
