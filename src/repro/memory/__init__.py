"""The backing store behind the DRAM cache: Table III's DDR5 model."""

from repro.memory.main_memory import MainMemory

__all__ = ["MainMemory"]
