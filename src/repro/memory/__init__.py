"""Backing-store (main memory) models: the pluggable backend tier.

``MainMemory`` is the default DDR5 model; ``build_backend`` constructs
whichever backend ``SystemConfig.memory_backend`` selects ("ddr5",
"pcm_like", "cxl_like"). See ``docs/backends.md``.
"""

from repro.memory.backend import (
    BACKEND_COUNTERS,
    MEMORY_BACKENDS,
    MemoryBackend,
    build_backend,
)
from repro.memory.main_memory import MainMemory

__all__ = [
    "BACKEND_COUNTERS",
    "MEMORY_BACKENDS",
    "MainMemory",
    "MemoryBackend",
    "build_backend",
]
