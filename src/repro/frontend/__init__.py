"""Closed-loop processor front end."""

from repro.frontend.core_model import Core, Progress, build_cores

__all__ = ["Core", "Progress", "build_cores"]
