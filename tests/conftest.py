"""Shared fixtures: tiny system configurations and a drive harness."""

from __future__ import annotations

import pytest

from repro.cache.request import DemandRequest, Op
from repro.config.system import MIB, SystemConfig
from repro.energy.power_model import EnergyMeter
from repro.memory.backend import build_backend
from repro.sim.kernel import Simulator, ns


@pytest.fixture
def tiny_config() -> SystemConfig:
    """Smallest legal geometry: fast unit-level controller tests."""
    return SystemConfig(
        cache_capacity_bytes=1 * MIB,
        mm_capacity_bytes=16 * MIB,
        cores=2,
    )


@pytest.fixture
def small_config() -> SystemConfig:
    """Fast integration-test configuration."""
    return SystemConfig.small()


class System:
    """A directly driveable memory system around one cache design."""

    def __init__(self, design_cls, config: SystemConfig) -> None:
        self.sim = Simulator()
        self.config = config
        self.mm_meter = EnergyMeter(config.energy_model, config.mm_channels,
                                    False)
        self.main_memory = build_backend(self.sim, config,
                                         meter=self.mm_meter)
        self.cache = design_cls(self.sim, config, self.main_memory)
        self.completed = []

    def read(self, block: int, pc: int = 0) -> DemandRequest:
        request = DemandRequest(op=Op.READ, block_addr=block, pc=pc)
        request.on_complete = lambda time: self.completed.append((request, time))
        assert self.cache.can_accept(Op.READ, block)
        self.cache.submit(request)
        return request

    def write(self, block: int, pc: int = 0) -> DemandRequest:
        request = DemandRequest(op=Op.WRITE, block_addr=block, pc=pc)
        assert self.cache.can_accept(Op.WRITE, block)
        self.cache.submit(request)
        return request

    def run(self, duration_ns: float = 5000.0) -> None:
        self.sim.run(until=self.sim.now + ns(duration_ns))


@pytest.fixture
def make_system(tiny_config):
    """Factory fixture: ``make_system(TdramCache)`` -> :class:`System`."""

    def factory(design_cls, config: SystemConfig = None, **overrides) -> System:
        cfg = config or tiny_config
        if overrides:
            cfg = cfg.with_(**overrides)
        return System(design_cls, cfg)

    return factory
