"""Shared fixtures: tiny system configurations, a drive harness, and
campaign-pool instrumentation."""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from repro.cache.request import DemandRequest, Op
from repro.config.system import MIB, SystemConfig
from repro.energy.power_model import EnergyMeter
from repro.memory.main_memory import MainMemory
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
        self.main_memory = MainMemory(self.sim, config.mm_timing,
                                      config.mm_geometry(),
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


@pytest.fixture
def pools(monkeypatch):
    """Every process pool the campaign engine constructs, in order."""
    import concurrent.futures.process as futures_process

    created = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            created.append(self)

    # ``campaign._run_pool`` imports the pool class from here when it runs.
    monkeypatch.setattr(futures_process, "ProcessPoolExecutor", RecordingPool)
    return created


@pytest.fixture
def two_cpus(monkeypatch):
    """A host the campaign engine sees as two-core, so ``jobs=2`` runs
    the real process pool on any machine."""
    import repro.experiments.campaign as campaign_mod

    monkeypatch.setattr(campaign_mod.os, "cpu_count", lambda: 2)


#: Marker directory of :func:`first_attempt`; an environment variable, so
#: forked pool workers see it.
MARKERS = "REPRO_TEST_MARKERS"


@pytest.fixture
def markers(tmp_path, monkeypatch):
    """A fresh marker directory for :func:`first_attempt`."""
    monkeypatch.setenv(MARKERS, str(tmp_path))
    return tmp_path


def first_attempt(task) -> bool:
    """True the first time any process asks about ``task`` under the
    ``markers`` fixture, which leaves one marker file per task key."""
    marker = Path(os.environ[MARKERS]) / task.key
    if marker.exists():
        return False
    marker.touch()
    return True
