"""Tests for SystemConfig validation and geometry scaling."""

import pytest

from repro.config.system import GIB, MIB, PAPER_CACHE_BYTES, SystemConfig
from repro.errors import ConfigError


class TestValidation:
    def test_default_config_is_valid(self):
        config = SystemConfig()
        assert config.cache_capacity_bytes == 64 * MIB
        assert config.cores == 8

    @pytest.mark.parametrize("kwargs", [
        {"cache_capacity_bytes": 0},
        {"mm_capacity_bytes": -1},
        {"warmup_fraction": 1.0},
        {"warmup_fraction": -0.1},
        {"cores": 0},
        {"cache_ways": 0},
    ])
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            SystemConfig(**kwargs)

    # An empty buffer used to surface only as a late "no forward
    # progress" stall; the error must name the field instead.
    def test_empty_read_buffer_rejected(self):
        with pytest.raises(ConfigError, match="read_buffer_entries"):
            SystemConfig(read_buffer_entries=0)

    def test_empty_write_buffer_rejected(self):
        with pytest.raises(ConfigError, match="write_buffer_entries"):
            SystemConfig(write_buffer_entries=-4)

    def test_zero_outstanding_reads_rejected(self):
        with pytest.raises(ConfigError,
                           match="max_outstanding_reads_per_core"):
            SystemConfig(max_outstanding_reads_per_core=0)


class TestScaling:
    def test_scale_factor(self):
        assert SystemConfig(cache_capacity_bytes=GIB).scale == 1 / 8
        assert SystemConfig.paper().scale == 1.0

    def test_scaled_footprint_preserves_ratio(self):
        config = SystemConfig()  # 64 MiB = 1/128 of 8 GiB
        blocks = config.scaled_footprint_blocks(16 * GIB)
        assert blocks * 64 == 16 * GIB // 128

    def test_scaled_footprint_has_floor(self):
        config = SystemConfig.small()
        assert config.scaled_footprint_blocks(1024) >= 64

    def test_cache_blocks(self):
        assert SystemConfig().cache_blocks == 64 * MIB // 64


class TestGeometries:
    def test_cache_geometry_capacity(self):
        config = SystemConfig()
        geo = config.cache_geometry()
        assert geo.capacity_bytes == config.cache_capacity_bytes
        assert geo.channels == 8
        assert geo.banks_per_channel == 16

    def test_mm_geometry_uses_ddr5_banks(self):
        geo = SystemConfig().mm_geometry()
        assert geo.banks_per_channel == 32
        assert geo.channels == 2

    def test_paper_config_matches_table3(self):
        config = SystemConfig.paper()
        assert config.cache_capacity_bytes == 8 * GIB == PAPER_CACHE_BYTES
        assert config.mm_capacity_bytes == 128 * GIB
        assert config.cache_channels == 8
        assert config.mm_channels == 2
        assert config.read_buffer_entries == 64
        assert config.write_buffer_entries == 64
        assert config.flush_buffer_entries == 16


class TestFunctionalUpdate:
    def test_with_returns_modified_copy(self):
        base = SystemConfig()
        modified = base.with_(cache_ways=4, enable_probing=False)
        assert modified.cache_ways == 4
        assert not modified.enable_probing
        assert base.cache_ways == 1  # original untouched

    def test_with_validates(self):
        with pytest.raises(ConfigError):
            SystemConfig().with_(cores=-1)
