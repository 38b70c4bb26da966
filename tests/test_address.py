"""Unit and property tests for address mapping and geometry."""

import pytest
from hypothesis import given, strategies as st

from repro.dram.address import (
    BLOCK_BYTES,
    AddressMapper,
    DecodedAddress,
    DramGeometry,
)
from repro.errors import ConfigError

GEO = DramGeometry(channels=8, banks_per_channel=16, rows_per_bank=64,
                   columns_per_row=32)


class TestGeometry:
    def test_capacity_arithmetic(self):
        assert GEO.total_blocks == 8 * 16 * 64 * 32
        assert GEO.capacity_bytes == GEO.total_blocks * BLOCK_BYTES

    def test_for_capacity_roundtrip(self):
        geo = DramGeometry.for_capacity(64 * 1024 * 1024, channels=8)
        assert geo.capacity_bytes == 64 * 1024 * 1024
        assert geo.channels == 8

    def test_for_capacity_rejects_indivisible(self):
        with pytest.raises(ConfigError):
            DramGeometry.for_capacity(1000, channels=8)

    @pytest.mark.parametrize("field,value", [
        ("channels", 0), ("channels", 3), ("banks_per_channel", 12),
        ("rows_per_bank", -1), ("columns_per_row", 7),
    ])
    def test_non_power_of_two_rejected(self, field, value):
        kwargs = dict(channels=8, banks_per_channel=16, rows_per_bank=64,
                      columns_per_row=32)
        kwargs[field] = value
        with pytest.raises(ConfigError):
            DramGeometry(**kwargs)


class TestRoCoRaBaCh:
    def test_consecutive_blocks_spread_across_channels(self):
        mapper = AddressMapper(GEO)
        channels = [mapper.decode(block).channel for block in range(8)]
        assert channels == list(range(8))

    def test_channel_stride_reaches_next_bank(self):
        mapper = AddressMapper(GEO)
        assert mapper.decode(0).bank == 0
        assert mapper.decode(8).bank == 1

    def test_wraps_beyond_capacity(self):
        mapper = AddressMapper(GEO)
        a = mapper.decode(5)
        b = mapper.decode(5 + GEO.total_blocks)
        assert (a.channel, a.bank, a.row, a.column) == \
               (b.channel, b.bank, b.row, b.column)

    def test_negative_address_rejected(self):
        with pytest.raises(ConfigError):
            AddressMapper(GEO).decode(-1)


class TestRoRaBaChCo:
    def test_consecutive_blocks_share_a_row(self):
        mapper = AddressMapper(GEO, scheme="RoRaBaChCo")
        first = mapper.decode(0)
        for offset in range(1, GEO.columns_per_row):
            decoded = mapper.decode(offset)
            assert decoded.row == first.row
            assert decoded.bank == first.bank
            assert decoded.channel == first.channel
            assert decoded.column == offset

    def test_row_sized_stride_changes_channel(self):
        mapper = AddressMapper(GEO, scheme="RoRaBaChCo")
        assert mapper.decode(GEO.columns_per_row).channel == 1

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigError):
            AddressMapper(GEO, scheme="ChBaCoRo")


@pytest.mark.parametrize("scheme", AddressMapper.SCHEMES)
@given(block=st.integers(min_value=0, max_value=GEO.total_blocks - 1))
def test_property_decode_encode_roundtrip(scheme, block):
    """decode/encode are mutual inverses within the device capacity."""
    mapper = AddressMapper(GEO, scheme=scheme)
    assert mapper.encode(mapper.decode(block)) == block


@given(block=st.integers(min_value=0, max_value=2**48))
def test_property_decode_fields_in_range(block):
    mapper = AddressMapper(GEO)
    decoded = mapper.decode(block)
    assert 0 <= decoded.channel < GEO.channels
    assert 0 <= decoded.bank < GEO.banks_per_channel
    assert 0 <= decoded.row < GEO.rows_per_bank
    assert 0 <= decoded.column < GEO.columns_per_row


@given(block=st.integers(min_value=0, max_value=2**40))
def test_property_frame_index_is_modular(block):
    mapper = AddressMapper(GEO)
    assert mapper.frame_index(block) == block % GEO.total_blocks


_GEOMETRIES = st.builds(
    DramGeometry,
    channels=st.sampled_from([1, 2, 8]),
    banks_per_channel=st.sampled_from([1, 4, 16]),
    rows_per_bank=st.sampled_from([1, 64, 1024]),
    columns_per_row=st.sampled_from([1, 8, 32]),
)


@pytest.mark.parametrize("scheme", AddressMapper.SCHEMES)
@given(geometry=_GEOMETRIES, block=st.integers(min_value=0, max_value=2**48))
def test_property_route_is_the_decoded_channel_and_bank(scheme, geometry,
                                                        block):
    """``route`` is ``decode(...)[:2]``, and ``decode`` still builds a
    ``DecodedAddress`` with its four named fields."""
    mapper = AddressMapper(geometry, scheme=scheme)
    decoded = mapper.decode(block)
    assert type(decoded) is DecodedAddress
    assert decoded == DecodedAddress(decoded.channel, decoded.bank,
                                     decoded.row, decoded.column)
    assert mapper.route(block) == decoded[:2]


@pytest.mark.parametrize("scheme", AddressMapper.SCHEMES)
@given(block=st.integers(max_value=-1))
def test_property_route_rejects_negative_address(scheme, block):
    mapper = AddressMapper(GEO, scheme=scheme)
    with pytest.raises(ConfigError):
        mapper.route(block)
