"""The tag ECC budget of §III-C3: SECDED over the 16-bit tag word."""

import pytest

from repro.core.ecc import TAG_WORD_BITS, secded_check_bits, tag_ecc_fits_budget
from repro.errors import ConfigError


class TestGeometry:
    def test_16_bit_word_needs_6_check_bits(self):
        assert secded_check_bits(16) == 6

    def test_paper_budget_covers_tag_word(self):
        """§III-C3: 8 ECC bits cover the 16-bit tag+valid+dirty word."""
        assert TAG_WORD_BITS == 16
        assert tag_ecc_fits_budget(8)
        assert not tag_ecc_fits_budget(5)

    @pytest.mark.parametrize("data_bits,hamming", [(4, 3), (8, 4), (16, 5),
                                                   (32, 6)])
    def test_hamming_bit_counts(self, data_bits, hamming):
        # SECDED = the Hamming check bits plus one overall-parity bit
        assert secded_check_bits(data_bits) == hamming + 1

    def test_invalid_width_rejected(self):
        with pytest.raises(ConfigError):
            secded_check_bits(0)
