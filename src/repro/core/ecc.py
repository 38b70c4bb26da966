"""On-die ECC budget for TDRAM's tag/metadata words (§III-C3).

The paper: "TDRAM has separate ECCs for tag and data. ECCs for tags are
analyzed and corrected if needed by on-DRAM-die circuitry … For a 1 PB
address space, a direct-mapped TDRAM has 14-bit tag + Valid + Dirty =
16 bits which leaves 8 bits ECC to cover the 16 bits."

A SECDED (single-error-correct, double-error-detect) Hamming code over
``k`` data bits needs ``r`` Hamming check bits, the smallest ``r`` with
``2**r >= k + r + 1``, plus one overall-parity bit. A 16-bit word needs
5 + 1 = 6, so the paper's 8-bit budget leaves two spare bits (or room
for the stronger symbol-based Reed-Solomon code the paper suggests).
"""

from __future__ import annotations

from repro.errors import ConfigError

#: The paper's tag word: 14-bit tag + valid + dirty.
TAG_WORD_BITS = 16


def secded_check_bits(data_bits: int) -> int:
    """Check bits of a SECDED Hamming code over ``data_bits`` of data.

    >>> secded_check_bits(16)
    6
    """
    if data_bits <= 0:
        raise ConfigError("data_bits must be positive")
    hamming = 0
    while (1 << hamming) < data_bits + hamming + 1:
        hamming += 1
    return hamming + 1


def tag_ecc_fits_budget(budget_bits: int = 8) -> bool:
    """Whether SECDED over the 16-bit tag word fits the stated budget."""
    return secded_check_bits(TAG_WORD_BITS) <= budget_bits
