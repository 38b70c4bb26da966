"""``repro.sim.rng`` against its oracle, ``numpy.random.default_rng``.

Every draw the simulator makes must be bit-identical to the numpy
method of the same name, so the golden digests do not depend on which
generator produced the streams. Crafted PCG64 states steer single
draws into the branches a random seed rarely reaches: every ziggurat
layer's fast-path boundary, its wedge test and the tail, and the
rejection loops of ``integers``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.tagstore import TagStore
from repro.sim import rng as rng_module
from repro.sim.rng import Pcg64, seed_words

MULT = 0x2360ED051FC65DA44385DF649FCCF645
MULT_INV = pow(MULT, -1, 1 << 128)
MASK53 = (1 << 53) - 1

#: every seed expression of src/repro, at a few campaign seeds and cores
SOURCE_SEEDS = sorted({
    expr
    for seed in (0, 1, 7, 42, 2**31 - 1)
    for core in range(4)
    for expr in (
        (seed * 1_000_003 + core) & 0x7FFFFFFF,     # mixture_stream
        (seed * 7_368_787 + core) & 0x7FFFFFFF,     # ft_stream
        (seed * 9_999_991 + core) & 0x7FFFFFFF,     # is_stream
        (seed * 15_485_863 + core) & 0x7FFFFFFF,    # cg_stream
        (seed * 32_452_843 + core) & 0x7FFFFFFF,    # gapbs_stream
        seed ^ 0x5EED,                              # runner._prewarm
        0xBEA12,                                    # BearCache
    )
})
#: seeds of one, two, four and more than four 32-bit words
WIDE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**40 + 5, 2**127 + 3, 2**128,
              2**200 - 1, 3**150)


def pair_from_state(state: int, inc: int):
    """(ours, numpy's) generators, both at the given PCG64 state."""
    bitgen = np.random.PCG64(0)
    bitgen.state = {"bit_generator": "PCG64",
                    "state": {"state": state, "inc": inc},
                    "has_uint32": 0, "uinteger": 0}
    ours = Pcg64(0)
    ours.state, ours.inc = state, inc
    return ours, np.random.Generator(bitgen)


def crafted(output: int, inc: int = (0x5EED << 1) | 1,
            high: int = 0x0123456789ABCDEF) -> tuple:
    """Generators whose next 64-bit output is ``output``.

    A state whose top 6 bits are zero rotates by 0, so its output is
    ``hi ^ lo``; with ``hi = high`` and ``lo = output ^ high`` that is
    ``output``. The state before it is one inverse LCG step back.
    """
    assert high >> 58 == 0
    after = (high << 64) | (output ^ high)
    before = ((after - inc) * MULT_INV) % (1 << 128)
    return pair_from_state(before, inc)


def ziggurat_output(idx: int, bits: int, low: int = 5) -> int:
    """The 64-bit output that picks layer ``idx`` with mantissa ``bits``."""
    assert 0 <= bits <= MASK53
    return (bits << 11) | (idx << 3) | low


def assert_same_stream(ours, theirs, draws: int = 4) -> None:
    """Both generators are at the same point of the same stream."""
    for _ in range(draws):
        assert ours.random() == theirs.random()
        assert ours.integers(1000) == theirs.integers(1000)


class TestSeeding:
    @pytest.mark.parametrize("seeds", [SOURCE_SEEDS, WIDE_SEEDS],
                             ids=["source", "wide"])
    def test_state_matches_numpy(self, seeds):
        for seed in seeds:
            ours = Pcg64(seed)
            theirs = np.random.PCG64(seed).state["state"]
            assert (ours.state, ours.inc) == \
                (theirs["state"], theirs["inc"]), seed

    @pytest.mark.parametrize("seed", WIDE_SEEDS)
    def test_seed_words_match_seed_sequence(self, seed):
        words = np.random.SeedSequence(seed).generate_state(4, np.uint64)
        assert seed_words(seed) == tuple(int(w) for w in words)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            Pcg64(-1)


#: one draw of a mixed sequence: (method, argument or None)
DRAWS = st.one_of(
    st.tuples(st.just("random"), st.none()),
    st.tuples(st.just("integers"), st.integers(1, 300)),
    st.tuples(st.just("integers"), st.integers(2**31, 2**33)),
    st.tuples(st.just("integers"), st.integers(1, 2**63)),
    st.tuples(st.just("exponential"), st.floats(0.0, 1e7)),
    st.tuples(st.just("exponential"), st.none()),
    st.tuples(st.just("pareto"), st.floats(0.05, 20.0)),
    st.tuples(st.just("geometric"), st.floats(1e-9, 1.0)),
)


class TestDraws:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**70), draws=st.lists(DRAWS, max_size=80))
    def test_mixed_sequences_match_numpy(self, seed, draws):
        ours, theirs = Pcg64(seed), np.random.default_rng(seed)
        for name, arg in draws:
            args = () if arg is None else (arg,)
            mine = getattr(ours, name)(*args)
            expected = getattr(theirs, name)(*args)
            assert mine == expected, (name, arg)
            assert type(mine) is (float if isinstance(expected, float)
                                  else int)
        assert_same_stream(ours, theirs)

    @pytest.mark.parametrize("seed", SOURCE_SEEDS[:8])
    def test_long_streams_match_numpy(self, seed):
        """The draws of the workload generators, many times over."""
        ours, theirs = Pcg64(seed), np.random.default_rng(seed)
        for _ in range(2000):
            assert ours.random() == theirs.random()
            assert ours.integers(4096) == theirs.integers(4096)
            assert ours.exponential(26_000) == theirs.exponential(26_000)
            assert ours.geometric(1 / 24) == theirs.geometric(1 / 24)
            assert ours.pareto(1.4) == theirs.pareto(1.4)

    @pytest.mark.parametrize("call", [
        ("integers", 0), ("integers", -3), ("integers", 2**63 + 1),
        ("exponential", -1.0), ("pareto", 0.0), ("geometric", 0.0),
        ("geometric", 1.5),
    ])
    def test_invalid_arguments_rejected_like_numpy(self, call):
        name, arg = call
        with pytest.raises(ValueError):
            getattr(np.random.default_rng(1), name)(arg)
        with pytest.raises(ValueError):
            getattr(Pcg64(1), name)(arg)


class TestZiggurat:
    def test_tables_have_256_entries(self):
        assert len(rng_module._KE) == len(rng_module._WE) == 256
        assert len(rng_module._FE) == 256

    def test_fast_path_boundary_of_every_layer(self):
        """``bits = ke[idx] - 1`` returns ``bits * we[idx]`` at once;
        ``bits = ke[idx]`` leaves the fast path (wedge or tail)."""
        for idx, ke in enumerate(rng_module._KE):
            for bits in (ke - 1, ke):
                if bits < 0:
                    continue  # ke[1] == 0: layer 1 has no fast path
                ours, theirs = crafted(ziggurat_output(idx, bits))
                value = ours.exponential()
                assert value == theirs.standard_exponential(), (idx, bits)
                if bits < ke:
                    assert value == bits * rng_module._WE[idx]
                assert_same_stream(ours, theirs)

    def test_wedge_of_every_layer(self):
        """Past the box, a layer's wedge accepts ``x`` against
        ``exp(-x)`` after one more draw, or rejects it and draws again;
        both happen, and both match numpy."""
        outcomes = set()
        for idx in range(1, 256):
            ke = rng_module._KE[idx]
            for bits in (ke, (ke + MASK53) // 2, MASK53):
                for high in (0x0123456789ABCDEF, 0x02468ACE13579BDF):
                    ours, theirs = crafted(ziggurat_output(idx, bits),
                                           high=high)
                    two_steps = (ours.state * MULT * MULT + ours.inc
                                 * (MULT + 1)) % (1 << 128)
                    value = ours.exponential(3.5)
                    assert value == theirs.exponential(3.5), (idx, bits)
                    outcomes.add(ours.state == two_steps)
                    assert_same_stream(ours, theirs)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("bits", [rng_module._KE[0],
                                      (rng_module._KE[0] + MASK53) // 2,
                                      MASK53])
    def test_tail(self, bits):
        """Layer 0 past its box samples the tail beyond ``r``."""
        ours, theirs = crafted(ziggurat_output(0, bits))
        value = ours.exponential()
        assert value == theirs.standard_exponential()
        assert value > rng_module._ZIGGURAT_EXP_R
        assert_same_stream(ours, theirs)

    @pytest.mark.parametrize("idx", [0, 1, 2, 128, 255])
    def test_pareto_and_geometric_through_the_slow_path(self, idx):
        output = ziggurat_output(idx, rng_module._KE[idx])
        for draw in (lambda g: g.pareto(1.4), lambda g: g.geometric(0.01)):
            ours, theirs = crafted(output)
            assert draw(ours) == draw(theirs)
            assert_same_stream(ours, theirs)


class TestIntegers:
    @pytest.mark.parametrize("high", [3, 5, 2**31 + 1, 2**32 - 1])
    def test_32_bit_rejection(self, high):
        """A low half of 0 leaves nothing over and is rejected; the draw
        moves on to the kept high half, then to a new output."""
        for output in (0, 7 << 32, (2**32 - 1) << 32):
            ours, theirs = crafted(output)
            for _ in range(5):
                assert ours.integers(high) == theirs.integers(high)
            assert_same_stream(ours, theirs)

    def test_high_two_to_the_32_takes_halves_as_they_are(self):
        ours, theirs = crafted(0xDEADBEEF_01234567)
        assert ours.integers(2**32) == theirs.integers(2**32) == 0x01234567
        assert ours.integers(2**32) == theirs.integers(2**32) == 0xDEADBEEF
        assert_same_stream(ours, theirs)

    @pytest.mark.parametrize("high", [2**32 + 1, 2**40 + 3, 2**62 + 1,
                                      2**63])
    def test_64_bit_path_and_its_rejection(self, high):
        for output in (0, 1, 2**64 - 1):
            ours, theirs = crafted(output)
            for _ in range(3):
                assert ours.integers(high) == theirs.integers(high)
            assert_same_stream(ours, theirs)

    def test_kept_half_survives_64_bit_draws(self):
        ours, theirs = Pcg64(11), np.random.default_rng(11)
        for call in (lambda g: g.integers(10), lambda g: g.integers(2**40),
                     lambda g: g.random(), lambda g: g.exponential(2.0),
                     lambda g: g.integers(10), lambda g: g.integers(10)):
            assert call(ours) == call(theirs)

    def test_high_one_draws_nothing(self):
        ours, theirs = Pcg64(3), np.random.default_rng(3)
        assert ours.integers(1) == theirs.integers(1) == 0
        assert_same_stream(ours, theirs)


class TestBernoulliView:
    N = 5000
    P = 0.3 * (1.0 - 0.65)

    def _pair(self, seed=7 ^ 0x5EED):
        ours = Pcg64(seed)
        view = ours.bernoulli(self.N, self.P)
        theirs = np.random.default_rng(seed)
        flags = (theirs.random(self.N) < self.P).tolist()
        return ours, view, theirs, flags

    def test_iteration_matches_random_vector(self):
        _, view, _, flags = self._pair()
        assert len(view) == self.N
        assert list(view) == flags
        assert list(view) == flags  # a view can be walked again

    @settings(max_examples=60, deadline=None)
    @given(indices=st.lists(st.integers(0, N - 1), max_size=200))
    def test_random_access_matches_random_vector(self, indices):
        _, view, _, flags = self._pair()
        for index in indices:
            assert view[index] is flags[index]

    def test_every_index(self):
        _, view, _, flags = self._pair(seed=123)
        assert [view[i] for i in range(self.N)] == flags

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 255, 256, 257, 4096])
    def test_sizes_at_table_edges(self, n):
        ours, theirs = Pcg64(5), np.random.default_rng(5)
        view = ours.bernoulli(n, 0.5)
        flags = (theirs.random(n) < 0.5).tolist()
        assert list(view) == flags
        assert [view[i] for i in range(n)] == flags
        assert_same_stream(ours, theirs)

    @pytest.mark.parametrize("ways", [1, 2])
    def test_prewarmed_tag_store_reads_the_flags(self, ways):
        """Direct-mapped, the store keeps the view and reads one flag per
        set it touches; two-way, it walks the view in order."""
        _, view, _, flags = self._pair()
        store = TagStore(num_frames=self.N, ways=ways)
        store.bulk_install(range(self.N), view)
        assert store._lazy_n == (self.N if ways == 1 else 0)
        for block in (0, 1, 17, 2500, self.N - 1, 3 * self.N // 4):
            assert store.is_dirty(block) is flags[block]
        assert store.resident_blocks() == self.N

    def test_generator_moves_past_the_draws(self):
        ours, _, theirs, _ = self._pair()
        assert_same_stream(ours, theirs)

    def test_out_of_range_index(self):
        _, view, _, _ = self._pair()
        with pytest.raises(IndexError):
            view[self.N]
        with pytest.raises(IndexError):
            view[-1]
