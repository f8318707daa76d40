"""Unit tests for repro.utils.rng."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.rng import PrefetchedDraws, derive_seed, make_rng, split_rng


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed("gcc", 0) == derive_seed("gcc", 0)

    def test_component_sensitivity(self):
        assert derive_seed("gcc", 0) != derive_seed("gcc", 1)
        assert derive_seed("gcc", 0) != derive_seed("gs", 0)

    def test_order_sensitivity(self):
        assert derive_seed("a", "b") != derive_seed("b", "a")

    def test_no_concatenation_collision(self):
        # ("ab", "c") must differ from ("a", "bc").
        assert derive_seed("ab", "c") != derive_seed("a", "bc")

    def test_rejects_unhashable_types(self):
        with pytest.raises(TypeError):
            derive_seed(1.5)  # floats are not allowed
        with pytest.raises(TypeError):
            derive_seed(True)  # bools are explicitly rejected

    def test_64_bit_range(self):
        assert 0 <= derive_seed("x") < 2**64


class TestMakeRng:
    def test_reproducible_streams(self):
        a = make_rng("suite", 7).integers(0, 2**31, size=10)
        b = make_rng("suite", 7).integers(0, 2**31, size=10)
        assert (a == b).all()

    def test_distinct_streams(self):
        a = make_rng("suite", 7).integers(0, 2**31, size=10)
        b = make_rng("suite", 8).integers(0, 2**31, size=10)
        assert (a != b).any()


class TestSplitRng:
    def test_count(self):
        rngs = list(split_rng("x", count=5))
        assert len(rngs) == 5

    def test_independence(self):
        a, b = split_rng("x", count=2)
        assert a.integers(0, 2**31) != b.integers(0, 2**31)

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            list(split_rng("x", count=0))


#: One draw: ("random",), ("integers", low, span) or ("geometric", p).
_DRAWS = st.one_of(
    st.just(("random",)),
    st.tuples(
        st.just("integers"),
        st.integers(-8, 8),
        st.one_of(
            st.just(1),
            st.integers(2, 9),
            st.integers(2**31 - 4, 2**31 + 4),
            st.integers(1, 2**31),
        ),
    ),
    st.tuples(st.just("geometric"), st.sampled_from([0.5, 0.1, 1 / 3.7, 0.99])),
)


def _draw(generator, call):
    if call[0] == "random":
        return generator.random()
    if call[0] == "integers":
        _, low, span = call
        return int(generator.integers(low, low + span))
    return int(generator.geometric(call[1]))


def _small_blocks(words):
    """PrefetchedDraws with ``words``-word blocks, to cross block ends often."""
    return type("SmallBlocks", (PrefetchedDraws,), {"BLOCK_WORDS": words})


class TestPrefetchedDraws:
    """The stand-in returns exactly what ``make_rng``'s Generator returns."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        block=st.sampled_from([1, 3, 16, PrefetchedDraws.BLOCK_WORDS]),
        calls=st.lists(_DRAWS, min_size=1, max_size=120),
    )
    def test_matches_generator_over_interleaved_draws(self, seed, block, calls):
        draws = _small_blocks(block)(make_rng("draws", seed))
        reference = make_rng("draws", seed)
        for call in calls:
            assert _draw(draws, call) == _draw(reference, call), call

    def test_long_run_crosses_default_blocks(self):
        # About 9 words a round, with no delegated call to restart the
        # blocks: 1000 rounds cross two ends of a default block.
        draws = PrefetchedDraws(make_rng("long"))
        reference = make_rng("long")
        calls = [("random",), ("integers", 0, 3), ("random",), ("integers", 2, 2**31)]
        calls += [("integers", 5, 1)] + [("random",)] * 7
        for _ in range(1000):
            for call in calls:
                assert _draw(draws, call) == _draw(reference, call)

    def test_span_one_draws_nothing(self):
        draws = PrefetchedDraws(make_rng("one"))
        reference = make_rng("one")
        assert [draws.integers(7, 8) for _ in range(5)] == [7] * 5
        assert draws.random() == reference.random()

    def test_half_word_carry_survives_a_delegated_call(self):
        # integers() leaves the high half of a word for the next 32-bit
        # draw; geometric() runs on the Generator in between.
        draws = PrefetchedDraws(make_rng("carry"))
        reference = make_rng("carry")
        for generator in (draws, reference):
            generator.integers(0, 10)
        assert draws.geometric(0.3) == reference.geometric(0.3)
        assert draws.integers(0, 1000) == reference.integers(0, 1000)
        assert draws.bit_generator.state == reference.bit_generator.state

    def test_low_not_below_high_is_rejected(self):
        with pytest.raises(ValueError, match="low >= high"):
            PrefetchedDraws(make_rng("bad")).integers(3, 3)

    def test_needs_pcg64(self):
        with pytest.raises(TypeError, match="PCG64"):
            PrefetchedDraws(np.random.Generator(np.random.MT19937(1)))
