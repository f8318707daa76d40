"""Unit tests for reduction functions and ReducedEstimator."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import (
    IdentityReduction,
    OneLevelConfidence,
    OnesCountReduction,
    ReducedEstimator,
    ResettingCountReduction,
)
from repro.core.base import BucketSemantics
from repro.core.indexing import PCIndex
from repro.core.init_policies import init_zeros
from repro.utils.bits import popcount


class TestOnesCountReduction:
    def test_counts(self):
        reduction = OnesCountReduction(8)
        assert reduction(0) == 0
        assert reduction(0b1011) == 3
        assert reduction(0xFF) == 8

    def test_num_buckets(self):
        assert OnesCountReduction(16).num_buckets == 17

    def test_order_most_ones_first(self):
        assert list(OnesCountReduction(4).bucket_order) == [4, 3, 2, 1, 0]

    @given(st.integers(0, 0xFFF))
    def test_matches_popcount(self, pattern):
        assert OnesCountReduction(12)(pattern) == popcount(pattern)

    def test_vectorized(self):
        reduction = OnesCountReduction(8)
        patterns = np.asarray([0, 1, 3, 255])
        assert reduction.vectorized(patterns).tolist() == [0, 1, 2, 8]


class TestResettingCountReduction:
    def test_zero_pattern_saturates(self):
        reduction = ResettingCountReduction(8)
        assert reduction(0) == 8

    def test_counts_corrects_since_miss(self):
        reduction = ResettingCountReduction(8)
        assert reduction(0b1) == 0       # miss on the latest prediction
        assert reduction(0b10) == 1      # one correct since the miss
        assert reduction(0b10000) == 4

    def test_explicit_maximum_caps(self):
        reduction = ResettingCountReduction(8, maximum=4)
        assert reduction(0b100000) == 4  # distance 5 capped at 4
        assert reduction(0) == 4
        assert reduction.num_buckets == 5

    def test_maximum_cannot_exceed_width(self):
        with pytest.raises(ValueError):
            ResettingCountReduction(8, maximum=9)

    def test_order_ascending(self):
        assert list(ResettingCountReduction(4).bucket_order) == [0, 1, 2, 3, 4]


class TestIdentityReduction:
    def test_passthrough(self):
        reduction = IdentityReduction(4)
        assert reduction(0b1010) == 0b1010
        assert reduction.num_buckets == 16


class TestReducedEstimator:
    def make(self):
        base = OneLevelConfidence(PCIndex(4), cir_bits=4, initializer=init_zeros)
        return ReducedEstimator(base, ResettingCountReduction(4))

    def test_lookup_reduces(self):
        estimator = self.make()
        estimator.update(0x40, 0, 0, correct=False)
        estimator.update(0x40, 0, 0, correct=True)
        # CIR = 0b10 -> one correct since the miss.
        assert estimator.lookup(0x40, 0, 0) == 1

    def test_semantics_ordered(self):
        estimator = self.make()
        assert estimator.semantics is BucketSemantics.ORDERED
        assert list(estimator.bucket_order) == [0, 1, 2, 3, 4]
        assert estimator.num_buckets == 5

    def test_width_mismatch_rejected(self):
        base = OneLevelConfidence(PCIndex(4), cir_bits=8)
        with pytest.raises(ValueError, match="patterns"):
            ReducedEstimator(base, OnesCountReduction(4))

    def test_name_composition(self):
        estimator = self.make()
        assert estimator.name.endswith(".Reset")

    def test_storage_matches_base(self):
        estimator = self.make()
        assert estimator.storage_bits == estimator.base.storage_bits


class TestClosedFormLuts:
    """Each built-in LUT is built in closed form; ``reduce_pattern`` is its
    scalar oracle."""

    @staticmethod
    def oracle(reduction):
        return [reduction.reduce_pattern(p) for p in range(1 << reduction.cir_bits)]

    @pytest.mark.parametrize("bits", range(1, 17))
    def test_identity_and_ones_count(self, bits):
        for reduction in (IdentityReduction(bits), OnesCountReduction(bits)):
            lut = reduction.vectorized(np.arange(1 << bits))
            assert lut.dtype == np.int64
            assert lut.tolist() == self.oracle(reduction)

    @pytest.mark.parametrize("bits", range(1, 17))
    def test_resetting_every_maximum(self, bits):
        for maximum in range(1, bits + 1):
            reduction = ResettingCountReduction(bits, maximum=maximum)
            lut = reduction.vectorized(np.arange(1 << bits))
            assert lut.dtype == np.int64
            assert lut.tolist() == self.oracle(reduction)

    def test_builtin_luts_never_call_reduce_pattern(self, monkeypatch):
        for cls in (IdentityReduction, OnesCountReduction, ResettingCountReduction):
            def forbidden(self, pattern):
                raise AssertionError("LUT build called reduce_pattern")

            monkeypatch.setattr(cls, "reduce_pattern", forbidden)
            cls(12)
