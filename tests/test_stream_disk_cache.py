"""Tests for the persistent predictor-stream cache (disk tier)."""

import numpy as np

from repro import observability
from repro.sim.cache import cached_predictor_streams, clear_stream_cache
from repro.sim.diskcache import (
    ENTRY_SUFFIX,
    StreamKey,
    clear_disk_cache,
    disk_cache_stats,
    entry_path,
    load_cached_streams,
    store_cached_streams,
    stream_cache_dir,
)
from repro.sim.fast import predictor_streams
from repro.workloads import load_benchmark


def _key(**overrides) -> StreamKey:
    base = dict(
        benchmark="jpeg_play",
        length=2000,
        seed=0,
        entries=1 << 12,
        history_bits=12,
        bhr_record_bits=12,
        gcir_bits=12,
    )
    base.update(overrides)
    return StreamKey(**base)


class TestRoundTrip:
    def test_store_then_load_reproduces_streams(self, cache_dir):
        key = _key()
        streams = predictor_streams(
            load_benchmark("jpeg_play", 2000, 0),
            entries=key.entries,
            history_bits=key.history_bits,
            bhr_record_bits=key.bhr_record_bits,
            gcir_bits=key.gcir_bits,
        )
        path = store_cached_streams(key, streams)
        assert path is not None and path.exists()
        loaded = load_cached_streams(key)
        assert loaded is not None
        assert loaded.trace_name == streams.trace_name
        assert loaded.gcir_bits == key.gcir_bits
        assert np.array_equal(loaded.correct, streams.correct)
        assert np.array_equal(loaded.bhrs, streams.bhrs)
        assert np.array_equal(loaded.pcs, streams.pcs)

    def test_missing_entry_is_a_miss(self, cache_dir):
        assert load_cached_streams(_key(seed=99)) is None
        assert observability.counter_value("stream_cache.disk_misses") == 1

    def test_distinct_keys_distinct_paths(self, cache_dir):
        assert entry_path(_key()) != entry_path(_key(seed=1))
        assert entry_path(_key()) != entry_path(_key(gcir_bits=16))

    def test_no_temp_files_left_behind(self, cache_dir):
        key = _key()
        streams = predictor_streams(load_benchmark("jpeg_play", 2000, 0))
        store_cached_streams(key, streams)
        leftovers = [p for p in stream_cache_dir().iterdir() if p.suffix != ENTRY_SUFFIX]
        assert leftovers == []


class TestTwoTierLookup:
    def test_cold_call_sweeps_and_stores(self, cache_dir):
        cached_predictor_streams("jpeg_play", length=2000, seed=0)
        assert observability.counter_value("stream_cache.sweeps") == 1
        assert observability.counter_value("stream_cache.stores") == 1
        assert disk_cache_stats().entries == 1

    def test_warm_disk_means_zero_sweeps(self, cache_dir):
        first = cached_predictor_streams("jpeg_play", length=2000, seed=0)
        clear_stream_cache()  # drop the memory tier, keep the disk tier
        observability.reset_metrics()
        second = cached_predictor_streams("jpeg_play", length=2000, seed=0)
        assert observability.counter_value("stream_cache.sweeps") == 0
        assert observability.counter_value("stream_cache.disk_hits") == 1
        assert np.array_equal(first.correct, second.correct)

    def test_memory_hit_returns_identical_object(self, cache_dir):
        first = cached_predictor_streams("jpeg_play", length=2000, seed=0)
        second = cached_predictor_streams("jpeg_play", length=2000, seed=0)
        assert first is second
        assert observability.counter_value("stream_cache.memory_hits") == 1


class TestCorruption:
    def _warm_one_entry(self):
        cached_predictor_streams("jpeg_play", length=2000, seed=0)
        (entry,) = list(stream_cache_dir().glob(f"*{ENTRY_SUFFIX}"))
        return entry

    def test_garbage_entry_falls_back_to_recompute(self, cache_dir):
        reference = self._warm_one_entry()
        payload = reference.read_bytes()
        reference.write_bytes(b"this is not a store entry")
        clear_stream_cache()
        observability.reset_metrics()
        streams = cached_predictor_streams("jpeg_play", length=2000, seed=0)
        assert observability.counter_value("stream_cache.disk_corrupt") == 1
        assert observability.counter_value("stream_cache.sweeps") == 1
        # The recomputed entry replaced the damaged one, byte-identical
        # content modulo compression (reload must succeed and match).
        clear_stream_cache()
        observability.reset_metrics()
        again = cached_predictor_streams("jpeg_play", length=2000, seed=0)
        assert observability.counter_value("stream_cache.disk_hits") == 1
        assert np.array_equal(streams.correct, again.correct)
        assert len(payload) > 0

    def test_bitflip_detected_by_checksum(self, cache_dir):
        entry = self._warm_one_entry()
        blob = bytearray(entry.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        entry.write_bytes(bytes(blob))
        clear_stream_cache()
        observability.reset_metrics()
        cached_predictor_streams("jpeg_play", length=2000, seed=0)
        assert observability.counter_value("stream_cache.disk_hits") == 0
        assert observability.counter_value("stream_cache.sweeps") == 1

    def test_key_mismatch_is_rejected(self, cache_dir):
        key = _key()
        streams = predictor_streams(load_benchmark("jpeg_play", 2000, 0))
        store_cached_streams(key, streams)
        other = _key(entries=1 << 10)
        stored = entry_path(key)
        stored.rename(entry_path(other))  # masquerade under the wrong key
        assert load_cached_streams(other) is None
        assert observability.counter_value("stream_cache.disk_corrupt") == 1


class TestManagement:
    def test_stats_and_clear(self, cache_dir):
        cached_predictor_streams("jpeg_play", length=2000, seed=0)
        cached_predictor_streams("gcc", length=2000, seed=0)
        stats = disk_cache_stats()
        assert stats.enabled
        assert stats.entries == 2
        assert stats.total_bytes > 0
        assert str(cache_dir) in stats.path
        assert clear_disk_cache() == 2
        assert disk_cache_stats().entries == 0

    def test_stats_format_mentions_path(self, cache_dir):
        text = disk_cache_stats().format()
        assert "entries: 0" in text
        assert str(cache_dir) in text

    def test_disable_env_bypasses_disk(self, cache_dir, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DISABLE", "1")
        cached_predictor_streams("jpeg_play", length=2000, seed=0)
        assert not disk_cache_stats().enabled
        assert disk_cache_stats().entries == 0
        assert observability.counter_value("stream_cache.stores") == 0

    def test_format_3_leftovers_are_stale_and_cleared(self, cache_dir):
        cached_predictor_streams("jpeg_play", length=2000, seed=0)
        leftover = stream_cache_dir() / "jpeg_play-L2000-s0-0123456789abcdef.npz"
        leftover.write_bytes(b"format 3 zip")
        stats = disk_cache_stats()
        assert (stats.entries, stats.stale_tmp) == (1, 1)
        assert clear_disk_cache() == 1
        assert not leftover.exists()
        assert disk_cache_stats().stale_tmp == 0
