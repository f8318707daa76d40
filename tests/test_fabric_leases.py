"""Lease protocol: exclusive claim, stale takeover, release, heartbeat."""

import os

import pytest

from repro import observability
from repro.fabric.leases import Lease, read_lease, try_acquire_lease


@pytest.fixture(autouse=True)
def metrics():
    observability.reset_metrics()
    yield
    observability.reset_metrics()


def backdate(path, seconds):
    old = os.stat(path).st_mtime - seconds
    os.utime(path, (old, old))


# Scenarios that provoke the fabric's lease failure modes.
# ``tests/test_taxonomy.py`` drives the fabric-taxonomy counters through
# them (shared ``(tmp_path, monkeypatch)`` signature); the tests
# below pin the exact accounting each one leaves behind.


def claim_a_live_lease(tmp_path, monkeypatch=None):
    """Alpha claims a unit, then beta loses the race for it."""
    path = tmp_path / "unit.lease"
    assert try_acquire_lease(path, "alpha") is not None
    assert try_acquire_lease(path, "beta") is None


def steal_a_stale_lease(tmp_path, monkeypatch=None):
    """Alpha's lease outlives its TTL and beta takes the unit over."""
    path = tmp_path / "unit.lease"
    assert try_acquire_lease(path, "alpha", ttl_seconds=5.0) is not None
    backdate(path, 60.0)
    assert try_acquire_lease(path, "beta", ttl_seconds=5.0) is not None
    return path


def lose_a_lease_to_a_peer(tmp_path, monkeypatch=None):
    """Alpha's next heartbeat finds its lease gone (a peer took it)."""
    path = tmp_path / "unit.lease"
    lease = try_acquire_lease(path, "alpha")
    os.unlink(path)  # simulate a peer's takeover
    assert lease.beat() is False


class TestClaim:
    def test_first_claimer_wins(self, tmp_path):
        path = tmp_path / "unit.lease"
        lease = try_acquire_lease(path, "alpha")
        assert lease is not None
        assert path.is_file()
        assert observability.counter_value("fabric.claims") == 1

    def test_second_claimer_conflicts(self, tmp_path):
        claim_a_live_lease(tmp_path)
        assert observability.counter_value("fabric.claims") == 1
        assert observability.counter_value("fabric.lease_conflicts") == 1
        assert observability.counter_value("fabric.steals") == 0

    def test_lease_records_owner_and_pid(self, tmp_path):
        path = tmp_path / "unit.lease"
        assert try_acquire_lease(path, "alpha") is not None
        info = read_lease(path)
        assert info is not None
        assert info.owner == "alpha"
        assert info.pid == os.getpid()
        assert info.age_seconds >= 0.0

    def test_read_missing_lease_is_none(self, tmp_path):
        assert read_lease(tmp_path / "gone.lease") is None

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "leases" / "deep" / "unit.lease"
        assert try_acquire_lease(path, "alpha") is not None


class TestRelease:
    def test_release_unlinks_and_allows_reclaim(self, tmp_path):
        path = tmp_path / "unit.lease"
        lease = try_acquire_lease(path, "alpha")
        lease.release()
        assert not path.exists()
        assert try_acquire_lease(path, "beta") is not None
        assert observability.counter_value("fabric.claims") == 2

    def test_release_is_idempotent(self, tmp_path):
        path = tmp_path / "unit.lease"
        lease = try_acquire_lease(path, "alpha")
        lease.release()
        lease.release()  # second release must not raise

    def test_context_manager_releases(self, tmp_path):
        path = tmp_path / "unit.lease"
        with try_acquire_lease(path, "alpha"):
            assert path.is_file()
        assert not path.exists()


class TestStaleTakeover:
    def test_fresh_lease_is_not_stolen(self, tmp_path):
        path = tmp_path / "unit.lease"
        assert try_acquire_lease(path, "alpha", ttl_seconds=60.0) is not None
        assert try_acquire_lease(path, "beta", ttl_seconds=60.0) is None
        assert observability.counter_value("fabric.steals") == 0

    def test_stale_lease_is_stolen(self, tmp_path):
        info = read_lease(steal_a_stale_lease(tmp_path))
        assert info is not None and info.owner == "beta"
        assert observability.counter_value("fabric.stale_leases") == 1
        assert observability.counter_value("fabric.steals") == 1
        assert observability.counter_value("fabric.claims") == 2

    def test_no_stale_tombstone_left_behind(self, tmp_path):
        steal_a_stale_lease(tmp_path)
        leftovers = [p.name for p in tmp_path.iterdir() if p.name != "unit.lease"]
        assert leftovers == []


class TestHeartbeat:
    def test_beat_refreshes_mtime(self, tmp_path):
        path = tmp_path / "unit.lease"
        lease = try_acquire_lease(path, "alpha")
        backdate(path, 60.0)
        stale_mtime = os.stat(path).st_mtime
        assert lease.beat() is True
        assert os.stat(path).st_mtime > stale_mtime

    def test_beat_detects_stolen_lease(self, tmp_path):
        lose_a_lease_to_a_peer(tmp_path)
        assert observability.counter_value("fabric.lease_lost") == 1

    def test_heartbeat_thread_keeps_lease_fresh(self, tmp_path):
        import time

        path = tmp_path / "unit.lease"
        lease = try_acquire_lease(path, "alpha", heartbeat_seconds=0.02)
        assert isinstance(lease, Lease)
        backdate(path, 60.0)
        with lease:
            deadline = time.time() + 5.0
            while time.time() < deadline:
                age = time.time() - os.stat(path).st_mtime
                if age < 30.0:
                    break
                time.sleep(0.01)
            assert time.time() - os.stat(path).st_mtime < 30.0
        assert not path.exists()
