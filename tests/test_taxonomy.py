"""Every zero-filled failure counter has a scenario that makes it rise.

``--profile`` zero-fills each name in ``ERROR_TAXONOMY`` and
``FABRIC_TAXONOMY``, so a counter nothing increments would read 0 by
construction and hide the failure mode it was meant to expose.  Each
name maps to a scenario from the fault, lease or fabric suite that
provokes that failure mode.  A name without a scenario fails here.
"""

import pytest

from repro import observability
from tests import test_fabric_golden as fabric_suite
from tests import test_fabric_leases as lease_suite
from tests import test_faults as fault_suite

#: Failure mode -> scenario that provokes it, called as
#: ``scenario(tmp_path, monkeypatch)``.
SCENARIOS = {
    "faults.injected": fault_suite.fail_every_store,
    "retries.attempted": fault_suite.fail_every_store,
    "tasks.timed_out": fault_suite.time_out_every_task,
    "pool.broken": fault_suite.crash_every_worker,
    "degraded.serial_fallback": fault_suite.crash_every_worker,
    "fabric.claims": lease_suite.claim_a_live_lease,
    "fabric.steals": lease_suite.steal_a_stale_lease,
    "fabric.stale_leases": lease_suite.steal_a_stale_lease,
    "fabric.lease_conflicts": lease_suite.claim_a_live_lease,
    "fabric.warm_skips": fabric_suite.rerun_a_finished_fabric,
    "fabric.lease_lost": lease_suite.lose_a_lease_to_a_peer,
}


@pytest.mark.parametrize(
    "name", observability.ERROR_TAXONOMY + observability.FABRIC_TAXONOMY
)
def test_failure_mode_raises_its_counter(name, cache_dir, monkeypatch):
    assert name in SCENARIOS, f"no scenario drives taxonomy counter {name!r}"
    SCENARIOS[name](cache_dir, monkeypatch)
    assert observability.counter_value(name) >= 1
