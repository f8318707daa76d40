"""Every entry family of the artifact store survives every kind of damage.

Whole-trace streams, stream chunks, sweep results and fabric reports are
all entries of one store (:mod:`repro.sim.diskcache`).  Each family is
damaged three ways: the file is truncated; one array value is edited in
an otherwise valid archive that keeps the old meta record (only the
checksum can tell); and another entry of the family is renamed over it
(only the key check can tell).  Every damage must count exactly one
corrupt drop, recompute, and leave the reports byte-identical.

The compact encodings get damage that a fresh checksum vouches for, so
only decoding can tell: a sweep entry with a bucket position out of
range, one whose positions and counts differ in length, and a stream
entry whose array has a non-integer dtype.
"""

import json

import numpy as np
import pytest

from repro import observability
from repro.experiments.config import ExperimentConfig
from repro.experiments.registry import run_all_reports
from repro.fabric.runtime import FabricOptions, merge_reports_text, run_worker
from repro.sim.cache import clear_stream_cache
from repro.sim.diskcache import (
    _checksum,
    cache_root,
    chunk_cache_dir,
    stream_cache_dir,
    sweep_cache_dir,
)

IDS = ["table1", "fig5"]
CONFIG = ExperimentConfig(benchmarks=("jpeg_play", "gcc"), trace_length=2000)


def _truncate(victim, donor):
    victim.write_bytes(victim.read_bytes()[: victim.stat().st_size // 2])


def _edit_array(victim, donor):
    with np.load(victim, allow_pickle=False) as archive:
        arrays = {name: archive[name] for name in archive.files}
    # The largest array: editing it breaks no shape a decoder could check.
    name = max((arrays[name].size, name) for name in arrays if name != "meta")[1]
    value = arrays[name]
    if value.dtype.kind == "U":
        arrays[name] = np.array(str(value) + " ")
    else:
        value = value.copy()
        value.flat[0] += 1
        arrays[name] = value
    with open(victim, "wb") as handle:
        np.savez_compressed(handle, **arrays)


def _rename_over(victim, donor):
    donor.replace(victim)


DAMAGES = {"truncated": _truncate, "edited-array": _edit_array, "renamed": _rename_over}


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_CACHE_DISABLE", raising=False)
    monkeypatch.delenv("REPRO_FAULT_SPEC", raising=False)
    clear_stream_cache()
    observability.reset_metrics()
    yield tmp_path
    clear_stream_cache()
    observability.reset_metrics()


def _report_text(config):
    clear_stream_cache()
    return "".join(
        f"=== {r.experiment_id}: {r.description}\n{r.text}\n\n"
        for r in run_all_reports(config, experiment_ids=IDS, jobs=1)
    )


def _fabric_text(config):
    fabric_dir = cache_root() / "fabric"
    run_worker(config, IDS, FabricOptions(shards=1, fabric_dir=fabric_dir))
    return merge_reports_text(config, IDS, fabric_dir)


#: family -> (config, run, entry directory, corrupt counter, recompute counter)
FAMILIES = {
    "streams": (
        CONFIG, _report_text, stream_cache_dir,
        "stream_cache.disk_corrupt", "stream_cache.sweeps",
    ),
    "chunks": (
        CONFIG.scaled(chunk_size=512), _report_text, chunk_cache_dir,
        "stream_cache.chunk_corrupt", "stream_cache.chunk_sweeps",
    ),
    "sweeps": (
        CONFIG, _report_text, sweep_cache_dir,
        "sweep_cache.disk_corrupt", "batched.grid_sweeps",
    ),
    "reports": (
        CONFIG, _fabric_text, lambda: cache_root() / "fabric" / "reports",
        "fabric.report_corrupt", "fabric.report_stores",
    ),
}


@pytest.mark.parametrize("damage", sorted(DAMAGES))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_damaged_entry_is_dropped_and_recomputed(family, damage, cache_dir):
    config, run, directory, corrupt, recompute = FAMILIES[family]
    golden = _report_text(config)
    assert run(config) == golden
    entries = sorted(directory().glob("*.npz"))
    assert len(entries) >= 2
    DAMAGES[damage](victim=entries[0], donor=entries[1])
    if family in ("streams", "chunks"):
        # Warm grid results would answer without reading any stream.
        for entry in sweep_cache_dir().glob("*.npz"):
            entry.unlink()
    observability.reset_metrics()
    assert run(config) == golden
    assert observability.counter_value(corrupt) == 1
    assert observability.counter_value(recompute) >= 1
    # The recomputed entry replaced the damaged one: a warm rerun is clean.
    observability.reset_metrics()
    assert run(config) == golden
    assert observability.counter_value(corrupt) == 0
    assert observability.counter_value(recompute) == 0


def _rewrite_with_valid_checksum(entry, edit):
    """Apply ``edit`` to an entry's arrays and re-sign it, key unchanged."""
    with np.load(entry, allow_pickle=False) as archive:
        meta = json.loads(str(archive["meta"]))
        arrays = {name: archive[name] for name in archive.files if name != "meta"}
    edit(arrays)
    meta["checksum"] = _checksum(arrays, meta["fields"])
    with open(entry, "wb") as handle:
        np.savez_compressed(handle, meta=np.array(json.dumps(meta, sort_keys=True)), **arrays)


def _index_out_of_range(arrays):
    # NumPy would read -1 as the last bucket without a range check.
    arrays["index"] = arrays["index"].astype(np.int64)
    arrays["index"][0] = -1


def _counts_shorter_than_index(arrays):
    # One count would broadcast over every position without a length check.
    arrays["counts"] = arrays["counts"][:1]
    arrays["mispredicts"] = arrays["mispredicts"][:1]


def _float_bhrs(arrays):
    arrays["bhrs"] = arrays["bhrs"].astype(np.float64)


#: damage -> (family, edit of the re-signed entry)
DECODE_DAMAGES = {
    "sweep-index-out-of-range": ("sweeps", _index_out_of_range),
    "sweep-length-mismatch": ("sweeps", _counts_shorter_than_index),
    "stream-float-dtype": ("streams", _float_bhrs),
}


@pytest.mark.parametrize("damage", sorted(DECODE_DAMAGES))
def test_resigned_damage_is_caught_by_decode(damage, cache_dir):
    family, edit = DECODE_DAMAGES[damage]
    config, run, directory, corrupt, recompute = FAMILIES[family]
    golden = _report_text(config)
    entries = sorted(directory().glob("*.npz"))
    _rewrite_with_valid_checksum(entries[0], edit)
    if family == "streams":
        for entry in sweep_cache_dir().glob("*.npz"):
            entry.unlink()
    observability.reset_metrics()
    assert run(config) == golden
    assert observability.counter_value(corrupt) == 1
    assert observability.counter_value(recompute) >= 1
    observability.reset_metrics()
    assert run(config) == golden
    assert observability.counter_value(corrupt) == 0
