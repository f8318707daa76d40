"""Every entry family of the artifact store survives every kind of damage.

Whole-trace streams, stream chunks, sweep results, pipeline results
and reports are all entries of one store (:mod:`repro.sim.diskcache`);
serial runs and fabric runs read and write the same report entries, so
the report family is damaged under both.  Each family is
damaged three ways: the file is truncated; the largest payload (an
array value, or the text field of a report, which holds no arrays) is
edited and the entry rewritten through the store under its old checksum
(only the checksum can tell); and another entry of the family is renamed over it
(only the key check can tell).  Every damage must count exactly one
corrupt drop, recompute, and leave the reports byte-identical.  Cached
reports and grid results would answer before a damaged stream or grid
entry is read, so the stream, chunk and sweep families drop them before
each run.

The compact encodings get damage that a fresh checksum vouches for, so
only decoding can tell: a sweep entry with a bucket position out of
range, one whose positions and counts differ in length, a stream entry
whose array has a non-integer dtype, a pipeline result with one
IPC row more than it has benchmarks, and a cached report whose stored
id differs from what its key names or whose text is not one string.

The frame itself gets damage only its parser can tell: a header that
declares an 8-byte array as an object array, a body one byte longer
than its arrays, a bad magic, and a header length past the end of the
file.  A property test round-trips :func:`put`/:func:`get` over every
dtype the store holds.
"""

import json
import string
import struct
import tempfile
import zlib
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import observability
from repro.experiments import extension_pipeline
from repro.experiments.config import ExperimentConfig
from repro.experiments.registry import run_all_reports
from repro.fabric.runtime import FabricOptions, merge_reports_text, run_worker
from repro.sim import diskcache
from repro.sim.cache import clear_stream_cache
from repro.sim.diskcache import (
    ENTRY_MAGIC,
    ENTRY_SUFFIX,
    STREAMS,
    EntryFamily,
    cache_root,
    chunk_cache_dir,
    get,
    put,
    read_entry,
    stream_cache_dir,
    sweep_cache_dir,
)

IDS = ["table1", "fig5"]
CONFIG = ExperimentConfig(benchmarks=("jpeg_play", "gcc"), trace_length=2000)


def _entries(directory, pattern="*"):
    return sorted(directory.glob(f"{pattern}{ENTRY_SUFFIX}"))


def _truncate(victim, donor):
    victim.write_bytes(victim.read_bytes()[: victim.stat().st_size // 2])


def _edit_payload(victim, donor):
    meta, arrays = read_entry(victim)
    if arrays:
        # The largest array: editing it breaks no shape a decoder could check.
        name = max((arrays[name].size, name) for name in arrays)[1]
        arrays[name].flat[0] += 1
    else:
        # A report entry: its text is a header field.
        meta["fields"]["text"] += " "
    # Rewritten through the store, but signed with the old checksum.
    with mock.patch.object(diskcache, "_checksum", return_value=meta["checksum"]):
        put(STREAMS, victim, meta["key"], arrays, meta["fields"])


def _rename_over(victim, donor):
    donor.replace(victim)


DAMAGES = {"truncated": _truncate, "edited-array": _edit_payload, "renamed": _rename_over}


def _report_text(config):
    clear_stream_cache()
    return "".join(
        f"=== {r.experiment_id}: {r.description}\n{r.text}\n\n"
        for r in run_all_reports(config, experiment_ids=IDS, jobs=1)
    )


def _fabric_text(config):
    fabric_dir = cache_root() / "fabric"
    run_worker(config, IDS, FabricOptions(shards=1, fabric_dir=fabric_dir))
    return merge_reports_text(config, IDS)


#: Two short pipeline lengths, so the family has a donor entry to rename.
PIPELINE_LENGTHS = (300, 500)


def _pipeline_text(config):
    clear_stream_cache()
    return "".join(
        extension_pipeline.run(config, trace_length=length).format() + "\n"
        for length in PIPELINE_LENGTHS
    )


def _grid_entries():
    """The grid results of ``sweep_results/``, without cached reports."""
    return [entry for entry in _entries(sweep_cache_dir())
            if not entry.name.startswith("report-")]


#: family -> (config, run, entry paths, corrupt counter, recompute counter)
FAMILIES = {
    "streams": (
        CONFIG, _report_text, lambda: _entries(stream_cache_dir()),
        "stream_cache.disk_corrupt", "stream_cache.sweeps",
    ),
    "chunks": (
        CONFIG.scaled(chunk_size=512), _report_text, lambda: _entries(chunk_cache_dir()),
        "stream_cache.chunk_corrupt", "stream_cache.chunk_sweeps",
    ),
    "sweeps": (
        CONFIG, _report_text, _grid_entries,
        "sweep_cache.disk_corrupt", "batched.grid_sweeps",
    ),
    "pipeline": (
        # Pipeline results share sweep_results/ with the grid results.
        CONFIG, _pipeline_text, lambda: _entries(sweep_cache_dir(), "pipeline-*"),
        "pipeline_cache.disk_corrupt", "pipeline_cache.stores",
    ),
    "report-cache": (
        # Cached reports share sweep_results/ with the grid results.
        CONFIG, _report_text, lambda: _entries(sweep_cache_dir(), "report-*"),
        "report_cache.disk_corrupt", "report_cache.stores",
    ),
    "reports": (
        # The fabric's report units publish the same entries.
        CONFIG, _fabric_text, lambda: _entries(sweep_cache_dir(), "report-*"),
        "report_cache.disk_corrupt", "report_cache.stores",
    ),
}


def _reference_text(family, config):
    """The reports of a cold run: the pipeline's with the store disabled."""
    if family != "pipeline":
        return _report_text(config)
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setenv("REPRO_CACHE_DISABLE", "1")
        return _pipeline_text(config)


def _drop_grid_results(family):
    if family in ("streams", "chunks"):
        # Warm grid results and reports would answer without reading any stream.
        for entry in _entries(sweep_cache_dir()):
            entry.unlink()
    elif family == "sweeps":
        # Warm reports would answer without reading any grid result.
        for entry in _entries(sweep_cache_dir(), "report-*"):
            entry.unlink()


def _assert_dropped_and_recomputed(family, config, run, corrupt, recompute, golden):
    _drop_grid_results(family)
    observability.reset_metrics()
    assert run(config) == golden
    assert observability.counter_value(corrupt) == 1
    assert observability.counter_value(recompute) >= 1
    # The recomputed entry replaced the damaged one: a warm rerun is clean.
    _drop_grid_results(family)
    observability.reset_metrics()
    assert run(config) == golden
    assert observability.counter_value(corrupt) == 0
    assert observability.counter_value(recompute) == 0


@pytest.mark.parametrize("damage", sorted(DAMAGES))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_damaged_entry_is_dropped_and_recomputed(family, damage, cache_dir):
    config, run, entries, corrupt, recompute = FAMILIES[family]
    golden = _reference_text(family, config)
    assert run(config) == golden
    entries = entries()
    assert len(entries) >= 2
    DAMAGES[damage](victim=entries[0], donor=entries[1])
    _assert_dropped_and_recomputed(family, config, run, corrupt, recompute, golden)


def _rewrite_with_valid_checksum(entry, edit):
    """Apply ``edit`` to an entry's arrays and re-sign it, key unchanged."""
    meta, arrays = read_entry(entry)
    edit(arrays, meta["fields"])
    put(STREAMS, entry, meta["key"], arrays, meta["fields"])


def _index_out_of_range(arrays, fields):
    # NumPy would read -1 as the last bucket without a range check.
    arrays["index"] = arrays["index"].astype(np.int64)
    arrays["index"][0] = -1


def _counts_shorter_than_index(arrays, fields):
    # One count would broadcast over every position without a length check.
    arrays["counts"] = arrays["counts"][:1]
    arrays["mispredicts"] = arrays["mispredicts"][:1]


def _float_bhrs(arrays, fields):
    arrays["bhrs"] = arrays["bhrs"].astype(np.float64)


def _extra_pipeline_row(arrays, fields):
    # Pairing rows with benchmark names would drop the extra row silently.
    rows = arrays["dual_path_ipc"]
    arrays["dual_path_ipc"] = np.concatenate((rows, rows[:1]))


def _other_report_id(arrays, fields):
    # Key and checksum agree; only decode's id check sees the mismatch.
    fields["experiment_id"] = "fig2"


def _encoded_report_text(arrays, fields):
    # Valid JSON under a fresh checksum; only decode sees it is no string.
    fields["text"] = list(fields["text"].encode("utf-8"))


#: damage -> (family, edit of the re-signed entry)
DECODE_DAMAGES = {
    "sweep-index-out-of-range": ("sweeps", _index_out_of_range),
    "sweep-length-mismatch": ("sweeps", _counts_shorter_than_index),
    "stream-float-dtype": ("streams", _float_bhrs),
    "pipeline-extra-row": ("pipeline", _extra_pipeline_row),
    "report-id-mismatch": ("report-cache", _other_report_id),
    "report-text-bytes": ("report-cache", _encoded_report_text),
}


@pytest.mark.parametrize("damage", sorted(DECODE_DAMAGES))
def test_resigned_damage_is_caught_by_decode(damage, cache_dir):
    family, edit = DECODE_DAMAGES[damage]
    config, run, entries, corrupt, recompute = FAMILIES[family]
    golden = _reference_text(family, config)
    assert run(config) == golden
    _rewrite_with_valid_checksum(entries()[0], edit)
    _assert_dropped_and_recomputed(family, config, run, corrupt, recompute, golden)


_HEADER_START = len(ENTRY_MAGIC) + 8


def _split_frame(entry):
    """An entry's header and decompressed body, by the documented layout."""
    data = entry.read_bytes()
    (length,) = struct.unpack_from("<Q", data, len(ENTRY_MAGIC))
    header = json.loads(data[_HEADER_START : _HEADER_START + length])
    return header, zlib.decompress(data[_HEADER_START + length :])


def _write_frame(entry, header, body):
    text = json.dumps(header, sort_keys=True).encode("utf-8")
    entry.write_bytes(ENTRY_MAGIC + struct.pack("<Q", len(text)) + text + zlib.compress(body))


def _object_dtype(entry):
    # ``buckets`` is int64: declared as |O8, the sizes still add up.
    header, body = _split_frame(entry)
    for spec in header["arrays"]:
        if spec[0] == "buckets":
            spec[1] = "|O8"
    _write_frame(entry, header, body)


def _trailing_body_byte(entry):
    # Every array and the checksum are intact; only the size check can tell.
    header, body = _split_frame(entry)
    _write_frame(entry, header, body + b"\0")


def _bad_magic(entry):
    data = bytearray(entry.read_bytes())
    data[0] ^= 0xFF
    entry.write_bytes(bytes(data))


def _header_past_end(entry):
    data = bytearray(entry.read_bytes())
    struct.pack_into("<Q", data, len(ENTRY_MAGIC), len(data))
    entry.write_bytes(bytes(data))


#: damage -> (family, edit of the entry file)
FRAME_DAMAGES = {
    "object-dtype": ("sweeps", _object_dtype),
    "trailing-body-byte": ("streams", _trailing_body_byte),
    "bad-magic": ("chunks", _bad_magic),
    "header-past-end": ("reports", _header_past_end),
}


@pytest.mark.parametrize("damage", sorted(FRAME_DAMAGES))
def test_damaged_frame_is_dropped_and_recomputed(damage, cache_dir):
    family, edit = FRAME_DAMAGES[damage]
    config, run, entries, corrupt, recompute = FAMILIES[family]
    golden = _reference_text(family, config)
    assert run(config) == golden
    edit(entries()[0])
    _assert_dropped_and_recomputed(family, config, run, corrupt, recompute, golden)


def test_read_entry_rejects_bytes_after_the_body(tmp_path):
    entry = tmp_path / f"entry{ENTRY_SUFFIX}"
    put(STREAMS, entry, {}, {"values": np.arange(5)}, {})
    entry.write_bytes(entry.read_bytes() + b"\0")
    with pytest.raises(ValueError):
        read_entry(entry)


ROUND_TRIP = EntryFamily("store_round_trip", "round_trip.hits", "round_trip.misses",
                         "round_trip.corrupt", "round_trip.stores", "round_trip.store_errors")


@st.composite
def _stored_arrays(draw):
    names = draw(st.lists(st.text(string.ascii_lowercase, min_size=1, max_size=6),
                          unique=True, max_size=4))
    arrays = {}
    for name in names:
        dtype = np.dtype(draw(st.sampled_from(["u1", "u2", "u4", "i8", "f8", "U5"])))
        shape = draw(hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=5))
        # NumPy strips trailing NULs from ``U`` elements and hypothesis
        # rejects an element that does not survive the cast, so the
        # alphabet leaves NUL out.
        text = st.text(st.characters(codec="utf-8", exclude_characters="\x00"), max_size=5)
        elements = text if dtype.kind == "U" else None
        arrays[name] = draw(hnp.arrays(dtype, shape, elements=elements))
    return arrays


@settings(max_examples=60, deadline=None)
@given(arrays=_stored_arrays(), text=st.text())
def test_put_get_round_trip(arrays, text):
    fields = {"text": text, "count": len(arrays)}
    with tempfile.TemporaryDirectory() as directory:
        entry = Path(directory) / f"entry{ENTRY_SUFFIX}"
        assert put(ROUND_TRIP, entry, {"text": text}, arrays, fields) == entry
        loaded, loaded_fields = get(
            ROUND_TRIP, entry, {"text": text}, lambda arrays, fields: (arrays, fields)
        )
    assert loaded_fields == fields
    assert list(loaded) == list(arrays)
    for name, value in arrays.items():
        assert loaded[name].dtype == value.dtype
        assert loaded[name].shape == value.shape
        assert loaded[name].tobytes() == value.tobytes()
        assert loaded[name].flags.writeable
