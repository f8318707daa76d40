"""Persistent content-addressed artifact store.

The predictor sweep is the only sequential-in-Python stage of the fast
path; :mod:`repro.sim.cache` memoizes it per process, and this module
persists whole-trace streams, stream cells and grid results across
processes as content-keyed entries.  ``extension-pipeline`` results
and the experiment reports (both in ``sweep_results/``) use the same
store; serial ``run-all`` and the fabric share the report entries.

* **One put, one get.**  :func:`put` writes every entry: named arrays
  plus a header holding the key, scalar fields, and one SHA-256
  checksum over both.  :func:`get` reads it back and drops it (deleted,
  counted corrupt, read as a miss) if it fails to parse, carries another
  key, fails the checksum, or fails to decode.  Families differ only in
  data (:class:`EntryFamily`: counter names, crash-site label).
* **One flat frame.**  An entry file is :data:`ENTRY_MAGIC`, the header
  length as a little-endian u64, the UTF-8 JSON header (key, fields,
  checksum, and each array's name, dtype and shape), then one zlib
  stream of every array's C-order bytes in header order.  Only bool,
  integer, float and unicode dtypes are accepted, and the declared
  sizes must add up to the decompressed body exactly, so nothing read
  from the store can unpickle or over-read.  An entry may hold no
  arrays (a report keeps its text in a header field); it is written,
  read and verified without importing numpy, as is the digest, so a
  run that only replays reports never loads numpy.
* **One staleness rule.**  Every key holds :func:`program_digest`, a
  digest of numpy's ``version.py`` and every source file of ``repro``.
  :class:`StreamKey` (and the sweep and pipeline keys built on its
  ``describe()``) and :class:`ChunkStreamKey` (one cell of a sweep:
  the same fields with ``start``/``stop`` in place of the length)
  capture everything the sweep depends on plus that digest, and the
  key's digest names the file, so neither a config change nor an edit
  to the code or a workload definition can alias.
  After any source edit every entry misses; the old ones stay on disk
  until ``repro cache clear``.
* **Compact arrays.**  Streams, cells and carried predictor tables
  store their int64 arrays at the smallest unsigned dtype that holds
  them and widen them back on decode; sweep results store only their
  nonzero buckets (positions, counts, mispredicts).  Decoding rejects
  non-integer dtypes, unequal lengths and out-of-range positions, so a
  damaged entry with a valid checksum is still dropped.
* **Atomic writes.**  :func:`publish` writes a temporary file next to
  the target and renames it into place, so a crashed or concurrent
  writer never leaves a half-written entry (last rename wins with
  identical content).

The cache directory defaults to ``~/.cache/repro-branch-confidence``
(respecting ``XDG_CACHE_HOME``) and is overridden with the
``REPRO_CACHE_DIR`` environment variable; setting ``REPRO_CACHE_DISABLE``
to a non-empty value other than ``0`` turns the cache off: serial runs
then neither read nor write any entry.  Fabric report units still read
and write their report entries, because the reports are the fabric's
outputs.  ``repro cache stats`` and ``clear`` also cover the fabric's
lease, metrics and plan files under ``fabric/``.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import importlib.util
import json
import math
import os
import shutil
import struct
import tempfile
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import IO, TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro import observability
from repro.testing import faults

if TYPE_CHECKING:  # analysis imports sim; keep the runtime edge one-way
    import numpy as np

    from repro.analysis.buckets import BucketStatistics
    from repro.sim.chunked import GshareState, StreamChunk
    from repro.sim.fast import PredictorStreams

T = TypeVar("T")

#: First bytes of every entry file; the last byte is the frame version.
#: It rejects files that are not entries; staleness is the program
#: digest's job.
ENTRY_MAGIC = b"REPROST\x04"

#: File suffix of every entry, in each cache tier.
ENTRY_SUFFIX = ".entry"

#: Suffix of the zip-container entries of store format 3; leftovers are
#: never read, only counted and reclaimed like stray temp files.
_LEGACY_SUFFIX = ".npz"

#: zlib level of entry bodies.  Over the 320 chunk entries of a cold
#: ``run-all --jobs 2 --chunk-size 4096`` (27.9 MB raw), level 1 writes
#: 10 % more bytes than level 3 in two thirds of its compress time, and
#: level 6 writes 12 % fewer in 2.6 times its time.
ENTRY_ZLIB_LEVEL = 3

#: dtype kinds an entry may hold: bool, integers, floats, unicode text.
_ENTRY_KINDS = "biufU"

_HEADER_LENGTH = struct.Struct("<Q")

#: Environment variable overriding the cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Environment variable disabling the disk tier ("" and "0" mean enabled).
CACHE_DISABLE_ENV = "REPRO_CACHE_DISABLE"

_STREAMS_SUBDIR = "predictor_streams"
_CHUNKS_SUBDIR = "stream_chunks"
_SWEEPS_SUBDIR = "sweep_results"
_FABRIC_SUBDIR = "fabric"

#: Store attempts retried on OSError before the write is given up.
STORE_RETRIES = 2

#: Base of the exponential backoff between store attempts (seconds).
STORE_RETRY_BACKOFF_SECONDS = 0.05


@dataclass(frozen=True)
class EntryFamily:
    """Crash-site label and counter names of one kind of store entry."""

    crash_site: str
    hits: str
    misses: str
    corrupt: str
    stores: str
    store_errors: str


STREAMS = EntryFamily("store_streams", "stream_cache.disk_hits", "stream_cache.disk_misses",
                      "stream_cache.disk_corrupt", "stream_cache.stores",
                      "stream_cache.store_errors")
CHUNKS = EntryFamily("store_chunk", "stream_cache.chunk_hits", "stream_cache.chunk_misses",
                     "stream_cache.chunk_corrupt", "stream_cache.chunk_stores",
                     "stream_cache.chunk_store_errors")
SWEEPS = EntryFamily("store_sweep", "sweep_cache.disk_hits", "sweep_cache.disk_misses",
                     "sweep_cache.disk_corrupt", "sweep_cache.stores", "sweep_cache.store_errors")


class _ContentKey:
    """The shared digest methods of the frozen dataclass keys below."""

    def describe(self) -> dict:
        """The key as a plain dict, including the program digest.

        Every field is a scalar, so a shallow dict is what
        ``dataclasses.asdict`` would build, without its deep copies.
        """
        payload = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        payload["program"] = program_digest()
        return payload

    def digest(self) -> str:
        """Stable content digest naming this key's cache entry."""
        return key_digest(self.describe())


@dataclass(frozen=True)
class StreamKey(_ContentKey):
    """Value-based identity of one predictor sweep."""

    benchmark: str
    length: int
    seed: int
    entries: int
    history_bits: int
    bhr_record_bits: int
    gcir_bits: int


@dataclass(frozen=True)
class ChunkStreamKey(_ContentKey):
    """Value-based identity of one cell of a predictor sweep: branches ``[start, stop)``.

    It holds no trace length and no chunk size.  The sweep is causal
    and a shorter trace is a prefix of a longer one, so the cell is the
    same for every request that covers it: ``sim.cache`` cuts every
    request on one fixed cell grid, whatever its chunk size.
    """

    benchmark: str
    seed: int
    entries: int
    history_bits: int
    bhr_record_bits: int
    gcir_bits: int
    start: int
    stop: int


@dataclass(frozen=True)
class SweepKey(StreamKey):
    """Value-based identity of one batched grid sweep over one benchmark.

    Extends :class:`StreamKey` with the content digest of the whole spec
    grid (:func:`repro.sim.batched.grid_digest`), so two grids that
    differ in any spec field — kind, index function, width, init
    patterns, level-2 wiring, or spec order — never alias, while repeat
    runs of the same figure hit without re-folding a single bucket.
    """

    grid: str = ""


def cache_enabled() -> bool:
    """True unless ``REPRO_CACHE_DISABLE`` switches the disk tier off."""
    return os.environ.get(CACHE_DISABLE_ENV, "") in ("", "0")


def cache_root() -> Path:
    """The cache directory (not created until something is stored)."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro-branch-confidence"


def publish(
    path: Path, write: Callable[[IO[bytes]], object], crash_site: Optional[str] = None
) -> Path:
    """Atomically publish the bytes ``write`` produces at ``path``.

    The bytes go to a temporary file in ``path``'s directory, which is
    renamed over ``path`` only once complete.  ``crash_site`` names the
    ``store_crash`` fault point between the two steps; a crash there
    leaves a stray ``.tmp`` file and never a half-written ``path``.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    descriptor, tmp_name = tempfile.mkstemp(
        prefix=path.stem + ".", suffix=".tmp", dir=str(path.parent)
    )
    try:
        with os.fdopen(descriptor, "wb") as handle:
            write(handle)
        if crash_site is not None:
            faults.crash_point(crash_site, path.name)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def key_digest(key: Dict[str, Any]) -> str:
    """SHA-256 of a JSON key's canonical form; names the entry's file."""
    return hashlib.sha256(json.dumps(key, sort_keys=True).encode("utf-8")).hexdigest()


@functools.lru_cache(maxsize=None)
def program_digest() -> str:
    """SHA-256 over numpy's ``version.py`` and every ``*.py`` file of ``repro``.

    Each file contributes its path relative to the package root and its
    bytes, in path order, so any edit to the code or to a workload
    definition (``workloads/ibs.py``) changes the digest.  numpy's
    ``version.py`` (its version string and git revision) is found
    without importing numpy, so a run that only replays report entries
    never loads it.  Computed once per process.
    """
    root = Path(__file__).resolve().parents[1]
    numpy_dir = importlib.util.find_spec("numpy").submodule_search_locations[0]
    numpy_version = (Path(numpy_dir) / "version.py").read_bytes()
    digest = hashlib.sha256(b"numpy %d:" % len(numpy_version))
    digest.update(numpy_version)
    for path in sorted(root.rglob("*.py"), key=lambda item: item.relative_to(root).as_posix()):
        relative = path.relative_to(root).as_posix().encode("utf-8")
        source = path.read_bytes()
        digest.update(b"%d:%s%d:" % (len(relative), relative, len(source)))
        digest.update(source)
    return digest.hexdigest()


def _checksum(arrays: Dict[str, np.ndarray], fields: Dict[str, Any]) -> str:
    """SHA-256 over the canonical JSON of ``fields`` and every named array.

    An entry with no arrays (a report) is checked without numpy.
    """
    digest = hashlib.sha256(json.dumps(fields, sort_keys=True).encode("utf-8"))
    if arrays:
        import numpy as np
    for name in sorted(arrays):
        array = np.ascontiguousarray(arrays[name])
        digest.update(f"|{name}|{array.dtype}|{array.shape}|".encode("utf-8"))
        digest.update(array.tobytes())
    return digest.hexdigest()


def _encode_entry(
    key: Dict[str, Any], arrays: Dict[str, np.ndarray], fields: Dict[str, Any]
) -> bytes:
    """The frame of one entry (layout in the module docstring)."""
    header = json.dumps(
        {"key": key, "fields": fields, "checksum": _checksum(arrays, fields),
         "arrays": [[name, value.dtype.str, list(value.shape)] for name, value in arrays.items()]},
        sort_keys=True,
    ).encode("utf-8")
    body = zlib.compress(b"".join(value.tobytes() for value in arrays.values()), ENTRY_ZLIB_LEVEL)
    return b"".join((ENTRY_MAGIC, _HEADER_LENGTH.pack(len(header)), header, body))


def _decode_entry(data: bytes) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
    """The header and arrays of one frame; ValueError if it is malformed.

    Checks the frame only; the key, checksum and decode checks are
    :func:`get`'s.  The arrays share one writable buffer; a frame that
    declares none is read without numpy.
    """
    if data[: len(ENTRY_MAGIC)] != ENTRY_MAGIC:
        raise ValueError("not a store entry")
    start = len(ENTRY_MAGIC) + _HEADER_LENGTH.size
    if len(data) < start:
        raise ValueError("store entry truncated in its header length")
    (length,) = _HEADER_LENGTH.unpack_from(data, len(ENTRY_MAGIC))
    if length > len(data) - start:
        raise ValueError("store entry header runs past the end of the file")
    header = json.loads(data[start : start + length].decode("utf-8"))
    if header["arrays"]:
        import numpy as np
    layout = []
    total = 0
    for name, dtype_str, shape in header["arrays"]:
        dtype = np.dtype(str(dtype_str))
        if dtype.kind not in _ENTRY_KINDS:
            raise ValueError(f"store entry array {name!r} has unsupported dtype {dtype_str!r}")
        if not all(type(extent) is int and extent >= 0 for extent in shape):
            raise ValueError(f"store entry array {name!r} has shape {shape!r}")
        count = math.prod(shape)
        layout.append((name, dtype, tuple(shape), count, total))
        total += count * dtype.itemsize
    decompressor = zlib.decompressobj()
    body = bytearray(decompressor.decompress(memoryview(data)[start + length :], total + 1))
    if len(body) != total or not decompressor.eof or decompressor.unused_data:
        raise ValueError("store entry body does not match its declared arrays")
    arrays = {
        name: np.frombuffer(body, dtype, count, offset).reshape(shape)
        for name, dtype, shape, count, offset in layout
    }
    return header, arrays


def read_entry(path: Path) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
    """The header (key, fields, checksum, layout) and arrays at ``path``.

    Runs the load fault hooks after the read.  Raises ``OSError`` if the
    file cannot be read and ``ValueError`` (or a JSON/zlib error) if it
    is no well-formed frame; verifying the key and checksum is
    :func:`get`'s job.
    """
    data = path.read_bytes()
    faults.inject_load_oserror(path.name)
    if faults.corrupt_entry(path):
        data = path.read_bytes()
    return _decode_entry(data)


def put(
    family: EntryFamily, path: Path, key: Dict[str, Any],
    arrays: Dict[str, np.ndarray], fields: Dict[str, Any],
) -> Optional[Path]:
    """Publish one entry at ``path``; returns the path, or None on failure.

    ``key`` and ``fields`` must be JSON-serializable and every array of a
    bool, integer, float or unicode dtype.  Each attempt runs the
    ``store_oserror`` fault hook and one :func:`publish`; an ``OSError``
    is retried :data:`STORE_RETRIES` times with exponential backoff,
    then counted as a store error and given up.
    """
    frame = _encode_entry(key, arrays, fields)

    def write(handle: IO[bytes]) -> None:
        handle.write(frame)

    for attempt in range(STORE_RETRIES + 1):
        if attempt:
            observability.increment("retries.attempted")
            # Retry pacing only; stored bytes are identical either way.
            delay = STORE_RETRY_BACKOFF_SECONDS * (2 ** (attempt - 1))
            time.sleep(delay)  # reprolint: disable=R001
        try:
            faults.inject_store_oserror(path.name)
            publish(path, write, family.crash_site)
        except OSError:
            continue
        observability.increment(family.stores)
        return path
    observability.increment(family.store_errors)
    return None


def get(
    family: EntryFamily, path: Path, key: Dict[str, Any],
    decode: Callable[[Dict[str, np.ndarray], Dict[str, Any]], T],
) -> Optional[T]:
    """Load, verify and decode the entry at ``path``; None on miss or damage.

    A missing file is a miss.  Otherwise the entry must be a well-formed
    frame carrying ``key`` and a checksum matching its fields and arrays,
    and ``decode(arrays, fields)`` must succeed.  Any failure (unreadable
    file, malformed frame, key or checksum mismatch, decode error)
    deletes the entry best-effort and counts a corrupt drop.
    """
    try:
        meta, arrays = read_entry(path)
        if meta["key"] != key:
            raise ValueError("store entry key mismatch")
        if meta["checksum"] != _checksum(arrays, meta["fields"]):
            raise ValueError("store entry checksum mismatch")
        value = decode(arrays, meta["fields"])
    except FileNotFoundError:
        observability.increment(family.misses)
        return None
    except Exception:
        observability.increment(family.corrupt)
        try:
            path.unlink()
        except OSError:
            pass
        return None
    observability.increment(family.hits)
    return value


def _narrow(values: np.ndarray) -> np.ndarray:
    """Non-negative integers at the smallest unsigned dtype holding them.

    Arrays with a negative value keep their dtype; :func:`_widen` takes
    any integer dtype back.
    """
    import numpy as np

    if values.size and int(values.min()) < 0:
        return values
    top = int(values.max()) if values.size else 0
    return values.astype(np.min_scalar_type(top), copy=False)


def _widen(values: np.ndarray) -> np.ndarray:
    """A stored integer array back at int64; any other dtype is damage."""
    if values.ndim != 1 or values.dtype.kind not in "ui":
        raise ValueError(f"store entry array has dtype {values.dtype}, shape {values.shape}")
    return values.astype("int64")


def _same_lengths(arrays: Dict[str, np.ndarray]) -> None:
    """Raise unless every array is one-dimensional with one common length."""
    if len({array.shape for array in arrays.values()}) != 1 or any(
        array.ndim != 1 for array in arrays.values()
    ):
        raise ValueError("store entry arrays differ in length")


def stream_cache_dir() -> Path:
    """Directory holding the predictor-stream entries."""
    return cache_root() / _STREAMS_SUBDIR


def entry_path(key: StreamKey) -> Path:
    """Cache file path for ``key``."""
    name = f"{key.benchmark}-L{key.length}-s{key.seed}-{key.digest()[:16]}{ENTRY_SUFFIX}"
    return stream_cache_dir() / name


def store_cached_streams(key: StreamKey, streams: PredictorStreams) -> Optional[Path]:
    """Persist ``streams`` under ``key``; returns the path, or None when disabled.

    The write is atomic and retried on ``OSError``; persistent failures
    are swallowed after counting, since the cache is an optimization and
    never a correctness requirement.
    """
    if not cache_enabled():
        return None
    arrays = {"correct": streams.correct, "bhrs": _narrow(streams.bhrs),
              "pcs": _narrow(streams.pcs)}
    fields = {"trace_name": streams.trace_name}
    return put(STREAMS, entry_path(key), key.describe(), arrays, fields)


def load_cached_streams(key: StreamKey) -> Optional[PredictorStreams]:
    """Load the entry for ``key``, or None on miss/corruption/disable.

    A corrupt entry (unreadable file, key mismatch, checksum mismatch) is
    deleted best-effort and reported as a miss so the caller recomputes.
    """
    if not cache_enabled():
        return None
    from repro.sim.fast import PredictorStreams

    def decode(arrays: Dict[str, np.ndarray], fields: Dict[str, Any]) -> PredictorStreams:
        _same_lengths(arrays)
        return PredictorStreams(
            gcir_bits=key.gcir_bits, **fields, correct=arrays["correct"],
            bhrs=_widen(arrays["bhrs"]), pcs=_widen(arrays["pcs"]),
        )

    return get(STREAMS, entry_path(key), key.describe(), decode)


def chunk_cache_dir() -> Path:
    """Directory holding the stream-cell entries."""
    return cache_root() / _CHUNKS_SUBDIR


def chunk_entry_path(key: ChunkStreamKey) -> Path:
    """Cache file path for cell ``key``."""
    name = (
        f"{key.benchmark}-s{key.seed}-b{key.start}-{key.stop}"
        f"-{key.digest()[:16]}{ENTRY_SUFFIX}"
    )
    return chunk_cache_dir() / name


def store_cached_chunk(
    key: ChunkStreamKey, chunk: StreamChunk, state_after: GshareState
) -> Optional[Path]:
    """Persist one stream cell plus the predictor state after it.

    Storing the carried-out :class:`~repro.sim.chunked.GshareState` next
    to the streams is what makes the cell tier resumable: a later run
    that hits cells ``0..k`` can continue sweeping at ``k+1`` without
    replaying the prefix.  The write is synchronous and narrows the
    table into a new array, so the caller may go on advancing
    ``state_after`` once it returns.
    """
    if not cache_enabled():
        return None
    arrays = {"correct": chunk.correct, "bhrs": _narrow(chunk.bhrs),
              "pcs": _narrow(chunk.pcs), "gcirs": _narrow(chunk.gcirs),
              "table": _narrow(state_after.table)}
    fields = {"trace_name": chunk.trace_name, "start": int(chunk.start),
              "bhr": int(state_after.bhr), "gcir": int(state_after.gcir),
              "position": int(state_after.position)}
    return put(CHUNKS, chunk_entry_path(key), key.describe(), arrays, fields)


def load_cached_chunk(
    key: ChunkStreamKey, with_state: bool = True
) -> "Optional[tuple[StreamChunk, Optional[GshareState]]]":
    """Load cell ``key`` and the state after it, or None on miss.

    Mirrors :func:`load_cached_streams`: corrupt entries, and entries
    whose streams do not span ``[key.start, key.stop)``, are dropped
    best-effort and reported as misses.  With ``with_state`` False the
    carried table is verified but not widened, and the state is None.
    """
    if not cache_enabled():
        return None
    from repro.sim.chunked import GshareState, StreamChunk

    def decode(
        arrays: Dict[str, np.ndarray], fields: Dict[str, Any]
    ) -> "tuple[StreamChunk, Optional[GshareState]]":
        state = {name: fields.pop(name) for name in ("bhr", "gcir", "position")}
        table = arrays.pop("table")
        if table.shape != (key.entries,):
            raise ValueError("chunk cache entry table size mismatch")
        _same_lengths(arrays)
        streams = {name: _widen(arrays[name]) for name in ("bhrs", "pcs", "gcirs")}
        chunk = StreamChunk(**fields, correct=arrays["correct"], **streams)
        if (chunk.start, chunk.start + chunk.num_branches) != (key.start, key.stop):
            raise ValueError("chunk cache entry does not span its cell")
        if not with_state:
            return chunk, None
        return chunk, GshareState(table=_widen(table), **state)

    return get(CHUNKS, chunk_entry_path(key), key.describe(), decode)


def sweep_cache_dir() -> Path:
    """Directory holding the batched sweep-result entries."""
    return cache_root() / _SWEEPS_SUBDIR


def sweep_entry_path(key: SweepKey) -> Path:
    """Cache file path for sweep ``key``."""
    name = (
        f"{key.benchmark}-L{key.length}-s{key.seed}"
        f"-g{key.grid[:8]}-{key.digest()[:16]}{ENTRY_SUFFIX}"
    )
    return sweep_cache_dir() / name


def store_cached_sweep(
    key: SweepKey, statistics: "Sequence[BucketStatistics]"
) -> Optional[Path]:
    """Persist one benchmark's per-spec grid statistics under ``key``.

    The per-spec bucket arrays are packed into one (counts, mispredicts)
    pair plus a bucket-count vector, so ragged grids (mixed widths/table
    sizes) serialize without object arrays.  Only the nonzero buckets
    are stored: their positions in the packed arrays, their counts and
    their mispredicts.  Same atomicity/retry story as the stream tiers.
    """
    if not cache_enabled():
        return None
    import numpy as np

    empty = np.zeros(0, dtype=np.float64)
    counts = np.concatenate([s.counts for s in statistics]) if statistics else empty
    mispredicts = (
        np.concatenate([s.mispredicts for s in statistics]) if statistics else empty
    )
    index = np.flatnonzero((counts != 0) | (mispredicts != 0))
    arrays = {
        "index": _narrow(index),
        "counts": counts[index],
        "mispredicts": mispredicts[index],
        "buckets": np.array([s.num_buckets for s in statistics], dtype=np.int64),
    }
    return put(SWEEPS, sweep_entry_path(key), key.describe(), arrays, {})


def load_cached_sweep(key: SweepKey) -> "Optional[List[BucketStatistics]]":
    """Load the grid statistics for sweep ``key``, or None on miss.

    Mirrors :func:`load_cached_streams`: corrupt entries — including
    bucket positions outside the bucket-count vector — are dropped
    best-effort and reported as misses.
    """
    if not cache_enabled():
        return None
    import numpy as np

    from repro.analysis.buckets import BucketStatistics

    def decode(
        arrays: Dict[str, np.ndarray], fields: Dict[str, Any]
    ) -> "List[BucketStatistics]":
        index = _widen(arrays["index"])
        _same_lengths({name: arrays[name] for name in ("index", "counts", "mispredicts")})
        buckets = _widen(arrays["buckets"])
        if (buckets < 0).any():
            raise ValueError("sweep cache entry has a negative bucket count")
        bounds = np.cumsum(buckets).tolist()
        total = bounds[-1] if bounds else 0
        if index.size and (index[0] < 0 or index[-1] >= total or (np.diff(index) <= 0).any()):
            raise ValueError("sweep cache entry bucket positions out of range")
        counts = np.zeros(total, dtype=np.float64)
        mispredicts = np.zeros(total, dtype=np.float64)
        counts[index] = arrays["counts"]
        mispredicts[index] = arrays["mispredicts"]
        starts = [0] + bounds[:-1]
        return [
            BucketStatistics(counts[start:stop], mispredicts[start:stop])
            for start, stop in zip(starts, bounds)
        ]

    return get(SWEEPS, sweep_entry_path(key), key.describe(), decode)


def fabric_cache_dir() -> Path:
    """Directory holding one fabric directory per plan (leases, metrics, plan)."""
    return cache_root() / _FABRIC_SUBDIR


def _tier_directories() -> "Tuple[Tuple[str, Path], ...]":
    """The four cache tiers, in storage-layout order, with their names."""
    return (
        (_STREAMS_SUBDIR, stream_cache_dir()),
        (_CHUNKS_SUBDIR, chunk_cache_dir()),
        (_SWEEPS_SUBDIR, sweep_cache_dir()),
        (_FABRIC_SUBDIR, fabric_cache_dir()),
    )


@dataclass(frozen=True)
class TierStats:
    """Entry count and footprint of one cache tier."""

    name: str
    entries: int
    total_bytes: int
    #: Leftover ``.tmp`` files from crashed/interrupted writers and
    #: format-3 ``.npz`` entries in this tier; invisible to lookups but
    #: reclaimed by ``repro cache clear``.
    stale_tmp: int


@dataclass(frozen=True)
class DiskCacheStats:
    """Summary of the on-disk cache state, aggregate and per tier."""

    path: str
    enabled: bool
    entries: int
    total_bytes: int
    #: Leftover ``.tmp`` files from crashed/interrupted writers and
    #: format-3 ``.npz`` entries; invisible to lookups but reclaimed by
    #: ``repro cache clear``.
    stale_tmp: int = 0
    #: Per-tier breakdown (streams, chunks, sweep results, fabric), in
    #: layout order.
    tiers: "Tuple[TierStats, ...]" = ()

    def format(self) -> str:
        size_mib = self.total_bytes / (1024 * 1024)
        lines = [
            f"path:    {self.path}",
            f"enabled: {'yes' if self.enabled else 'no'}",
            f"entries: {self.entries}",
            f"size:    {size_mib:.2f} MiB",
            f"stale_tmp: {self.stale_tmp}",
        ]
        for tier in self.tiers:
            tier_mib = tier.total_bytes / (1024 * 1024)
            lines.append(
                f"tier {tier.name}: {tier.entries} entries, "
                f"{tier_mib:.2f} MiB, {tier.stale_tmp} stale_tmp"
            )
        return "\n".join(lines)


def _tier_files(directory: Path) -> List[Path]:
    """The published entries, stray temp files and legacy entries of one tier.

    The fabric tier holds one directory per plan; every file in it (a
    lease, a metrics snapshot, the plan manifest) is one of its entries.
    """
    if not directory.is_dir():
        return []
    if directory.name == _FABRIC_SUBDIR:
        return [item for item in directory.rglob("*") if item.is_file()]
    return [
        item for item in directory.iterdir()
        if item.suffix in (ENTRY_SUFFIX, ".tmp", _LEGACY_SUFFIX)
    ]


def _is_stale(item: Path) -> bool:
    """True for a stray temp file or a format-3 leftover."""
    return item.suffix in (".tmp", _LEGACY_SUFFIX)


def _scan_tier(name: str, directory: Path) -> TierStats:
    entries = total_bytes = stale_tmp = 0
    for item in _tier_files(directory):
        try:
            total_bytes += item.stat().st_size
        except OSError:
            continue
        stale = _is_stale(item)
        stale_tmp += stale
        entries += not stale
    return TierStats(name, entries, total_bytes, stale_tmp)


def disk_cache_stats() -> DiskCacheStats:
    """Entry count and footprint across all cache tiers (full + chunk + sweep + fabric).

    ``.tmp`` leftovers and format-3 ``.npz`` entries are counted
    separately as ``stale_tmp`` (and included in the total footprint), so ``repro cache stats`` reports exactly what ``clear``
    would reclaim.  The per-tier breakdown in ``tiers`` names each tier
    by its on-disk subdirectory.
    """
    tiers = tuple(
        _scan_tier(name, directory) for name, directory in _tier_directories()
    )
    return DiskCacheStats(
        path=str(cache_root()),
        enabled=cache_enabled(),
        entries=sum(tier.entries for tier in tiers),
        total_bytes=sum(tier.total_bytes for tier in tiers),
        stale_tmp=sum(tier.stale_tmp for tier in tiers),
        tiers=tiers,
    )


def clear_disk_cache_by_tier() -> "Dict[str, int]":
    """Delete every cache entry (and stray temp files), per-tier counts.

    Returns a mapping of tier name to the number of *entries* removed
    (temp and format-3 leftovers are reclaimed too but not counted as
    entries).  The emptied fabric directories go too.
    """
    removed: "Dict[str, int]" = {}
    for name, directory in _tier_directories():
        removed[name] = 0
        for item in _tier_files(directory):
            try:
                item.unlink()
            except OSError:
                continue
            removed[name] += not _is_stale(item)
    shutil.rmtree(fabric_cache_dir(), ignore_errors=True)
    return removed


def clear_disk_cache() -> int:
    """Delete every cache entry (and stray temp files); returns entries removed."""
    return sum(clear_disk_cache_by_tier().values())
