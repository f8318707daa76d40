"""Bounded memory: a 10x trace streams through the chunked pipeline in O(chunk).

A synthetic trace 10x the paper's full per-benchmark length (1.6M
branches) goes through :func:`repro.sim.chunked.sweep_stream_chunks`
with a *streaming* chunk source: each chunk is generated on demand and
dropped after it is observed, so the full trace is never materialized.
Every chunk feeds a :class:`~repro.sim.batched.GridObserver`, the
observer behind every statistic the figure runners compute.

Peak RSS growth over the warmed-up baseline (interpreter, numpy,
predictor tables and the first chunk, sampled after chunk 0) must stay
within twice the chunk working-set budget.  A monolithic run of the same
trace would allocate ~25 bytes/branch of stream state (40 MiB here)
before the analysis stage even starts.

``ru_maxrss`` is a process-lifetime high-water mark, so the check runs
in a fresh interpreter (this file as a script, through the
``run_fresh_python`` relay): inside the pytest process, or in a child
that inherits pytest's peak across exec, any earlier test's peak would
hide the growth.  Run it by hand with
``PYTHONPATH=src python tests/test_memory_bound.py``.
"""

from __future__ import annotations

import json
from typing import Dict, Iterator

import numpy as np

from repro import observability
from repro.core.indexing import make_index
from repro.sim.batched import GridObserver, SweepSpec
from repro.sim.chunked import sweep_stream_chunks
from repro.traces import Trace
from repro.workloads.ibs import DEFAULT_TRACE_LENGTH

#: 10x the full per-benchmark trace length used by the paper experiments.
TOTAL_BRANCHES = 10 * DEFAULT_TRACE_LENGTH

CHUNK_SIZE = 65_536

#: Bytes of per-chunk working set the pipeline is budgeted for.  Each
#: in-flight chunk holds the trace slice (pcs 8 + outcomes 1), the swept
#: streams (correct 1 + bhrs 8 + pcs 8 + gcirs 8), and transient scan
#: intermediates of the same order; 256 bytes/branch is a deliberately
#: round ceiling over that ~34 bytes/branch of live state.
CHUNK_BUDGET_BYTES = 256 * CHUNK_SIZE

#: Peak RSS growth beyond the post-first-chunk baseline must stay under
#: twice the chunk budget, or the pipeline is accumulating per-branch
#: state and the O(chunk) claim is broken.
RSS_GROWTH_LIMIT_BYTES = 2 * CHUNK_BUDGET_BYTES

def synthetic_chunks(
    total: int, chunk_size: int, seed: int = 0
) -> Iterator[Trace]:
    """Generate a long synthetic trace one chunk at a time.

    Branch sites and biases are drawn once (a few thousand static
    branches, like the IBS workloads); per-branch outcomes are drawn
    per chunk, so live memory is one chunk regardless of ``total``.
    """
    rng = np.random.default_rng(seed)
    num_sites = 4_096
    sites = rng.integers(0, 1 << 18, size=num_sites, dtype=np.uint64) << 2
    biases = rng.beta(0.6, 0.6, size=num_sites)
    for start in range(0, total, chunk_size):
        count = min(chunk_size, total - start)
        which = rng.integers(0, num_sites, size=count)
        outcomes = (rng.random(count) < biases[which]).astype(np.uint8)
        yield Trace(sites[which], outcomes, name="synthetic_10x")


def measure() -> Dict[str, int]:
    """Stream the 10x trace; report peak RSS and branches folded."""
    # The paper's default mechanism: PC-indexed 64K table of 16-bit CIRs.
    observer = GridObserver([SweepSpec.pattern(make_index("pc", 16), 16)])
    baseline_rss = 0
    chunks_done = 0
    stream = sweep_stream_chunks(
        synthetic_chunks(TOTAL_BRANCHES, CHUNK_SIZE),
        entries=1 << 16,
        history_bits=16,
    )
    for chunk in stream:
        observer.observe(chunk)
        chunks_done += 1
        if chunks_done == 1:
            # Interpreter, numpy, tables and one full chunk of working
            # set are all resident by now.
            baseline_rss = observability.peak_rss_bytes()
    (statistics,) = observer.statistics()
    return {
        "baseline_rss_bytes": baseline_rss,
        "peak_rss_bytes": observability.peak_rss_bytes(),
        "branches_folded": int(statistics.counts.sum()),
    }


def test_ten_x_trace_streams_in_bounded_memory(run_fresh_python):
    result = json.loads(run_fresh_python(__file__).stdout)
    assert result["branches_folded"] == TOTAL_BRANCHES
    growth = result["peak_rss_bytes"] - result["baseline_rss_bytes"]
    assert growth <= RSS_GROWTH_LIMIT_BYTES, (
        f"peak RSS grew {growth / 2**20:.1f} MiB over the post-first-chunk "
        f"baseline (limit {RSS_GROWTH_LIMIT_BYTES / 2**20:.1f} MiB)"
    )


if __name__ == "__main__":
    print(json.dumps(measure()))
