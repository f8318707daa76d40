"""Cross-benchmark combination (the paper's weighting rule).

"We arrive at composite data for the collection of benchmarks by
averaging.  We do this by weighting the results so that each benchmark,
in effect, executes the same number of conditional branches."

Concretely: each benchmark's bucket statistics are normalized to unit
total executions, then summed.  The combined statistics can be fed to the
curve/table builders exactly like single-benchmark ones.
"""

from __future__ import annotations

from typing import Mapping, Sequence, Union

import numpy as np

from repro.analysis.buckets import BucketStatistics

StatisticsCollection = Union[
    Mapping[str, BucketStatistics], Sequence[BucketStatistics]
]


def equal_weight_combine(collection: StatisticsCollection) -> BucketStatistics:
    """Combine per-benchmark statistics with equal dynamic-branch weight.

    Accepts a mapping (benchmark name -> statistics) or a plain sequence.
    Benchmarks with zero executions are skipped (they carry no weight).
    """
    if isinstance(collection, Mapping):
        items = list(collection.values())
    else:
        items = list(collection)
    if not items:
        raise ValueError("cannot combine an empty statistics collection")
    sizes = {stats.num_buckets for stats in items}
    if len(sizes) != 1:
        raise ValueError(f"statistics have differing bucket counts: {sorted(sizes)}")
    # The same arithmetic as summing ``stats.normalized()`` one by one,
    # accumulated as arrays so only the result is built and validated.
    counts = np.zeros(items[0].num_buckets, dtype=np.float64)
    mispredicts = np.zeros(items[0].num_buckets, dtype=np.float64)
    for stats in items:
        total = stats.total
        if total == 0:
            continue
        factor = 1.0 / total
        counts = counts + stats.counts * factor
        mispredicts = mispredicts + stats.mispredicts * factor
    return BucketStatistics(counts, mispredicts)


def concat_normalized(collection: StatisticsCollection) -> BucketStatistics:
    """Concatenate per-benchmark statistics into one disjoint bucket space,
    each benchmark normalized to unit executions.

    Used when buckets are *per-benchmark identities* rather than shared
    values — e.g. static branches: the paper "combines the branches for
    all the benchmarks and normalizes them so that each benchmark
    effectively contributes the same number of dynamic branches", then
    sorts the whole population.  Bucket ids are offset per benchmark;
    the resulting statistics are only meaningful through empirical
    (sorted) curve construction.
    """
    if isinstance(collection, Mapping):
        items = list(collection.values())
    else:
        items = list(collection)
    if not items:
        raise ValueError("cannot combine an empty statistics collection")
    counts = []
    mispredicts = []
    for stats in items:
        normalized = stats.normalized()
        counts.append(normalized.counts)
        mispredicts.append(normalized.mispredicts)
    return BucketStatistics(np.concatenate(counts), np.concatenate(mispredicts))
