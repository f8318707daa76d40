"""R004 negative fixture: derived masks, explicit dtypes, in-range literals."""

import numpy as np


def fold_history(values, history_bits):
    mask = (1 << history_bits) - 1
    table = np.zeros(1 << history_bits, dtype=np.int64)
    folded = (values * 2 + 1) & mask
    return folded, table


def batched_patterns(entries, ranks, width):
    # Batched-kernel shape: width-derived mask, explicit int64 lanes.
    mask = (1 << width) - 1
    table = np.empty(entries.shape[0], dtype=np.int64)
    history = np.zeros(ranks.shape[0], dtype=np.int64)
    masked = (entries << ranks) & mask
    return masked, table, history


def pattern_table(cir_bits):
    patterns = np.arange(1 << cir_bits, dtype=np.int64)
    return patterns, np.uint8(255)
