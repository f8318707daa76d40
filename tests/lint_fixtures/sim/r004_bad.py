"""R004 positive fixture: hard-coded masks, dtype-less allocations and
aranges, and an out-of-range fixed-width literal."""

import numpy as np


def fold_history(values, history_bits):
    table = np.zeros(1 << history_bits)  # float64 by default
    folded = (values * 2 + 1) & 4095  # 12-bit literal vs history_bits
    return folded, table


def batched_patterns(entries, ranks, width):
    # Batched-kernel shape: the stacked table and history lanes must not
    # hard-code a width mask or fall back to float64 accumulators.
    table = np.empty(entries.shape[0])  # dtype-less stacked table
    history = np.zeros(ranks.shape[0])  # dtype-less history lanes
    masked = (entries << ranks) & 65535  # literal vs per-config width
    return masked, table, history


def pattern_table(cir_bits):
    patterns = np.arange(1 << cir_bits)  # platform-default np.int_
    return patterns, np.uint8(511)  # wraps: uint8 tops out at 255
