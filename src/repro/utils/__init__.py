"""Low-level utilities shared across the library.

Submodules
----------
bits
    Bit manipulation helpers (masks, popcount, xor folding) used by the
    predictors and confidence tables.
rng
    Deterministic random-stream helpers so every stochastic component of the
    workload substrate is reproducible from an explicit seed.
runlength
    Run-length encoding helpers used by trace statistics.
validation
    Argument-checking helpers that raise uniform, descriptive errors.
"""

from repro._exports import lazy_exports

#: Where each public name lives (:mod:`repro._exports`).
_EXPORTS = {
    **dict.fromkeys(
        ("bit_mask", "extract_bits", "is_power_of_two", "log2_exact", "lowest_set_bit",
         "popcount", "reverse_bits", "xor_fold"),
        "repro.utils.bits",
    ),
    **dict.fromkeys(("derive_seed", "make_rng", "split_rng"), "repro.utils.rng"),
    **dict.fromkeys(("run_lengths", "runs"), "repro.utils.runlength"),
    **dict.fromkeys(
        ("check_in_range", "check_non_negative", "check_positive", "check_power_of_two",
         "check_probability"),
        "repro.utils.validation",
    ),
}

__getattr__ = lazy_exports(__name__, _EXPORTS)

__all__ = list(_EXPORTS)
