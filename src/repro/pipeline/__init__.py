"""Speculative-frontend pipeline models.

The paper's applications presuppose a speculative processor: dual-path
execution trades *fetch bandwidth* for misprediction recovery, and SMT
fetch gating reallocates fetch slots between threads.  The analytic
models in :mod:`repro.apps` charge fixed per-event penalties; this
package provides timing models in which those costs *emerge* from fetch
bandwidth, branch-resolution latency, and squash semantics:

* :class:`~repro.pipeline.machine.SpeculativeFrontend` — a single-thread
  fetch/resolve timing model with wrong-path squash, optionally forking
  both paths on a low-confidence signal
  (:class:`~repro.pipeline.machine.DualPathPolicy`);
* :mod:`repro.pipeline.smt` — a multi-thread fetch arbiter where threads
  compete for one fetch port, with optional confidence gating;
* :mod:`repro.pipeline.timing` — the same two recurrences over
  precomputed correctness and low-confidence streams
  (:func:`~repro.pipeline.timing.frontend_timing`,
  :func:`~repro.pipeline.timing.smt_timing`).  Timing never feeds back
  into prediction or confidence, so experiments drive these from the
  cached predictor streams; the object models above stay as the oracle
  they are tested against, field for field.

The models are deliberately frontend-centric (the paper's costs are all
fetch-side); backend execution is abstracted as retirement of correctly
fetched instructions.
"""

from repro.pipeline.machine import (
    DualPathPolicy,
    FrontendConfig,
    FrontendReport,
    SpeculativeFrontend,
)
from repro.pipeline.smt import SMTConfig, SMTReport, simulate_smt
from repro.pipeline.timing import frontend_timing, smt_timing

__all__ = [
    "FrontendConfig",
    "FrontendReport",
    "DualPathPolicy",
    "SpeculativeFrontend",
    "SMTConfig",
    "SMTReport",
    "simulate_smt",
    "frontend_timing",
    "smt_timing",
]
