"""Oracle tests: the stream timing models equal the object models exactly.

:func:`repro.pipeline.timing.frontend_timing` and
:func:`repro.pipeline.timing.smt_timing` replay the recurrences of
:class:`~repro.pipeline.SpeculativeFrontend` and
:func:`~repro.pipeline.simulate_smt` over precomputed correctness and
low-confidence streams.  For random traces, frontend geometries and
low-confidence sets, every report field must be bit-for-bit equal to
the object model driven by a live gshare predictor and confidence table.
The experiment itself is checked the same way on a cold cache, and its
stored result must replay bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import observability
from repro.core.counters import ResettingCounterConfidence
from repro.core.indexing import make_index
from repro.core.threshold import ThresholdConfidence
from repro.experiments import extension_pipeline
from repro.experiments.config import ExperimentConfig
from repro.pipeline import (
    DualPathPolicy,
    FrontendConfig,
    SMTConfig,
    SpeculativeFrontend,
    simulate_smt,
)
from repro.pipeline.timing import frontend_timing, smt_timing
from repro.predictors import GsharePredictor
from repro.sim.fast import predictor_streams, resetting_counter_stream
from repro.traces import Trace
from repro.workloads import load_benchmark

#: Small tables, so random traces alias and mispredict often.
ENTRIES = 16
HISTORY_BITS = 4
CT_BITS = 4
MAXIMUM = 16


def traces(max_sites=12, max_len=150, min_len=1):
    """Traces over a few aligned PCs with arbitrary outcomes."""
    return st.lists(
        st.tuples(st.integers(0, max_sites - 1), st.integers(0, 1)),
        min_size=min_len,
        max_size=max_len,
    ).map(
        lambda rows: Trace(
            np.asarray([4 * r[0] for r in rows], dtype=np.uint64),
            np.asarray([r[1] for r in rows], dtype=np.uint8),
            name="hyp",
        )
    )


frontend_configs = st.builds(
    FrontendConfig,
    fetch_width=st.integers(1, 8),
    resolve_latency=st.integers(1, 20),
    redirect_penalty=st.integers(0, 4),
    min_block=st.integers(1, 4),
    block_spread=st.integers(1, 8),
    alternate_width=st.sampled_from([0.0, 0.5, 1.5, 2.0, 3.25]),
    fork_primary_loss=st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.9]),
)

low_sets = st.frozensets(st.integers(0, MAXIMUM), max_size=MAXIMUM + 1)


def gshare():
    return GsharePredictor(entries=ENTRIES, history_bits=HISTORY_BITS)


def confidence(low_values):
    estimator = ResettingCounterConfidence(
        make_index("pc_xor_bhr", CT_BITS), maximum=MAXIMUM
    )
    return ThresholdConfidence(estimator, low_values)


def streams_of(trace, low_values):
    """(pcs, correct, low) of ``trace`` under the tables above."""
    streams = predictor_streams(
        trace,
        entries=ENTRIES,
        history_bits=HISTORY_BITS,
        bhr_record_bits=max(HISTORY_BITS, CT_BITS),
        gcir_bits=CT_BITS,
    )
    indices = make_index("pc_xor_bhr", CT_BITS).vectorized(
        streams.pcs, streams.bhrs, 0
    )
    counters = resetting_counter_stream(indices, streams.correct, maximum=MAXIMUM)
    return streams.pcs, streams.correct, np.isin(counters, list(low_values))


class TestFrontendTiming:
    @settings(max_examples=60, deadline=None)
    @given(traces(), frontend_configs, low_sets)
    def test_equals_object_model(self, trace, config, low_values):
        pcs, correct, low = streams_of(trace, low_values)
        baseline = SpeculativeFrontend(gshare(), config).run(trace)
        assert frontend_timing(config, pcs, correct) == baseline
        forked = SpeculativeFrontend(
            gshare(), config, dual_path=DualPathPolicy(confidence(low_values))
        ).run(trace)
        assert frontend_timing(config, pcs, correct, low) == forked

    def test_forks_and_covers_when_everything_is_low(self):
        outcomes = np.random.default_rng(7).integers(0, 2, size=200)
        trace = Trace(
            np.full(200, 0x100, dtype=np.uint64),
            outcomes.astype(np.uint8),
            name="coin",
        )
        config = FrontendConfig(redirect_penalty=0)
        low_values = frozenset(range(MAXIMUM + 1))
        pcs, correct, low = streams_of(trace, low_values)
        report = frontend_timing(config, pcs, correct, low)
        assert report.forks > 0 and report.covered_mispredictions > 0
        assert report == SpeculativeFrontend(
            gshare(), config, dual_path=DualPathPolicy(confidence(low_values))
        ).run(trace)

    def test_empty_stream(self):
        empty = np.zeros(0, dtype=np.int64)
        report = frontend_timing(FrontendConfig(), empty, empty, empty)
        assert report.cycles == 0.0 and report.branches == 0


def smt_oracle(trace_list, low_values, config, gated):
    return simulate_smt(
        trace_list,
        [gshare() for _ in trace_list],
        [confidence(low_values) for _ in trace_list],
        config=SMTConfig(frontend=config, gate_on_low_confidence=gated),
    )


class TestSMTTiming:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(traces(max_len=80, min_len=0), min_size=1, max_size=4),
        frontend_configs,
        low_sets,
        st.booleans(),
    )
    def test_equals_object_model(self, trace_list, config, low_values, gated):
        threads = [streams_of(trace, low_values) for trace in trace_list]
        expected = smt_oracle(trace_list, low_values, config, gated)
        assert smt_timing(config, threads, gated) == expected

    @pytest.mark.parametrize("gated", [False, True])
    def test_equal_ready_times_break_toward_the_first_thread(self, gated):
        # Identical threads tie on ready_at at every grant of a round,
        # and an empty thread sits among them.
        outcomes = np.asarray([1, 1, 0, 1, 0, 0, 1, 1] * 6, dtype=np.uint8)
        same = Trace(np.full(outcomes.size, 0x40, dtype=np.uint64), outcomes, "t")
        empty = Trace(np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.uint8), "e")
        trace_list = [same, empty, same, same]
        low_values = frozenset({0, 1})
        config = FrontendConfig()
        threads = [streams_of(trace, low_values) for trace in trace_list]
        report = smt_timing(config, threads, gated)
        assert report == smt_oracle(trace_list, low_values, config, gated)
        assert report.per_thread_cycles[1] == 0.0
        cycles = report.per_thread_cycles
        assert len({cycles[0], cycles[2], cycles[3]}) == 3

    def test_needs_a_thread(self):
        with pytest.raises(ValueError, match="at least one"):
            smt_timing(FrontendConfig(), [], gated=False)


def object_model_pipeline(config, trace_length):
    """``extension_pipeline.run`` recomputed on the object models."""
    frontend_config = FrontendConfig()

    def threshold(index_bits, low_values):
        return ThresholdConfidence(
            ResettingCounterConfidence.paper_variant(index_bits=index_bits),
            low_values,
        )

    dual_path_ipc = {}
    trace_list = []
    for name in config.benchmarks:
        trace = load_benchmark(name, trace_length, config.seed)
        trace_list.append(trace)
        reports = [
            SpeculativeFrontend(
                GsharePredictor(
                    entries=config.predictor_entries,
                    history_bits=config.predictor_history_bits,
                ),
                frontend_config,
                dual_path=policy,
            ).run(trace)
            for policy in (
                None,
                DualPathPolicy(
                    threshold(
                        config.ct_index_bits,
                        extension_pipeline.LOW_COUNTER_VALUES,
                    )
                ),
            )
        ]
        dual_path_ipc[name] = (reports[0].ipc, reports[1].ipc)
    smt_traces = trace_list[: extension_pipeline.SMT_THREADS]
    smt = [
        simulate_smt(
            smt_traces,
            [GsharePredictor(entries=1 << 12, history_bits=12) for _ in smt_traces],
            [
                threshold(12, extension_pipeline.SMT_LOW_COUNTER_VALUES)
                for _ in smt_traces
            ],
            config=SMTConfig(frontend=frontend_config, gate_on_low_confidence=gated),
        )
        for gated in (False, True)
    ]
    return extension_pipeline.PipelineResult(
        dual_path_ipc=dual_path_ipc,
        smt_ungated_throughput=smt[0].throughput,
        smt_gated_throughput=smt[1].throughput,
        smt_ungated_waste=smt[0].waste_fraction,
        smt_gated_waste=smt[1].waste_fraction,
        headline_percent=config.headline_percent,
    )


@pytest.mark.parametrize(
    "config",
    [
        ExperimentConfig(benchmarks=("jpeg_play", "gcc"), seed=3),
        ExperimentConfig(
            benchmarks=("gcc", "nroff", "sdet", "verilog", "gs"),
            predictor_entries=1 << 10,
            predictor_history_bits=10,
            ct_index_bits=14,
        ),
    ],
    ids=["default-geometry", "five-benchmarks-small-gshare"],
)
def test_experiment_equals_object_model_recomputation(config, cache_dir):
    # A private cold cache: the first call simulates, so the oracle
    # compares the timing model, not an entry another test stored.
    length = 3000
    result = extension_pipeline.run(config, trace_length=length)
    assert observability.counter_value("pipeline_cache.stores") == 1
    expected = object_model_pipeline(config, length)
    assert result == expected
    assert result.format() == expected.format()

    # The second call is served by the stored entry, bit for bit.
    observability.reset_metrics()
    assert extension_pipeline.run(config, trace_length=length) == result
    assert observability.counter_value("pipeline_cache.disk_hits") == 1
    assert "pipeline.seconds" not in observability.snapshot()["timers"]
