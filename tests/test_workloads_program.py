"""Unit tests for the synthetic program structure and interpreter."""

import pytest

from repro.workloads.behaviors import (
    BiasedBehavior,
    BranchBehavior,
    CorrelatedBehavior,
    PatternBehavior,
    TripSource,
)
from repro.workloads.program import (
    Block,
    Emit,
    If,
    Loop,
    Site,
    SyntheticProgram,
)


def site(name, pc, behavior=None, backward=False):
    return Site(name=name, pc=pc, behavior=behavior, is_backward=backward)


class TestSite:
    def test_alignment_enforced(self):
        with pytest.raises(ValueError, match="aligned"):
            Site("x", 0x3, BiasedBehavior(0.5))

    @pytest.mark.parametrize("pc", [-4, 1 << 64, (1 << 65) + 4])
    def test_pc_outside_64_bits_rejected(self, pc):
        with pytest.raises(ValueError, match=r"outside \[0, 2\*\*64\)"):
            Site("x", pc, BiasedBehavior(0.5))

    def test_largest_pc_accepted(self):
        top = (1 << 64) - 4
        program = SyntheticProgram("p", Emit(Site("x", top, PatternBehavior([1]))))
        assert program.generate(3).pcs.tolist() == [top] * 3


class TestEmitAndBlock:
    def test_emit_generates_record(self):
        program = SyntheticProgram(
            "p", Block([Emit(site("a", 0x100, PatternBehavior([1, 0])))])
        )
        trace = program.generate(4)
        assert list(trace) == [(0x100, 1), (0x100, 0), (0x100, 1), (0x100, 0)]

    def test_block_sequences_children(self):
        program = SyntheticProgram(
            "p",
            Block([
                Emit(site("a", 0x100, PatternBehavior([1]))),
                Emit(site("b", 0x104, PatternBehavior([0]))),
            ]),
        )
        trace = program.generate(4)
        assert list(trace) == [(0x100, 1), (0x104, 0), (0x100, 1), (0x104, 0)]


class TestIf:
    def test_taken_runs_then_body(self):
        program = SyntheticProgram(
            "p",
            Block([
                If(
                    site("guard", 0x100, PatternBehavior([1, 0])),
                    then_body=Emit(site("t", 0x104, PatternBehavior([1]))),
                    else_body=Emit(site("e", 0x108, PatternBehavior([0]))),
                )
            ]),
        )
        trace = program.generate(4)
        assert list(trace) == [(0x100, 1), (0x104, 1), (0x100, 0), (0x108, 0)]


class TestLoop:
    def test_back_edge_taken_then_exits(self):
        loop = Loop(
            site("loop", 0x100, None, backward=True),
            body=Emit(site("body", 0x104, PatternBehavior([1]))),
            trips=TripSource.fixed(2),
        )
        program = SyntheticProgram("p", loop)
        trace = program.generate(5)
        assert list(trace) == [
            (0x100, 1), (0x104, 1), (0x100, 1), (0x104, 1), (0x100, 0),
        ]

    def test_backward_pcs_reported(self):
        loop = Loop(
            site("loop", 0x100, None, backward=True),
            body=Emit(site("body", 0x104, PatternBehavior([1]))),
            trips=TripSource.fixed(1),
        )
        program = SyntheticProgram("p", loop)
        assert program.backward_pcs == [0x100]


class TestSyntheticProgram:
    def test_exact_length(self):
        program = SyntheticProgram(
            "p", Block([Emit(site("a", 0x100, BiasedBehavior(0.5)))])
        )
        assert len(program.generate(1234)) == 1234

    def test_deterministic_given_seed(self):
        def build():
            return SyntheticProgram(
                "p", Block([Emit(site("a", 0x100, BiasedBehavior(0.5)))])
            )
        a = build().generate(500, seed=7)
        b = build().generate(500, seed=7)
        assert list(a) == list(b)

    def test_seed_changes_stream(self):
        program = SyntheticProgram(
            "p", Block([Emit(site("a", 0x100, BiasedBehavior(0.5)))])
        )
        a = program.generate(200, seed=1)
        b = program.generate(200, seed=2)
        assert list(a) != list(b)

    def test_generate_resets_behaviour_state(self):
        program = SyntheticProgram(
            "p", Block([Emit(site("a", 0x100, PatternBehavior([1, 0, 0])))])
        )
        first = list(program.generate(4))
        second = list(program.generate(4))
        assert first == second  # pattern phase restarts

    def test_duplicate_pcs_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            SyntheticProgram(
                "p",
                Block([
                    Emit(site("a", 0x100, BiasedBehavior(0.5))),
                    Emit(site("b", 0x100, BiasedBehavior(0.5))),
                ]),
            )

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SyntheticProgram(
                "p",
                Block([
                    Emit(site("a", 0x100, BiasedBehavior(0.5))),
                    Emit(site("a", 0x104, BiasedBehavior(0.5))),
                ]),
            ).generate(1)

    def test_empty_program_rejected(self):
        with pytest.raises(ValueError, match="no branch sites"):
            SyntheticProgram("p", Block([]))

    def test_site_without_behaviour_outside_loop_rejected(self):
        program = SyntheticProgram("p", Block([Emit(site("a", 0x100, None))]))
        with pytest.raises(ValueError, match="no behaviour"):
            program.generate(1)

    def test_invalid_length(self):
        program = SyntheticProgram(
            "p", Block([Emit(site("a", 0x100, BiasedBehavior(0.5)))])
        )
        with pytest.raises(ValueError):
            program.generate(0)


class _Constant(BranchBehavior):
    """Always returns ``value``, however bad."""

    def __init__(self, value):
        self.value = value

    def next_outcome(self, context, rng):
        return self.value


def _nested_program():
    """Loops whose bodies overshoot any length that lands inside them."""
    inner = Loop(
        site("inner", 0x200, None, backward=True),
        body=Block([
            Emit(site("a", 0x204, BiasedBehavior(0.3))),
            If(
                site("b", 0x208, BiasedBehavior(0.6)),
                then_body=Emit(site("c", 0x20C, CorrelatedBehavior(["a"], 0.1))),
                else_body=Emit(site("d", 0x210, PatternBehavior([1, 1, 0]))),
            ),
        ]),
        trips=TripSource.uniform(1, 7),
    )
    outer = Loop(
        site("outer", 0x100, None, backward=True),
        body=Block([inner, Emit(site("e", 0x104, BiasedBehavior(0.9)))]),
        trips=TripSource.geometric(3.0),
    )
    return SyntheticProgram("nested", Block([
        If(site("g", 0x300, BiasedBehavior(0.8)), then_body=outer),
        Emit(site("f", 0x304, BiasedBehavior(0.5))),
    ]))


class TestInterpreterEdges:
    """Length handling of the buffered interpreter."""

    @pytest.mark.parametrize("length", [1, 2, 3, 5, 7, 1000])
    def test_loop_free_root_gives_exact_length(self, length):
        program = SyntheticProgram("p", Block([
            Emit(site("a", 0x100, PatternBehavior([1, 0]))),
            Emit(site("b", 0x104, BiasedBehavior(0.5))),
            Emit(site("c", 0x108, PatternBehavior([0]))),
        ]))
        trace = program.generate(length)
        assert len(trace) == length
        assert trace.pcs.tolist() == [0x100, 0x104, 0x108] * (length // 3) + [
            0x100, 0x104
        ][: length % 3]

    @pytest.mark.parametrize("seed", [0, 5])
    def test_prefix_of_longer_run(self, seed):
        program = _nested_program()
        longest = program.generate(3000, seed)
        for length in (1, 2, 3, 17, 64, 499, 2999):
            trace = program.generate(length, seed)
            assert len(trace) == length
            assert trace.pcs.tolist() == longest.pcs[:length].tolist()
            assert trace.outcomes.tolist() == longest.outcomes[:length].tolist()

    def test_behaviourless_site_in_if_rejected(self):
        program = SyntheticProgram("p", If(site("g", 0x100, None)))
        with pytest.raises(ValueError, match="'g' has no behaviour"):
            program.generate(5)

    @pytest.mark.parametrize("value", [2, -1, 300, None, "1"])
    def test_bad_outcome_in_kept_prefix_rejected(self, value):
        program = SyntheticProgram("p", Block([
            Emit(site("a", 0x100, PatternBehavior([1]))),
            Emit(site("bad", 0x104, _Constant(value))),
        ]))
        with pytest.raises(ValueError, match=f"got {value!r}"):
            program.generate(2)
