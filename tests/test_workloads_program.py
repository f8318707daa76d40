"""Unit tests for the synthetic program structure and its compiled generator."""

import ast
import dataclasses

import pytest

from repro.workloads.behaviors import (
    BiasedBehavior,
    BranchBehavior,
    CorrelatedBehavior,
    PatternBehavior,
    PhasedBehavior,
    TripSource,
)
from repro.workloads.ibs import benchmark_names, benchmark_program
from repro.workloads.program import (
    Block,
    Emit,
    If,
    Loop,
    Node,
    Site,
    SyntheticProgram,
    _Compiler,
)
from repro.workloads.spec_like import spec_benchmark_names
from repro.workloads.spec_like import _program as spec_program


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


class _PassThrough(BranchBehavior):
    """Delegates to ``inner``.  The compiler does not know this type, so it
    calls it through ``next_outcome`` with an ExecutionContext."""

    def __init__(self, inner):
        self.inner = inner

    def next_outcome(self, context, rng):
        return self.inner.next_outcome(context, rng)

    def reset(self):
        self.inner.reset()


def _through_next_outcome(node, wrappers):
    """``node`` with every behaviour wrapped once in a :class:`_PassThrough`."""

    def wrap(site):
        if site.behavior is None:
            return site
        key = id(site.behavior)
        if key not in wrappers:
            wrappers[key] = _PassThrough(site.behavior)
        return dataclasses.replace(site, behavior=wrappers[key])

    if type(node) is Emit:
        return Emit(wrap(node.site))
    if type(node) is Block:
        return Block([_through_next_outcome(child, wrappers) for child in node.children])
    if type(node) is If:
        return If(
            wrap(node.site),
            _through_next_outcome(node.then_body, wrappers),
            _through_next_outcome(node.else_body, wrappers),
        )
    return Loop(wrap(node.site), _through_next_outcome(node.body, wrappers), node.trips)


def _source(program):
    """The generated Python source of ``program``'s generator."""
    return _Compiler(program.sites).source(program._root)


def _benchmark(name):
    if name in spec_benchmark_names():
        return spec_program(name)
    return benchmark_program(name)


ALL_BENCHMARKS = benchmark_names() + spec_benchmark_names()


class TestInlinedBehaviours:
    """The inlined behaviours equal each behaviour's own ``next_outcome``."""

    @pytest.mark.parametrize("name", ALL_BENCHMARKS)
    def test_benchmark_equals_next_outcome_path(self, name):
        program = _benchmark(name)
        generic = SyntheticProgram(name, _through_next_outcome(program._root, {}))
        assert "next_outcome" in _source(generic)
        for seed in (0, 1306):
            for length in (1, 999, 16384):
                inlined = program.generate(length, seed)
                called = generic.generate(length, seed)
                assert inlined.pcs.tobytes() == called.pcs.tobytes()
                assert inlined.outcomes.tobytes() == called.outcomes.tobytes()

    def test_nested_program_equals_next_outcome_path(self):
        program = _nested_program()
        generic = SyntheticProgram("nested", _through_next_outcome(program._root, {}))
        for seed in (0, 5):
            assert list(program.generate(2000, seed)) == list(generic.generate(2000, seed))


class _Reads(BranchBehavior):
    """Always taken; records what it reads through the context."""

    def __init__(self, names):
        self.names = names
        self.seen = []

    def next_outcome(self, context, rng):
        self.seen.append(tuple(context.last_outcome(name) for name in self.names))
        return 1


class TestCompilerEdges:
    def test_generic_behaviour_reads_back_edge_and_unrun_site(self):
        reader = _Reads(["loop", "later", "missing"])
        loop = Loop(
            site("loop", 0x100, None, backward=True),
            body=Block([
                Emit(site("r", 0x104, reader)),
                Emit(site("c", 0x108, CorrelatedBehavior(["loop", "later"]))),
            ]),
            trips=TripSource.fixed(2),
        )
        program = SyntheticProgram(
            "p", Block([loop, Emit(site("later", 0x10C, PatternBehavior([1])))])
        )
        trace = program.generate(9)
        # Pass 1: loop, r, c, loop, r, c, loop exit, later; pass 2 stops
        # after its first iteration's body, then cuts to 9.
        assert reader.seen == [(1, 0, 0), (1, 0, 0), (1, 1, 0)]
        assert trace.outcomes.tolist() == [1, 1, 1, 1, 1, 1, 0, 1, 1]

    @pytest.mark.parametrize(
        "shared, expected",
        [
            (PatternBehavior([1, 0, 0]), [1, 0, 0, 1, 0, 0]),
            (PhasedBehavior(2, 1.0, 0.0), [1, 1, 0, 0, 1, 1]),
        ],
    )
    def test_behaviour_shared_by_two_sites_shares_state(self, shared, expected):
        program = SyntheticProgram("p", Block([
            Emit(site("a", 0x100, shared)),
            Emit(site("b", 0x104, shared)),
        ]))
        assert program.generate(6).outcomes.tolist() == expected
        wrappers = {}
        generic = SyntheticProgram("p", _through_next_outcome(program._root, wrappers))
        assert len(wrappers) == 1
        assert generic.generate(6).outcomes.tolist() == expected

    @pytest.mark.parametrize("base", [Node, Emit])
    def test_unknown_node_type_rejected_in_one_line(self, base):
        leaf = site("a", 0x100, BiasedBehavior(0.5))

        class Custom(base):
            def __init__(self):
                self.site = leaf

            def sites(self):
                return [leaf]

        program = SyntheticProgram("p", Block([Custom()]))
        with pytest.raises(TypeError, match="^cannot compile a Custom node") as info:
            program.generate(1)
        assert "\n" not in str(info.value)

    def test_loops_nested_past_the_block_limit_rejected(self):
        node = Emit(site("leaf", 0x100, BiasedBehavior(0.5)))
        for depth in range(25):
            node = Loop(
                site(f"l{depth}", 0x104 + 4 * depth, None, backward=True),
                body=node,
                trips=TripSource.fixed(1),
            )
        with pytest.raises(ValueError, match="'deep' does not compile"):
            SyntheticProgram("deep", node).generate(1)

    @pytest.mark.parametrize("name", ALL_BENCHMARKS + ["nested"])
    def test_generated_source_is_python_3_9(self, name):
        program = _nested_program() if name == "nested" else _benchmark(name)
        for candidate in (program, SyntheticProgram(
            name, _through_next_outcome(program._root, {})
        )):
            ast.parse(_source(candidate), feature_version=(3, 9))
