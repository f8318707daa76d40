"""Synthetic program structure and interpreter.

A :class:`SyntheticProgram` is a tree of control-flow nodes over a set of
branch :class:`Site` objects.  Running it interprets the tree repeatedly,
emitting one ``(pc, outcome)`` record per dynamic conditional branch until
the requested trace length is reached.

Nodes
-----
``Emit(site)``
    Execute ``site`` once: draw its outcome from its behaviour and emit it.
``If(site, then_body, else_body)``
    Execute ``site``; on taken run ``then_body``, otherwise ``else_body``.
    Conditional structure makes *which* branches execute depend on earlier
    outcomes, giving the global history register real path information.
``Loop(site, body, trips)``
    ``site`` is the loop back-edge: for a trip count drawn from ``trips``
    the branch is taken (executing ``body`` each time) and finally
    not-taken once.
``Block(children)``
    Sequential composition.

The interpreter bounds recursion by program construction (trees are
shallow).  It appends branches to plain buffers and checks the length
only once per loop iteration and once per pass over the root, so a run
may overshoot the requested length by part of a loop body; the trace is
the exact prefix.  That prefix is the same as if generation had stopped
at the requested length: branch *i* depends only on the draws made
before it, and every run starts from reset behaviours and a fresh
generator.  Draws come from :class:`repro.utils.rng.PrefetchedDraws`, an
exact stand-in for that generator.
"""

from __future__ import annotations

import abc
import operator
from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import observability
from repro.traces.trace import NOT_TAKEN, TAKEN, Trace
from repro.utils.rng import PrefetchedDraws, make_rng
from repro.utils.validation import check_positive
from repro.workloads.behaviors import (
    BranchBehavior,
    ExecutionContext,
    TripSource,
)


@dataclass(frozen=True)
class Site:
    """A static conditional branch site.

    ``pc`` is the branch's instruction address (4-byte aligned), ``name``
    identifies the site for correlation sources, and ``behavior`` produces
    its outcomes.  Loop back-edge sites are marked ``is_backward`` so the
    BTFNT static predictor can classify them.
    """

    name: str
    pc: int
    behavior: Optional[BranchBehavior]
    is_backward: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.pc < 1 << 64:
            raise ValueError(
                f"site {self.name!r}: pc {self.pc:#x} is outside [0, 2**64)"
            )
        if self.pc % 4 != 0:
            raise ValueError(f"site {self.name!r}: pc {self.pc:#x} not 4-byte aligned")


class _StopGeneration(Exception):
    """Raised internally once the requested trace length is reached."""


def _no_behaviour(site: Site) -> ValueError:
    return ValueError(f"site {site.name!r} has no behaviour and is not a loop")


class Node(abc.ABC):
    """A control-flow tree node."""

    @abc.abstractmethod
    def execute(self, machine: "_Machine") -> None:
        """Interpret this node once."""

    @abc.abstractmethod
    def sites(self) -> List[Site]:
        """All sites contained in this subtree (with duplicates removed)."""


def _collect_sites(own: Sequence[Site], bodies: Sequence["Node"]) -> List[Site]:
    seen: Dict[str, Site] = {}
    for site in own:
        seen[site.name] = site
    for body in bodies:
        for site in body.sites():
            if site.name in seen and seen[site.name] is not site:
                raise ValueError(f"duplicate site name {site.name!r} in program")
            seen[site.name] = site
    return list(seen.values())


@dataclass
class Emit(Node):
    """Execute one branch site."""

    site: Site

    def execute(self, machine: "_Machine") -> None:
        # _Machine.run_site, inlined: most dynamic branches come through here.
        site = self.site
        behavior = site.behavior
        if behavior is None:
            raise _no_behaviour(site)
        outcome = behavior.next_outcome(machine.context, machine.rng)
        machine.append_pc(site.pc)
        machine.append_outcome(outcome)
        machine.last_outcome[site.name] = outcome

    def sites(self) -> List[Site]:
        return [self.site]


@dataclass
class Block(Node):
    """Sequential composition of child nodes."""

    children: Sequence[Node]

    def execute(self, machine: "_Machine") -> None:
        for child in self.children:
            child.execute(machine)

    def sites(self) -> List[Site]:
        return _collect_sites([], list(self.children))


@dataclass
class If(Node):
    """A conditional guarding one or two bodies."""

    site: Site
    then_body: Node = field(default_factory=lambda: Block([]))
    else_body: Node = field(default_factory=lambda: Block([]))

    def execute(self, machine: "_Machine") -> None:
        outcome = machine.run_site(self.site)
        if outcome == TAKEN:
            self.then_body.execute(machine)
        else:
            self.else_body.execute(machine)

    def sites(self) -> List[Site]:
        return _collect_sites([self.site], [self.then_body, self.else_body])


@dataclass
class Loop(Node):
    """A counted loop with a back-edge branch site.

    The back-edge site needs no behaviour of its own: the loop drives it
    (taken for each iteration, not-taken on exit), so ``site.behavior``
    may be ``None``.
    """

    site: Site
    body: Node
    trips: TripSource

    def execute(self, machine: "_Machine") -> None:
        trip_count = self.trips.next_trips(machine.rng)
        for _ in range(trip_count):
            machine.emit(self.site, TAKEN)
            self.body.execute(machine)
            if len(machine.outcomes) >= machine.target_length:
                raise _StopGeneration
        machine.emit(self.site, NOT_TAKEN)

    def sites(self) -> List[Site]:
        return _collect_sites([self.site], [self.body])


class _Machine:
    """Interpreter state for one program run.

    Branches go to compact buffers, the pcs to an ``array("Q")`` and the
    outcomes to a list, and each outcome straight into the context's
    last-outcome dict.  Outcomes are checked only for the kept prefix,
    when the trace is built.
    """

    def __init__(self, target_length: int, rng: PrefetchedDraws) -> None:
        self.target_length = target_length
        self.rng = rng
        self.context = ExecutionContext()
        self.pcs = array("Q")
        self.outcomes: List[int] = []
        self.append_pc = self.pcs.append
        self.append_outcome = self.outcomes.append
        # The context's own dict: one store per branch, no method call.
        self.last_outcome = self.context._last_outcome

    def run_site(self, site: Site) -> int:
        behavior = site.behavior
        if behavior is None:
            raise _no_behaviour(site)
        outcome = behavior.next_outcome(self.context, self.rng)
        self.emit(site, outcome)
        return outcome

    def emit(self, site: Site, outcome: int) -> None:
        self.append_pc(site.pc)
        self.append_outcome(outcome)
        self.last_outcome[site.name] = outcome

    def build(self, name: str) -> Trace:
        """The first ``target_length`` branches as a :class:`Trace`."""
        length = self.target_length
        return Trace(
            np.frombuffer(self.pcs, dtype=np.uint64)[:length].copy(),
            np.frombuffer(_packed_outcomes(self.outcomes[:length]), dtype=np.uint8),
            name,
        )


def _is_outcome(value: object) -> bool:
    try:
        return operator.index(value) in (NOT_TAKEN, TAKEN)
    except TypeError:
        return False


def _packed_outcomes(outcomes: List[int]) -> bytearray:
    """``outcomes`` as one byte each; a ValueError names one not 0 or 1."""
    try:
        packed = bytearray(outcomes)
        valid = not packed.translate(None, b"\x00\x01")
    except (TypeError, ValueError):  # not an int, or not in range(256)
        valid = False
    if not valid:
        bad = next(value for value in outcomes if not _is_outcome(value))
        raise ValueError(f"outcome must be 0 or 1, got {bad!r}")
    return packed


class SyntheticProgram:
    """A named control-flow tree that generates branch traces.

    The top-level node is executed repeatedly (modelling the benchmark's
    outer driver loop) until the requested number of dynamic branches has
    been emitted.
    """

    def __init__(self, name: str, root: Node) -> None:
        self._name = name
        self._root = root
        self._sites = root.sites()
        if not self._sites:
            raise ValueError("program contains no branch sites")
        pcs = [site.pc for site in self._sites]
        if len(set(pcs)) != len(pcs):
            raise ValueError("branch sites must have distinct PCs")

    @property
    def name(self) -> str:
        return self._name

    @property
    def sites(self) -> List[Site]:
        return list(self._sites)

    @property
    def backward_pcs(self) -> List[int]:
        """PCs of loop back-edge sites (for the BTFNT static predictor)."""
        return [site.pc for site in self._sites if site.is_backward]

    def generate(self, length: int, seed: int = 0) -> Trace:
        """Generate a trace of exactly ``length`` dynamic branches."""
        check_positive(length, "length")
        with observability.timed("workloads.synthesize.seconds"):
            for site in self._sites:
                if site.behavior is not None:
                    site.behavior.reset()
            rng = PrefetchedDraws(make_rng("program", self._name, seed))
            machine = _Machine(length, rng)
            try:
                while len(machine.outcomes) < length:
                    self._root.execute(machine)
            except _StopGeneration:
                pass
            trace = machine.build(self._name)
        observability.increment("workloads.synthesize.calls")
        observability.increment("workloads.synthesize.branches", length)
        return trace
