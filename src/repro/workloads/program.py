"""Synthetic program structure and its compiled generator.

A :class:`SyntheticProgram` is a tree of control-flow nodes over a set of
branch :class:`Site` objects.  Running it executes the tree repeatedly,
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

Nodes are plain data.  On its first ``generate`` call a program compiles
its tree into the source of one Python function and keeps the function:
a ``Block`` becomes a run of statements, an ``If`` an ``if``/``else`` and
a ``Loop`` a ``for`` over the drawn trip count.  Each site's latest
outcome is a local that reads 0 until the site runs, as
:meth:`ExecutionContext.last_outcome` does.  The six built-in behaviours
are inlined, with their state (pattern position, phase executions,
Markov state) in locals that start at the reset values; state belongs to
the behaviour object, so one object shared by two sites shares it.  Any
other :class:`BranchBehavior` is called through ``next_outcome``, and a
program that holds one keeps an :class:`ExecutionContext` current for
every site.  Behaviour parameters are read once, when the program
compiles.

Each branch appends one word, ``pc + outcome``, to an ``array("Q")``
(pcs are 4-byte aligned); a site of another behaviour appends its pc and
keeps its raw outcome aside, to be checked only if it lands in the trace.
The function checks the length only once per loop iteration and once per
pass over the root, so a run may overshoot the requested length by part
of a loop body; the trace is the exact prefix.  That prefix is the same
as if generation had stopped at the requested length: branch *i* depends
only on the draws made before it, and every run starts from reset
behaviours and a fresh generator.  Draws come from
:class:`repro.utils.rng.PrefetchedDraws`, an exact stand-in for that
generator.
"""

from __future__ import annotations

import abc
import itertools
import math
import operator
from array import array
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro import observability
from repro.traces.trace import Trace
from repro.utils.rng import PrefetchedDraws, make_rng
from repro.utils.validation import check_positive
from repro.workloads.behaviors import (
    BiasedBehavior,
    BranchBehavior,
    ContextDependentBehavior,
    CorrelatedBehavior,
    ExecutionContext,
    MarkovBehavior,
    PatternBehavior,
    PhasedBehavior,
    TripSource,
    is_outcome,
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


class Node(abc.ABC):
    """A control-flow tree node."""

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

    def sites(self) -> List[Site]:
        return [self.site]


@dataclass
class Block(Node):
    """Sequential composition of child nodes."""

    children: Sequence[Node]

    def sites(self) -> List[Site]:
        return _collect_sites([], list(self.children))


@dataclass
class If(Node):
    """A conditional guarding one or two bodies."""

    site: Site
    then_body: Node = field(default_factory=lambda: Block([]))
    else_body: Node = field(default_factory=lambda: Block([]))

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

    def sites(self) -> List[Site]:
        return _collect_sites([self.site], [self.body])


#: Behaviours whose ``next_outcome`` the compiler writes out inline.
_INLINED = (
    BiasedBehavior, PatternBehavior, CorrelatedBehavior,
    ContextDependentBehavior, PhasedBehavior, MarkovBehavior,
)

#: The compiled generator: ``(codes, raw, length, rng)``, filling ``codes``
#: with ``pc + outcome`` words and ``raw`` with the outcomes of sites whose
#: behaviour is not inlined, keyed by position.
_Generate = Callable[[array, Dict[int, Any], int, PrefetchedDraws], None]


class _Compiler:
    """Writes the source of one program's generator function.

    Generated names: ``s<i>`` the latest outcome of site *i* (kept only
    for sites some inlined behaviour reads), ``p``/``x``/``m<j>`` the state
    of behaviour *j*, ``c<k>`` a bound object, ``o`` and ``n`` scratch.
    """

    def __init__(self, sites: Sequence[Site]) -> None:
        behaviours = [site.behavior for site in sites if site.behavior is not None]
        #: True when some behaviour is called through ``next_outcome``.
        #: Every site then keeps its raw outcome and records it in an
        #: ExecutionContext, and the trace's outcomes come from ``raw``.
        self.generic = any(type(b) not in _INLINED for b in behaviours)
        read = {
            name
            for b in behaviours
            if isinstance(b, (CorrelatedBehavior, ContextDependentBehavior))
            for name in b._source_sites
        }
        self.slots = {
            site.name: f"s{index}" for index, site in enumerate(sites) if site.name in read
        }
        self.objects: List[Any] = []
        self.bound: Dict[int, str] = {}
        self.state: Dict[int, str] = {}
        self.inits: List[str] = []
        self.lines: List[str] = []

    def source(self, root: Node) -> str:
        self.node(root, 2)
        head = ["def generate(codes, raw, length, rng):"]
        if self.objects:
            head.append(f"    {', '.join(self.bound.values())}, = objects")
        head += ["    append = codes.append", "    random = rng.random"]
        if self.generic:
            head += ["    context = ExecutionContext()", "    record = context.record"]
        if self.slots:
            head.append(f"    {' = '.join(self.slots.values())} = 0")
        head += [f"    {line}" for line in self.inits]
        head.append("    while len(codes) < length:")
        return "\n".join(head + self.lines) + "\n"

    def emit(self, depth: int, line: str) -> None:
        self.lines.append("    " * depth + line)

    def literal(self, value: Any) -> str:
        """``value`` in the source: a literal, or a bound object's name."""
        if type(value) is int or (type(value) is float and math.isfinite(value)):
            return repr(value)
        if id(value) not in self.bound:
            self.bound[id(value)] = f"c{len(self.objects)}"
            self.objects.append(value)
        return self.bound[id(value)]

    def state_of(self, behavior: BranchBehavior, prefix: str, start: str) -> str:
        """The local holding ``behavior``'s state, set to ``start`` once."""
        if id(behavior) not in self.state:
            name = f"{prefix}{len(self.state)}"
            self.state[id(behavior)] = name
            self.inits.append(f"{name} = {start}")
        return self.state[id(behavior)]

    def parity(self, sources: Sequence[str]) -> str:
        terms = [self.slots.get(name, "0") for name in sources]
        if self.generic:
            # Outcomes of other behaviours may be of any type: start from
            # 0, as the behaviours' own parity loops do.
            terms.insert(0, "0")
        return " ^ ".join(terms)

    def store(self, depth: int, site: Site, value: str) -> None:
        """Keep ``site``'s latest outcome where later sites read it."""
        if site.name in self.slots and self.slots[site.name] != value:
            self.emit(depth, f"{self.slots[site.name]} = {value}")
        if self.generic:
            self.emit(depth, f"record({site.name!r}, {value})")

    def node(self, node: Node, depth: int) -> None:
        kind = type(node)
        if kind is Block:
            for child in node.children:
                self.node(child, depth)
        elif kind is Emit:
            self.site(node.site, None, depth)
        elif kind is If:
            self.site(node.site, (node.then_body, node.else_body), depth)
        elif kind is Loop:
            self.loop(node, depth)
        else:
            raise TypeError(
                f"cannot compile a {kind.__name__} node: programs are built "
                f"from Emit, If, Loop and Block"
            )

    def site(self, site: Site, bodies: Optional[Sequence[Node]], depth: int) -> None:
        """One branch of ``site``, then (for an If) the body its outcome picks."""
        behavior = site.behavior
        if behavior is None:
            raise ValueError(f"site {site.name!r} has no behaviour and is not a loop")
        pc = operator.index(site.pc)
        slot = self.slots.get(site.name)
        chance = self.chance(behavior)
        if chance is not None and not self.generic:
            # The outcome is TAKEN exactly when ``random() < chance``.
            if bodies is not None:
                self.emit(depth, f"if random() < {chance}:")
                self.arm(site, pc + 1, bodies[0], depth + 1)
                self.emit(depth, "else:")
                self.arm(site, pc, bodies[1], depth + 1)
                return
            if slot is None:
                self.emit(depth, f"append({pc + 1} if random() < {chance} else {pc})")
                return
        if chance is not None:
            value = f"1 if random() < {chance} else 0"
        else:
            value = self.value(behavior, depth)
        if slot is None and bodies is None and not self.generic:
            self.emit(depth, f"append({pc} + ({value}))")
            return
        name = slot or "o"
        if value != name:
            self.emit(depth, f"{name} = {value}")
        if self.generic:
            self.emit(depth, f"raw[len(codes)] = {name}")
            self.emit(depth, f"append({pc})")
        else:
            self.emit(depth, f"append({pc} + {name})")
        self.store(depth, site, name)
        if bodies is not None:
            self.emit(depth, f"if {name} == 1:")
            self.body(bodies[0], depth + 1)
            self.emit(depth, "else:")
            self.body(bodies[1], depth + 1)

    def arm(self, site: Site, code: int, body: Node, depth: int) -> None:
        """One outcome of an If's ``site``: its word ``code``, then ``body``."""
        self.emit(depth, f"append({code})")
        self.store(depth, site, str(code & 3))
        self.node(body, depth)

    def chance(self, behavior: BranchBehavior) -> Optional[str]:
        """The taken probability of a behaviour that draws once per branch."""
        if type(behavior) is BiasedBehavior:
            return self.literal(behavior._p_taken)
        if type(behavior) is ContextDependentBehavior:
            easy = self.literal(behavior._p_easy_noise)
            hard = self.literal(behavior._p_hard)
            return f"({easy} if {self.parity(behavior._source_sites)} == 0 else {hard})"
        if type(behavior) is PhasedBehavior:
            executions = self.state_of(behavior, "x", "count().__next__")
            length = self.literal(behavior._phase_length)
            first, second = self.literal(behavior._p_a), self.literal(behavior._p_b)
            return f"({first} if {executions}() // {length} % 2 == 0 else {second})"
        return None

    def value(self, behavior: BranchBehavior, depth: int) -> str:
        """An expression for ``behavior``'s next outcome."""
        if type(behavior) is PatternBehavior:
            start = f"cycle({self.literal(behavior._pattern)}).__next__"
            return f"{self.state_of(behavior, 'p', start)}()"
        if type(behavior) is CorrelatedBehavior:
            value = self.parity(behavior._source_sites)
            if behavior._invert:
                value += " ^ 1"
            if behavior._noise:
                value += f" ^ (random() < {self.literal(behavior._noise)})"
            return value
        if type(behavior) is MarkovBehavior:
            state = self.state_of(behavior, "m", self.literal(behavior._initial))
            stay_taken = self.literal(behavior._p_stay_taken)
            stay_not_taken = self.literal(behavior._p_stay_not_taken)
            self.emit(
                depth,
                f"{state} = (1 if random() < {stay_taken} else 0) if {state} == 1 "
                f"else (0 if random() < {stay_not_taken} else 1)",
            )
            return state
        self.emit(depth, f"o = {self.literal(behavior)}.next_outcome(context, rng)")
        self.emit(depth, "random = rng.random")  # a call may re-sync the draws
        return "o"

    def body(self, node: Node, depth: int) -> None:
        mark = len(self.lines)
        self.node(node, depth)
        if len(self.lines) == mark:
            self.emit(depth, "pass")

    def loop(self, node: Loop, depth: int) -> None:
        site, trips = node.site, node.trips
        pc = operator.index(site.pc)
        if type(trips) is TripSource and trips._kind == "fixed":
            count = self.literal(trips._low)
        else:
            if type(trips) is TripSource and trips._kind == "uniform":
                low, high = self.literal(trips._low), self.literal(trips._high + 1)
                self.emit(depth, f"n = rng.integers({low}, {high})")
            else:
                self.emit(depth, f"n = {self.literal(trips)}.next_trips(rng)")
            self.emit(depth, "random = rng.random")  # a call may re-sync the draws
            count = "n"
        self.emit(depth, f"for _ in range({count}):")
        self.emit(depth + 1, f"append({pc + 1})")
        self.store(depth + 1, site, "1")
        self.node(node.body, depth + 1)
        self.emit(depth + 1, "if len(codes) >= length:")
        self.emit(depth + 2, "return")
        self.emit(depth, f"append({pc})")
        self.store(depth, site, "0")


def _compile(name: str, root: Node, sites: Sequence[Site]) -> _Generate:
    compiler = _Compiler(sites)
    source = compiler.source(root)
    namespace: Dict[str, Any] = {
        "objects": tuple(compiler.objects),
        "ExecutionContext": ExecutionContext,
        "count": itertools.count,
        "cycle": itertools.cycle,
    }
    try:
        code = compile(source, f"<program {name}>", "exec")
    except SyntaxError as error:  # e.g. loops nested past Python's block limit
        raise ValueError(f"program {name!r} does not compile: {error.msg}") from None
    exec(code, namespace)
    return namespace["generate"]


def _packed_outcomes(outcomes: List[Any]) -> bytearray:
    """``outcomes`` as one byte each; a ValueError names one not 0 or 1."""
    try:
        packed = bytearray(outcomes)
        valid = not packed.translate(None, b"\x00\x01")
    except (TypeError, ValueError):  # not an int, or not in range(256)
        valid = False
    if not valid:
        bad = next(value for value in outcomes if not is_outcome(value))
        raise ValueError(f"outcome must be 0 or 1, got {bad!r}")
    return packed


def _build(codes: array, raw: Dict[int, Any], length: int, name: str) -> Trace:
    """The first ``length`` branches as a :class:`Trace`."""
    import numpy as np

    words = np.frombuffer(codes, dtype=np.uint64)[:length]
    outcomes = (words & 3).astype(np.uint8)
    pcs = words - outcomes
    kept = [position for position in raw if position < length]
    if kept:
        values = _packed_outcomes([raw[position] for position in kept])
        outcomes[kept] = np.frombuffer(values, dtype=np.uint8)
    return Trace(pcs, outcomes, name)


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
        self._generator: Optional[_Generate] = None

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
            if self._generator is None:
                self._generator = _compile(self._name, self._root, self._sites)
            for site in self._sites:
                if site.behavior is not None:
                    site.behavior.reset()
            codes = array("Q")
            raw: Dict[int, Any] = {}
            rng = PrefetchedDraws(make_rng("program", self._name, seed))
            self._generator(codes, raw, length, rng)
            trace = _build(codes, raw, length, self._name)
        observability.increment("workloads.synthesize.calls")
        observability.increment("workloads.synthesize.branches", length)
        return trace
