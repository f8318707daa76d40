"""Deterministic random-stream helpers.

Every stochastic component in the workload substrate draws from a
``numpy.random.Generator`` created through these helpers, so a benchmark
trace is a pure function of its name, seed, and length.  Seeds for
sub-components are *derived* (hashed) rather than incremented, so adding a
new branch site to a synthetic program does not shift the randomness seen
by existing sites.

:class:`PrefetchedDraws` is an exact stand-in for such a Generator on the
two scalar draws the behaviours make once per branch, ``random()`` and
``integers(low, high)``.  It reads the PCG64 bit generator's raw 64-bit
words a block at a time and turns them into doubles and bounded integers
exactly as numpy does, so the values, and the words consumed, are the
Generator's own.  Any other method rewinds the bit generator to the
words consumed so far and is answered by the Generator itself.
"""

from __future__ import annotations

import hashlib
import itertools
import operator
from typing import Any, Callable, Dict, Iterator, List, Optional, Union

import numpy as np

Seedable = Union[int, str]

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1
#: numpy's PCG64 double is the top 53 bits of a word times 2**-53.
_DOUBLE_UNIT = 2.0 ** -53


def derive_seed(*components: Seedable) -> int:
    """Derive a stable 64-bit seed from a sequence of components.

    Components may be ints or strings; they are hashed with SHA-256 so the
    derivation is stable across Python processes and versions (unlike
    ``hash()``, which is salted).

    >>> derive_seed("gcc", 0) == derive_seed("gcc", 0)
    True
    >>> derive_seed("gcc", 0) != derive_seed("gcc", 1)
    True
    """
    digest = hashlib.sha256()
    for component in components:
        if isinstance(component, bool) or not isinstance(component, (int, str)):
            raise TypeError(
                f"seed components must be int or str, got {type(component).__name__}"
            )
        digest.update(repr(component).encode("utf-8"))
        digest.update(b"\x00")
    return int.from_bytes(digest.digest()[:8], "little") & _MASK64


def make_rng(*components: Seedable) -> np.random.Generator:
    """Create a ``numpy`` Generator seeded from the given components."""
    return np.random.default_rng(derive_seed(*components))


def split_rng(*components: Seedable, count: int = 2) -> Iterator[np.random.Generator]:
    """Yield ``count`` independent generators derived from the components.

    >>> a, b = split_rng("suite", count=2)
    >>> bool(a.integers(0, 2**32) != b.integers(0, 2**32))
    True
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    for index in range(count):
        yield make_rng(*components, index)


class PrefetchedDraws:
    """Draws of a PCG64 ``Generator``, served from prefetched raw words.

    ``random()`` is ``(word >> 11) * 2**-53``.  ``integers(low, high)`` is
    numpy's Lemire bounded draw on 32-bit halves of a word: the low half
    first, the high half kept (``has_uint32``/``uinteger`` in the bit
    generator's state) for the next 32-bit draw, and no draw at all when
    ``high - low == 1``.  Both return the value the wrapped Generator
    would have returned for the same call sequence.  Every other
    attribute re-syncs the bit generator and delegates to the Generator,
    so any mix of calls stays on the Generator's own stream; call a
    delegated method right away, before the next draw.

    The wrapped Generator belongs to this object: prefetching moves its
    bit generator past the words consumed until the next re-sync.

    >>> from numpy.random import default_rng
    >>> draws = PrefetchedDraws(default_rng(5))
    >>> reference = default_rng(5)
    >>> [draws.random(), draws.integers(0, 6), draws.geometric(0.5)] == [
    ...     reference.random(), reference.integers(0, 6), reference.geometric(0.5)]
    True
    """

    #: One double in ``[0, 1)``, as ``Generator.random()``.  It is the
    #: ``__next__`` of a chain over the blocks' doubles, so a draw is one
    #: C call; the chain refills a block when the last one runs out.
    random: Callable[[], float]

    #: Raw words fetched per block.
    BLOCK_WORDS = 4096

    def __init__(self, generator: np.random.Generator) -> None:
        bit_generator = generator.bit_generator
        if not isinstance(bit_generator, np.random.PCG64):
            raise TypeError(
                f"PrefetchedDraws needs a PCG64 generator, "
                f"got {type(bit_generator).__name__}"
            )
        self._generator = generator
        self._bit_generator = bit_generator
        self._has_half = 0
        self._half = 0
        self._restart()

    def _restart(self) -> None:
        """Drop the prefetched words; the bit generator is in sync again."""
        # Bit-generator state at the start of the current block; None
        # while the bit generator itself is in sync with the draws made.
        self._block_state: Optional[Dict[str, Any]] = None
        # The current block as raw words, and an iterator over the same
        # block as doubles: the read cursor of both.
        self._words: List[int] = []
        self._cursor: Iterator[float] = iter(())
        self.random = itertools.chain.from_iterable(self._blocks()).__next__

    def _blocks(self) -> Iterator[Iterator[float]]:
        while True:
            yield self._cursor
            self._refill()

    def _refill(self) -> None:
        bit_generator = self._bit_generator
        state = bit_generator.state
        if self._block_state is None:
            # In sync: the bit generator holds the carried half-word.
            self._has_half = state["has_uint32"]
            self._half = state["uinteger"]
        self._block_state = state
        raw = bit_generator.random_raw(self.BLOCK_WORDS)
        self._words = raw.tolist()
        self._cursor = iter(((raw >> 11) * _DOUBLE_UNIT).tolist())

    def _consumed(self) -> int:
        """Words of the current block drawn so far."""
        return len(self._words) - operator.length_hint(self._cursor)

    def _sync(self) -> None:
        """Rewind the bit generator to exactly the draws made so far."""
        if self._block_state is None:
            return
        bit_generator = self._bit_generator
        bit_generator.state = self._block_state
        # advance() clears the carried half-word, so restore it after.
        bit_generator.advance(self._consumed())
        state = bit_generator.state
        state["has_uint32"] = self._has_half
        state["uinteger"] = self._half
        bit_generator.state = state
        self._restart()

    def _next_uint32(self) -> int:
        if self._block_state is None:
            # Nothing drawn since the last sync: load a block now, which
            # also picks up a half-word a delegated call left behind.
            self._refill()
        if self._has_half:
            self._has_half = 0
            return self._half
        self.random()  # moves the cursor one word on
        word = self._words[self._consumed() - 1]
        self._has_half = 1
        self._half = word >> 32
        return word & _MASK32

    def integers(self, low: int, high: int) -> int:
        """One integer in ``[low, high)``, as ``Generator.integers(low, high)``."""
        span = high - low - 1
        if span < 0:
            raise ValueError("low >= high")
        if span == 0:
            return low
        if span >= _MASK32:
            return int(self._delegate("integers")(low, high))
        # Lemire's multiply-shift with rejection, on 32-bit draws.
        bound = span + 1
        product = self._next_uint32() * bound
        leftover = product & _MASK32
        if leftover < bound:
            threshold = (_MASK32 - span) % bound
            while leftover < threshold:
                product = self._next_uint32() * bound
                leftover = product & _MASK32
        return low + (product >> 32)

    def _delegate(self, name: str) -> Any:
        self._sync()
        return getattr(self._generator, name)

    def __getattr__(self, name: str) -> Any:
        if name.startswith("_"):
            raise AttributeError(name)
        return self._delegate(name)
