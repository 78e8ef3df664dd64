"""Seeded random-number streams.

Each component gets its own named stream derived from the experiment seed,
so adding a new consumer of randomness never perturbs existing ones — a
property the regression tests rely on.
"""

from __future__ import annotations

import random
import zlib
from typing import TYPE_CHECKING

import numpy

if TYPE_CHECKING:
    from numpy.typing import NDArray


class RngRegistry:
    """Hands out independent :class:`random.Random` streams by name."""

    def __init__(self, seed: int) -> None:
        self._seed = seed
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it deterministically."""
        rng = self._streams.get(name)
        if rng is None:
            derived = (self._seed * 1000003) ^ zlib.crc32(name.encode("utf-8"))
            rng = random.Random(derived)
            self._streams[name] = rng
        return rng


def uniform_block(stream: random.Random, n: int) -> NDArray[numpy.float64]:
    """The next ``n`` values of ``stream.random()``, as one float64 array.

    Bit for bit what ``n`` calls would return, and the stream is left
    exactly ``n`` draws further: ``random()`` is ``(a >> 5, b >> 6)`` of
    two consecutive 32-bit Mersenne outputs, combined as
    ``(a * 2**26 + b) / 2**53``, and ``getrandbits(64 * n)`` returns those
    same ``2 * n`` outputs as one integer, first output in the lowest 32
    bits — so its little-endian bytes read as ``<u4`` are the outputs in
    draw order.  Every step below is exact in float64 (``a * 2**26 + b``
    is below ``2**53``), so there is no rounding to differ in.  One
    generator, no mirrored state; ``numpy.random`` is not involved
    (DESIGN.md section 20).
    """
    words = numpy.frombuffer(
        stream.getrandbits(64 * n).to_bytes(8 * n, "little"), dtype="<u4")
    return (((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6))
            * (1.0 / 9007199254740992.0))
