"""Encoder lookahead as a sliding window over future source symbols.

An i.i.d. source read with d symbols of lookahead is equivalent to a
first-order Markov chain whose state is the (d+1)-tuple of the current
symbol and the next d symbols.  Consecutive tuples overlap in d positions
and the freshly revealed symbol is an independent source draw, which pins
the transition kernel completely.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SpecValidationError
from .models import ProbVector, _check_capacity


@dataclass(frozen=True)
class TupleCodec:
    """Bijection between fixed-width symbol tuples and dense indices.

    The first tuple position is the most significant digit, so index
    order equals lexicographic order on tuples.
    """

    base: int
    width: int

    @property
    def size(self) -> int:
        return self.base**self.width

    def encode(self, symbols) -> int:
        symbols = list(symbols)
        if len(symbols) != self.width:
            raise ValueError(f"expected {self.width} symbols, got {len(symbols)}")
        idx = 0
        for s in symbols:
            s = int(s)
            if not 0 <= s < self.base:
                raise ValueError(f"symbol {s} outside alphabet of size {self.base}")
            idx = idx * self.base + s
        return idx

    def decode(self, index: int) -> tuple[int, ...]:
        index = int(index)
        if not 0 <= index < self.size:
            raise ValueError(f"index {index} outside range of {self.size} tuples")
        out = []
        for _ in range(self.width):
            index, rem = divmod(index, self.base)
            out.append(rem)
        return tuple(reversed(out))

    def shift(self, index: int, symbol: int) -> int:
        """Index of the tuple obtained by dropping the oldest symbol and
        appending a new one."""
        if not 0 <= symbol < self.base:
            raise ValueError(f"symbol {symbol} outside alphabet of size {self.base}")
        return (index % self.base ** (self.width - 1)) * self.base + symbol

    def component(self, index: int, slot: int) -> int:
        """Symbol in 1-based position slot of the tuple at index."""
        if not 1 <= slot <= self.width:
            raise ValueError(f"slot {slot} outside 1..{self.width}")
        return (index // self.base ** (self.width - slot)) % self.base

    def components_table(self) -> np.ndarray:
        """(size, width) array of tuple symbols, row i = decode(i)."""
        idx = np.arange(self.size)
        cols = [
            (idx // self.base ** (self.width - 1 - k)) % self.base
            for k in range(self.width)
        ]
        return np.stack(cols, axis=1)

    def shift_table(self) -> np.ndarray:
        """(size, base) array: entry [v, u] is shift(v, u)."""
        idx = np.arange(self.size)
        tail = (idx % self.base ** (self.width - 1)) * self.base
        return tail[:, None] + np.arange(self.base)[None, :]


def _enumerate_maps(domain: int, num_values: int, limit: int | None,
                    what: str, hint: str) -> np.ndarray:
    """Every map from domain entries to num_values values, one row per
    map in lexicographic order (entry 0 most significant).  More than
    limit maps (default state_limit()) raise CapacityError naming what."""
    _check_capacity(what, num_values**domain, hint, limit)
    return TupleCodec(num_values, domain).components_table()


@dataclass(frozen=True)
class MarkovKernel:
    """Sliding-window chain over symbol tuples for a given lookahead depth."""

    matrix: np.ndarray
    lookahead: int
    source: ProbVector
    codec: TupleCodec

    @property
    def num_states(self) -> int:
        return self.codec.size


def build_markov_kernel(source: ProbVector, lookahead: int) -> MarkovKernel:
    """Transition kernel of the tuple chain induced by lookahead symbols.

    Row v has mass only on the tuples that extend v's last (width-1)
    symbols, weighted by the source law of the appended symbol.
    """
    if lookahead < 0:
        raise SpecValidationError([f"lookahead {lookahead} must be nonnegative"])
    base = len(source)
    codec = TupleCodec(base, lookahead + 1)
    _check_capacity("tuple state space", codec.size,
                    "reduce the lookahead depth or raise RTC_MAX_STATES")
    p = np.asarray(source.p, dtype=float)
    matrix = np.zeros((codec.size, codec.size))
    shift = codec.shift_table()
    rows = np.repeat(np.arange(codec.size), base)
    matrix[rows, shift.ravel()] = np.tile(p, codec.size)
    return MarkovKernel(matrix, lookahead, source, codec)
