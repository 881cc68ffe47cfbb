"""Set-associative cache model with LRU replacement.

The timing model only needs hit/miss outcomes, dirty-line tracking and
evictions, so lines carry no data — functional values live in the machine /
framework memory.  Each cache is a grid of sets; each set is an ordered
mapping from tag to line state, maintained in LRU order.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from typing import Iterable, List, Optional


@dataclasses.dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    dirty_evictions: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if not self.accesses:
            return 0.0
        return self.hits / self.accesses


@dataclasses.dataclass
class Eviction:
    """A line pushed out of the cache; ``dirty`` means it must be written back."""

    addr: int
    dirty: bool


class Cache:
    """One level of cache.

    Args:
        name: Human-readable name (``"L1D"``).
        size_bytes: Total capacity.
        assoc: Associativity (ways per set).
        line_size: Line size in bytes (power of two).
        latency: Access latency in cycles, reported to the hierarchy.
    """

    def __init__(self, name: str, size_bytes: int, assoc: int,
                 line_size: int = 64, latency: int = 1):
        if size_bytes % (assoc * line_size):
            raise ValueError(
                "%s: size %d not divisible by assoc*line_size" % (name, size_bytes)
            )
        if line_size & (line_size - 1):
            raise ValueError("line size must be a power of two")
        self.name = name
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.line_size = line_size
        self.latency = latency
        self.num_sets = size_bytes // (assoc * line_size)
        self.stats = CacheStats()
        # Precomputed shift/mask indexing: line sizes are powers of two by
        # construction, and set counts usually are too — the hot lookup path
        # then avoids div/mod entirely.
        self._line_shift = line_size.bit_length() - 1
        if self.num_sets & (self.num_sets - 1) == 0:
            self._set_mask = self.num_sets - 1
            self._set_shift = self.num_sets.bit_length() - 1
        else:
            self._set_mask = -1
            self._set_shift = 0
        # Each set maps tag -> dirty flag, in LRU -> MRU order.
        self._sets: List["OrderedDict[int, bool]"] = [
            OrderedDict() for _ in range(self.num_sets)
        ]

    # --- address helpers -----------------------------------------------------

    def line_addr(self, addr: int) -> int:
        return addr & ~(self.line_size - 1)

    def _locate(self, addr: int) -> tuple:
        line = addr >> self._line_shift
        if self._set_mask >= 0:
            return line & self._set_mask, line >> self._set_shift
        return line % self.num_sets, line // self.num_sets

    # --- operations ------------------------------------------------------------

    def lookup(self, addr: int, update_lru: bool = True) -> bool:
        """Probe for the line holding ``addr``; count a hit or miss."""
        line = addr >> self._line_shift
        if self._set_mask >= 0:
            set_index = line & self._set_mask
            tag = line >> self._set_shift
        else:
            set_index = line % self.num_sets
            tag = line // self.num_sets
        ways = self._sets[set_index]
        if tag in ways:
            self.stats.hits += 1
            if update_lru:
                ways.move_to_end(tag)
            return True
        self.stats.misses += 1
        return False

    def contains(self, addr: int) -> bool:
        """Probe without disturbing LRU state or statistics."""
        set_index, tag = self._locate(addr)
        return tag in self._sets[set_index]

    def insert(self, addr: int, dirty: bool = False) -> Optional[Eviction]:
        """Bring the line holding ``addr`` in; return the victim, if any."""
        set_index, tag = self._locate(addr)
        ways = self._sets[set_index]
        victim = None
        if tag in ways:
            ways[tag] = ways[tag] or dirty
            ways.move_to_end(tag)
            return None
        if len(ways) >= self.assoc:
            victim_tag, victim_dirty = ways.popitem(last=False)
            victim_addr = (victim_tag * self.num_sets + set_index) * self.line_size
            self.stats.evictions += 1
            if victim_dirty:
                self.stats.dirty_evictions += 1
            victim = Eviction(victim_addr, victim_dirty)
        ways[tag] = dirty
        return victim

    def fill_clean(self, lines: Iterable[int]) -> None:
        """``insert(addr)`` (clean) for each address in order, victims
        dropped: the same LRU order and stats, without an
        :class:`Eviction` per victim."""
        sets = self._sets
        assoc = self.assoc
        shift = self._line_shift
        mask = self._set_mask
        set_shift = self._set_shift
        num_sets = self.num_sets
        evictions = dirty_evictions = 0
        for addr in lines:
            line = addr >> shift
            if mask >= 0:
                ways = sets[line & mask]
                tag = line >> set_shift
            else:
                ways = sets[line % num_sets]
                tag = line // num_sets
            if tag in ways:
                ways.move_to_end(tag)
                continue
            if len(ways) >= assoc:
                evictions += 1
                if ways.popitem(last=False)[1]:
                    dirty_evictions += 1
            ways[tag] = False
        self.stats.evictions += evictions
        self.stats.dirty_evictions += dirty_evictions

    def mark_dirty(self, addr: int) -> bool:
        """Mark the line dirty if present; return whether it was present."""
        set_index, tag = self._locate(addr)
        ways = self._sets[set_index]
        if tag in ways:
            ways[tag] = True
            ways.move_to_end(tag)
            return True
        return False

    def clean(self, addr: int) -> bool:
        """Clear the dirty bit; return whether the line was dirty."""
        set_index, tag = self._locate(addr)
        ways = self._sets[set_index]
        if tag in ways and ways[tag]:
            ways[tag] = False
            return True
        return False

    def invalidate(self, addr: int) -> Optional[bool]:
        """Drop the line; return its dirty bit, or None if absent."""
        set_index, tag = self._locate(addr)
        ways = self._sets[set_index]
        if tag in ways:
            return ways.pop(tag)
        return None

    def occupancy(self) -> int:
        """Number of valid lines currently held."""
        return sum(len(ways) for ways in self._sets)

    def __repr__(self) -> str:
        return "Cache(%s, %dB, %d-way, %dB lines)" % (
            self.name, self.size_bytes, self.assoc, self.line_size)
