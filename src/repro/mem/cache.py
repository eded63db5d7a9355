"""A set-associative, write-back cache with LRU replacement.

The cache tracks *lines* (already-shifted line indices), their MESI state,
dirtiness, and a ``speculative`` flag used by the FasTM and lazy version
managers to pin transactionally-written data in the L1.

Hot-path notes (DESIGN §11):

* :class:`CacheLineState` is an ``IntEnum`` so MESI checks on the lookup
  path compare machine ints, not enum identities;
* :class:`CacheLine` uses ``__slots__`` (no per-line ``__dict__``);
* the set index uses a bitmask when the set count is a power of two;
* per-set dicts are allocated lazily — tiny workloads touch a handful
  of the L2's 2 048 sets, so eager allocation was pure construction
  cost;
* speculative lines are tracked in an insertion-ordered side index, so
  commit/abort processing visits exactly the speculative lines instead
  of scanning every set.
"""

from __future__ import annotations

import enum

from repro.config import CacheConfig


class CacheLineState(enum.IntEnum):
    """MESI states of a cached line."""

    MODIFIED = 0
    EXCLUSIVE = 1
    SHARED = 2
    INVALID = 3


_INVALID = int(CacheLineState.INVALID)


class CacheLine:
    """One resident line."""

    __slots__ = ("line", "state", "dirty", "speculative", "lru_tick")

    def __init__(
        self,
        line: int,
        state: CacheLineState,
        dirty: bool = False,
        speculative: bool = False,
        lru_tick: int = 0,
    ) -> None:
        self.line = line
        self.state = state
        self.dirty = dirty
        self.speculative = speculative
        self.lru_tick = lru_tick

    def __repr__(self) -> str:  # diagnostics only
        return (
            f"CacheLine(line={self.line}, state={self.state!r}, "
            f"dirty={self.dirty}, speculative={self.speculative}, "
            f"lru_tick={self.lru_tick})"
        )


class SetAssocCache:
    """LRU set-associative cache keyed by line index."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.n_sets = config.n_sets
        self.ways = config.ways
        # one dict per set (line -> CacheLine, len <= ways), allocated on
        # first touch
        self._sets: list[dict[int, CacheLine] | None] = [None] * self.n_sets
        #: bitmask set index when n_sets is a power of two, else -1
        self._set_mask = (
            self.n_sets - 1 if self.n_sets & (self.n_sets - 1) == 0 else -1
        )
        #: insertion-ordered index of currently-speculative lines
        self._spec: dict[int, CacheLine] = {}
        self._tick = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _set_of(self, line: int) -> dict[int, CacheLine]:
        mask = self._set_mask
        idx = line & mask if mask >= 0 else line % self.n_sets
        cset = self._sets[idx]
        if cset is None:
            cset = self._sets[idx] = {}
        return cset

    # ------------------------------------------------------------------
    def _note_speculative(self, entry: CacheLine) -> None:
        """Flag ``entry`` speculative and index it for commit/abort."""
        entry.speculative = True
        self._spec[entry.line] = entry

    def _drop_speculative_index(self, line: int) -> None:
        self._spec.pop(line, None)

    # ------------------------------------------------------------------
    def lookup(self, line: int, touch: bool = True) -> CacheLine | None:
        """The resident entry for ``line``, or None.  Counts hit/miss."""
        # set indexing inlined: this is the single hottest cache method
        mask = self._set_mask
        cset = self._sets[line & mask if mask >= 0 else line % self.n_sets]
        entry = cset.get(line) if cset is not None else None
        if entry is None or entry.state == _INVALID:
            self.misses += 1
            return None
        self.hits += 1
        if touch:
            self._tick += 1
            entry.lru_tick = self._tick
        return entry

    def peek(self, line: int) -> CacheLine | None:
        """Like lookup but without touching LRU or counters."""
        mask = self._set_mask
        cset = self._sets[line & mask if mask >= 0 else line % self.n_sets]
        entry = cset.get(line) if cset is not None else None
        if entry is None or entry.state == _INVALID:
            return None
        return entry

    def insert(
        self,
        line: int,
        state: CacheLineState,
        dirty: bool = False,
        speculative: bool = False,
    ) -> CacheLine | None:
        """Install ``line``; returns the victim line evicted to make room.

        Victim selection is LRU among non-speculative lines first: FasTM
        pins speculative lines as long as a non-speculative victim exists
        (it *overflows* only when a set fills with speculative lines, which
        the caller detects because the returned victim is speculative).
        """
        cset = self._set_of(line)
        existing = cset.get(line)
        self._tick += 1
        if existing is not None:
            existing.state = state
            existing.dirty = dirty or existing.dirty
            if speculative and not existing.speculative:
                self._note_speculative(existing)
            existing.lru_tick = self._tick
            return None
        victim: CacheLine | None = None
        if len(cset) >= self.ways:
            normal = [e for e in cset.values() if not e.speculative]
            pool = normal if normal else list(cset.values())
            victim = min(pool, key=lambda e: e.lru_tick)
            del cset[victim.line]
            if victim.speculative:
                self._drop_speculative_index(victim.line)
            self.evictions += 1
        entry = CacheLine(
            line=line, state=state, dirty=dirty, speculative=False,
            lru_tick=self._tick,
        )
        cset[line] = entry
        if speculative:
            self._note_speculative(entry)
        return victim

    def invalidate(self, line: int) -> CacheLine | None:
        """Drop ``line``; returns the entry that was resident (if any)."""
        entry = self._set_of(line).pop(line, None)
        if entry is not None and entry.speculative:
            self._drop_speculative_index(line)
        return entry

    def resident_lines(self) -> list[int]:
        """All currently-resident line indices (test/diagnostic helper)."""
        return [
            ln for cset in self._sets if cset is not None for ln in cset
        ]

    def speculative_lines(self) -> list[int]:
        return list(self._spec)

    def clear_speculative(self, invalidate: bool = False) -> list[int]:
        """Commit (clear flags) or abort (invalidate) speculative lines.

        Returns the affected line indices.
        """
        affected = list(self._spec)
        if invalidate:
            for ln in affected:
                self._set_of(ln).pop(ln, None)
        else:
            for entry in self._spec.values():
                entry.speculative = False
        self._spec.clear()
        return affected

    @property
    def occupancy(self) -> int:
        return sum(len(cset) for cset in self._sets if cset is not None)
