"""Bit-vector sharer directory (one entry per tracked line).

The directory lives logically alongside the L2 banks; its lookup latency
is the 6 cycles of Table III.  It records, for each line, either a single
owner holding the line in M/E, or the set of cores sharing it in S.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import DirectoryConfig


@dataclass(slots=True)
class DirEntry:
    """Directory state for one line."""

    owner: int | None = None           # core holding M/E, if any
    sharers: set[int] = field(default_factory=set)

    @property
    def is_idle(self) -> bool:
        return self.owner is None and not self.sharers


class Directory:
    """Sharer-tracking directory with a bit-vector per line."""

    def __init__(self, config: DirectoryConfig, n_cores: int) -> None:
        self.config = config
        self.n_cores = n_cores
        self._entries: dict[int, DirEntry] = {}

    @property
    def latency(self) -> int:
        return self.config.latency

    def record_shared(self, line: int, core: int) -> None:
        e = self._entries.get(line)
        if e is None:
            e = self._entries[line] = DirEntry()
        if e.owner is not None and e.owner != core:
            # owner was downgraded by the controller before this call
            e.sharers.add(e.owner)
            e.owner = None
        e.sharers.add(core)
        if e.owner == core:
            e.owner = None
            e.sharers.add(core)

    def record_owner(self, line: int, core: int) -> None:
        e = self._entries.get(line)
        if e is None:
            e = self._entries[line] = DirEntry()
        e.owner = core
        e.sharers.clear()

    def drop(self, line: int, core: int) -> None:
        """Core silently dropped / evicted its copy."""
        e = self._entries.get(line)
        if e is None:
            return
        if e.owner == core:
            e.owner = None
        e.sharers.discard(core)
        if e.is_idle:
            del self._entries[line]

    def holders(self, line: int) -> set[int]:
        """Every core that may hold a valid copy."""
        e = self._entries.get(line)
        if e is None:
            return set()
        out = set(e.sharers)
        if e.owner is not None:
            out.add(e.owner)
        return out

    def owner_of(self, line: int) -> int | None:
        e = self._entries.get(line)
        return e.owner if e is not None else None

    @property
    def tracked_lines(self) -> int:
        return len(self._entries)
