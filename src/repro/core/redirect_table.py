"""The two-level redirect table (paper Sections III, IV-A; Table III).

The *logical* table is a single coherent map from original line to
:class:`~repro.core.redirect_entry.RedirectEntry`.  Physically, entries
are placed in three levels:

1. a per-core, fully-associative, zero-latency **first-level table**
   (512 entries in Table III) integrated into the core pipeline;
2. a shared, set-associative **second-level table** (16 K entries,
   8 ways, 10-cycle latency);
3. a **software-managed overflow area** in main memory for entries that
   overflow both hardware levels.

Lookups probe L1 → L2 → memory and report where the entry was found so
the version manager can charge the right latency and, on a hardware
miss, decide to *speculate* with the original address (Section IV-A).
A simple MSI-style coherence is obtained for free because every level
holds references to the same entry object; invalidation traffic is not
separately charged, as in the paper ("a simple write invalidate protocol
like MSI is sufficient").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import RedirectConfig
from repro.core.redirect_entry import RedirectEntry


@dataclass(slots=True)
class LookupResult:
    """Where a lookup found (or didn't find) an entry, and its cost."""

    entry: RedirectEntry | None
    latency: int
    level: str  # "l1", "l2", "mem", "none"


class _LruTable:
    """A fully-associative LRU table of entries keyed by original line."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._entries: dict[int, RedirectEntry] = {}

    def get(self, orig_line: int) -> RedirectEntry | None:
        entry = self._entries.get(orig_line)
        if entry is not None:
            # dict move-to-end == LRU touch
            del self._entries[orig_line]
            self._entries[orig_line] = entry
        return entry

    def put(self, entry: RedirectEntry) -> RedirectEntry | None:
        """Insert; returns the LRU victim if the table was full."""
        self._entries.pop(entry.orig_line, None)
        victim = None
        if len(self._entries) >= self.capacity:
            victim_key = next(iter(self._entries))
            victim = self._entries.pop(victim_key)
        self._entries[entry.orig_line] = entry
        return victim

    def remove(self, orig_line: int) -> RedirectEntry | None:
        return self._entries.pop(orig_line, None)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, orig_line: int) -> bool:
        return orig_line in self._entries

    def values(self):
        return self._entries.values()


class _SetAssocTable:
    """The shared second-level table: set-associative over original lines."""

    def __init__(self, entries: int, ways: int) -> None:
        if entries % ways != 0:
            raise ValueError("table entries must divide by ways")
        self.n_sets = entries // ways
        self.ways = ways
        self._sets: list[dict[int, RedirectEntry]] = [
            dict() for _ in range(self.n_sets)
        ]

    def _set_of(self, orig_line: int) -> dict[int, RedirectEntry]:
        return self._sets[orig_line % self.n_sets]

    def get(self, orig_line: int) -> RedirectEntry | None:
        cset = self._set_of(orig_line)
        entry = cset.get(orig_line)
        if entry is not None:
            del cset[orig_line]
            cset[orig_line] = entry
        return entry

    def put(self, entry: RedirectEntry) -> RedirectEntry | None:
        cset = self._set_of(entry.orig_line)
        cset.pop(entry.orig_line, None)
        victim = None
        if len(cset) >= self.ways:
            victim_key = next(iter(cset))
            victim = cset.pop(victim_key)
        cset[entry.orig_line] = entry
        return victim

    def remove(self, orig_line: int) -> RedirectEntry | None:
        return self._set_of(orig_line).pop(orig_line, None)

    def __contains__(self, orig_line: int) -> bool:
        return orig_line in self._set_of(orig_line)

    def __len__(self) -> int:
        return sum(len(s) for s in self._sets)


class RedirectTable:
    """The CMP-wide two-level redirect table with per-core L1 tables."""

    def __init__(self, n_cores: int, config: RedirectConfig) -> None:
        self.config = config
        self.n_cores = n_cores
        self.l1_tables = [_LruTable(config.l1_entries) for _ in range(n_cores)]
        self.l2_table = _SetAssocTable(config.l2_entries, config.l2_ways)
        self._mem: dict[int, RedirectEntry] = {}
        # statistics
        self.l1_hits = 0
        self.l1_misses = 0
        self.l2_hits = 0
        self.mem_hits = 0
        self.full_misses = 0
        self.l1_overflows = 0   # entries demoted L1 → L2
        self.l2_overflows = 0   # entries spilled L2 → memory (software)

    # ------------------------------------------------------------------
    def lookup(self, core: int, orig_line: int) -> LookupResult:
        """Probe L1 → L2 → memory for ``orig_line``'s entry."""
        cfg = self.config
        entry = self.l1_tables[core].get(orig_line)
        if entry is not None:
            self.l1_hits += 1
            return LookupResult(entry, cfg.l1_latency, "l1")
        self.l1_misses += 1
        latency = cfg.l1_latency + cfg.l2_latency
        entry = self.l2_table.get(orig_line)
        if entry is not None:
            self.l2_hits += 1
            self._promote_to_l1(core, entry)
            return LookupResult(entry, latency, "l2")
        entry = self._mem.get(orig_line)
        if entry is not None:
            self.mem_hits += 1
            latency += cfg.memory_latency + cfg.software_overhead
            del self._mem[orig_line]
            self._home_in_l2(entry)   # swap back into the hardware table
            self._promote_to_l1(core, entry)
            return LookupResult(entry, latency, "mem")
        self.full_misses += 1
        return LookupResult(None, latency, "none")

    def peek(self, orig_line: int) -> RedirectEntry | None:
        """Find an entry at any level without latency/stat side effects."""
        for tbl in self.l1_tables:
            entry = tbl._entries.get(orig_line)
            if entry is not None:
                return entry
        if orig_line in self.l2_table:
            return self.l2_table._set_of(orig_line)[orig_line]
        return self._mem.get(orig_line)

    def insert(self, core: int, entry: RedirectEntry) -> None:
        """Install an entry: the shared L2 table is the home (so every
        core's lookups can find it), the creating core's L1 table caches
        it for zero-latency access."""
        if not entry.is_free:
            self._home_in_l2(entry)
        self._promote_to_l1(core, entry)

    def remove(self, orig_line: int) -> None:
        """Drop an entry from every level (reclaimed INVALID entries)."""
        for tbl in self.l1_tables:
            tbl.remove(orig_line)
        self.l2_table.remove(orig_line)
        self._mem.pop(orig_line, None)

    # ------------------------------------------------------------------
    def _promote_to_l1(self, core: int, entry: RedirectEntry) -> None:
        victim = self.l1_tables[core].put(entry)
        if victim is not None and victim is not entry and not victim.is_free:
            # the L1 tables are caches of the L2 home: an eviction only
            # costs the zero-latency access next time
            self.l1_overflows += 1
            if victim.orig_line not in self.l2_table and (
                victim.orig_line not in self._mem
            ):
                # re-home entries whose L2 copy was displaced meanwhile
                self._home_in_l2(victim)

    def _home_in_l2(self, entry: RedirectEntry) -> None:
        victim = self.l2_table.put(entry)
        if victim is not None and victim is not entry:
            if victim.is_free:
                return
            # the second level overflowed: software swaps the victim out
            # to the in-memory structure (Section IV-A)
            self.l2_overflows += 1
            self._mem[victim.orig_line] = victim

    # ------------------------------------------------------------------
    def squeeze(
        self, l1_entries: int | None = None, l2_ways: int | None = None
    ) -> tuple[int, int]:
        """Shrink table capacity mid-run (fault injection).

        Returns ``(demoted, spilled)``: entries pushed out of the L1
        tables toward the L2 home, and entries spilled from the L2 to
        the software overflow area.  Victims follow the same demotion
        path an organic overflow takes, so the usual overflow statistics
        keep counting.
        """
        demoted = spilled = 0
        if l1_entries is not None:
            for tbl in self.l1_tables:
                tbl.capacity = max(1, l1_entries)
                while len(tbl) > tbl.capacity:
                    victim_key = next(iter(tbl._entries))
                    victim = tbl._entries.pop(victim_key)
                    demoted += 1
                    if victim.is_free:
                        continue
                    self.l1_overflows += 1
                    if (victim.orig_line not in self.l2_table
                            and victim.orig_line not in self._mem):
                        self._home_in_l2(victim)
        if l2_ways is not None:
            before = self.l2_overflows
            self.l2_table.ways = max(1, l2_ways)
            for cset in self.l2_table._sets:
                while len(cset) > self.l2_table.ways:
                    victim_key = next(iter(cset))
                    victim = cset.pop(victim_key)
                    if victim.is_free:
                        continue
                    self.l2_overflows += 1
                    self._mem[victim.orig_line] = victim
            spilled = self.l2_overflows - before
        return demoted, spilled

    @property
    def l1_miss_rate(self) -> float:
        total = self.l1_hits + self.l1_misses
        return self.l1_misses / total if total else 0.0

    @property
    def hardware_occupancy(self) -> int:
        return len(self.l2_table) + sum(len(t) for t in self.l1_tables)

    @property
    def memory_entries(self) -> int:
        return len(self._mem)

    def _placements(self) -> list[dict[int, RedirectEntry]]:
        """The per-core L1 tables, the non-empty L2 sets, then the
        software overflow area: every dict that can hold an entry, in a
        deterministic order."""
        return [
            *(tbl._entries for tbl in self.l1_tables),
            *filter(None, self.l2_table._sets),
            self._mem,
        ]

    def iter_entries(self):
        """Every entry across all placement levels, deduplicated, in a
        deterministic order (per-core L1 tables, then L2 sets, then the
        software overflow area)."""
        seen: set[int] = set()
        for entries in self._placements():
            for entry in entries.values():
                if id(entry) not in seen:
                    seen.add(id(entry))
                    yield entry

    def iter_live_lines(self):
        """Original lines of every non-free entry, at any level.

        This is the set a summary-signature rebuild must cover: a
        transient entry steers accesses for its owner *and* may revert
        to globally ``VALID`` when its transaction aborts (the
        redirect-back path), so dropping its bits would turn the
        filter's one guarantee — no false negatives — into a lie.
        """
        seen: set[int] = set()
        for entries in self._placements():
            for entry in entries.values():
                if entry.orig_line not in seen and not entry.is_free:
                    seen.add(entry.orig_line)
                    yield entry.orig_line

    def iter_valid_lines(self):
        """Original lines of every globally-valid entry at any level,
        the software overflow area included (a VALID entry swapped out
        there is still globally live); deduplicated across placement
        levels (introspection/debugging helper)."""
        seen: set[int] = set()
        for entries in self._placements():
            for entry in entries.values():
                if entry.state.value == (1, 1) and entry.orig_line not in seen:
                    seen.add(entry.orig_line)
                    yield entry.orig_line

    def stats(self) -> dict[str, float]:
        return {
            "l1_hits": self.l1_hits,
            "l1_misses": self.l1_misses,
            "l1_miss_rate": self.l1_miss_rate,
            "l2_hits": self.l2_hits,
            "mem_hits": self.mem_hits,
            "full_misses": self.full_misses,
            "l1_overflows": self.l1_overflows,
            "l2_overflows": self.l2_overflows,
        }
