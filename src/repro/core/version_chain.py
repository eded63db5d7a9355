"""Bounded per-line chains of committed pre-image versions (mvsuv).

The multiversioned SUV extension (:mod:`repro.htm.vm.mvsuv`) keeps, for
every cache line, the last K *pre-image* records: when publication
number ``s`` overwrites words of a line, the record stamped ``s`` stores
the values those words held **before** the publication.  A snapshot
reader that began after publication ``S`` then recovers the value a word
had at its snapshot point with one rule:

    the first retained record with ``seq > S`` that mentions the word
    holds its pre-image — i.e. the newest committed value at or before
    ``S``; if no record newer than ``S`` mentions the word, current
    memory is still that value.

Trimming always removes the *oldest* records (smallest ``seq``) and
raises the line's ``trimmed_floor`` to the dropped sequence number, so
the retained records of a line all satisfy ``seq > floor``.  A snapshot
with ``S < floor`` is refused (``"exhausted"``): a dropped record in
``(S, floor]`` might have carried the pre-image the reader needs, so
serving from the remainder would be unsound.  The refusal is
deliberately conservative — correctness never depends on what was
thrown away.

Each retained record may pin one preserved-pool line (the hardware cost
model: a version occupies pool storage until garbage-collected).  The
chain itself never talks to the pool; it reports which pins were
released so the owner can free them.
"""

from __future__ import annotations


class VersionRecord:
    """One committed pre-image record of one line."""

    __slots__ = ("seq", "cycle", "values", "pool_line")

    def __init__(
        self,
        seq: int,
        cycle: int,
        values: dict[int, int],
        pool_line: int | None,
    ) -> None:
        self.seq = seq
        self.cycle = cycle
        #: word address -> value the word held *before* publication ``seq``
        self.values = values
        #: preserved-pool line pinned by this record (None = unpinned)
        self.pool_line = pool_line

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"VersionRecord(seq={self.seq}, cycle={self.cycle}, "
            f"words={len(self.values)}, pool_line={self.pool_line})"
        )


class VersionChain:
    """K-bounded pre-image version chains, one per cache line.

    ``versions_k`` bounds the records retained per line; recording a
    (K+1)-th version evicts the line's oldest record.  All evictions —
    per-line overflow, global :meth:`evict_oldest` GC, and
    :meth:`note_lost` — raise the line's ``trimmed_floor`` so
    :meth:`read` can refuse snapshots that would need dropped history.
    """

    def __init__(self, versions_k: int) -> None:
        if versions_k < 1:
            raise ValueError(f"versions_k must be >= 1, got {versions_k}")
        self.versions_k = versions_k
        #: line -> records sorted ascending by seq (all ``seq > floor``)
        self._chains: dict[int, list[VersionRecord]] = {}
        #: line -> highest seq ever dropped from that line's chain
        self._floor: dict[int, int] = {}
        self.records_live = 0
        self.high_water = 0
        self.evictions = 0
        self.lost = 0
        self.served = 0

    # ------------------------------------------------------------------
    # recording / trimming
    # ------------------------------------------------------------------
    def record(
        self,
        line: int,
        seq: int,
        cycle: int,
        values: dict[int, int],
        pool_line: int | None,
    ) -> list[int]:
        """Append the pre-image record of publication ``seq`` on ``line``.

        Returns the pool lines released by any per-line overflow
        eviction (the caller owns freeing them).
        """
        chain = self._chains.get(line)
        if chain is None:
            chain = self._chains[line] = []
        if chain and chain[-1].seq >= seq:
            raise ValueError(
                f"version seq must increase per line: line {line} has "
                f"seq {chain[-1].seq}, got {seq}"
            )
        chain.append(VersionRecord(seq, cycle, values, pool_line))
        self.records_live += 1
        if self.records_live > self.high_water:
            self.high_water = self.records_live
        freed: list[int] = []
        while len(chain) > self.versions_k:
            freed.extend(self._drop_oldest(line, chain))
        return freed

    def _drop_oldest(self, line: int, chain: list[VersionRecord]) -> list[int]:
        """Drop ``line``'s oldest record; returns its released pool pins."""
        dropped = chain.pop(0)
        if not chain:
            del self._chains[line]
        if dropped.seq > self._floor.get(line, 0):
            self._floor[line] = dropped.seq
        self.records_live -= 1
        self.evictions += 1
        return [dropped.pool_line] if dropped.pool_line is not None else []

    def evict_oldest(self, n: int) -> list[int]:
        """GC the ``n`` globally oldest records (by ``(seq, line)``).

        Returns the released pool lines.  Used under preserved-pool
        pressure: stale versions are sacrificed before any writer is
        doomed, which is the graceful-degradation path back to plain
        SUV behaviour.
        """
        freed: list[int] = []
        for _ in range(n):
            oldest_line = -1
            oldest_seq = -1
            for ln, chain in self._chains.items():
                head = chain[0].seq
                if oldest_line < 0 or (head, ln) < (oldest_seq, oldest_line):
                    oldest_line, oldest_seq = ln, head
            if oldest_line < 0:
                break
            freed.extend(
                self._drop_oldest(oldest_line, self._chains[oldest_line])
            )
        return freed

    def note_lost(self, line: int, seq: int) -> list[int]:
        """Record that publication ``seq``'s pre-image could not be kept.

        Raising the floor past ``seq`` makes every snapshot older than
        the lost version refuse (``"exhausted"``) instead of silently
        reading around the hole.  Returns the pool pins released by
        dropping the line's now-useless older records.
        """
        if seq > self._floor.get(line, 0):
            self._floor[line] = seq
        self.lost += 1
        # retained records at or below the new floor are useless now
        freed: list[int] = []
        chain = self._chains.get(line)
        while chain and chain[0].seq <= seq:
            freed.extend(self._drop_oldest(line, chain))
            chain = self._chains.get(line)
        return freed

    # ------------------------------------------------------------------
    # snapshot reads
    # ------------------------------------------------------------------
    def read(
        self, line: int, addr: int, snapshot_seq: int
    ) -> tuple[str, int | None]:
        """Value of ``addr`` as of publication ``snapshot_seq``.

        Returns one of::

            ("chain", value)     # recovered from a retained pre-image
            ("memory", None)     # current memory still holds it
            ("exhausted", None)  # needed history was trimmed away

        ``("memory", None)`` is a *proof*, not a guess: no retained or
        trimmed record newer than the snapshot mentions ``addr``, so no
        publication after the snapshot overwrote it.
        """
        if self._floor.get(line, 0) > snapshot_seq:
            return "exhausted", None
        for rec in self._chains.get(line, ()):
            if rec.seq > snapshot_seq and addr in rec.values:
                self.served += 1
                return "chain", rec.values[addr]
        return "memory", None

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def pool_lines(self) -> set[int]:
        """Pool lines currently pinned by retained records."""
        return {
            rec.pool_line
            for chain in self._chains.values()
            for rec in chain
            if rec.pool_line is not None
        }

    def chain_of(self, line: int) -> list[VersionRecord]:
        """The retained records of ``line``, oldest first (test helper)."""
        return list(self._chains.get(line, ()))

    def floor_of(self, line: int) -> int:
        return self._floor.get(line, 0)

    def stats(self) -> dict[str, int]:
        return {
            "versions_live": self.records_live,
            "versions_high_water": self.high_water,
            "version_evictions": self.evictions,
            "versions_lost": self.lost,
            "version_reads_served": self.served,
        }
