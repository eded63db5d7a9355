"""MVSUV: multiversioned single-update version management (``vm=mvsuv``).

Plain SUV keeps exactly one committed version per line — the redirect
table maps each line to wherever its current bytes live.  MVSUV extends
that machinery with a bounded *pre-image chain*
(:mod:`repro.core.version_chain`): whenever a transaction publishes, the
values its stores overwrite are retained (stamped with a global
publication sequence number and the commit cycle), up to
``config.redirect.versions_k`` versions per line.

That chain buys **wait-free snapshot readers**.  A transaction declared
read-only (``Tx(body, read_only=True)``) — or detected read-only from
its site history — captures the current publication sequence at begin
and runs in ``"snapshot"`` mode: its reads never arm signatures, never
join the conflict graph, never stall anyone, and its commit is a single
cycle with no table flips and no arbitration.  Each read is answered
from the version chain (the pre-image of the oldest publication newer
than the snapshot) or, when the chain proves no newer publication
touched the word, straight from memory.  This is exactly the paper's
Figure 1 pathology — a huge reader repeatedly aborted by small writers —
removed by construction.

Degradation is graceful and conservative.  Version records pin
preserved-pool lines; under ``pool_max_pages`` pressure the oldest
versions are garbage-collected *before* any writer is doomed, and a
version that cannot be pinned at all is recorded as *lost*, which
poisons (only) snapshots older than it.  A snapshot read that needs
trimmed history aborts the reader and permanently demotes its site to
ordinary eager execution — as does a store inside a declared read-only
body — so mvsuv never livelocks and, with ``versions_k`` effectively
zero, simply behaves like plain SUV.
"""

from __future__ import annotations

from repro.config import LINE_SHIFT, SimConfig
from repro.core.version_chain import VersionChain
from repro.errors import PoolExhausted
from repro.htm.transaction import TxFrame
from repro.htm.vm.suv import SUV
from repro.mem.hierarchy import MemoryHierarchy
from repro.trace import VERSION_ALLOC, VERSION_GC, VERSION_READ


class MVSUV(SUV):
    """SUV plus bounded multiversioning and snapshot readers."""

    name = "mvsuv"
    vm_axis = "mvsuv"
    cd_axis = "eager"

    def __init__(self, config: SimConfig, hierarchy: MemoryHierarchy) -> None:
        super().__init__(config, hierarchy)
        self.chain = VersionChain(config.redirect.versions_k)
        #: global publication sequence: one tick per publishing commit
        #: and per non-transactional store (strong isolation orders
        #: those against transactions, so they are publications too)
        self._commit_seq = 0
        #: per-site history for read-only detection
        self._site_commits: dict[int, int] = {}
        self._site_writes: dict[int, int] = {}
        #: sites that violated or exhausted a snapshot: permanently
        #: demoted to eager execution (livelock-freedom)
        self._demoted: set[int] = set()
        self.stats.extra.update(
            snapshot_txs=0, snapshot_commits=0,
            snapshot_reads_chain=0, snapshot_reads_memory=0,
            snapshot_exhaustions=0, snapshot_violations=0,
            version_allocs=0,
        )

    # ------------------------------------------------------------------
    # snapshot admission (simulator hook)
    # ------------------------------------------------------------------
    def snapshot_mode_for(self, core: int, site: int, declared: bool) -> bool:
        """Should this outermost attempt run as a snapshot reader?"""
        if site in self._demoted:
            return False
        if not declared and not (
            self._site_commits.get(site, 0) > 0
            and self._site_writes.get(site, 0) == 0
        ):
            return False
        self.stats.extra["snapshot_txs"] += 1
        return True

    def current_seq(self) -> int:
        """The snapshot timestamp a reader beginning now captures."""
        return self._commit_seq

    @staticmethod
    def _snapshot_seq_of(frame: TxFrame) -> int:
        f: TxFrame | None = frame
        while f is not None:
            seq = f.vm.get("snapshot_seq")
            if seq is not None:
                return seq
            f = f.parent
        return 0

    # ------------------------------------------------------------------
    # snapshot reads (simulator hook)
    # ------------------------------------------------------------------
    def snapshot_read(
        self, core: int, frame: TxFrame, addr: int, line: int
    ) -> tuple[int, int | None, bool]:
        """``(extra cycles, value, ok)`` for a snapshot-mode load.

        ``value is None`` with ``ok`` means the chain proved current
        memory still holds the snapshot's value — the caller performs an
        ordinary hierarchy read of the *original* line (no redirect
        lookup, no summary test: the wait-free path never consults the
        shared table).  A chain hit costs one second-level-table access.
        ``not ok`` means the needed history was trimmed away.
        """
        snap = self._snapshot_seq_of(frame)
        status, value = self.chain.read(line, addr, snap)
        tr = self.trace
        events = tr is not None and tr.events is not None
        if status == "exhausted":
            self.stats.extra["snapshot_exhaustions"] += 1
            self._demoted.add(frame.site)
            if events:
                tr.emit(tr.clock.now, VERSION_READ, core,
                        data={"line": line, "snapshot_seq": snap,
                              "exhausted": True})
            return 0, None, False
        if status == "chain":
            self.stats.extra["snapshot_reads_chain"] += 1
            if events:
                tr.emit(tr.clock.now, VERSION_READ, core,
                        data={"line": line, "snapshot_seq": snap,
                              "source": "chain"})
            return self.config.redirect.l2_latency, value, True
        self.stats.extra["snapshot_reads_memory"] += 1
        return 0, None, True

    def note_snapshot_violation(self, core: int, frame: TxFrame) -> None:
        """A declared/detected read-only body stored: demote its site."""
        self.stats.extra["snapshot_violations"] += 1
        self._demoted.add(frame.site)

    # ------------------------------------------------------------------
    # version recording (simulator hooks, called at publication points)
    # ------------------------------------------------------------------
    def note_publication(self, core: int, frame: TxFrame) -> None:
        """A commit is about to publish ``frame.write_buffer``."""
        self._commit_seq += 1
        seq = self._commit_seq
        memory = self.hierarchy.memory
        by_line: dict[int, dict[int, int]] = {}
        for addr in frame.write_buffer:
            by_line.setdefault(addr >> LINE_SHIFT, {})[addr] = memory.peek(addr)
        tr = self.trace
        cycle = tr.clock.now if tr is not None else 0
        for line in sorted(by_line):
            self._record_version(core, line, seq, cycle, by_line[line])

    def note_nontx_write(self, core: int, addr: int, line: int) -> None:
        """A non-transactional store is about to land (strong isolation
        makes it a publication of its own)."""
        self._commit_seq += 1
        tr = self.trace
        self._record_version(
            core, line, self._commit_seq,
            tr.clock.now if tr is not None else 0,
            {addr: self.hierarchy.memory.peek(addr)},
        )

    def _record_version(
        self, core: int, line: int, seq: int, cycle: int,
        values: dict[int, int],
    ) -> None:
        pool_line = self._pin_version_line()
        tr = self.trace
        events = tr is not None and tr.events is not None
        if pool_line is None:
            # the pool cannot hold this version even after reclamation
            # and GC: the publication still proceeds (commit never fails
            # here), but snapshots older than it are poisoned
            for freed in self.chain.note_lost(line, seq):
                self.pool.free_line(freed)
            if events:
                tr.emit(tr.clock.now, VERSION_ALLOC, core,
                        data={"line": line, "seq": seq, "lost": True})
            return
        self.stats.extra["version_allocs"] += 1
        for freed in self.chain.record(line, seq, cycle, values, pool_line):
            self.pool.free_line(freed)
        if events:
            tr.emit(tr.clock.now, VERSION_ALLOC, core,
                    data={"line": line, "seq": seq, "words": len(values)})

    def _pin_version_line(self) -> int | None:
        try:
            return self.pool.allocate_line()
        except PoolExhausted:
            pass
        if self._reclaim_committed():
            try:
                return self.pool.allocate_line()
            except PoolExhausted:
                pass
        return None

    # ------------------------------------------------------------------
    # garbage collection under pool pressure
    # ------------------------------------------------------------------
    def _reclaim_committed(self) -> int:
        """Stale versions are sacrificed before any writer is doomed."""
        freed = super()._reclaim_committed()
        if freed:
            return freed
        return self._gc_versions(self.RECLAIM_BATCH)

    def _gc_versions(self, n: int) -> int:
        released = self.chain.evict_oldest(n)
        for line in released:
            self.pool.free_line(line)
        if released:
            tr = self.trace
            if tr is not None and tr.events is not None:
                tr.emit(tr.clock.now, VERSION_GC,
                        data={"freed": len(released)})
        return len(released)

    # ------------------------------------------------------------------
    # end-of-transaction processing
    # ------------------------------------------------------------------
    def commit(self, core: int, frame: TxFrame, outermost: bool) -> int:
        if frame.mode == "snapshot":
            # wait-free: no table flips, no summary update, no
            # arbitration — the reader was never visible to anyone
            if outermost:
                self.stats.extra["snapshot_commits"] += 1
            return 1
        return super().commit(core, frame, outermost)

    def abort(self, core: int, frame: TxFrame, outermost: bool) -> int:
        if frame.mode == "snapshot":
            return 1  # nothing was published or armed
        return super().abort(core, frame, outermost)

    def note_outcome(self, core: int, frame: TxFrame, committed: bool) -> None:
        if committed and frame.depth == 0:
            site = frame.site
            self._site_commits[site] = self._site_commits.get(site, 0) + 1
            if frame.write_lines:
                self._site_writes[site] = self._site_writes.get(site, 0) + 1

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def version_pool_lines(self) -> set[int]:
        """Pool lines pinned by retained versions (oracle quiescence)."""
        return self.chain.pool_lines()

    def scheme_stats(self) -> dict[str, float]:
        out = super().scheme_stats()
        out.update(self.chain.stats())
        out["snapshot_demoted_sites"] = len(self._demoted)
        return out
