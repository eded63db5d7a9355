"""SUV: single-update version management (the paper's contribution).

Every transactional store is *redirected*: the new value is written to a
fresh line in the preserved pool (or back to the original line, for the
redirect-back optimization) and the mapping is recorded as a transient
redirect-table entry.  Old and new values coexist at two addresses until
the transaction ends, so commit and abort are **bit flips** on the
touched entries — no undo-log walk, no redo merge, exactly one data
movement per store regardless of outcome.  The isolation window closes
almost immediately, which is the source of the paper's speedups.

Costs that remain, and that the sensitivity studies probe:

* entries that fell out of the zero-latency first-level table pay the
  second-level (10-cycle) or in-memory (software) access on lookup and
  at commit/abort (Figures 7, 8; Table V);
* every access — including non-transactional ones, for strong
  isolation — consults the redirect summary signature; false positives
  cost a wasted lookup (Figure 5, Section IV-A);
* on a hardware table miss SUV speculates with the original address;
  if a swapped-out entry did exist in memory the access pays a
  re-execution penalty.
"""

from __future__ import annotations

from repro.config import SimConfig
from repro.core.preserved_pool import PreservedPool
from repro.errors import InvariantViolation, PoolExhausted
from repro.core.redirect_entry import EntryState, RedirectEntry
from repro.core.redirect_table import RedirectTable
from repro.core.summary import RedirectSummaryFilter
from repro.htm.transaction import TxFrame
from repro.htm.vm.base import VersionManager
from repro.mem.hierarchy import MemoryHierarchy
from repro.trace import (
    POOL_ALLOC,
    POOL_RECLAIM,
    SIG_TEST,
    TABLE_HIT,
    TABLE_MISS,
    TABLE_SPILL,
)


class SUV(VersionManager):
    """The single-update version manager (SUV-TM, eager mode)."""

    name = "suv"
    vm_axis = "redirect"
    cd_axis = "eager"

    #: constant cycles to flash-flip the transient entries and update the
    #: summary signature at commit/abort (a parallel hardware operation).
    SWITCH_CYCLES = 3
    #: the one data movement: copying the line's current contents to its
    #: redirect target happens L1-local, in parallel with the store.
    COPY_CYCLES = 1

    def __init__(self, config: SimConfig, hierarchy: MemoryHierarchy) -> None:
        super().__init__(config, hierarchy)
        rcfg = config.redirect
        self.table = RedirectTable(config.n_cores, rcfg)
        self.pool = PreservedPool(
            rcfg.pool_base, rcfg.pool_page_bytes, rcfg.pool_max_pages
        )
        self.summary = RedirectSummaryFilter(rcfg)
        #: orig_lines of VALID entries with an in-flight "swap" action
        #: (redirect-back disabled): their pool lines must not be
        #: reclaimed while the owning transaction is open.
        self._inflight_swaps: set[int] = set()
        self.stats.extra.update(
            redirects=0, redirect_backs=0, remote_entry_touches=0,
            misspeculations=0, pool_exhaustions=0, pool_reclaims=0,
        )

    # ------------------------------------------------------------------
    # lookup helpers
    # ------------------------------------------------------------------
    def _consult_table(self, core: int, line: int) -> tuple[RedirectEntry | None, int]:
        """Summary-filtered table lookup; returns (entry, extra cycles)."""
        tr = self.trace
        events = tr is not None and tr.events is not None
        if not self.summary.might_be_redirected(line):
            if events:
                tr.emit(tr.clock.now, SIG_TEST, core,
                        data={"line": line, "maybe": False})
            return None, 0
        if events:
            tr.emit(tr.clock.now, SIG_TEST, core,
                    data={"line": line, "maybe": True})
            spills_before = self.table.l2_overflows
        res = self.table.lookup(core, line)
        extra = res.latency
        if res.entry is None:
            self.summary.note_false_positive()
        elif res.level == "mem":
            # we speculated with the original address and were wrong
            self.stats.extra["misspeculations"] += 1
            extra += self.config.redirect.misspeculation_penalty
        if tr is not None:
            tr.note_table_lookup(extra)
            if events:
                kind = TABLE_MISS if res.entry is None else TABLE_HIT
                tr.emit(tr.clock.now, kind, core,
                        data={"line": line, "level": res.level,
                              "cycles": extra})
                spilled = self.table.l2_overflows - spills_before
                if spilled:
                    # the lookup's promotions pushed entries out of the
                    # hardware levels into the software overflow area
                    tr.emit(tr.clock.now, TABLE_SPILL, core,
                            data={"entries": spilled})
        return res.entry, extra

    #: committed entries reclaimed per software pass on pool exhaustion
    RECLAIM_BATCH = 8

    def _allocate_or_doom(self, frame: TxFrame) -> tuple[int | None, int]:
        """``(pool line, extra cycles)``, or ``(None, cost)`` after
        dooming the transaction.

        Pool exhaustion is survivable, in two stages.  First a software
        handler reclaims committed (stable ``VALID``) redirect entries:
        their data is copied back to the original lines, the entries are
        dropped from the table and the summary, and the pool lines
        return to the free list.  Only when nothing is reclaimable —
        every pool line is pinned by an open transaction — is this
        transaction marked ``must_abort``: the store stays untranslated
        and the ordinary abort-with-backoff path releases the
        transaction's own pool lines, so a retry (after neighbours
        commit) can succeed.
        """
        tr = self.trace
        events = tr is not None and tr.events is not None
        try:
            line = self.pool.allocate_line()
            if events:
                tr.emit(tr.clock.now, POOL_ALLOC, data={"pool_line": line})
            return line, 0
        except PoolExhausted:
            pass
        freed = self._reclaim_committed()
        if freed:
            # software handler: table/summary surgery plus one line copy
            # back to the original address per reclaimed entry
            cost = self.config.redirect.software_overhead + freed * self.COPY_CYCLES
            line = self.pool.allocate_line()
            if events:
                tr.emit(tr.clock.now, POOL_ALLOC,
                        data={"pool_line": line, "after_reclaim": True})
            return line, cost
        self.stats.extra["pool_exhaustions"] += 1
        frame.vm["must_abort"] = "pool"
        if events:
            tr.emit(tr.clock.now, POOL_ALLOC, data={"exhausted": True})
        return None, 0

    def _reclaim_committed(self) -> int:
        """Reclaim up to :attr:`RECLAIM_BATCH` committed redirections."""
        freed = 0
        for entry in list(self.table.iter_entries()):
            if freed >= self.RECLAIM_BATCH:
                break
            if entry.state is not EntryState.VALID:
                continue  # transient: pinned by an open transaction
            if entry.orig_line in self._inflight_swaps:
                continue  # its pool line is being swapped right now
            if not self.pool.contains_line(entry.redirected_line):
                continue  # redirect-back entry pointing at the original
            self.summary.remove(entry.orig_line)
            self.table.remove(entry.orig_line)
            self.pool.free_line(entry.redirected_line)
            freed += 1
        self.stats.extra["pool_reclaims"] += freed
        tr = self.trace
        if freed and tr is not None and tr.events is not None:
            tr.emit(tr.clock.now, POOL_RECLAIM, data={"freed": freed})
        return freed

    @staticmethod
    def _frame_target(frame: TxFrame, line: int) -> int | None:
        """This transaction's own redirection of ``line``, if any."""
        f: TxFrame | None = frame
        while f is not None:
            targets = f.vm.get("targets")
            if targets is not None:
                target = targets.get(line)
                if target is not None:
                    return target
            f = f.parent
        return None

    # ------------------------------------------------------------------
    # VersionManager hooks
    # ------------------------------------------------------------------
    def pre_read(self, core: int, frame: TxFrame, line: int) -> tuple[int, int]:
        own = self._frame_target(frame, line)
        if own is not None:
            return 0, own
        entry, extra = self._consult_table(core, line)
        if entry is not None and entry.active_for(core):
            return extra, entry.redirected_line
        return extra, line

    def pre_write(self, core: int, frame: TxFrame, line: int) -> tuple[int, int]:
        self.stats.tx_writes += 1
        own = self._frame_target(frame, line)
        if own is not None:
            # the line was already redirected by this transaction
            return 0, own
        self.stats.first_writes += 1
        vm = frame.vm
        targets = vm.get("targets")
        if targets is None:
            targets = vm["targets"] = {}
        actions = vm.get("entries")
        if actions is None:
            actions = vm["entries"] = []
        entry, extra = self._consult_table(core, line)

        if entry is not None and entry.state.is_transient:
            if entry.owner == core:
                # an enclosing frame's redirection not yet in our targets
                target = (
                    entry.redirected_line
                    if entry.state is EntryState.LOCAL_VALID
                    else line
                )
                targets[line] = target
                return extra, target
            raise InvariantViolation(
                "write reached a line transiently redirected by another "
                "core; conflict detection must prevent this",
                core=core, line=line, owner=entry.owner,
            )

        if entry is not None and entry.state is EntryState.VALID:
            if self.config.redirect.redirect_back:
                # redirect-back: write lands on the original address; the
                # committed mapping stays live for everyone else until we
                # commit, then the entry is reclaimed entirely.
                self.stats.extra["redirect_backs"] += 1
                entry.state = EntryState.LOCAL_INVALID
                entry.owner = core
                actions.append(("back", entry, None))
                targets[line] = line
                # the full-line copy from the redirected location supplies
                # the data (no fetch), but stale remote copies of the
                # original line must still be invalidated
                extra += self.hierarchy.invalidate_remote(core, line)
                frame.vm["allocate_write"] = True
                return extra + self.COPY_CYCLES, line
            # ablation: no redirect-back — chain to a fresh pool line
            self._inflight_swaps.add(entry.orig_line)
            new_line, reclaim_cost = self._allocate_or_doom(frame)
            extra += reclaim_cost
            if new_line is None:
                self._inflight_swaps.discard(entry.orig_line)
                return extra, line
            self.stats.extra["redirects"] += 1
            actions.append(("swap", entry, new_line))
            targets[line] = new_line
            frame.vm["allocate_write"] = True
            return extra + self.COPY_CYCLES, new_line

        # no (live) entry: create a fresh redirection into the pool
        new_line, reclaim_cost = self._allocate_or_doom(frame)
        extra += reclaim_cost
        if new_line is None:
            return extra, line
        self.stats.extra["redirects"] += 1
        new_entry = RedirectEntry(line, new_line, EntryState.LOCAL_VALID, owner=core)
        spills_before = self.table.l2_overflows
        self.table.insert(core, new_entry)
        tr = self.trace
        if tr is not None and tr.events is not None:
            spilled = self.table.l2_overflows - spills_before
            if spilled:
                tr.emit(tr.clock.now, TABLE_SPILL, core,
                        data={"entries": spilled})
        actions.append(("new", new_entry, None))
        targets[line] = new_line
        # the pool line is a fresh allocation: the store installs it in
        # the L1 without fetching anything from below
        frame.vm["allocate_write"] = True
        return extra + self.COPY_CYCLES, new_line

    def _physical_of(self, core: int, frame: TxFrame, line: int) -> int:
        own = self._frame_target(frame, line)
        return own if own is not None else line

    # ------------------------------------------------------------------
    def _entry_touch_cost(self, core: int, entry: RedirectEntry) -> int:
        """Cycles to reach an entry at end-of-transaction processing."""
        if entry.orig_line in self.table.l1_tables[core]:
            return self.config.redirect.l1_latency
        self.stats.extra["remote_entry_touches"] += 1
        if entry.orig_line in self.table.l2_table:
            return self.config.redirect.l2_latency
        return (
            self.config.redirect.memory_latency
            + self.config.redirect.software_overhead
        )

    def commit(self, core: int, frame: TxFrame, outermost: bool) -> int:
        if not outermost:
            return 2
        latency = self.SWITCH_CYCLES
        for kind, entry, aux in frame.vm.get("entries", ()):
            latency += self._entry_touch_cost(core, entry)
            if kind == "new":
                entry.on_commit()            # LOCAL_VALID → VALID
                self.summary.add(entry.orig_line)
            elif kind == "back":
                entry.on_commit()            # LOCAL_INVALID → INVALID
                self.summary.remove(entry.orig_line)
                self.table.remove(entry.orig_line)
                self.pool.free_line(entry.redirected_line)
            else:  # "swap" (redirect-back disabled)
                self.pool.free_line(entry.redirected_line)
                entry.redirected_line = aux
                self._inflight_swaps.discard(entry.orig_line)
        if self.summary.maybe_rebuild(self.table.iter_live_lines()):
            # software rebuild of the summary filter (performance hygiene)
            latency += self.config.redirect.software_overhead
        return latency

    def abort(self, core: int, frame: TxFrame, outermost: bool) -> int:
        latency = self.SWITCH_CYCLES if outermost else 2
        for kind, entry, aux in frame.vm.get("entries", ()):
            latency += self._entry_touch_cost(core, entry)
            if kind == "new":
                entry.on_abort()             # LOCAL_VALID → INVALID
                self.table.remove(entry.orig_line)
                self.pool.free_line(entry.redirected_line)
            elif kind == "back":
                entry.on_abort()             # LOCAL_INVALID → VALID
            else:  # "swap"
                self.pool.free_line(aux)
                self._inflight_swaps.discard(entry.orig_line)
        return latency

    def merge_nested(self, parent: TxFrame, child: TxFrame) -> None:
        parent.vm.setdefault("targets", {}).update(child.vm.get("targets", {}))
        parent.vm.setdefault("entries", []).extend(child.vm.get("entries", ()))

    # ------------------------------------------------------------------
    def nontx_translate(self, core: int, line: int) -> tuple[int, int]:
        entry, extra = self._consult_table(core, line)
        if entry is not None and entry.active_for(None):
            return extra, entry.redirected_line
        return extra, line

    def scheme_stats(self) -> dict[str, float]:
        out = super().scheme_stats()
        out.update({f"table_{k}": v for k, v in self.table.stats().items()})
        out.update({f"summary_{k}": v for k, v in self.summary.stats().items()})
        out["pool_pages"] = self.pool.pages_allocated
        out["pool_live_lines"] = self.pool.live_lines
        out["pool_high_water"] = self.pool.high_water
        return out
