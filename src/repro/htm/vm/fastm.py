"""FasTM: log-based eager VM with fast abort recovery (Lupon PACT'09).

FasTM exploits the inconsistency between the L1 and the lower memory
hierarchy: before a transaction's first store to a dirty line it writes
the old value back to the L2, then keeps the *new* value only in the L1
(marked speculative).  Abort then reduces to flash-invalidating the
speculative lines (old values refetch from the L2 naturally).

If a speculative line is evicted during the transaction (capacity or
conflict), FasTM *degenerates to LogTM-SE for that line*: the store is
also logged, and abort must software-walk those records.  This is the
behaviour the paper contrasts SUV against in Figure 6 and Table V.
"""

from __future__ import annotations

from repro.config import SimConfig
from repro.htm.transaction import TxFrame
from repro.htm.vm.base import VersionManager
from repro.mem.hierarchy import AccessResult, MemoryHierarchy
from repro.trace import FLASH_ABORT


class FasTM(VersionManager):
    """L1-pinned eager VM with per-line LogTM-SE fallback on overflow."""

    name = "fastm"
    vm_axis = "flash"
    cd_axis = "eager"
    speculative_marking = True

    #: cycles of the flash commit (clear speculative bits)
    COMMIT_CYCLES = 6
    #: cycles of the flash abort (gang-invalidate speculative lines)
    FAST_ABORT_CYCLES = 14

    def __init__(self, config: SimConfig, hierarchy: MemoryHierarchy) -> None:
        super().__init__(config, hierarchy)
        self.stats.extra["writeback_flushes"] = 0
        self.stats.extra["degenerated_aborts"] = 0

    def pre_read(self, core: int, frame: TxFrame, line: int) -> tuple[int, int]:
        return 0, line

    def pre_write(self, core: int, frame: TxFrame, line: int) -> tuple[int, int]:
        self.stats.tx_writes += 1
        vm = frame.vm
        first: set[int] | None = vm.get("spec_lines")
        if first is None:
            first = vm["spec_lines"] = set()
        extra = 0
        if line not in first:
            self.stats.first_writes += 1
            first.add(line)
            # write back the pre-transaction dirty data so the L2 holds
            # the old value ("it first writes back the dirty data in the
            # L1 cache to the lower-level memory")
            flush = self.hierarchy.flush_to_l2(core, line)
            if flush:
                self.stats.extra["writeback_flushes"] += 1
            extra += flush
        return extra, line

    def post_write(
        self, core: int, frame: TxFrame, line: int, result: AccessResult
    ) -> int:
        extra = super().post_write(core, frame, line, result)
        if result.evicted_speculative:
            vm = frame.vm
            spec: set[int] = vm.setdefault("spec_lines", set())
            overflowed: list[int] = vm.setdefault("overflow_order", [])
            logged: set[int] = vm.setdefault("overflow_lines", set())
            for ln in result.evicted_speculative:
                if ln in spec and ln not in logged:
                    # the line left the L1 carrying uncommitted data: fall
                    # back to undo logging for it (degeneration to
                    # LogTM-SE)
                    logged.add(ln)
                    overflowed.append(ln)
                    extra += self._log_append(core)
        return extra

    def commit(self, core: int, frame: TxFrame, outermost: bool) -> int:
        if not outermost:
            return 2
        self.hierarchy.drop_speculative(core, invalidate=False)
        self._log_reset(core, len(frame.vm.get("overflow_lines", ())))
        return self.COMMIT_CYCLES

    def abort(self, core: int, frame: TxFrame, outermost: bool) -> int:
        # flash-invalidate the speculative lines still in the L1 ...
        self.hierarchy.drop_speculative(core, invalidate=True)
        latency = self.FAST_ABORT_CYCLES
        overflowed: list[int] = frame.vm.get("overflow_order", [])
        if overflowed:
            # ... but overflowed lines need the LogTM-SE software walk
            self.stats.extra["degenerated_aborts"] += 1
            latency += self.config.htm.abort_trap_cycles
            latency += self._log_walk_restore(core, overflowed)
        self._log_reset(core, len(overflowed))
        tr = self.trace
        if tr is not None and tr.events is not None:
            # the gang-invalidate is near-instant unless lines overflowed
            # into the undo log, in which case the walk dominates
            tr.emit(tr.clock.now, FLASH_ABORT, core,
                    data={"overflowed": len(overflowed), "cycles": latency})
        return latency

    def merge_nested(self, parent: TxFrame, child: TxFrame) -> None:
        parent.vm.setdefault("spec_lines", set()).update(
            child.vm.get("spec_lines", ())
        )
        parent.vm.setdefault("overflow_lines", set()).update(
            child.vm.get("overflow_lines", ())
        )
        parent.vm.setdefault("overflow_order", []).extend(
            child.vm.get("overflow_order", ())
        )
