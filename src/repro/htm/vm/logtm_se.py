"""LogTM-SE: eager version management with an undo log (the baseline).

Every first transactional store to a line appends an undo record (old
value + address) to a per-thread log in cacheable memory, then updates
the line in place.  Commit discards the log (cheap).  Abort traps into a
software handler that walks the log in reverse, restoring every line —
the *repair pathology*: the transaction's isolation stays held for the
whole walk, blocking every conflicting neighbour (paper Figures 1, 6).
"""

from __future__ import annotations

from repro.config import SimConfig
from repro.htm.transaction import TxFrame
from repro.htm.vm.base import VersionManager
from repro.mem.hierarchy import MemoryHierarchy
from repro.trace import LOG_WALK


class LogTMSE(VersionManager):
    """Undo-log eager VM (LogTM-SE, Yen et al. HPCA'07)."""

    name = "logtm-se"
    vm_axis = "undo"
    cd_axis = "eager"

    #: cycles to discard the log and checkpoint at commit
    COMMIT_CYCLES = 8

    def __init__(self, config: SimConfig, hierarchy: MemoryHierarchy) -> None:
        super().__init__(config, hierarchy)

    def pre_read(self, core: int, frame: TxFrame, line: int) -> tuple[int, int]:
        return 0, line

    def pre_write(self, core: int, frame: TxFrame, line: int) -> tuple[int, int]:
        self.stats.tx_writes += 1
        vm = frame.vm
        logged: set[int] | None = vm.get("logged_lines")
        if logged is None:
            logged = vm["logged_lines"] = set()
        extra = 0
        if line not in logged:
            # one load of the old value + one store to the undo log
            self.stats.first_writes += 1
            logged.add(line)
            frame.vm.setdefault("log_order", []).append(line)
            extra += self._log_append(core)
        return extra, line

    def commit(self, core: int, frame: TxFrame, outermost: bool) -> int:
        if not outermost:
            # nested commit: the log simply keeps growing; the simulator
            # splices the child's records into the parent via merge_nested
            return 2
        entries = len(frame.vm.get("logged_lines", ()))
        self._log_reset(core, entries)
        return self.COMMIT_CYCLES

    def abort(self, core: int, frame: TxFrame, outermost: bool) -> int:
        # trap into the software handler, then walk the log in reverse
        order: list[int] = frame.vm.get("log_order", [])
        latency = self.config.htm.abort_trap_cycles
        latency += self._log_walk_restore(core, order)
        self._log_reset(core, len(order))
        tr = self.trace
        if tr is not None and tr.events is not None:
            # the repair pathology, event by event: the undo walk keeps
            # the window open for `cycles` after the abort decision
            tr.emit(tr.clock.now, LOG_WALK, core,
                    data={"records": len(order), "cycles": latency})
        return latency

    def merge_nested(self, parent: TxFrame, child: TxFrame) -> None:
        parent.vm.setdefault("logged_lines", set()).update(
            child.vm.get("logged_lines", ())
        )
        parent.vm.setdefault("log_order", []).extend(
            child.vm.get("log_order", ())
        )
