"""Lazy (pessimistic) version management: redo-in-L1, merge at commit.

This is the TCC-style scheme DynTM uses for its lazy execution mode.
Transactional stores stay core-local (no coherence broadcast) in
speculative L1 lines; conflicts are *not* detected during execution.
At commit the transaction validates its read set against a global line
version clock, waits for any conflicting eager transaction, then merges:
for every written line it issues the real coherence write (invalidation
+ data movement), which is the *merge pathology* — the isolation window
stays open for the whole merge (paper Figure 1).

When the underlying data placement is SUV (DynTM+SUV), publication only
needs the invalidation round trip: the new data already sits at the
redirected address, so the Committing component shrinks (Figure 9).

Speculative-line eviction cannot be tolerated lazily; the transaction
must abort and re-execute eagerly (``must_abort`` = "overflow").
"""

from __future__ import annotations

from repro.config import SimConfig
from repro.htm.transaction import TxFrame
from repro.htm.vm.base import VersionManager
from repro.mem.hierarchy import AccessResult, MemoryHierarchy
from repro.trace import PUBLISH


class LazyVM(VersionManager):
    """Redo-in-L1 lazy version manager (DynTM's lazy mode)."""

    name = "lazy"
    vm_axis = "buffer"
    cd_axis = "eager"
    speculative_marking = True
    local_writes = True

    FAST_ABORT_CYCLES = 14

    def __init__(
        self,
        config: SimConfig,
        hierarchy: MemoryHierarchy,
        publish_by_redirect: bool = False,
    ) -> None:
        super().__init__(config, hierarchy)
        #: True when SUV provides placement: commit publishes by
        #: invalidation only, without data movement.
        self.publish_by_redirect = publish_by_redirect
        #: global line-version clock, shared with the simulator (and the
        #: adaptive scheme) for commit-time read-set validation.
        self.line_versions: dict[int, int] = {}
        self.stats.extra.update(
            validation_failures=0, lazy_overflows=0, published_lines=0
        )

    # ------------------------------------------------------------------
    def pre_read(self, core: int, frame: TxFrame, line: int) -> tuple[int, int]:
        vm = frame.vm
        versions = vm.get("read_versions")
        if versions is None:
            versions = vm["read_versions"] = {}
        if line not in versions:
            versions[line] = self.line_versions.get(line, 0)
        return 0, line

    def pre_write(self, core: int, frame: TxFrame, line: int) -> tuple[int, int]:
        self.stats.tx_writes += 1
        vm = frame.vm
        first: set[int] | None = vm.get("spec_lines")
        if first is None:
            first = vm["spec_lines"] = set()
        if line not in first:
            self.stats.first_writes += 1
            first.add(line)
        return 0, line

    def post_write(
        self, core: int, frame: TxFrame, line: int, result: AccessResult
    ) -> int:
        extra = super().post_write(core, frame, line, result)
        if result.evicted_speculative:
            # uncommitted data left the L1: lazy mode cannot recover
            self.stats.extra["lazy_overflows"] += 1
            frame.vm["must_abort"] = "overflow"
        return extra

    # ------------------------------------------------------------------
    def validate(self, core: int, frame: TxFrame) -> bool:
        """Commit-time read-set validation against the version clock."""
        for line, seen in frame.vm.get("read_versions", {}).items():
            if self.line_versions.get(line, 0) != seen:
                self.stats.extra["validation_failures"] += 1
                return False
        return True

    def commit(self, core: int, frame: TxFrame, outermost: bool) -> int:
        if not outermost:
            return 2
        latency = self.config.dyntm.commit_arbitration_cycles
        for line in sorted(frame.vm.get("spec_lines", ())):
            self.stats.extra["published_lines"] += 1
            # every publication invalidates remote stale copies ...
            latency += self.hierarchy.invalidate_remote(core, line)
            if not self.publish_by_redirect:
                # ... and the data-moving variant (FasTM placement) must
                # also drain the new value to the shared level; with SUV
                # placement the data already sits at the redirected
                # address, so the invalidation round trip suffices.
                latency += self.hierarchy.flush_to_l2(core, line) or (
                    self.config.l2.latency
                )
        self.hierarchy.drop_speculative(core, invalidate=False)
        tr = self.trace
        if tr is not None and tr.events is not None:
            # the merge pathology: the window stays open for `cycles`
            # while every written line is published one by one
            tr.emit(tr.clock.now, PUBLISH, core,
                    data={"lines": len(frame.vm.get("spec_lines", ())),
                          "redirect": self.publish_by_redirect,
                          "cycles": latency})
        return latency

    def abort(self, core: int, frame: TxFrame, outermost: bool) -> int:
        self.hierarchy.drop_speculative(core, invalidate=True)
        return self.FAST_ABORT_CYCLES

    def merge_nested(self, parent: TxFrame, child: TxFrame) -> None:
        parent.vm.setdefault("spec_lines", set()).update(
            child.vm.get("spec_lines", ())
        )
        parent.vm.setdefault("read_versions", {}).update(
            {
                k: v
                for k, v in child.vm.get("read_versions", {}).items()
                if k not in parent.vm.get("read_versions", {})
            }
        )
