"""Version managers assembled from policy axes (see :mod:`repro.htm.policy`).

:func:`build_version_manager` is the one builder behind every scheme
name: a checked :class:`~repro.htm.policy.SchemeComposition` becomes a
bare carrier VM under eager or lazy detection, and an
:class:`AdaptiveVM` only under adaptive detection, the one cd value
that switches mode per attempt.  The resolution axis is not built
here — the simulator reads it off the composition and instantiates the
matching policy object from :mod:`repro.htm.policy`, next to the one
lazy-commit token (:class:`~repro.htm.policy.CommitArbitration`).

:class:`RedirectLazyVM` is the novel hybrid the decomposition unlocks:
SUV's redirect placement under *lazy* conflict detection.  Writes go to
private pool lines (naturally invisible — no transient entries are
published to the shared redirect table during execution), reads record
line versions for commit-time validation, and commit publishes by
installing the redirect entries plus one invalidation round trip per
written line — no data merge, and unlike the L1-buffer lazy VM it
survives speculative-line eviction (the pool is memory-backed).
"""

from __future__ import annotations

from repro.config import SimConfig
from repro.core.redirect_entry import EntryState, RedirectEntry
from repro.htm.policy import AdaptiveCD, SchemeComposition
from repro.htm.transaction import TxFrame
from repro.htm.vm.base import VersionManager, resolve_scheme
from repro.htm.vm.fastm import FasTM
from repro.htm.vm.lazy import LazyVM
from repro.htm.vm.logtm_se import LogTMSE
from repro.htm.vm.mvsuv import MVSUV
from repro.htm.vm.suv import SUV
from repro.mem.hierarchy import AccessResult, MemoryHierarchy
from repro.trace import PUBLISH, Tracer


class RedirectLazyVM(SUV):
    """SUV placement under lazy conflict detection (a novel hybrid).

    Differences from eager SUV, all consequences of invisibility:

    * ``pre_write`` never touches the shared redirect table; the
      mapping lives in the frame's private ``targets`` until commit, so
      concurrent writers of the same line each buffer into their own
      pool line (the committer's entry wins at publication).
    * ``pre_read`` records the line's version against the global
      version clock; ``validate`` replays the check at commit, exactly
      like :class:`~repro.htm.vm.lazy.LazyVM`.
    * ``commit`` is the publication: arbitration delay, then per
      written line an entry install (fresh or replacing a committed
      predecessor) plus the invalidation round trip — the data already
      sits at the redirected address, so nothing moves.
    * ``abort`` just frees the private pool lines: no table surgery,
      no log walk, and — unlike the L1-buffer lazy VM — no
      ``must_abort`` on speculative eviction.
    """

    name = "redirect-lazy"
    vm_axis = "redirect"
    cd_axis = "lazy"

    def __init__(self, config: SimConfig, hierarchy: MemoryHierarchy) -> None:
        super().__init__(config, hierarchy)
        #: global line-version clock shared with the simulator for
        #: commit-time read-set validation (same protocol as LazyVM)
        self.line_versions: dict[int, int] = {}
        self.stats.extra.update(validation_failures=0, published_lines=0)

    def uses_local_writes(self) -> bool:
        # writes land on private pool lines through the ordinary
        # hierarchy path; no core-local buffering needed
        return False

    # ------------------------------------------------------------------
    def pre_read(self, core: int, frame: TxFrame, line: int) -> tuple[int, int]:
        versions = frame.vm.get("read_versions")
        if versions is None:
            versions = frame.vm["read_versions"] = {}
        if line not in versions:
            versions[line] = self.line_versions.get(line, 0)
        # committed (VALID) redirections still translate reads; our own
        # private targets take precedence (read-your-writes placement)
        return super().pre_read(core, frame, line)

    def pre_write(self, core: int, frame: TxFrame, line: int) -> tuple[int, int]:
        self.stats.tx_writes += 1
        own = self._frame_target(frame, line)
        if own is not None:
            return 0, own
        self.stats.first_writes += 1
        targets = frame.vm.get("targets")
        if targets is None:
            targets = frame.vm["targets"] = {}
        # invisible until commit: allocate a private pool line, publish
        # nothing — the shared table is only touched at publication
        new_line, reclaim_cost = self._allocate_or_doom(frame)
        if new_line is None:
            return reclaim_cost, line
        self.stats.extra["redirects"] += 1
        targets[line] = new_line
        frame.vm["allocate_write"] = True
        return reclaim_cost + self.COPY_CYCLES, new_line

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
        latency = self.config.dyntm.commit_arbitration_cycles + self.SWITCH_CYCLES
        targets = frame.vm.get("targets", {})
        for line in sorted(targets):
            pool_line = targets[line]
            self.stats.extra["published_lines"] += 1
            entry, extra = self._consult_table(core, line)
            latency += extra
            if entry is not None and entry.state is EntryState.VALID:
                # replace a committed predecessor's mapping in place
                if self.pool.contains_line(entry.redirected_line):
                    self.pool.free_line(entry.redirected_line)
                entry.redirected_line = pool_line
            else:
                self.table.insert(
                    core,
                    RedirectEntry(line, pool_line, EntryState.VALID, owner=None),
                )
                self.summary.add(line)
            # stale remote copies of the original line die here; the new
            # data already sits at the redirected address (no merge)
            latency += self.hierarchy.invalidate_remote(core, line)
        if self.summary.maybe_rebuild(self.table.iter_live_lines()):
            latency += self.config.redirect.software_overhead
        tr = self.trace
        if tr is not None and tr.events is not None:
            tr.emit(tr.clock.now, PUBLISH, core,
                    data={"lines": len(targets), "redirect": True,
                          "cycles": latency})
        return latency

    def abort(self, core: int, frame: TxFrame, outermost: bool) -> int:
        for pool_line in frame.vm.get("targets", {}).values():
            if self.pool.contains_line(pool_line):
                self.pool.free_line(pool_line)
        return self.SWITCH_CYCLES if outermost else 2

    def merge_nested(self, parent: TxFrame, child: TxFrame) -> None:
        super().merge_nested(parent, child)
        parent_versions = parent.vm.setdefault("read_versions", {})
        for line, seen in child.vm.get("read_versions", {}).items():
            if line not in parent_versions:
                parent_versions[line] = seen


#: vm-axis value -> carrier class for eager-capable placements
_EAGER_CARRIERS: dict[str, type[VersionManager]] = {
    "undo": LogTMSE,
    "flash": FasTM,
    "redirect": SUV,
    "buffer": LazyVM,  # buffer under eager detection = the canonical "lazy"
    "mvsuv": MVSUV,
}


class AdaptiveVM(VersionManager):
    """Adaptive conflict detection: DynTM's per-site eager/lazy switch.

    Wraps an eager carrier (chosen by the vm axis) and a
    :class:`~repro.htm.vm.lazy.LazyVM` (publishing by redirect when the
    vm axis is ``redirect``), and lets :class:`~repro.htm.policy.
    AdaptiveCD` pick each outermost attempt's mode.  ``dyntm`` is
    ``flash+adaptive`` (the original DynTM, Figure 9 D) and
    ``dyntm+suv`` is ``redirect+adaptive`` (Figure 9 D+S), which also
    cheapens the lazy commit: publication is an invalidation round trip
    instead of a per-line data merge.
    """

    cd_axis = "adaptive"

    def __init__(
        self, config: SimConfig, hierarchy: MemoryHierarchy, vm: str
    ) -> None:
        super().__init__(config, hierarchy)
        self.vm_axis = vm
        self._cd = AdaptiveCD(
            config.dyntm.counter_bits, config.dyntm.lazy_threshold
        )
        self.eager: VersionManager = _EAGER_CARRIERS[vm](config, hierarchy)
        self.lazy = LazyVM(
            config, hierarchy, publish_by_redirect=(vm == "redirect")
        )
        #: the lazy carrier's version clock — the simulator bumps it per
        #: committed written line
        self.line_versions = self.lazy.line_versions
        self.stats.extra.update(eager_attempts=0, lazy_attempts=0)

    def attach_trace(self, tracer: Tracer) -> None:
        super().attach_trace(tracer)
        # the carriers emit their own events (FLASH_ABORT, PUBLISH,
        # table traffic); without this they would stay silent
        self.eager.attach_trace(tracer)
        self.lazy.attach_trace(tracer)

    # -- mode selection (the cd axis) -----------------------------------
    def mode_for(self, core: int, site: int) -> str:
        mode = self._cd.mode_for(site)
        self.stats.extra[f"{mode}_attempts"] += 1
        return mode

    def note_outcome(self, core: int, frame: TxFrame, committed: bool) -> None:
        self._cd.note_outcome(frame, committed)

    # -- delegation (the vm axis) ---------------------------------------
    def _vm(self, frame: TxFrame) -> VersionManager:
        return self.lazy if frame.mode == "lazy" else self.eager

    def on_begin(self, core: int, frame: TxFrame) -> int:
        return self._vm(frame).on_begin(core, frame)

    def pre_read(self, core: int, frame: TxFrame, line: int) -> tuple[int, int]:
        return self._vm(frame).pre_read(core, frame, line)

    def pre_write(self, core: int, frame: TxFrame, line: int) -> tuple[int, int]:
        return self._vm(frame).pre_write(core, frame, line)

    def post_write(
        self, core: int, frame: TxFrame, line: int, result: AccessResult
    ) -> int:
        return self._vm(frame).post_write(core, frame, line, result)

    def commit(self, core: int, frame: TxFrame, outermost: bool) -> int:
        return self._vm(frame).commit(core, frame, outermost)

    def abort(self, core: int, frame: TxFrame, outermost: bool) -> int:
        return self._vm(frame).abort(core, frame, outermost)

    def validate(self, core: int, frame: TxFrame) -> bool:
        return self._vm(frame).validate(core, frame)

    def merge_nested(self, parent: TxFrame, child: TxFrame) -> None:
        self._vm(parent).merge_nested(parent, child)

    def nontx_translate(self, core: int, line: int) -> tuple[int, int]:
        return self.eager.nontx_translate(core, line)

    # -- per-frame placement decisions ----------------------------------
    def wants_speculative_marking(self) -> bool:
        return self.eager.wants_speculative_marking()

    def speculative_for(self, frame: TxFrame) -> bool:
        return self._vm(frame).wants_speculative_marking()

    def local_writes_for(self, frame: TxFrame) -> bool:
        return self._vm(frame).uses_local_writes()

    def scheme_stats(self) -> dict[str, float]:
        out = super().scheme_stats()
        out.update({f"eager_{k}": v for k, v in self.eager.scheme_stats().items()})
        out.update({f"lazy_{k}": v for k, v in self.lazy.scheme_stats().items()})
        return out


def build_version_manager(
    composition: SchemeComposition,
    config: SimConfig,
    hierarchy: MemoryHierarchy,
    name: str,
) -> VersionManager:
    """The VM of a checked composition, reporting ``name`` in results.

    Eager detection builds the vm axis's carrier, lazy detection
    :class:`RedirectLazyVM` or :class:`~repro.htm.vm.lazy.LazyVM`
    (whose ``cd_axis`` then makes every frame lazy), adaptive detection
    the :class:`AdaptiveVM` wrapper.
    """
    vm, cd = composition.vm, composition.cd
    if cd == "adaptive":
        scheme: VersionManager = AdaptiveVM(config, hierarchy, vm)
    elif cd == "lazy":
        lazy_carrier = RedirectLazyVM if vm == "redirect" else LazyVM
        scheme = lazy_carrier(config, hierarchy)
    else:
        scheme = _EAGER_CARRIERS[vm](config, hierarchy)
    scheme.name = name
    scheme.cd_axis = cd
    return scheme


def make_version_manager(
    name: str, config: SimConfig, hierarchy: MemoryHierarchy
) -> VersionManager:
    """Build a scheme by name (named or composed) under ``config.htm``."""
    reported, composition = resolve_scheme(name, config.htm)
    return build_version_manager(composition, config, hierarchy, reported)
