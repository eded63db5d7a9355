"""The MESI-coherent memory hierarchy of the simulated CMP.

Coherence is modelled at transaction granularity: a GETS/GETM request is
resolved atomically (lookup, forwarding, invalidations) and its total
latency returned to the caller.  This captures everything the paper's
evaluation depends on — hit/miss behaviour, dirty-line write-backs,
invalidation storms, directory and mesh latencies — without simulating
individual protocol races, which GEMS resolves the same way from the
perspective of the committed-instruction timeline.

Transactional conflict NACKs are *not* issued here: the HTM layer checks
read/write signatures before any coherence action, mirroring the paper's
"check signatures on GETS/GETM arrival" with a conservative
all-active-transactions probe.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import SimConfig
from repro.interconnect.mesh import Mesh
from repro.mem.cache import CacheLineState as S
from repro.mem.cache import SetAssocCache

# int views of the MESI states for hot-path comparisons (DESIGN §11)
_M = int(S.MODIFIED)
_E = int(S.EXCLUSIVE)
_S = int(S.SHARED)
_I = int(S.INVALID)
from repro.mem.directory import Directory
from repro.mem.memory import MainMemory


@dataclass(slots=True)
class AccessResult:
    """Outcome of one load/store as seen by the requesting core.

    The eviction fields default to an (immutable, shared) empty tuple so
    the hit path — the overwhelmingly common case — allocates no lists;
    consumers only iterate them, never mutate (DESIGN §11).
    """

    latency: int
    l1_hit: bool
    source: str  # "l1", "owner", "l2", "mem"
    #: speculative (transactionally-written) lines this access evicted
    #: from the requester's L1 — the FasTM/lazy overflow trigger.
    evicted_speculative: "list[int] | tuple[int, ...]" = ()
    #: every line this access evicted from the requester's L1 (used to
    #: count transactional write-set overflows for the eager schemes).
    evicted: "list[int] | tuple[int, ...]" = ()


class MemoryHierarchy:
    """Per-core L1s + shared L2 + directory + banked memory over a mesh."""

    def __init__(self, config: SimConfig, mesh: Mesh | None = None) -> None:
        self.config = config
        self.mesh = mesh or Mesh(config.n_cores, config.mesh, config.memory.banks)
        self.l1s = [SetAssocCache(config.l1) for _ in range(config.n_cores)]
        self.l2 = SetAssocCache(config.l2)
        self.directory = Directory(config.directory, config.n_cores)
        self.memory = MainMemory(config.memory)
        # latency constants hoisted out of the per-access attribute
        # chains (config.l1.latency etc. never change after construction)
        self._l1_lat = config.l1.latency
        self._l2_lat = config.l2.latency
        self._dir_lat = self.directory.latency
        self._mem_lat = self.memory.access_latency()
        # L1 hits vastly outnumber misses and always produce the same
        # result object; consumers never mutate AccessResult (its
        # eviction fields are shared empty tuples already), so one
        # preallocated instance serves every hit
        self._hit = AccessResult(self._l1_lat, True, "l1")
        # counters
        self.l1_writebacks = 0
        self.invalidations = 0
        self.forwards = 0

    # ------------------------------------------------------------------
    # internal helpers
    # ------------------------------------------------------------------
    def _to_bank(self, core: int, line: int) -> int:
        return self.mesh.core_to_bank(core, line)

    def _fetch_from_l2_or_mem(self, line: int) -> tuple[int, str]:
        """Latency and source of a fill serviced below the L1s."""
        if self.l2.lookup(line) is not None:
            return self._l2_lat, "l2"
        latency = self._l2_lat + self._mem_lat
        victim = self.l2.insert(line, S.EXCLUSIVE)
        # dirty L2 victims drain to memory off the critical path
        return latency, "mem"

    def _install_l1(
        self, core: int, line: int, state: S, dirty: bool, speculative: bool
    ) -> tuple[list[int], list[int]]:
        """Install a line in a core's L1, handling the victim.

        Returns ``(evicted_lines, evicted_speculative_lines)``.
        """
        victim = self.l1s[core].insert(line, state, dirty=dirty, speculative=speculative)
        evicted: list[int] = []
        evicted_spec: list[int] = []
        if victim is not None:
            evicted.append(victim.line)
            if victim.dirty:
                self.l1_writebacks += 1
                self.l2.insert(victim.line, S.MODIFIED, dirty=True)
            if victim.speculative:
                evicted_spec.append(victim.line)
            self.directory.drop(victim.line, core)
        return evicted, evicted_spec

    def _invalidate_holders(self, line: int, except_core: int) -> int:
        """Invalidate every remote copy; returns the added latency."""
        holders = self.directory.holders(line) - {except_core}
        if not holders:
            return 0
        worst = 0
        for holder in holders:
            self.invalidations += 1
            entry = self.l1s[holder].invalidate(line)
            if entry is not None and entry.dirty:
                self.l1_writebacks += 1
                self.l2.insert(line, S.MODIFIED, dirty=True)
            self.directory.drop(line, holder)
            worst = max(worst, self.mesh.core_to_core(except_core, holder))
        # request + acknowledgement round trip to the farthest holder
        return 2 * worst

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def read(self, core: int, line: int) -> AccessResult:
        """Perform a load of ``line`` by ``core`` (GETS on miss)."""
        # the hit path probes the L1 set inline (SetAssocCache.lookup's
        # probe, counters and LRU touch, without its call)
        l1 = self.l1s[core]
        mask = l1._set_mask
        cset = l1._sets[line & mask if mask >= 0 else line % l1.n_sets]
        entry = cset.get(line) if cset is not None else None
        if entry is not None and entry.state != _I:
            l1.hits += 1
            tick = l1._tick + 1
            l1._tick = tick
            entry.lru_tick = tick
            return self._hit
        l1.misses += 1

        latency = self._l1_lat  # detect the miss
        latency += self._to_bank(core, line) + self._dir_lat
        owner = self.directory.owner_of(line)
        if owner is not None and owner != core:
            # cache-to-cache forward; owner downgrades to S, dirty data
            # drains to the L2 so the L2 copy is up to date.
            self.forwards += 1
            own_entry = self.l1s[owner].peek(line)
            if own_entry is not None:
                if own_entry.dirty:
                    self.l1_writebacks += 1
                    self.l2.insert(line, S.MODIFIED, dirty=True)
                    own_entry.dirty = False
                own_entry.state = S.SHARED
                self.directory.record_shared(line, owner)
                latency += self.mesh.core_to_core(owner, core) + self._l1_lat
                source = "owner"
            else:
                # stale directory (silent eviction): fall through to L2
                self.directory.drop(line, owner)
                fill, source = self._fetch_from_l2_or_mem(line)
                latency += fill
        else:
            fill, source = self._fetch_from_l2_or_mem(line)
            latency += fill

        others = self.directory.holders(line) - {core}
        state = S.SHARED if others else S.EXCLUSIVE
        evicted, evicted_spec = self._install_l1(
            core, line, state, dirty=False, speculative=False
        )
        if state is S.SHARED:
            self.directory.record_shared(line, core)
        else:
            self.directory.record_owner(line, core)
        return AccessResult(latency, False, source, evicted_spec, evicted)

    def write(self, core: int, line: int, speculative: bool = False) -> AccessResult:
        """Perform a store to ``line`` by ``core`` (GETM on miss/upgrade)."""
        # a hit in M or E probes the L1 set inline, as read() does;
        # everything else takes lookup()
        l1 = self.l1s[core]
        mask = l1._set_mask
        cset = l1._sets[line & mask if mask >= 0 else line % l1.n_sets]
        entry = cset.get(line) if cset is not None else None
        if entry is not None and entry.state <= _E:  # MODIFIED or EXCLUSIVE
            l1.hits += 1
            tick = l1._tick + 1
            l1._tick = tick
            entry.lru_tick = tick
            entry.state = S.MODIFIED
            entry.dirty = True
            if speculative and not entry.speculative:
                l1._note_speculative(entry)
            self.directory.record_owner(line, core)
            return self._hit

        entry = l1.lookup(line)
        if entry is not None and entry.state == _S:
            # upgrade: invalidate the other sharers through the directory
            latency = self._l1_lat
            latency += self._to_bank(core, line) + self._dir_lat
            latency += self._invalidate_holders(line, core)
            entry.state = S.MODIFIED
            entry.dirty = True
            if speculative and not entry.speculative:
                l1._note_speculative(entry)
            self.directory.record_owner(line, core)
            return AccessResult(latency, True, "l1")

        # full miss: GETM
        latency = self._l1_lat
        latency += self._to_bank(core, line) + self._dir_lat
        owner = self.directory.owner_of(line)
        if owner is not None and owner != core and self.l1s[owner].peek(line):
            self.forwards += 1
            own_entry = self.l1s[owner].invalidate(line)
            self.directory.drop(line, owner)
            if own_entry is not None and own_entry.dirty:
                self.l1_writebacks += 1
                self.l2.insert(line, S.MODIFIED, dirty=True)
            latency += self.mesh.core_to_core(owner, core) + self._l1_lat
            source = "owner"
        else:
            latency += self._invalidate_holders(line, core)
            fill, source = self._fetch_from_l2_or_mem(line)
            latency += fill
        evicted, evicted_spec = self._install_l1(
            core, line, S.MODIFIED, dirty=True, speculative=speculative
        )
        self.directory.record_owner(line, core)
        return AccessResult(latency, False, source, evicted_spec, evicted)

    def allocate_write(
        self, core: int, line: int, speculative: bool = False
    ) -> AccessResult:
        """Install a freshly-allocated line for writing without a fetch.

        SUV's redirected stores target brand-new pool lines: there is no
        old data below to fetch and no remote copy to invalidate, so the
        hardware allocates the line directly in the L1 (the line's
        contents come from the in-core copy of the original line).
        """
        l1 = self.l1s[core]
        entry = l1.lookup(line)
        if entry is not None:
            entry.state = S.MODIFIED
            entry.dirty = True
            if speculative and not entry.speculative:
                l1._note_speculative(entry)
            self.directory.record_owner(line, core)
            return self._hit
        evicted, evicted_spec = self._install_l1(
            core, line, S.MODIFIED, dirty=True, speculative=speculative
        )
        self.directory.record_owner(line, core)
        return AccessResult(
            self._l1_lat, False, "l1", evicted_spec, evicted
        )

    def local_write(self, core: int, line: int, speculative: bool = False) -> AccessResult:
        """A store that stays core-local (lazy/TCC-style buffering).

        The line is filled into the L1 if absent but no GETM is issued:
        remote copies stay valid and the directory is not updated, so
        the write is invisible to the rest of the CMP until the owning
        transaction publishes it at commit.
        """
        l1 = self.l1s[core]
        entry = l1.lookup(line)
        if entry is not None:
            entry.dirty = True
            if speculative and not entry.speculative:
                l1._note_speculative(entry)
            return self._hit
        latency = self._l1_lat
        latency += self._to_bank(core, line) + self._dir_lat
        fill, source = self._fetch_from_l2_or_mem(line)
        latency += fill
        evicted, evicted_spec = self._install_l1(
            core, line, S.MODIFIED, dirty=True, speculative=speculative
        )
        return AccessResult(latency, False, source, evicted_spec, evicted)

    def invalidate_remote(self, core: int, line: int) -> int:
        """Invalidate every remote copy of ``line`` without moving data.

        Used by SUV-based lazy commits: the new data already lives at the
        redirected address, so publication only needs the invalidation
        round trip.
        """
        return (
            self._to_bank(core, line)
            + self._dir_lat
            + self._invalidate_holders(line, core)
        )

    def flush_to_l2(self, core: int, line: int) -> int:
        """Write a dirty L1 line back to the L2 (FasTM's pre-store flush).

        Returns the latency; 0 if the line is not dirty in this L1.
        """
        entry = self.l1s[core].peek(line)
        if entry is None or not entry.dirty:
            return 0
        self.l1_writebacks += 1
        self.l2.insert(line, S.MODIFIED, dirty=True)
        entry.dirty = False
        return self._to_bank(core, line) + self._l2_lat

    def drop_speculative(self, core: int, invalidate: bool) -> list[int]:
        """Commit (keep) or abort (invalidate) a core's speculative lines."""
        lines = self.l1s[core].clear_speculative(invalidate=invalidate)
        if invalidate:
            for ln in lines:
                self.directory.drop(ln, core)
        return lines
