"""The version-manager interface.

A version manager decides *where the bytes live* during a transaction
and what commit/abort processing costs.  The simulator calls the hooks
below around every transactional event; each returns extra cycles to
charge (on top of the plain coherence cost of the data access itself,
which the simulator performs through the memory hierarchy).

Every hook the simulator calls on a scheme is a method declared on
:class:`VersionManager`, with a neutral default where a scheme may not
care (the publication notes are no-ops except under mvsuv); the
simulator never probes for an optional one.  The snapshot-read hooks
are :class:`~repro.htm.vm.mvsuv.MVSUV`'s own: only a frame that its
``mode_for`` admitted as a snapshot reader reaches them, through the
frame's carrier.

Functional semantics (read-your-writes, discard-on-abort,
publish-on-commit) are handled uniformly by the simulator's write
buffers; schemes only shape timing, placement and counters.  This split
mirrors the paper: SUV never changes what a program observes, only how
many data movements realize it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import SimConfig
from repro.errors import UnknownSchemeError
from repro.htm.policy import (
    NAMED_SCHEMES,
    SchemeComposition,
    legal_combinations,
)
from repro.htm.transaction import TxFrame
from repro.mem.hierarchy import AccessResult, MemoryHierarchy
from repro.trace import Tracer

#: base of the per-core undo-log regions (private, never shared)
LOG_REGION_BASE = 1 << 41
#: bytes reserved per core for its undo log
LOG_REGION_BYTES = 16 << 20


@dataclass
class VMStats:
    """Counters common to all schemes (Table V inputs)."""

    tx_writes: int = 0
    first_writes: int = 0
    #: transactionally-written L1 lines evicted before the transaction
    #: ended ("transactional data overflows" in Table V).
    cache_overflows: int = 0
    #: transactions that experienced at least one cache overflow.
    overflowed_txs: int = 0
    log_writes: int = 0
    log_restores: int = 0
    extra: dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict[str, float]:
        out = {
            "tx_writes": self.tx_writes,
            "first_writes": self.first_writes,
            "cache_overflows": self.cache_overflows,
            "overflowed_txs": self.overflowed_txs,
            "log_writes": self.log_writes,
            "log_restores": self.log_restores,
        }
        out.update(self.extra)
        return out


class VersionManager:
    """Scheme hook interface; one instance serves every core.

    A carrier implements the per-frame hooks (``pre_read``,
    ``pre_write``, ``commit``, ``abort`` at least).  The simulator sends
    them to the frame's carrier, which :meth:`carrier_for` picks per
    attempt: the scheme itself, except under adaptive detection.
    """

    name: str = "abstract"
    #: policy-axis values (see :mod:`repro.htm.policy`): which
    #: version-management and conflict-detection axis values this
    #: instance realizes.  The scheme builder sets ``cd_axis`` on
    #: carriers that serve more than one (``LazyVM``: ``buffer+eager``
    #: and ``buffer+lazy``).
    vm_axis: str = "custom"
    cd_axis: str = "eager"
    #: transactional stores pin their lines in the L1 (speculative bit)
    speculative_marking: bool = False
    #: transactional stores stay core-local until commit (lazy buffering)
    local_writes: bool = False
    #: the global line-version clock for commit-time read-set validation,
    #: on the carriers that validate; the simulator bumps it per
    #: committed written line
    line_versions: dict[int, int] | None = None

    def __init__(self, config: SimConfig, hierarchy: MemoryHierarchy) -> None:
        self.config = config
        self.hierarchy = hierarchy
        self.n_cores = config.n_cores
        self.stats = VMStats()
        #: the run's tracer, installed by the simulator via
        #: :meth:`attach_trace`; ``None`` for standalone scheme objects
        self.trace: Tracer | None = None
        # per-core undo-log cursors (line indices), used by the schemes
        # that keep a log (LogTM-SE always, FasTM on overflow)
        self._log_base = [
            (LOG_REGION_BASE + core * LOG_REGION_BYTES) >> 6
            for core in range(config.n_cores)
        ]
        self._log_cursor = list(self._log_base)

    def attach_trace(self, tracer: Tracer) -> None:
        """Install the run's tracer (composite schemes propagate it)."""
        self.trace = tracer

    # -- transaction lifecycle ------------------------------------------
    def on_begin(self, core: int, frame: TxFrame) -> int:
        """Extra cycles at transaction begin (outermost or nested)."""
        return 0

    def pre_read(self, core: int, frame: TxFrame, line: int) -> tuple[int, int]:
        """(extra cycles, physical line) for a transactional load."""
        raise NotImplementedError

    def pre_write(self, core: int, frame: TxFrame, line: int) -> tuple[int, int]:
        """(extra cycles, physical line) for a transactional store."""
        raise NotImplementedError

    def post_write(
        self, core: int, frame: TxFrame, line: int, result: AccessResult
    ) -> int:
        """Extra cycles after the store's coherence action completed.

        The default implementation counts write-set lines evicted from
        the L1 during the transaction (Table V's cache overflows).
        """
        vm = frame.vm
        written = vm.get("written_physical")
        if written is None:
            written = vm["written_physical"] = set()
        if result.evicted:
            overflowed = [ln for ln in result.evicted if ln in written]
            if overflowed:
                self.stats.cache_overflows += len(overflowed)
                if not vm.get("overflowed"):
                    vm["overflowed"] = True
                    self.stats.overflowed_txs += 1
        written.add(self._physical_of(core, frame, line))
        return 0

    def commit(self, core: int, frame: TxFrame, outermost: bool) -> int:
        """Cycles of commit processing (isolation stays held meanwhile)."""
        raise NotImplementedError

    def abort(self, core: int, frame: TxFrame, outermost: bool) -> int:
        """Cycles of abort processing (isolation stays held meanwhile)."""
        raise NotImplementedError

    # -- non-transactional path -----------------------------------------
    def nontx_translate(self, core: int, line: int) -> tuple[int, int]:
        """(extra cycles, physical line) for a non-transactional access.

        Only SUV pays anything here (the strong-isolation table lookup).
        """
        return 0, line

    # -- helpers ---------------------------------------------------------
    def _physical_of(self, core: int, frame: TxFrame, line: int) -> int:
        """Physical line a store to ``line`` lands on (identity default)."""
        return line

    def mode_for(self, core: int, frame: TxFrame) -> str:
        """Execution mode for a new outermost attempt of ``frame``.

        Fixed by the cd axis; adaptive detection picks ``eager`` or
        ``lazy`` per site, and mvsuv may admit the attempt as a
        ``snapshot`` reader (stamping ``frame`` with its snapshot).
        """
        return "lazy" if self.cd_axis == "lazy" else "eager"

    def carrier_for(self, mode: str) -> "VersionManager":
        """The carrier that serves an attempt run in ``mode``: the
        simulator sends every per-frame hook of the attempt to it."""
        return self

    @property
    def carriers(self) -> tuple["VersionManager", ...]:
        """Every carrier :meth:`carrier_for` can return.  (A property: an
        attribute holding ``self`` would be a reference cycle, keeping
        the scheme and its memory hierarchy alive until a cyclic GC.)"""
        return (self,)

    def note_outcome(self, core: int, frame: TxFrame, committed: bool) -> None:
        """Feedback to history-based predictors (adaptive detection)."""

    def merge_nested(self, parent: TxFrame, child: TxFrame) -> None:
        """Fold scheme-private child-frame state into the parent."""

    def validate(self, core: int, frame: TxFrame) -> bool:
        """Commit-time validation (lazy schemes); False forces an abort."""
        return True

    # -- publication points (mvsuv records pre-images) ------------------
    def note_publication(self, core: int, frame: TxFrame) -> None:
        """A commit is about to publish ``frame.write_buffer``."""

    def note_nontx_write(self, core: int, addr: int, line: int) -> None:
        """A non-transactional store to ``addr`` is about to land."""

    # -- log plumbing shared by LogTM-SE and FasTM -----------------------
    def _log_append(self, core: int) -> int:
        """Write one undo record; returns its latency.

        The log is a private, sequentially-written region: records hit
        the L1 most of the time and occasionally miss/evict, all of
        which the cache model captures naturally.
        """
        self.stats.log_writes += 1
        line = self._log_cursor[core]
        self._log_cursor[core] += 1
        # reading the old value costs one extra L1 access; the store to
        # the log goes through the hierarchy
        res = self.hierarchy.write(core, line)
        return res.latency + self.config.l1.latency

    def _log_walk_restore(self, core: int, lines: list[int]) -> int:
        """Software undo-walk: restore ``lines`` from the log, in reverse.

        Each record costs a log load plus a store of the old value to
        its home line, exactly the "extra load and store on abort" of
        the paper's Section II.
        """
        total = 0
        for i, line in enumerate(reversed(lines)):
            log_line = self._log_cursor[core] - 1 - i
            total += self.hierarchy.read(core, max(log_line, self._log_base[core])).latency
            total += self.hierarchy.write(core, line).latency
            self.stats.log_restores += 1
        return total

    def _log_reset(self, core: int, entries: int) -> None:
        self._log_cursor[core] = max(
            self._log_base[core], self._log_cursor[core] - entries
        )

    def scheme_stats(self) -> dict[str, float]:
        """Scheme-specific statistics for reports."""
        return self.stats.as_dict()


# ======================================================================
# scheme names
# ======================================================================

def _normalize_scheme_name(name: str) -> str:
    return name.lower().replace("_", "-")


def available_schemes() -> tuple[str, ...]:
    """The named schemes, in listing order.

    Lists the *named* schemes only; the composed three-axis space
    (``vm+cd+resolution`` names, see
    :func:`repro.htm.policy.legal_combinations`) is enumerated
    separately so existing listings stay stable.
    """
    return tuple(NAMED_SCHEMES)


def resolve_scheme_name(name: str) -> str:
    """Canonicalize a scheme name: a named scheme or a composed name.

    Named schemes win (so ``dyntm+suv`` stays the named DynTM variant,
    not a composition); otherwise a three-token
    ``vm+cd+resolution`` name is legality-checked and
    canonicalized.  Raises :class:`~repro.errors.UnknownSchemeError`
    with near-miss suggestions, or
    :class:`~repro.errors.IncompatiblePolicyError` for a well-formed
    but physically impossible composition.
    """
    normalized = _normalize_scheme_name(name)
    if normalized in NAMED_SCHEMES:
        return normalized
    composition = SchemeComposition.parse(name)
    if composition is not None:
        return composition.check().name
    import difflib

    # near misses among the named and the legal composed names
    candidates = [*NAMED_SCHEMES, *(c.name for c in legal_combinations())]
    raise UnknownSchemeError(
        f"unknown version-management scheme {name!r}; "
        f"named schemes: {', '.join(available_schemes())} "
        "(or a composed vm+cd+resolution name)",
        name=name,
        suggestions=difflib.get_close_matches(
            normalized, candidates, n=3, cutoff=0.6
        ),
    )


def resolve_scheme(name: str) -> tuple[str, SchemeComposition]:
    """(the name results report, the checked composition) of a scheme name.

    The name alone sets all three axes: a named scheme is its fixed
    (vm, cd, ``stall``) point, a composed name the point it spells.
    """
    canonical = resolve_scheme_name(name)
    row = NAMED_SCHEMES.get(canonical)
    if row is not None:
        return row.reports, SchemeComposition(row.vm, row.cd)
    return canonical, SchemeComposition(*canonical.split("+"))
