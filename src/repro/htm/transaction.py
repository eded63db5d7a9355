"""Transaction frames: the per-transaction state of a core.

Nesting follows LogTM-Nested: each nested level keeps its own frame
(checkpoint, read/write signatures, write buffer); committing an inner
transaction merges its frame into the parent, aborting discards frames
from the target depth inward and re-executes from that level's
checkpoint (= body factory).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Generator

from repro.config import SignatureConfig
from repro.signatures.bloom import BloomSignature

if TYPE_CHECKING:
    from repro.htm.vm.base import VersionManager


@dataclass
class TxFrame:
    """State of one (possibly nested) transaction level."""

    site: int
    body_factory: Callable[[], Generator]
    depth: int
    timestamp: int          # begin time of the *outermost* enclosing tx
    start_time: int         # begin time of this frame's current attempt
    read_sig: BloomSignature
    write_sig: BloomSignature
    read_lines: set[int] = field(default_factory=set)
    write_lines: set[int] = field(default_factory=set)
    write_buffer: dict[int, int] = field(default_factory=dict)
    #: cycles of useful in-transaction work; resolved to Trans on commit
    #: or Wasted on abort.
    tentative_cycles: int = 0
    #: execution mode for this frame: "eager", "lazy" (DynTM / lazy-CD
    #: schemes), or "snapshot" (mvsuv wait-free reader).
    mode: str = "eager"
    #: what the outermost attempt's mode fixes (nested frames inherit
    #: both): the version manager whose hooks serve the frame, and
    #: whether its signatures join the conflict scan — eager frames
    #: always, lazy ones once they start publishing, snapshot ones never
    carrier: "VersionManager | None" = None
    visible: bool = True
    #: the Tx op declared this transaction read-only (survives retries).
    read_only: bool = False
    #: enclosing frame (closed nesting), None for the outermost.
    parent: "TxFrame | None" = None
    #: open-nested transaction: publishes at its own commit (§IV-C).
    open_nested: bool = False
    #: compensating body registered by a committed open-nested child;
    #: runs if this frame aborts.
    compensate: "Callable[[], Generator] | None" = None
    #: compensations owed from previously-committed open children of
    #: aborted attempts; survive reset_for_retry and run as a prologue
    #: of the retry.
    pending_compensations: "list[Callable[[], Generator]]" = field(
        default_factory=list
    )
    #: scheme-private scratch state (undo-log entries, redirect entries,
    #: overflowed lines, read-version records, ...).
    vm: dict[str, Any] = field(default_factory=dict)
    #: atomicity-oracle operation log: ("r"|"w", addr, value) in program
    #: order; populated only when an OracleRecorder is attached.
    oracle_ops: list = field(default_factory=list)
    #: zero-based attempt number of this frame (bumped on every retry);
    #: lets trace events name an attempt as (tid, site, attempt).
    attempt: int = 0

    @classmethod
    def create(
        cls,
        site: int,
        body_factory: Callable[[], Generator],
        depth: int,
        timestamp: int,
        now: int,
        sig_config: SignatureConfig,
    ) -> "TxFrame":
        return cls(
            site=site,
            body_factory=body_factory,
            depth=depth,
            timestamp=timestamp,
            start_time=now,
            read_sig=BloomSignature(sig_config.bits, sig_config.hashes,
                                    sig_config.seed),
            write_sig=BloomSignature(sig_config.bits, sig_config.hashes,
                                     sig_config.seed),
        )

    # ------------------------------------------------------------------
    def record_read(self, line: int, mask: int) -> bool:
        """Add ``line``, whose H3 mask is ``mask``, to the read set; True
        when it was new."""
        if line in self.read_lines:
            return False
        self.read_lines.add(line)
        self.read_sig.add_mask(mask)
        return True

    def record_write(self, line: int, mask: int) -> bool:
        """Add ``line``, whose H3 mask is ``mask``, to the write set; True
        when it was new."""
        if line in self.write_lines:
            return False
        self.write_lines.add(line)
        self.write_sig.add_mask(mask)
        return True

    def merge_child(self, child: "TxFrame") -> None:
        """Closed-nested commit: fold a child frame into this one."""
        self.read_lines |= child.read_lines
        self.write_lines |= child.write_lines
        self.read_sig.union_inplace(child.read_sig)
        self.write_sig.union_inplace(child.write_sig)
        self.write_buffer.update(child.write_buffer)
        self.tentative_cycles += child.tentative_cycles
        self.oracle_ops.extend(child.oracle_ops)

    def reset_for_retry(self, now: int) -> None:
        """Fresh signatures/buffers for a re-execution of this level."""
        self.read_sig.clear()
        self.write_sig.clear()
        self.read_lines.clear()
        self.write_lines.clear()
        self.write_buffer.clear()
        self.tentative_cycles = 0
        self.start_time = now
        self.vm.clear()
        self.oracle_ops.clear()
        self.attempt += 1
