"""The atomicity oracle: serial replay + quiescence invariants.

Every scheme in this repository must give transactions the same
functional semantics — committed transactions apply atomically, aborted
ones leave no trace, strong isolation orders non-transactional accesses
against transactions.  The oracle checks that *end to end* on a real
run, independent of any scheme's bookkeeping:

1. While the simulator runs, an :class:`OracleRecorder` logs every
   committed transaction's operations (reads with the value the program
   observed, writes with the value stored) in **publication order** —
   the order write buffers reached memory — with non-transactional
   accesses interleaved at their execution point.
2. :meth:`OracleRecorder.verify` then replays the log **serially**
   against a golden memory model (all addresses start at 0, like the
   simulated memory): every recorded read must observe exactly what the
   golden model holds at that transaction's position in the serial
   order, and the final golden state must equal the simulator's final
   memory.  Bloom signatures never produce false *negatives*, so a
   correct simulator always passes; a version-management bug (lost
   update, dirty read, resurrected aborted write) shows up as a replay
   divergence.
3. **Quiescence invariants** close the loop on resource bookkeeping:
   after the run no redirect entry may be left in a transient state, no
   preserved-pool line may be live without a valid entry referencing it
   (a leak) or referenced without being live (a double free), and the
   attempt/commit/abort counters must reconcile.

Open-nested transactions publish in the middle of their parent; the
parent is then deliberately *not* serializable as a unit, so runs that
committed open-nested transactions keep write/final-state checking but
relax per-read validation for transactional entries.

Failures raise :class:`~repro.errors.OracleViolation` carrying the full
report.  The runner invokes the oracle automatically for specs with
``check=True`` (CLI ``--check``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.errors import OracleViolation

if TYPE_CHECKING:  # pragma: no cover — import cycle guard
    from repro.htm.transaction import TxFrame
    from repro.simulator import Simulator

#: cap on individual failure records in a report (the first divergence
#: is the interesting one; thousands of cascading ones are noise)
MAX_FAILURES = 25


class OracleRecorder:
    """Records the information :meth:`verify` needs, as the run happens.

    The simulator calls the ``record_*``/``note_*`` hooks; each is O(1)
    per operation so recording does not perturb simulated timing (it
    only costs host time).
    """

    def __init__(self) -> None:
        #: publication-ordered entries:
        #: ``{"kind": "tx"|"open"|"nontx", "core", "site", "cycle",
        #:   "ops": [("r"|"w", addr, value), ...]}``
        self.log: list[dict[str, Any]] = []
        self.outer_commits = 0
        self.open_commits = 0
        self.outer_aborts = 0
        self.partial_aborts = 0
        self._sim: "Simulator" | None = None

    # -- lifecycle ------------------------------------------------------
    def attach(self, sim: "Simulator") -> None:
        self._sim = sim

    # -- recording hooks (called by the simulator) ----------------------
    def record_tx_read(self, frame: "TxFrame", addr: int, value: int) -> None:
        frame.oracle_ops.append(("r", addr, value))

    def record_tx_write(self, frame: "TxFrame", addr: int, value: int) -> None:
        frame.oracle_ops.append(("w", addr, value))

    def record_nontx(
        self, core: int, is_write: bool, addr: int, value: int
    ) -> None:
        # strong isolation orders the access against every transaction,
        # so it forms its own single-op entry at its execution point
        self.log.append({
            "kind": "nontx",
            "core": core,
            "site": None,
            "cycle": self._sim.queue.now if self._sim else 0,
            "ops": [("w" if is_write else "r", addr, value)],
        })

    def note_commit(
        self, core: int, frame: "TxFrame", open_nested: bool
    ) -> None:
        """A publishing commit (outermost, or an open-nested child).

        Snapshot-mode commits (mvsuv wait-free readers) log as ``snap``
        entries carrying the snapshot timestamp the reader captured at
        begin; :meth:`_replay` checks their reads against the
        multi-version history instead of the serial frontier.
        """
        if open_nested:
            self.open_commits += 1
            kind = "open"
        else:
            self.outer_commits += 1
            kind = "snap" if frame.mode == "snapshot" else "tx"
        entry: dict[str, Any] = {
            "kind": kind,
            "core": core,
            "site": frame.site,
            "cycle": self._sim.queue.now if self._sim else 0,
            "ops": list(frame.oracle_ops),
        }
        if kind == "snap":
            entry["snapshot_seq"] = frame.vm.get("snapshot_seq", 0)
        self.log.append(entry)

    def note_abort(self, core: int, depth: int) -> None:
        if depth == 0:
            self.outer_aborts += 1
        else:
            self.partial_aborts += 1

    # -- verification ---------------------------------------------------
    def verify(self, raise_on_failure: bool = True) -> dict[str, Any]:
        """Replay the log serially and check the quiescence invariants.

        Returns the report dict; raises :class:`OracleViolation` when
        ``raise_on_failure`` and any check failed.
        """
        if self._sim is None:
            raise ValueError("oracle was never attached to a simulator")
        failures: list[str] = []
        reads_checked = self._replay(failures)
        self._check_counters(failures)
        self._check_scheme_quiescence(failures)
        report = {
            "passed": not failures,
            "failures": failures[:MAX_FAILURES],
            "entries": len(self.log),
            "reads_checked": reads_checked,
            "relaxed_reads": self.open_commits > 0,
            "outer_commits": self.outer_commits,
            "open_commits": self.open_commits,
            "outer_aborts": self.outer_aborts,
            "partial_aborts": self.partial_aborts,
        }
        if failures and raise_on_failure:
            raise OracleViolation(
                "atomicity oracle failed "
                f"({len(failures)} check(s) violated)",
                report=report,
            )
        return report

    # -- serial replay ---------------------------------------------------
    def _replay(self, failures: list[str]) -> int:
        # open-nested commits publish inside their parent: the parent is
        # intentionally not serializable as a unit, so per-read
        # validation of transactional entries is relaxed for such runs
        relax_tx_reads = self.open_commits > 0
        golden: dict[int, int] = {}
        reads_checked = 0
        # multi-version mirror for snapshot (mvsuv) entries: the log is
        # publication-ordered, so numbering the *writing* entries as they
        # replay reconstructs exactly the publication sequence the scheme
        # stamps snapshots with; ``history`` keeps every committed value
        # of every address with its publication number.
        replay_seq = 0
        history: dict[int, list[tuple[int, int]]] = {}
        for pos, entry in enumerate(self.log):
            if entry["kind"] == "snap":
                snap = entry.get("snapshot_seq", 0)
                for op, addr, value in entry["ops"]:
                    if op == "w":
                        failures.append(
                            f"snapshot entry {pos} (core {entry['core']}, "
                            f"cycle {entry['cycle']}) wrote {addr:#x}; "
                            "snapshot transactions must be read-only"
                        )
                        continue
                    reads_checked += 1
                    expected = 0
                    for seq, committed in history.get(addr, ()):
                        if seq <= snap:
                            expected = committed
                        else:
                            break
                    if value != expected:
                        failures.append(
                            f"multi-version replay diverged at entry "
                            f"{pos} (snap, core {entry['core']}, cycle "
                            f"{entry['cycle']}): read of {addr:#x} at "
                            f"snapshot {snap} observed {value}, newest "
                            f"committed version <= {snap} is {expected}"
                        )
                continue  # snapshots publish nothing
            overlay: dict[int, int] = {}  # read-your-own-writes
            strict = entry["kind"] == "nontx" or not relax_tx_reads
            for op, addr, value in entry["ops"]:
                if op == "w":
                    overlay[addr] = value
                    continue
                expected = overlay.get(addr, golden.get(addr, 0))
                if strict:
                    reads_checked += 1
                    if value != expected:
                        failures.append(
                            f"serial replay diverged at entry {pos} "
                            f"({entry['kind']}, core {entry['core']}, "
                            f"cycle {entry['cycle']}): read of {addr:#x} "
                            f"observed {value}, serial order expects "
                            f"{expected}"
                        )
            golden.update(overlay)
            if overlay:
                replay_seq += 1
                for addr, committed in overlay.items():
                    history.setdefault(addr, []).append(
                        (replay_seq, committed)
                    )
        final = self._sim.memory.snapshot()
        for addr in sorted(set(golden) | set(final)):
            want = golden.get(addr, 0)
            got = final.get(addr, 0)
            if want != got:
                failures.append(
                    f"final state diverged at {addr:#x}: memory holds "
                    f"{got}, serial replay produced {want}"
                )
        return reads_checked

    # -- counter reconciliation ------------------------------------------
    def _check_counters(self, failures: list[str]) -> None:
        sim = self._sim
        expected_attempts = self.outer_commits + self.outer_aborts
        if sim.tx_attempts != expected_attempts:
            failures.append(
                f"attempt accounting broken: {sim.tx_attempts} attempts "
                f"!= {self.outer_commits} outermost commits + "
                f"{self.outer_aborts} outermost aborts"
            )
        expected_commits = self.outer_commits + self.open_commits
        if sim.commits != expected_commits:
            failures.append(
                f"commit accounting broken: simulator counted "
                f"{sim.commits}, oracle saw {expected_commits}"
            )
        expected_aborts = self.outer_aborts + self.partial_aborts
        if sim.aborts != expected_aborts:
            failures.append(
                f"abort accounting broken: simulator counted "
                f"{sim.aborts}, oracle saw {expected_aborts}"
            )

    # -- scheme quiescence -----------------------------------------------
    def _check_scheme_quiescence(self, failures: list[str]) -> None:
        """No transient redirect entries, no leaked/dangling pool lines."""
        for vm in self._sim.scheme.carriers:
            table = getattr(vm, "table", None)
            pool = getattr(vm, "pool", None)
            if table is None or pool is None:
                continue
            referenced: set[int] = set()
            version_lines = getattr(vm, "version_pool_lines", None)
            if version_lines is not None:
                # retained multiversion records legitimately pin pool
                # lines without a redirect entry referencing them
                referenced |= version_lines()
            for entry in table.iter_entries():
                if entry.state.is_transient:
                    failures.append(
                        f"quiescence: entry for line "
                        f"{entry.orig_line:#x} left transient "
                        f"({entry.state.name}, owner {entry.owner})"
                    )
                if entry.state.value == (1, 1):  # VALID
                    referenced.add(entry.redirected_line)
            live = pool._live
            leaked = live - referenced
            dangling = {r for r in referenced if r not in live}
            if leaked:
                failures.append(
                    f"quiescence: {len(leaked)} pool line(s) live but "
                    f"unreferenced by any valid entry (leak), e.g. "
                    f"{min(leaked):#x}"
                )
            if dangling:
                failures.append(
                    f"quiescence: {len(dangling)} valid entrie(s) point "
                    f"at freed pool lines (double free), e.g. "
                    f"{min(dangling):#x}"
                )
            if pool.allocations - pool.frees != pool.live_lines:
                failures.append(
                    "quiescence: pool ledger broken: "
                    f"{pool.allocations} allocations - {pool.frees} "
                    f"frees != {pool.live_lines} live lines"
                )


def check_run(sim: "Simulator") -> dict[str, Any]:
    """Verify a finished run's recorder; raises on violation."""
    if sim.oracle is None:
        raise ValueError(
            "simulator was built without an oracle recorder "
            "(pass oracle=True to Simulator)"
        )
    return sim.oracle.verify()
