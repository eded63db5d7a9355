"""The redirect summary filter (paper Section IV-A, Figure 5).

Every memory access — transactional or not — must learn whether its
address has been redirected.  Rather than probing the redirect table on
each access, SUV keeps a *redirect summary signature*: a Bloom filter of
all currently-redirected original lines.  A negative test proves the
address is unredirected and skips the table lookup entirely; a positive
(possibly false) sends the access to the table.

Removal uses the Figure 5 Bloom-counter trick (a second bit-vector
remembering uniquely-set bits); incomplete removal only costs wasted
lookups, never correctness.
"""

from __future__ import annotations

from repro.config import RedirectConfig
from repro.signatures.bloom import CountingSummarySignature


class RedirectSummaryFilter:
    """CMP-wide summary of redirected lines, with lookup-filter stats.

    The hardware replicates the signature per core and keeps the copies
    coherent by broadcasting commit-time updates; behaviourally a single
    shared instance is equivalent, and the per-core storage is charged
    in :mod:`repro.hwcost.storage`.
    """

    def __init__(self, config: RedirectConfig) -> None:
        self.config = config
        self.enabled = config.use_summary_signature
        self._sig = CountingSummarySignature(
            config.summary_bits, config.summary_hashes
        )
        self.filtered = 0        # accesses proven unredirected (no lookup)
        self.passed = 0          # accesses sent to the table
        self.false_positives = 0  # passed accesses that found no entry
        #: fault injection: while True, every inquiry answers "maybe
        #: redirected", modelling a saturated filter (a false-positive
        #: storm) — correctness is unaffected, only lookups are wasted.
        self.force_positive = False
        self.forced_positives = 0
        self.rebuilds = 0
        self._removes_since_rebuild = 0
        #: rebuild once this many conservative removals have accumulated
        #: (each may leave stale bits set); keeps the false-positive rate
        #: of the filter bounded over long runs.
        self.rebuild_threshold = max(16, config.summary_bits // 64)

    def might_be_redirected(self, line: int) -> bool:
        """Must this access consult the redirect table?

        With the filter disabled (ablation) every access must look up.
        """
        if not self.enabled:
            self.passed += 1
            return True
        if self.force_positive:
            self.passed += 1
            self.forced_positives += 1
            return True
        if self._sig.test(line):
            self.passed += 1
            return True
        self.filtered += 1
        return False

    def note_false_positive(self) -> None:
        self.false_positives += 1

    def add(self, line: int) -> None:
        self._sig.add(line)

    def remove(self, line: int) -> None:
        self._sig.remove(line)
        self._removes_since_rebuild += 1

    def maybe_rebuild(self, live_lines) -> bool:
        """Periodic software rebuild of the filter from the live entries.

        Conservative deletion (Figure 5) leaves stale bits whenever a
        removed address shared bits with other insertions; over a long
        run the filter would saturate and every access would pay a
        wasted table lookup.  The software handler occasionally rebuilds
        the signature from the redirect table's valid entries — pure
        performance hygiene, correctness never depends on it.
        """
        if self._removes_since_rebuild < self.rebuild_threshold:
            return False
        self._sig.rebuild(live_lines)
        self._removes_since_rebuild = 0
        self.rebuilds += 1
        return True

    @property
    def filter_rate(self) -> float:
        total = self.filtered + self.passed
        return self.filtered / total if total else 0.0

    def stats(self) -> dict[str, float]:
        return {
            "filtered": self.filtered,
            "passed": self.passed,
            "false_positives": self.false_positives,
            "forced_positives": self.forced_positives,
            "filter_rate": self.filter_rate,
            "popcount": self._sig.popcount,
            "rebuilds": self.rebuilds,
        }
