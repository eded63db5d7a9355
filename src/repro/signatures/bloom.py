"""Bloom-filter signatures.

Two flavours:

* :class:`BloomSignature` — the plain 2 Kbit read/write signature of
  LogTM-SE (add, membership test, union, clear; no deletion).
* :class:`CountingSummarySignature` — the SUV *redirect summary
  signature* of Figure 5: a Bloom filter plus a parallel bit-vector that
  remembers which bits were set exactly once, allowing a conservative
  delete (a "Bloom counter").  Deleting may leave the filter a superset
  of the true set, which costs wasted lookups but never correctness.

Hot-path note (DESIGN §11): both filters go through the shared
:class:`~repro.signatures.hashes.H3HashFamily` per-address *mask* cache,
so ``add`` is one ``|=`` and ``test`` one ``&``/``==`` on a big int —
identical bits to the per-index loop, at a fraction of the host cost.
"""

from __future__ import annotations

from repro.signatures.hashes import H3HashFamily


class BloomSignature:
    """A fixed-size Bloom filter over line addresses."""

    __slots__ = ("bits", "hashes", "_hash", "_word", "_count")

    def __init__(self, bits: int, hashes: int, seed: int = 0xB100) -> None:
        self.bits = bits
        self.hashes = hashes
        self._hash = H3HashFamily.shared(hashes, bits, seed)
        self._word = 0  # the filter as one big int
        self._count = 0

    def add(self, value: int) -> None:
        # the simulator's access path does the same two stores inline,
        # with the mask it already holds
        self._word |= self._hash.mask(value)
        self._count += 1

    def test(self, value: int) -> bool:
        """Might ``value`` be in the set?  (False ⇒ definitely not.)"""
        mask = self._hash.mask(value)
        return self._word & mask == mask

    def clear(self) -> None:
        self._word = 0
        self._count = 0

    def union_inplace(self, other: "BloomSignature") -> None:
        """OR another signature into this one (nested-commit merge).

        ``added`` of the union is an **upper bound** on distinct
        insertions (both operands may have inserted the same value); a
        merge that contributes no new bits adds no count either, so an
        empty or fully-subsumed child cannot inflate the gauge.
        """
        if other.bits != self.bits:
            raise ValueError("signature sizes differ")
        new_word = self._word | other._word
        if new_word != self._word:
            self._count += other._count
        self._word = new_word

    def intersects(self, other: "BloomSignature") -> bool:
        """Conservative set-intersection test (used for summary checks)."""
        return bool(self._word & other._word)

    @property
    def is_empty(self) -> bool:
        return self._word == 0

    @property
    def popcount(self) -> int:
        return self._word.bit_count()

    @property
    def added(self) -> int:
        """Upper bound on ``add`` calls represented since the last clear.

        Exact for a signature that was never a union target; a
        nested-commit merge may double-count values both sides inserted
        (the bit-OR cannot distinguish them), so treat this as a gauge,
        not an exact cardinality — ``popcount`` is the ground truth the
        false-positive estimate uses.
        """
        return self._count

    def false_positive_rate(self) -> float:
        """Analytic FP estimate for the current fill level."""
        fill = self.popcount / self.bits
        return fill ** self.hashes


class CountingSummarySignature:
    """SUV's redirect summary signature with single-write tracking.

    ``signature`` is the Bloom filter proper; ``once`` marks bits that
    have been set by exactly one inserted address.  Removing an address
    clears only its *unique* bits (those still marked in ``once``), which
    is exactly the Figure 5 behaviour: deletion is conservative and the
    filter may remain a superset of the represented set.
    """

    __slots__ = ("bits", "hashes", "_hash", "_masks", "_sig", "_once",
                 "adds", "removes")

    def __init__(self, bits: int, hashes: int, seed: int = 0x5BB) -> None:
        self.bits = bits
        self.hashes = hashes
        self._hash = H3HashFamily.shared(hashes, bits, seed)
        #: the family's mask memo, read directly by ``test`` (every
        #: memory access under SUV asks it); a miss falls back to ``mask``
        self._masks = self._hash.mask_memo
        self._sig = 0
        self._once = 0
        self.adds = 0
        self.removes = 0

    def add(self, value: int) -> None:
        self.adds += 1
        mask = self._hash.mask(value)
        # a bit set for the first time is uniquely owned; a second
        # writer's bit no longer is
        once = (self._once & ~mask) | (mask & ~self._sig)
        if mask.bit_count() < self.hashes:
            once &= ~self._coinciding(value)
        self._once = once
        self._sig |= mask

    def _coinciding(self, value: int) -> int:
        """Bits that two of ``value``'s hash indexes set: a bit written
        twice by one insertion is never uniquely owned."""
        seen = twice = 0
        for idx in self._hash.indexes(value):
            bit = 1 << idx
            twice |= seen & bit
            seen |= bit
        return twice

    def test(self, value: int) -> bool:
        mask = self._masks.get(value) or self._hash.mask(value)
        return self._sig & mask == mask

    def remove(self, value: int) -> None:
        """Conservatively remove ``value`` (clears only its unique bits)."""
        self.removes += 1
        unique = self._hash.mask(value) & self._once
        self._sig &= ~unique
        self._once &= ~unique

    def clear(self) -> None:
        self._sig = 0
        self._once = 0

    def rebuild(self, values) -> None:
        """``clear()`` then ``add(v)`` for each of ``values``, in one pass:
        a bit is uniquely owned unless two values cover it or one value's
        hash indexes coincide on it."""
        mask_of = self._hash.mask
        sig = shared = 0
        n = 0
        for value in values:
            mask = mask_of(value)
            shared |= sig & mask
            if mask.bit_count() < self.hashes:
                shared |= self._coinciding(value)
            sig |= mask
            n += 1
        self._sig = sig
        self._once = sig & ~shared
        self.adds += n

    @property
    def popcount(self) -> int:
        return self._sig.bit_count()

    @property
    def is_empty(self) -> bool:
        return self._sig == 0
