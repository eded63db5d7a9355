"""Banked main memory: latency model plus the functional value store.

The value store is word-granular (8-byte words) and shared by every
version-management scheme; the *timing* of who loads or stores which line
when is what differs between schemes.  It counts nothing: an access's
cost reaches the run only as the latency the hierarchy charges.
"""

from __future__ import annotations

from repro.config import MemoryConfig


class MainMemory:
    """4-bank main memory with a flat word-granular value store."""

    WORD_BYTES = 8

    def __init__(self, config: MemoryConfig) -> None:
        self.config = config
        self._values: dict[int, int] = {}

    # -- timing ---------------------------------------------------------
    def access_latency(self) -> int:
        """Latency of one DRAM access (bank conflicts not modelled)."""
        return self.config.latency

    def bank_of_line(self, line: int) -> int:
        return line % self.config.banks

    # -- functional value store -----------------------------------------
    def load(self, addr: int) -> int:
        """Word value at ``addr`` (uninitialized memory loads as 0)."""
        return self._values.get(addr, 0)

    def store(self, addr: int, value: int) -> None:
        self._values[addr] = value

    def bulk_store(self, items: dict[int, int]) -> None:
        """Publish a committed write buffer."""
        self._values.update(items)

    def snapshot(self) -> dict[int, int]:
        """Copy of all defined words (test helper)."""
        return dict(self._values)
