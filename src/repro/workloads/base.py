"""Workload building blocks: address space, helpers, the Program type."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generator

from repro.config import LINE_BYTES
from repro.htm.ops import Read, Write

#: bytes per memory word (all workload values are 8-byte words)
WORD = 8
#: words per cache line
WORDS_PER_LINE = LINE_BYTES // WORD


class AddressSpace:
    """A bump allocator carving named regions out of the flat memory.

    Regions are line-aligned so distinct structures never share a cache
    line; elements *within* an array do (8 words per 64-byte line),
    which preserves the false-sharing behaviour of the real programs.
    """

    #: well below the undo-log region (1<<41) and redirect pool (1<<40)
    BASE = 0x100000

    def __init__(self) -> None:
        self._next = self.BASE
        self.regions: dict[str, tuple[int, int]] = {}

    def alloc(self, name: str, n_words: int, pad_lines: bool = False) -> int:
        """Allocate ``n_words`` 8-byte words; returns the base address.

        ``pad_lines`` puts each word on its own cache line (used for hot
        scalars like queue heads, to match the padded layouts STAMP uses
        for its locks/counters).
        """
        if name in self.regions:
            raise ValueError(f"region {name!r} already allocated")
        stride = LINE_BYTES if pad_lines else WORD
        base = self._next
        size = n_words * stride
        self.regions[name] = (base, size)
        # next region starts on a fresh line
        end = base + size
        self._next = (end + LINE_BYTES - 1) // LINE_BYTES * LINE_BYTES
        return base

    def word(self, base: int, index: int, padded: bool = False) -> int:
        """Address of element ``index`` in a region."""
        return base + index * (LINE_BYTES if padded else WORD)


def load(addr: int) -> Generator:
    """``value = yield from load(addr)`` inside a thread/tx body."""
    value = yield Read(addr)
    return value


def store(addr: int, value: int) -> Generator:
    """``yield from store(addr, value)``."""
    yield Write(addr, value)


@dataclass
class Program:
    """A runnable multi-threaded transactional program."""

    name: str
    threads: list[Callable[[], Generator]]
    #: free-form description of inputs (mirrors Table IV's parameters)
    params: dict[str, object] = field(default_factory=dict)
    #: "high" or "low" (Table IV's contention class)
    contention: str = "low"
    #: functional checker run against the post-run memory image
    verifier: Callable[[dict[int, int]], None] | None = None

    @property
    def n_threads(self) -> int:
        return len(self.threads)

    def verify(self, memory: dict[int, int]) -> None:
        """Raise AssertionError if the computed result is wrong."""
        if self.verifier is not None:
            self.verifier(memory)


def mem_get(memory: dict[int, int], addr: int) -> int:
    """Post-run memory accessor used by verifiers (missing word = 0)."""
    return memory.get(addr, 0)
