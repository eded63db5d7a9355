"""Unit tests for the banked main memory."""

from repro.config import MemoryConfig
from repro.mem.memory import MainMemory


def make():
    return MainMemory(MemoryConfig())


def test_uninitialized_reads_zero():
    mem = make()
    assert mem.load(0x1234) == 0


def test_store_load_roundtrip():
    mem = make()
    mem.store(0x100, 42)
    assert mem.load(0x100) == 42


def test_bulk_store_publishes_buffer():
    mem = make()
    mem.bulk_store({8: 1, 16: 2})
    assert mem.load(8) == 1 and mem.load(16) == 2


def test_snapshot_is_a_copy():
    mem = make()
    mem.store(0, 7)
    snap = mem.snapshot()
    snap[0] = 99
    assert mem.load(0) == 7


def test_access_latency_from_config():
    assert MainMemory(MemoryConfig(latency=99)).access_latency() == 99


def test_bank_interleave():
    mem = make()
    assert mem.bank_of_line(0) == 0
    assert mem.bank_of_line(5) == 1
    assert {mem.bank_of_line(i) for i in range(4)} == {0, 1, 2, 3}

