"""Tests for the CACTI-lite model against the paper's Table VII."""

import pytest

from repro.hwcost.cacti import CactiLite

PAPER_TABLE_VII = {
    90: (1.382, 0.403, 0.434, 0.951),
    65: (0.995, 0.239, 0.260, 0.589),
    45: (0.588, 0.150, 0.163, 0.282),
    32: (0.412, 0.072, 0.078, 0.143),
}


@pytest.fixture
def cacti():
    return CactiLite()


@pytest.mark.parametrize("node", [90, 65, 45, 32])
def test_reference_geometry_matches_table_vii(cacti, node):
    t, rd, wr, area = PAPER_TABLE_VII[node]
    est = cacti.estimate(node)
    assert est.access_time_ns == pytest.approx(t, abs=1e-3)
    assert est.read_energy_nj == pytest.approx(rd, abs=1e-3)
    assert est.write_energy_nj == pytest.approx(wr, abs=1e-3)
    assert est.area_mm2 == pytest.approx(area, abs=1e-3)


def test_table_vii_listing_covers_all_nodes(cacti):
    rows = cacti.table_vii()
    assert [r.tech_nm for r in rows] == [90, 65, 45, 32]


def test_unsupported_node_rejected(cacti):
    with pytest.raises(ValueError):
        cacti.estimate(22)


def test_one_cycle_access_at_45nm_1_2ghz(cacti):
    # the paper: "an access ... can be finished in 1 cycle with the 45nm
    # CMOS process at 1.2 GHz"
    est = cacti.estimate(45)
    assert est.cycles_at(1.2) == 1
    # but not at 90 nm (1.382 ns > 0.833 ns period)
    assert cacti.estimate(90).cycles_at(1.2) == 2


def test_smaller_tables_are_faster_and_smaller(cacti):
    big = cacti.estimate(45, entries=512)
    small = cacti.estimate(45, entries=64)
    assert small.access_time_ns < big.access_time_ns
    assert small.area_mm2 < big.area_mm2
    assert small.read_energy_nj < big.read_energy_nj


def test_suv_corrected_is_below_half(cacti):
    # the paper argues the real 22-bit-entry table costs less than half
    # the 64-bit CACTI estimate
    for node in (90, 65, 45, 32):
        full = cacti.estimate(node)
        corrected = cacti.suv_corrected(node)
        assert corrected.area_mm2 < 0.5 * full.area_mm2
        assert corrected.read_energy_nj < 0.55 * full.read_energy_nj


def test_monotone_across_nodes(cacti):
    rows = cacti.table_vii()
    times = [r.access_time_ns for r in rows]
    areas = [r.area_mm2 for r in rows]
    assert times == sorted(times, reverse=True)
    assert areas == sorted(areas, reverse=True)
