"""Unit tests for ranking, Pareto fronts and dominated-axis detection.

All on synthetic :class:`StudyPoint` values — no simulation — so the
analysis layer's contracts are pinned independently of scheme
behaviour.
"""

import pytest

from repro.study import (
    StudyPoint,
    dominated_axis_values,
    dominates,
    pareto_front,
    rank_points,
)


def pt(scheme, cycles, aborts=0, pool=0):
    return StudyPoint(
        scheme=scheme, cycles=cycles, aborts=aborts, pool_high_water=pool
    )


A = "redirect+eager+stall"
B = "redirect+lazy+stall"
C = "undo+eager+greedy"
D = "buffer+lazy+karma"


class TestDominates:
    def test_strictly_better_everywhere(self):
        assert dominates(pt(A, 10, 1, 1), pt(B, 20, 2, 2))

    def test_better_on_one_equal_elsewhere(self):
        assert dominates(pt(A, 10, 1, 1), pt(B, 10, 1, 2))

    def test_equal_points_do_not_dominate(self):
        assert not dominates(pt(A, 10, 1, 1), pt(B, 10, 1, 1))

    def test_tradeoff_is_incomparable(self):
        fast_aborty = pt(A, 10, 9, 1)
        slow_clean = pt(B, 20, 0, 1)
        assert not dominates(fast_aborty, slow_clean)
        assert not dominates(slow_clean, fast_aborty)

    def test_not_reflexive_or_symmetric(self):
        a, b = pt(A, 10, 1, 1), pt(B, 20, 2, 2)
        assert not dominates(a, a)
        assert dominates(a, b) and not dominates(b, a)


class TestRanking:
    def test_orders_by_cycles_then_aborts_then_pool(self):
        pts = [pt(A, 20, 0, 0), pt(B, 10, 5, 0), pt(C, 10, 1, 9),
               pt(D, 10, 1, 2)]
        assert [p.scheme for p in rank_points(pts)] == [D, C, B, A]

    def test_name_breaks_exact_ties_deterministically(self):
        pts = [pt(B, 10, 1, 1), pt(A, 10, 1, 1)]
        assert [p.scheme for p in rank_points(pts)] == sorted([A, B])

    def test_empty(self):
        assert rank_points([]) == []


class TestParetoFront:
    def test_single_point_is_its_own_front(self):
        assert pareto_front([pt(A, 10)]) == [pt(A, 10)]

    def test_dominated_points_drop(self):
        front = pareto_front([pt(A, 10, 0, 0), pt(B, 20, 1, 1)])
        assert [p.scheme for p in front] == [A]

    def test_tradeoffs_all_stay(self):
        pts = [pt(A, 10, 9, 0), pt(B, 20, 0, 0), pt(C, 15, 5, 0)]
        assert {p.scheme for p in pareto_front(pts)} == {A, B, C}

    def test_duplicate_metrics_both_stay(self):
        pts = [pt(A, 10, 1, 1), pt(B, 10, 1, 1), pt(C, 30, 9, 9)]
        assert {p.scheme for p in pareto_front(pts)} == {A, B}

    def test_front_is_in_ranking_order(self):
        pts = [pt(B, 20, 0, 0), pt(A, 10, 9, 0)]
        assert [p.scheme for p in pareto_front(pts)] == [A, B]

    def test_front_never_contains_a_dominated_pair(self):
        pts = [pt(s, c, a, p) for s, c, a, p in [
            (A, 10, 4, 2), (B, 12, 3, 1), (C, 10, 4, 3), (D, 9, 9, 9)]]
        front = pareto_front(pts)
        for x in front:
            assert not any(dominates(y, x) for y in front)


class TestAxes:
    def test_point_exposes_its_axes(self):
        assert pt(D, 1).axes == {
            "vm": "buffer", "cd": "lazy", "resolution": "karma",
        }

    def test_as_dict_flattens_axes_and_objectives(self):
        d = pt(A, 10, 2, 3).as_dict()
        assert d["scheme"] == A and d["vm"] == "redirect"
        assert (d["cycles"], d["aborts"], d["pool_high_water"]) == (10, 2, 3)

    def test_non_composed_name_raises(self):
        with pytest.raises(ValueError, match="not a composed scheme"):
            pt("suv", 1).axes


class TestDominatedAxisValues:
    def test_value_on_no_front_is_reported(self):
        fronts = {"w1": [pt(A, 1)], "w2": [pt(C, 1)]}
        swept = {"vm": ["redirect", "undo", "flash"],
                 "resolution": ["stall", "greedy"]}
        dead = dominated_axis_values(fronts, swept)
        assert dead["vm"] == ["flash"]
        assert dead["resolution"] == []

    def test_one_front_appearance_clears_a_value(self):
        fronts = {"w1": [pt(A, 1)], "w2": [pt(B, 1), pt(D, 9)]}
        # karma reaches a front only through D, on one workload
        dead = dominated_axis_values(
            fronts, {"resolution": ["stall", "karma"]}
        )
        assert dead["resolution"] == []

    def test_empty_fronts_condemn_everything(self):
        dead = dominated_axis_values({}, {"cd": ["eager", "lazy"]})
        assert dead["cd"] == ["eager", "lazy"]
