"""Ranking, Pareto fronts and dominated-axis detection.

A design-space study does not end with a winner: schemes trade total
execution time against abort work and against the hardware the
preserved pool must provision.  The per-workload Pareto front over
``(cycles, aborts, pool_high_water)`` — all minimized — is the set of
combinations a designer could rationally pick; everything else is
dominated by a combination that is no worse on every objective and
strictly better on one.

Everything here is pure and deterministic: points in, sorted values
out, no clocks, no randomness — so CI can byte-compare study analyses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.htm.policy import SchemeComposition

#: the study's objectives, all minimized, in tie-break order
OBJECTIVES = ("cycles", "aborts", "pool_high_water")


@dataclass(frozen=True)
class StudyPoint:
    """One (combination, workload) outcome in objective space."""

    scheme: str  #: composed three-axis name
    cycles: int
    aborts: int
    pool_high_water: int

    @property
    def metrics(self) -> tuple[int, int, int]:
        return (self.cycles, self.aborts, self.pool_high_water)

    @property
    def axes(self) -> dict[str, str]:
        comp = SchemeComposition.parse(self.scheme)
        if comp is None:
            raise ValueError(
                f"study point {self.scheme!r} is not a composed scheme name"
            )
        return comp.as_dict()

    def as_dict(self) -> dict[str, object]:
        out: dict[str, object] = {"scheme": self.scheme}
        out.update(self.axes)
        out.update(zip(OBJECTIVES, self.metrics))
        return out


def dominates(a: StudyPoint, b: StudyPoint) -> bool:
    """Is ``a`` no worse than ``b`` everywhere and better somewhere?"""
    am, bm = a.metrics, b.metrics
    return all(x <= y for x, y in zip(am, bm)) and am != bm


def rank_points(points: Iterable[StudyPoint]) -> list[StudyPoint]:
    """Points ordered best-first by (cycles, aborts, pool, name).

    The name tie-break makes the ranking total and therefore
    deterministic even when two combinations behave identically (a
    resolution that never engages on a workload without conflicts, say).
    """
    return sorted(
        points,
        key=lambda p: (p.cycles, p.aborts, p.pool_high_water, p.scheme),
    )


def pareto_front(points: Iterable[StudyPoint]) -> list[StudyPoint]:
    """The non-dominated subset, in ranking order.

    Duplicate metric vectors all stay on the front (they are mutually
    non-dominating), so equivalent combinations remain visible instead
    of one arbitrarily shadowing the rest.
    """
    pts = rank_points(points)
    front: list[StudyPoint] = []
    for candidate in pts:
        if not any(dominates(other, candidate) for other in pts):
            front.append(candidate)
    return front


def dominated_axis_values(
    fronts: Mapping[str, Sequence[StudyPoint]],
    swept: Mapping[str, Sequence[str]],
) -> dict[str, list[str]]:
    """Axis values that appear on *no* workload's Pareto front.

    ``fronts`` maps workload → its front; ``swept`` maps axis → the
    values the study actually swept (an axis value can only be called
    dominated if it was given a chance).  A value returned here buys
    nothing on any studied workload under any objective — the study's
    evidence that the axis region is a dead end.
    """
    used: dict[str, set[str]] = {axis: set() for axis in swept}
    for front in fronts.values():
        for point in front:
            for axis, value in point.axes.items():
                if axis in used:
                    used[axis].add(value)
    return {
        axis: [v for v in values if v not in used[axis]]
        for axis, values in swept.items()
    }
