"""The swept region of the policy design space.

A :class:`StudySpace` is the frozen description of one study: which
workloads, which slice of the three policy axes (default: all of it),
and the machine/seed pins.  It expands to the legal combinations via
:func:`repro.htm.policy.legal_combinations` — never a hardcoded list —
and to runnable :class:`~repro.runner.ExperimentSpec` values through
the same :class:`~repro.runner.RunMatrix` machinery every other
campaign uses, so studies inherit caching, journaling and the
chaos-hardened executor for free.  Every run has the atomicity oracle
armed, so a combination that violates atomicity lands in the study's
failures instead of its rankings.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Sequence

from repro.errors import IncompatiblePolicyError
from repro.htm.policy import (
    CD_AXIS,
    RESOLUTION_AXIS,
    VM_AXIS,
    SchemeComposition,
    legal_combinations,
)
from repro.runner import ExperimentSpec, RunMatrix

#: the axis names, in canonical order (mirrors SchemeComposition)
AXES = ("vm", "cd", "resolution")


def _axis_subset(
    requested: Sequence[str], full: Sequence[str], axis: str
) -> tuple[str, ...]:
    """Validate an axis filter; empty means the whole axis."""
    if not requested:
        return tuple(full)
    unknown = [v for v in requested if v not in full]
    if unknown:
        raise IncompatiblePolicyError(
            f"unknown {axis} axis value in study space",
            axes={axis: ",".join(unknown)},
            reason=f"choose from {', '.join(full)}",
        )
    return tuple(dict.fromkeys(requested))  # dedup, keep order


@dataclass(frozen=True)
class StudySpace:
    """One design-space study, as a frozen value.

    The axis filters (``vms``/``cds``/``resolutions``) default to the
    full axes; a study over a slice (CI smoke, a focussed question) sets
    them explicitly.  Expansion keeps only the *legal* subset of the
    cross product.
    """

    workloads: tuple[str, ...]
    scale: str = "tiny"
    seeds: tuple[int, ...] = (1,)
    cores: int = 8
    threads: int = 0
    stagger: int = 512
    vms: tuple[str, ...] = ()
    cds: tuple[str, ...] = ()
    resolutions: tuple[str, ...] = ()
    verify: bool = True
    workload_kwargs: tuple[tuple[str, Any], ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(self, "workloads", tuple(self.workloads))
        object.__setattr__(self, "seeds", tuple(self.seeds))
        object.__setattr__(
            self, "vms", _axis_subset(self.vms, VM_AXIS, "vm"))
        object.__setattr__(
            self, "cds", _axis_subset(self.cds, CD_AXIS, "cd"))
        object.__setattr__(
            self,
            "resolutions",
            _axis_subset(self.resolutions, RESOLUTION_AXIS, "resolution"),
        )

    def with_(self, **changes: Any) -> "StudySpace":
        return replace(self, **changes)

    # -- expansion ------------------------------------------------------
    def combos(self) -> tuple[SchemeComposition, ...]:
        """The legal policy combinations inside this space, axis order."""
        return tuple(
            c for c in legal_combinations()
            if c.vm in self.vms and c.cd in self.cds
            and c.resolution in self.resolutions
        )

    def matrix(self) -> RunMatrix:
        """The :class:`RunMatrix` this study executes."""
        combos = self.combos()
        if not combos:
            raise IncompatiblePolicyError(
                "empty study space",
                axes={
                    "vm": ",".join(self.vms),
                    "cd": ",".join(self.cds),
                    "resolution": ",".join(self.resolutions),
                },
                reason="no legal combination survives the axis filters",
            )
        return RunMatrix(
            workloads=self.workloads,
            schemes=[c.name for c in combos],
            scales=(self.scale,),
            seeds=self.seeds,
            cores=(self.cores,),
            threads=(self.threads,),
            staggers=(self.stagger,),
            workload_kwargs=self.workload_kwargs,
            verify=self.verify,
            check=True,
        )

    def specs(self) -> list[ExperimentSpec]:
        """Every run of the study (workload-major, axis order)."""
        return self.matrix().specs()

    def describe(self) -> dict[str, Any]:
        """The JSON-safe description embedded in the STUDY document."""
        return {
            "workloads": list(self.workloads),
            "scale": self.scale,
            "seeds": list(self.seeds),
            "cores": self.cores,
            "threads": self.threads,
            "stagger": self.stagger,
            "axes": {
                "vm": list(self.vms),
                "cd": list(self.cds),
                "resolution": list(self.resolutions),
            },
            "combos": len(self.combos()),
        }
