"""First-class experiment descriptions.

An :class:`ExperimentSpec` captures everything that determines one
simulation run — workload, scheme, input scale, seed, machine shape and
configuration overrides — as a frozen, hashable value.  Being a value
(rather than an ``argparse.Namespace`` threaded through helpers) buys
three things:

* **a cache key** — :meth:`ExperimentSpec.spec_hash` content-hashes the
  spec, so a result computed once is never recomputed;
* **a process-pool message** — specs pickle cheaply and worker processes
  rebuild the whole simulation from them;
* **matrix expansion** — :class:`RunMatrix` crosses per-axis value lists
  into the spec lists that every figure/table of the paper is made of.

Configuration overrides are dotted paths into :class:`~repro.config.
SimConfig` (``{"redirect.l1_entries": 64, "signature.bits": 1024}``);
workload overrides (``{"n_flows": 128}``) go to ``make_workload``.  Both
are stored as sorted tuples so specs stay hashable and hash-stable.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, replace
from itertools import product
from typing import Any, Iterator, Mapping, Sequence

from repro.config import HTMConfig, SimConfig
from repro.errors import ConfigError
from repro.htm.policy import NAMED_SCHEMES, SchemeComposition

#: bump when the spec encoding changes, so stale cache entries never match
SPEC_FORMAT_VERSION = 6

_SCALES = ("tiny", "small", "full")
_SCALAR_TYPES = (bool, int, float, str, type(None))

Overrides = Mapping[str, Any] | Sequence[tuple[str, Any]]


def _freeze_overrides(value: Overrides, what: str) -> tuple[tuple[str, Any], ...]:
    """Normalize a mapping (or pair sequence) to a sorted, hashable tuple."""
    items = value.items() if isinstance(value, Mapping) else [tuple(p) for p in value]
    frozen = []
    for key, val in items:
        if not isinstance(val, _SCALAR_TYPES):
            raise TypeError(
                f"{what}[{key!r}] must be a scalar "
                f"(bool/int/float/str/None), got {type(val).__name__}"
            )
        frozen.append((str(key), val))
    frozen.sort(key=lambda pair: pair[0])
    return tuple(frozen)


@dataclass(frozen=True)
class ExperimentSpec:
    """One simulation run, fully determined and hashable.

    The defaults mirror the CLI/benchmark harness defaults (Table III
    machine, seed 3, realistic 512-cycle thread-launch stagger), so
    ``ExperimentSpec("genome")`` is the harness's genome run.
    """

    workload: str
    #: a named scheme (``"suv"``, a fixed ``stall`` point) or a composed
    #: three-axis name (``"redirect+eager+timestamp"``), which
    #: normalizes to its canonical spelling; the name sets every axis
    scheme: str = "suv"
    scale: str = "small"
    seed: int = 3
    cores: int = 16
    threads: int = 0  # 0 = one software thread per core
    stagger: int = 512
    verify: bool = True
    max_events: int = 20_000_000
    #: dotted-path overrides into SimConfig, e.g. {"redirect.l1_entries": 64}
    config_overrides: Overrides = ()
    #: keyword overrides for make_workload, e.g. {"n_flows": 128}
    workload_kwargs: Overrides = ()
    #: fault plan: "" = fault-free, a preset name, or inline FaultPlan
    #: JSON (see :func:`repro.faults.parse_plan`)
    fault_plan: str = ""
    #: run the atomicity oracle after the simulation and attach its
    #: report to the result (raises OracleViolation on failure)
    check: bool = False

    def __post_init__(self) -> None:
        if self.scale not in _SCALES:
            raise ValueError(f"unknown scale {self.scale!r}; choose from {_SCALES}")
        comp = SchemeComposition.parse(self.scheme)
        if comp is not None:
            # one spelling per run: one spec (and hash)
            object.__setattr__(self, "scheme", comp.check().name)
        object.__setattr__(
            self,
            "config_overrides",
            _freeze_overrides(self.config_overrides, "config_overrides"),
        )
        object.__setattr__(
            self,
            "workload_kwargs",
            _freeze_overrides(self.workload_kwargs, "workload_kwargs"),
        )

    # -- derived values --------------------------------------------------
    def with_(self, **changes: Any) -> "ExperimentSpec":
        """A copy with the given fields replaced."""
        return replace(self, **changes)

    def build_config(self) -> SimConfig:
        """The :class:`SimConfig` this spec describes.

        Starts from the Table III defaults with this spec's machine
        shape, then applies the dotted-path overrides
        (``"section.field"`` replaces one field of a config section;
        a bare ``"field"`` replaces a top-level ``SimConfig`` field).
        """
        top: dict[str, Any] = {}
        sections: dict[str, dict[str, Any]] = {}
        for path, value in self.config_overrides:
            if "." in path:
                section, field_name = path.split(".", 1)
                sections.setdefault(section, {})[field_name] = value
            else:
                top[path] = value
        try:
            config = SimConfig(
                n_cores=self.cores,
                htm=HTMConfig(start_stagger=self.stagger),
            )
            if top:
                config = replace(config, **top)
            for section, kv in sections.items():
                if not hasattr(config, section):
                    raise TypeError(f"no config section {section!r}")
                config = replace(
                    config, **{section: replace(getattr(config, section), **kv)}
                )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad config: {exc}") from exc
        return config

    # -- serialization / hashing ----------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """A JSON-serializable dict; inverse of :meth:`from_dict`."""
        out: dict[str, Any] = {
            f.name: getattr(self, f.name) for f in fields(self)
        }
        out["config_overrides"] = dict(self.config_overrides)
        out["workload_kwargs"] = dict(self.workload_kwargs)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        # a record written while specs had a ``resolution`` field loads
        # when the field is redundant (``stall``, or the resolution its
        # composed name spells) and is dropped, like a retired
        # ``arbitration``; any other value is a run the name must spell
        resolution = data.get("resolution", "stall")
        scheme = str(data.get("scheme", "suv"))
        if resolution not in ("stall", scheme.rsplit("+", 1)[-1]):
            row = NAMED_SCHEMES.get(scheme)
            axes = f"{row.vm}+{row.cd}" if row else "vm+cd"
            raise ConfigError(
                f"spec record runs {scheme!r} at resolution={resolution!r}; "
                f"the scheme name sets the resolution: spell it "
                f"{axes}+{resolution}"
            )
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})

    def spec_hash(self) -> str:
        """Content hash identifying this spec (the cache key)."""
        payload = self.to_dict()
        payload["_format"] = SPEC_FORMAT_VERSION
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    def label(self) -> str:
        """A short human-readable tag for logs and progress lines."""
        tag = f"{self.workload}/{self.scheme} {self.scale} seed={self.seed}"
        if self.fault_plan:
            plan = self.fault_plan
            tag += f" faults={plan if len(plan) <= 24 else 'inline'}"
        if self.config_overrides:
            tag += " " + ",".join(f"{k}={v}" for k, v in self.config_overrides)
        return tag


@dataclass(frozen=True)
class RunMatrix:
    """A cross product of experiment axes, expanded to specs.

    Each sequence field is one axis; :meth:`specs` crosses them in
    workload-major order (workload, then scheme, then scale, seed,
    cores, threads, stagger, overrides), the order the paper's figures
    iterate in.  ``overrides`` is an axis of override *sets*: each
    entry is one ``config_overrides`` mapping.  A sweep over the
    composed policy space lists its names in ``schemes`` (see
    :class:`repro.study.StudySpace`).
    """

    workloads: Sequence[str]
    schemes: Sequence[str] = ("suv",)
    scales: Sequence[str] = ("small",)
    seeds: Sequence[int] = (3,)
    cores: Sequence[int] = (16,)
    threads: Sequence[int] = (0,)
    staggers: Sequence[int] = (512,)
    overrides: Sequence[Overrides] = ((),)
    #: fault-plan axis: each entry is a spec string ("" = fault-free)
    fault_plans: Sequence[str] = ("",)
    workload_kwargs: Overrides = ()
    verify: bool = True
    check: bool = False
    max_events: int = 20_000_000

    def specs(self) -> list[ExperimentSpec]:
        """Expand the cross product into concrete specs."""
        return [
            ExperimentSpec(
                workload=workload,
                scheme=scheme,
                scale=scale,
                seed=seed,
                cores=n_cores,
                threads=n_threads,
                stagger=stagger,
                verify=self.verify,
                max_events=self.max_events,
                config_overrides=over,
                workload_kwargs=self.workload_kwargs,
                fault_plan=plan,
                check=self.check,
            )
            for workload, scheme, scale, seed, n_cores, n_threads, stagger,
                over, plan in product(
                    self.workloads, self.schemes, self.scales, self.seeds,
                    self.cores, self.threads, self.staggers, self.overrides,
                    self.fault_plans,
                )
        ]

    def __len__(self) -> int:
        return len(self.specs())

    def __iter__(self) -> Iterator[ExperimentSpec]:
        return iter(self.specs())
