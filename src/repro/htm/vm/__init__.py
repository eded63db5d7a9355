"""Version-management schemes.

* :class:`~repro.htm.vm.logtm_se.LogTMSE` — eager VM with an undo log
  and a software abort walk (the paper's baseline).
* :class:`~repro.htm.vm.fastm.FasTM` — new values pinned in the L1,
  fast abort unless the L1 overflows (then per-line LogTM-SE fallback).
* :class:`~repro.htm.vm.suv.SUV` — the paper's contribution: every
  transactional store redirected through the redirect table; commit and
  abort are bit flips.
* :class:`~repro.htm.vm.lazy.LazyVM` — redo-in-L1 lazy VM, DynTM's lazy
  execution mode (exhibits the merge pathology).
* :class:`~repro.htm.vm.composed.RedirectLazyVM` — SUV placement under
  lazy conflict detection.
* :class:`~repro.htm.vm.composed.AdaptiveVM` — adaptive conflict
  detection: DynTM's history-based eager/lazy mode selector over an
  eager carrier and a LazyVM (FasTM = original DynTM, SUV = the paper's
  DynTM+SUV).

Every scheme name — a named scheme (``"suv"``, see
:data:`~repro.htm.policy.NAMED_SCHEMES`) or a composed three-axis name
(``"redirect+lazy+stall"``, see :func:`compose_scheme`) —
resolves to one checked composition (:func:`resolve_scheme`), which
:func:`build_version_manager` turns into a VM;
:func:`make_version_manager` does both.
"""

from repro.htm.policy import (
    AdaptiveCD,
    CommitArbitration,
    ConflictResolution,
    SchemeComposition,
    compose_scheme,
    legal_combinations,
)
from repro.htm.vm.base import (
    VersionManager,
    available_schemes,
    resolve_scheme,
    resolve_scheme_name,
)
from repro.htm.vm.logtm_se import LogTMSE
from repro.htm.vm.fastm import FasTM
from repro.htm.vm.suv import SUV
from repro.htm.vm.lazy import LazyVM
from repro.htm.vm.composed import (
    AdaptiveVM,
    RedirectLazyVM,
    build_version_manager,
    make_version_manager,
)

__all__ = [
    "AdaptiveCD",
    "AdaptiveVM",
    "CommitArbitration",
    "ConflictResolution",
    "FasTM",
    "LazyVM",
    "LogTMSE",
    "RedirectLazyVM",
    "SUV",
    "SchemeComposition",
    "VersionManager",
    "available_schemes",
    "build_version_manager",
    "compose_scheme",
    "legal_combinations",
    "make_version_manager",
    "resolve_scheme",
    "resolve_scheme_name",
]
