"""Design-space study subsystem.

The schemes decompose into a vm × cd × resolution cross product
(:mod:`repro.htm.policy`); this package *exploits* that space.  A
:class:`StudySpace` expands the legal policy combinations × a workload
set into the :class:`~repro.runner.RunMatrix` the crash-safe runner
executes (journal + cache + chaos-hardened executor), and the analysis
layer ranks every combination per workload by total cycles, computes
the per-workload Pareto front over (cycles, aborts, preserved-pool
high-water), and detects axis values no front ever uses — the
methodology Multiverse-style papers use to justify multiversioning
trade-offs (PAPERS.md, arXiv 2601.09735).

The output is a schema-versioned ``STUDY_<date>.json`` plus markdown
and CSV reports; ``repro study`` runs a study, ``repro study report``
re-renders one, ``repro study compare`` diffs two (the CI determinism
gate).  Everything outside the ``provenance``/``campaign`` sections is
seed-deterministic: the same space and seeds produce byte-identical
analysis, so CI can gate on it.
"""

from repro.study.pareto import (
    StudyPoint,
    dominated_axis_values,
    dominates,
    pareto_front,
    rank_points,
)
from repro.study.report import (
    STUDY_SCHEMA_VERSION,
    compare_studies,
    format_csv,
    format_markdown,
    load_study,
    strip_volatile,
    write_study,
)
from repro.study.run import build_study_doc, run_study
from repro.study.space import StudySpace

__all__ = [
    "STUDY_SCHEMA_VERSION",
    "StudyPoint",
    "StudySpace",
    "build_study_doc",
    "compare_studies",
    "dominated_axis_values",
    "dominates",
    "format_csv",
    "format_markdown",
    "load_study",
    "pareto_front",
    "rank_points",
    "run_study",
    "strip_volatile",
    "write_study",
]
