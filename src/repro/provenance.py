"""Run provenance: which code, interpreter and host produced a result.

Benchmark and matrix artifacts are only comparable when we know what
produced them; every result JSON therefore embeds this record.  The git
lookups shell out once per process (cached) and degrade to ``None``
outside a repository or without a ``git`` binary, so library users are
never forced to run inside a checkout.
"""

from __future__ import annotations

import platform
import subprocess
import sys
from functools import lru_cache
from pathlib import Path


def _git(*args: str) -> str | None:
    """Output of one git command in the package's repo, or None."""
    try:
        out = subprocess.run(
            ["git", *args],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip()


@lru_cache(maxsize=1)
def git_revision() -> str | None:
    """The checkout's commit hash, or None outside a repository."""
    return _git("rev-parse", "HEAD")


@lru_cache(maxsize=1)
def git_dirty() -> bool | None:
    """True when the working tree has uncommitted changes."""
    status = _git("status", "--porcelain")
    if status is None:
        return None
    return bool(status)


@lru_cache(maxsize=1)
def provenance() -> dict:
    """A JSON-safe record identifying code, interpreter and host."""
    from repro import __version__

    return {
        "repro_version": __version__,
        "git_revision": git_revision(),
        "git_dirty": git_dirty(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }
