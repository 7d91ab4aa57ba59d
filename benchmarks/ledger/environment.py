"""Environment guard and provenance.

The ledger measures what ships by default, so it refuses to run in an
environment that silently selects another mode, and it records what the
defaults resolved to on this box.
"""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path
from typing import Any

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Environment variables that switch ``repro`` off its default modes.
_FORBIDDEN_ENV = ("REPRO_KERNELS", "REPRO_CACHE_DIR")


class LedgerRefused(RuntimeError):
    """The environment would make the ledger measure a non-default mode."""


def refuse_if_configured() -> None:
    """Raise unless ``repro`` will run in its shipped default modes."""
    for name in _FORBIDDEN_ENV:
        if name in os.environ:
            raise LedgerRefused(f"{name} is set; the ledger measures defaults only")
    from repro.harness.cache import get_default_cache

    if get_default_cache() is not None:
        raise LedgerRefused("a default SweepCache is installed")


def _git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def provenance() -> dict[str, Any]:
    """What ran where: commit, cores, versions, resolved default modes."""
    import numpy

    from repro import kernels
    from repro.harness import transport

    return {
        "git_commit": _git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": kernels.active_backend(),
        "transport": transport.resolve_transport("auto"),
    }
