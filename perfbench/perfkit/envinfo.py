"""The environment record stamped on every benchmark result."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from pathlib import Path

#: Environment variables through which the launcher pins the BLAS pool.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads(threads: int) -> None:
    """Pin the BLAS thread pool; must run before numpy is first imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)


def _git(root: Path, *args: str) -> str | None:
    try:
        done = subprocess.run(["git", "-C", str(root), *args], capture_output=True,
                              text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest(root: Path) -> str:
    """sha256 over the package sources, for checkouts that are not git repositories."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(root: Path) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    # Only the checkout's own repository: git would otherwise find an
    # enclosing one.
    sha = _git(root, "rev-parse", "HEAD") if (root / ".git").exists() else None
    dirty = None
    if sha is not None:
        dirty = bool(_git(root, "status", "--porcelain", "--untracked-files=no"))
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_sha": sha,
        "git_dirty": dirty,
        "source_digest": source_digest(root),
    }
