"""Locate the arnorm sources of this checkout and pin BLAS to one thread.

Imports only the standard library: thread limits must be in the
environment before numpy loads its BLAS, and child processes inherit them.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class MissingSources(RuntimeError):
    pass


def cpu_count() -> int:
    """Cores this process may run on."""
    return len(os.sched_getaffinity(0))


def limit_blas_threads() -> None:
    """Run BLAS on one thread, whatever the caller's environment says.

    Every workload is one client in one process.  A second OpenBLAS thread
    gains little on these sizes but spins between calls, and on a 2-core
    host that spinning competes with the Python thread that does most of
    the work: it burned 40-80% more CPU than wall time and made operation
    times less steady.
    """
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def import_arnorm():
    """Import arnorm from ``src`` of this checkout, never from elsewhere."""
    init = SRC / "arnorm" / "__init__.py"
    if not init.is_file():
        raise MissingSources(f"no arnorm sources at {init.relative_to(ROOT)}")
    sys.path.insert(0, str(SRC))
    import arnorm

    if Path(arnorm.__file__).resolve() != init.resolve():
        raise MissingSources(f"imported arnorm from {arnorm.__file__}, not {init}")
    return arnorm
