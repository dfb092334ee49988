"""Shared start-up for the benchmark scripts: thread pinning and the import guard.

Every benchmark process runs one client thread and single-threaded BLAS, so
the process never uses more threads than the two cores of the reference
machine.  ``ccgrav`` is imported from the checkout's ``src/`` tree only; a
checkout without it is an error, never a silent fall-back to another copy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"


class CheckoutError(RuntimeError):
    """The checkout does not hold the package sources the benchmark measures."""


def pin_threads() -> None:
    """Fix BLAS to one thread; must run before numpy is first imported."""
    for name in _THREAD_VARS:
        os.environ[name] = str(BLAS_THREADS)


def child_env() -> dict:
    """Environment for benchmark child interpreters (same pinning, same sources)."""
    env = dict(os.environ)
    for name in _THREAD_VARS:
        env[name] = str(BLAS_THREADS)
    env["PYTHONPATH"] = str(SRC_DIR)
    return env


def add_src_path() -> None:
    """Put the checkout's ``src/`` first on ``sys.path``; raise if it is missing."""
    if not (SRC_DIR / "ccgrav" / "__init__.py").is_file():
        raise CheckoutError(f"no package sources at {SRC_DIR / 'ccgrav'}")
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))


def check_imported(module) -> None:
    """Raise unless ``module`` was loaded from the checkout's ``src/`` tree."""
    origin = Path(module.__file__).resolve()
    if SRC_DIR not in origin.parents:
        raise CheckoutError(f"ccgrav was imported from {origin}, not from {SRC_DIR}")
