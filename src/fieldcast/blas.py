"""How many BLAS threads a factorization runs on.

numpy has no runtime thread API, but its wheels bundle OpenBLAS under
``numpy.libs``, whose thread setter ctypes can reach.  This module finds
that library without importing numpy, so ``python -m fieldcast`` can load
it with one thread; the CLI then raises the count to :func:`ceiling` only
for a factorization of at least ``PARALLEL_MIN_FLOPS``.  Where no such
library is found, every call here leaves the thread count alone; a bundled
OpenBLAS without any of the known setters would stay on its one thread.
"""

from __future__ import annotations

import ctypes
import functools
import importlib.util
import os
from contextlib import contextmanager
from pathlib import Path

# m M^2 of an m x M factorization (its QR's leading flop term) from which
# two threads beat one: midway between 2175 x 575 (7.2e8, one thread 13%
# faster) and 1359 x 783 (8.3e8, two threads 17% faster), timing QR plus SVD
# of R on the presets' coefficient matrices on 2 vCPUs (README, "BLAS
# threads").
PARALLEL_MIN_FLOPS = 7.8e8

# The variables OpenBLAS reads its thread count from, first match first.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# (set, get) names of the thread functions, by OpenBLAS build.
_FUNCTION_NAMES = [(f"{prefix}_set_num_threads{suffix}", f"{prefix}_get_num_threads{suffix}")
                   for prefix in ("scipy_openblas", "openblas") for suffix in ("64_", "")]


def ceiling() -> int:
    """The thread count OpenBLAS starts with under this environment: the
    first positive value of ``THREAD_VARIABLES``, else every CPU this
    process may use, and never more CPUs than that."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    for name in THREAD_VARIABLES:
        try:
            count = int(os.environ.get(name, ""))
        except ValueError:
            continue
        if count > 0:
            return min(count, cpus)
    return cpus


def library_path() -> Path | None:
    """numpy's bundled OpenBLAS, found without importing numpy, or None."""
    spec = importlib.util.find_spec("numpy")
    if spec is None or not spec.submodule_search_locations:
        return None
    libs = Path(list(spec.submodule_search_locations)[0]).parent / "numpy.libs"
    return min(libs.glob("lib*openblas*.so"), default=None)


@functools.cache
def _functions():
    """(set, get) thread functions of the bundled OpenBLAS, or None.  The
    first call loads the library if numpy has not."""
    path = library_path()
    if path is None:
        return None
    try:
        lib = ctypes.CDLL(str(path))
    except OSError:
        return None
    for set_name, get_name in _FUNCTION_NAMES:
        if hasattr(lib, set_name) and hasattr(lib, get_name):
            set_threads, get_threads = getattr(lib, set_name), getattr(lib, get_name)
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            return set_threads, get_threads
    return None


def threads_for(flops: float, limit: int) -> int:
    """Threads for a factorization of m M^2 = ``flops``: ``limit`` from
    ``PARALLEL_MIN_FLOPS`` on, else one."""
    return limit if flops >= PARALLEL_MIN_FLOPS else 1


def use_threads(flops: float) -> int:
    """Set the thread count for a factorization of m M^2 = ``flops`` and
    return it.  Without a setter, return the count OpenBLAS started with."""
    functions = _functions()
    if functions is None:
        return ceiling()
    count = threads_for(flops, ceiling())
    functions[0](count)
    return count


@contextmanager
def thread_count_kept():
    """Give the thread count found on entry back on exit."""
    functions = _functions()
    count = functions[1]() if functions is not None else None
    try:
        yield
    finally:
        if count is not None:
            functions[0](count)


@contextmanager
def loading_single_threaded():
    """Load the bundled OpenBLAS, by importing what the block imports, with
    one thread, and give ``OPENBLAS_NUM_THREADS`` back as it was.  Without
    a bundled OpenBLAS the block runs under the environment as given."""
    given = os.environ.get("OPENBLAS_NUM_THREADS")
    if library_path() is not None:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        yield
    finally:
        if given is None:
            os.environ.pop("OPENBLAS_NUM_THREADS", None)
        else:
            os.environ["OPENBLAS_NUM_THREADS"] = given
