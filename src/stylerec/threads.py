"""The program's threads: the BLAS thread count it owns, and its one helper thread.

OpenBLAS can split a matrix product across threads and sum it in another
order, so the last bits of training depend on its thread count. The
program runs its own work at one BLAS thread (``one_blas_thread``) and
finds its parallelism instead in ``WORKERS`` threads of its own: the
calling thread, plus the process's one helper thread when the process may
run on two CPUs, which take items in order (``in_order``).
"""

from __future__ import annotations

import contextvars
import ctypes
import functools
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator

import numpy as np

WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count() or 1)


@functools.cache
def _blas_thread_calls():
    """The (set, get) thread-count calls of the OpenBLAS that numpy bundles, or None
    when this numpy build has no such library or symbols."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so*")):
        try:
            lib = ctypes.CDLL(str(path))  # the copy numpy loaded: same file, same handle
            set_, get = lib.scipy_openblas_set_num_threads64_, lib.scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        set_.argtypes, set_.restype = [ctypes.c_int], None
        get.argtypes, get.restype = [], ctypes.c_int
        return set_, get
    return None


@contextmanager
def one_blas_thread():
    """Run the block at one BLAS thread and restore the caller's count after it; yields
    the block's worker count: ``WORKERS`` when it owns the BLAS count, else 1 ("unowned":
    nothing changes, and two workers at BLAS's own count ran slower than one). Nesting
    is safe: an inner block restores the outer block's one."""
    calls = _blas_thread_calls()
    if calls is None:
        yield 1
        return
    set_, get = calls
    before = get()
    set_(1)
    try:
        yield WORKERS
    finally:
        set_(before)


@functools.cache
def _helper():
    """The process's one helper thread; it starts on the first task and then idles
    between tasks."""
    # imported here so that runs which never use it do not load it
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(1, thread_name_prefix="stylerec-helper")


def in_order(do: Callable[[int, int], None], items: Iterator[int], workers: int) -> None:
    """``do(k, item)`` on worker ``k`` for each of the ascending ``items``, which the
    ``workers`` take in order from that one iterator (a ``range``'s is safe to share):
    the calling thread as worker 0 and, at 2, the helper as worker 1, in a copy of the
    caller's context (numpy's ``errstate`` lives there). None takes an item after a
    failure, and the lowest failing item's fault is raised, as one worker in order would."""
    failed: Dict[int, Exception] = {}

    def work(k: int) -> None:
        for item in items:  # next() is atomic under the interpreter lock
            if failed:  # an item taken after a failure lies above it
                return
            try:
                do(k, item)
            except Exception as e:  # any kind: the items below it are still taken and done
                failed[item] = e
                return

    helper = _helper().submit(contextvars.copy_context().run, work, 1) if workers > 1 else None
    try:
        work(0)
    finally:
        if helper and not helper.cancel():  # it started: wait for the items it holds
            helper.result()
    if failed:
        try:
            raise failed[min(failed)]
        finally:  # no reference cycle keeps a failed item's frames, and its files, alive
            failed.clear()
