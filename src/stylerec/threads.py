"""The program's threads: the BLAS thread count it owns, and its one helper thread.

OpenBLAS can split a matrix product across threads and sum it in another
order, so the last bits of training depend on its thread count. The
program runs its own work at one BLAS thread (``one_blas_thread``) and
finds its parallelism instead in ``WORKERS`` threads of its own: the
calling thread, plus the process's one helper thread when the process may
run on two CPUs (``on_workers``), which take items in order (``in_order``).
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
    True ("owned"), or False ("unowned") when the count cannot be set, in which case
    nothing changes. Nesting is safe: an inner block restores the outer block's one."""
    calls = _blas_thread_calls()
    if calls is None:
        yield False
        return
    set_, get = calls
    before = get()
    set_(1)
    try:
        yield True
    finally:
        set_(before)


@functools.cache
def _helper():
    """The process's one helper thread; it starts on the first task and then idles
    between tasks."""
    # imported here so that runs which never use it do not load it
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(1, thread_name_prefix="stylerec-helper")


def on_workers(work: Callable[[int], None], workers: int) -> None:
    """Run ``work(0)`` on the calling thread and, at 2 workers, ``work(1)`` on the helper
    at the same time, in a copy of the caller's context (numpy's ``errstate`` lives
    there); returns once both are done, and re-raises what either raised. ``work(1)``
    is dropped if the helper has not started it when ``work(0)`` returns, so the two
    must share out their work themselves, say from one ``itertools.count``."""
    if workers == 1:
        work(0)
        return
    job = _helper().submit(contextvars.copy_context().run, work, 1)
    try:
        work(0)
    finally:
        if not job.cancel():  # it started: wait for the work it may hold
            job.result()


def in_order(do: Callable[[int, int], None], items: Iterator[int], workers: int) -> None:
    """``do(k, item)`` on worker ``k`` for each of the ascending ``items``, which the
    ``workers`` take in order from that one iterator (a ``range``'s is safe to share).
    None takes an item after a failure, and the lowest failing item's fault is raised,
    as one worker going through the items in order would raise it."""
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

    on_workers(work, workers)
    if failed:
        try:
            raise failed[min(failed)]
        finally:  # no reference cycle keeps a failed item's frames, and its files, alive
            failed.clear()
