"""The BLAS thread-count owner and the shared helper thread."""

import threading

import numpy as np
import pytest

from stylerec import threads


@pytest.fixture
def blas_calls():
    """The owner's (set, get) pair; the test's count is restored after it."""
    calls = threads._blas_thread_calls()
    assert calls is not None, "this numpy build's OpenBLAS thread count is not owned"
    set_, get = calls
    before = get()
    yield calls
    set_(before)


def test_owned_on_this_numpy_build(blas_calls):
    with threads.one_blas_thread() as workers:
        assert workers == threads.WORKERS
        assert blas_calls[1]() == 1


def test_restores_the_callers_count_and_nests(blas_calls):
    set_, get = blas_calls
    set_(2)
    with threads.one_blas_thread():
        with threads.one_blas_thread() as inner:
            assert inner == threads.WORKERS and get() == 1
        assert get() == 1
    assert get() == 2
    with pytest.raises(KeyError), threads.one_blas_thread():
        raise KeyError("the count is restored on the way out of an error")
    assert get() == 2


def test_unowned_changes_nothing(monkeypatch):
    """An unowned count gives the block one worker, on a 2-CPU machine too."""
    monkeypatch.setattr(threads, "_blas_thread_calls", lambda: None)
    monkeypatch.setattr(threads, "WORKERS", 2)
    with threads.one_blas_thread() as workers:
        assert workers == 1


def one_item_each(do):
    """``in_order(do, ...)`` over two items on 2 workers, each held at a two-party
    barrier until the other worker has taken its own: the calling thread, once done,
    would otherwise take the helper's item too."""
    both = threading.Barrier(2, timeout=10)

    def held(k, item):
        both.wait()
        do(k, item)

    threads.in_order(held, iter(range(2)), 2)


def test_the_helper_runs_in_the_callers_context():
    """numpy's errstate is context-local: the helper sees the caller's."""
    seen = {}

    def do(k, item):
        seen[k] = threading.current_thread().name, np.geterr()["over"]

    with np.errstate(over="ignore"):
        one_item_each(do)
    assert seen[0][1] == seen[1][1] == "ignore"
    assert seen[1][0].startswith("stylerec-helper")


def test_in_order_raises_what_the_helper_raised():
    def do(k, item):
        if k == 1:
            raise ValueError("from the helper")

    with pytest.raises(ValueError, match="from the helper"):
        one_item_each(do)
