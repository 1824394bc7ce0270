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
    with threads.one_blas_thread() as owned:
        assert owned
        assert blas_calls[1]() == 1


def test_restores_the_callers_count_and_nests(blas_calls):
    set_, get = blas_calls
    set_(2)
    with threads.one_blas_thread():
        with threads.one_blas_thread() as inner:
            assert inner and get() == 1
        assert get() == 1
    assert get() == 2
    with pytest.raises(KeyError), threads.one_blas_thread():
        raise KeyError("the count is restored on the way out of an error")
    assert get() == 2


def test_unowned_changes_nothing(monkeypatch):
    monkeypatch.setattr(threads, "_blas_thread_calls", lambda: None)
    with threads.one_blas_thread() as owned:
        assert owned is False


def on_two_workers(work):
    """``on_workers(work, 2)``, with the caller's share held back until the helper has
    started its own, which it would otherwise be cancelled from once the caller is done."""
    helper_started = threading.Event()

    def both(k):
        if k == 1:
            helper_started.set()
        else:
            assert helper_started.wait(10)
        work(k)

    threads.on_workers(both, 2)


def test_the_helper_runs_in_the_callers_context():
    """numpy's errstate is context-local: the helper sees the caller's."""
    seen = {}

    def work(k):
        seen[k] = threading.current_thread().name, np.geterr()["over"]

    with np.errstate(over="ignore"):
        on_two_workers(work)
    assert seen[0][1] == seen[1][1] == "ignore"
    assert seen[1][0].startswith("stylerec-helper")


def test_on_workers_raises_what_the_helper_raised():
    def work(k):
        if k == 1:
            raise ValueError("from the helper")

    with pytest.raises(ValueError, match="from the helper"):
        on_two_workers(work)
