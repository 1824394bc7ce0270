"""Helpers shared by the test modules."""

import contextlib
import sys


@contextlib.contextmanager
def short_switch_interval():
    """Hand the interpreter lock between threads as often as the interpreter allows."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)
