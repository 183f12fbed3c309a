"""A deadline on every test call, so that a test that hangs (a hitting walk
that runs past its last trial, say) fails with the stack it hung in
instead of holding the suite.

On the main thread of a POSIX process a real-time interval timer raises
`DeadlineExceeded` in the test when TEST_DEADLINE_S runs out.  As a
backstop, for a test stuck where the timer's signal cannot reach it or one
that swallows the exception, `faulthandler` dumps every thread's stack and
ends the process BACKSTOP_S later.
"""

import faulthandler
import functools
import os
import signal
import sys
import threading
import traceback

import pytest

# well above the slowest test (~8 s), so that only a hang reaches it
TEST_DEADLINE_S = 120
BACKSTOP_S = 30

# a copy of the stderr file descriptor, for faulthandler to write to while a
# test's output is captured
STDERR = pytest.StashKey[int]()


class DeadlineExceeded(BaseException):
    """A test ran past TEST_DEADLINE_S.  A BaseException, so that neither
    the code under test nor Hypothesis, which would shrink it by running
    the test again, takes it for an ordinary failure."""


def _expire(test_file, signum, frame):
    """Raise `DeadlineExceeded` with the stack from the test's own file down."""
    stack = traceback.extract_stack(frame)
    start = next((i for i, entry in enumerate(stack) if entry.filename == test_file), 0)
    raise DeadlineExceeded(f"the test ran past its {TEST_DEADLINE_S} s deadline, in\n" + "".join(traceback.format_list(stack[start:])))


def pytest_configure(config):
    config.stash[STDERR] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[STDERR])


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    timed = hasattr(signal, "setitimer") and threading.current_thread() is threading.main_thread()
    if timed:
        previous = signal.signal(signal.SIGALRM, functools.partial(_expire, str(item.path)))
        signal.setitimer(signal.ITIMER_REAL, TEST_DEADLINE_S)
    faulthandler.dump_traceback_later(TEST_DEADLINE_S + BACKSTOP_S, file=item.config.stash[STDERR], exit=True)
    try:
        return (yield)
    except DeadlineExceeded as exc:
        # the interrupted instruction may have no line number, which pytest's
        # traceback renderer cannot take: report the stack as text instead
        raise pytest.fail.Exception(str(exc), pytrace=False) from None
    finally:
        faulthandler.cancel_dump_traceback_later()
        if timed:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
