from __future__ import annotations

import contextlib
import signal

import pytest

ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(scope="session")
def criterion_report():
    """Collector for one '[criterion N] PASS/FAIL ...' line per criterion.

    Lines are printed immediately (visible with -s or on failure) and
    replayed in a terminal section after the run summary either way.
    """

    def record(line: str) -> None:
        ACCEPTANCE_LINES.append(line)
        print(line)

    return record


class TimeLimitExceeded(BaseException):
    """Raised by ``time_limit``. Not an Exception, so no ``except`` in the
    code under test can take it for an error of its own."""


@pytest.fixture
def time_limit():
    """``with time_limit(seconds):`` raises TimeLimitExceeded in a body
    that runs longer, so a hang fails its test instead of the suite."""

    @contextlib.contextmanager
    def limit(seconds: float):
        def expire(signum, frame):
            raise TimeLimitExceeded(f"still running after {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return limit


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
