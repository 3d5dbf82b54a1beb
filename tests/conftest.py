"""Fixtures shared by the tests, and the writers of the input formats the
package reads (P5 PGM, raw-y8, UMK1), which only the tests need."""

from __future__ import annotations

import contextlib
import signal
import threading
from pathlib import Path

import numpy as np
import pytest

ACCEPTANCE_LINES: list[str] = []


def write_pgm(path, gray: np.ndarray) -> None:
    """Write a uint8 (height, width) array as binary P5, maxval 255."""
    gray = np.ascontiguousarray(gray, dtype=np.uint8)
    h, w = gray.shape
    Path(path).write_bytes(f"P5\n{w} {h}\n255\n".encode("ascii") + gray.tobytes())


def write_frames_y8(frames, dest) -> None:
    """Write same-size frames as raw-y8 (body file plus ``.hdr`` sidecar).

    Intensities are quantized with round(v * 255), so a load/write/load
    round trip is bit-identical.
    """
    dest = Path(dest)
    with open(dest, "wb") as fh:
        for frame in frames:
            fh.write(np.clip(np.rint(frame.pixels * 255.0), 0, 255).astype(np.uint8).tobytes())
    w, h = frames[0].width, frames[0].height
    dest.with_name(dest.name + ".hdr").write_text(f"{w} {h} {len(frames)}\n")


def write_activations(frames, dest) -> None:
    """Write same-shape activation frames as a UMK1 file."""
    c, h, w = frames[0].channels, frames[0].height, frames[0].width
    with open(dest, "wb") as fh:
        fh.write(b"UMK1" + np.array([len(frames), c, h, w], "<u4").tobytes())
        for frame in frames:
            fh.write(np.ascontiguousarray(frame.values, "<f4").tobytes())


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fail a test that returns with a Python thread it started still alive."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    assert not left, f"threads left running: {left}"


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
