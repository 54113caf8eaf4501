"""cProfile capture for the simulator's real-seconds hot paths.

The wall-clock gate (``benchmarks/regression.py`` SCHEMA 5, the ``perf``
pytest marker) tells you *that* the simulator slowed down; this module
tells you *where*.  It is a thin, dependency-free wrapper over the
standard library profiler:

* :func:`profile_call` -- run one callable under ``cProfile`` and return
  ``(result, report)`` where the report is the top-N cumulative table;
* :func:`render_stats` -- format an existing profile the same way.

The CLI exposes it as ``python -m repro multiply --profile [FILE]``, and
the CI bench-regression job attaches a profile of the E16 pass as an
artifact when the wall-clock fence trips.
"""

from __future__ import annotations

import cProfile
import io
import pstats
from typing import Any, Callable

#: Rows of the cumulative-time table (the hot path fits comfortably).
DEFAULT_TOP = 25


def render_stats(profile: cProfile.Profile, *, top: int = DEFAULT_TOP) -> str:
    """The top-``top`` functions by cumulative time, as a text table.

    Directory prefixes are stripped so the table is stable across
    checkouts (CI artifacts diff cleanly against local runs).
    """
    buf = io.StringIO()
    stats = pstats.Stats(profile, stream=buf)
    stats.strip_dirs().sort_stats("cumulative").print_stats(top)
    return buf.getvalue()


def profile_call(fn: Callable[..., Any], *args, top: int = DEFAULT_TOP,
                 **kwargs) -> tuple[Any, str]:
    """Run ``fn(*args, **kwargs)`` under cProfile.

    Returns ``(result, report)``; the report is rendered even when no
    call was recorded (an empty table, not an error).  Exceptions from
    ``fn`` propagate untouched -- a profile of a failed run is rarely
    the profile you want.
    """
    profile = cProfile.Profile()
    profile.enable()
    try:
        result = fn(*args, **kwargs)
    finally:
        profile.disable()
    return result, render_stats(profile, top=top)


def write_profile(path: str, report: str) -> None:
    """Write a rendered report to ``path`` (the CI artifact helper)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report)
