"""Per-job observation scaffold (:func:`observe_job`) and cProfile hooks.

Profiles are written as raw ``pstats`` dumps named ``<job_id>.pstats``
under the server's ``--profile-dir``. The dump happens in whichever
process executed the job (the fork backend's child shares the
filesystem), so no profile bytes ever cross the result pipe; the trace
endpoint reads the file back lazily and renders a top-N text summary.
"""

from __future__ import annotations

import contextlib
import cProfile
import io
import pstats
from pathlib import Path
from typing import Any, Iterator

from .events import ProgressEmitter, use_emitter
from .tracing import SpanCollector, span, use_collector

__all__ = ["observe_job", "profile_to_file", "summarize_profile"]


@contextlib.contextmanager
def profile_to_file(path: str | Path | None) -> Iterator[None]:
    """Run the with-block under cProfile, dumping stats to ``path``.

    A ``None`` path makes this a no-op so call sites don't need their own
    enabled/disabled branch. Dump failures are swallowed: profiling must
    never fail the job it is observing.
    """
    if path is None:
        yield
        return
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield
    finally:
        profiler.disable()
        try:
            Path(path).parent.mkdir(parents=True, exist_ok=True)
            profiler.dump_stats(str(path))
        except OSError:
            pass


@contextlib.contextmanager
def observe_job(
    profile_path: str | Path | None,
    progress_fd: int | None,
    **run_attrs: Any,
) -> Iterator[SpanCollector]:
    """One backend unit's observation: a fresh span collector (yielded),
    a progress emitter on ``progress_fd``, :func:`profile_to_file`, and
    the root ``run`` span carrying ``run_attrs``."""
    collector = SpanCollector()
    emitter_cm = (
        use_emitter(ProgressEmitter(progress_fd))
        if progress_fd is not None
        else contextlib.nullcontext()
    )
    with use_collector(collector), profile_to_file(profile_path), emitter_cm:
        with span("run", **run_attrs):
            yield collector


def summarize_profile(path: str | Path, top: int = 20) -> str:
    """Top-``top`` cumulative-time lines from a pstats dump, as text."""
    buffer = io.StringIO()
    stats = pstats.Stats(str(path), stream=buffer)
    stats.sort_stats("cumulative").print_stats(top)
    return buffer.getvalue()
