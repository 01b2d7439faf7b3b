"""Clocks, spans and summaries shared by the workloads.

All wall times use ``time.perf_counter`` except set-up, which spans two
processes and so uses ``time.monotonic`` (one system-wide clock on
Linux).  A :class:`Tracer` records spans from the benchmark's own code by
wrapping a program entry point for the length of a ``with`` block; the
untraced run never creates one.
"""

from __future__ import annotations

import contextlib
import gc
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

#: percentiles tried, highest first, when reporting a tail
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


@dataclass
class Span:
    name: str
    start: float
    end: float
    #: index of the enclosing span in :attr:`Tracer.spans`, or -1
    parent: int = -1
    info: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one traced run (single-threaded use)."""

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else -1
        record = Span(name, time.perf_counter(), 0.0, parent)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            self._stack.pop()
            record.end = time.perf_counter()

    @contextlib.contextmanager
    def wrap(self, owner: Any, attr: str, name: str,
             note: Optional[Callable[[Any, Span], None]] = None
             ) -> Iterator[None]:
        """Time every call of ``owner.attr`` as a span named ``name``.

        ``note(result, span)`` may copy facts about the call's result into
        the span.  The original attribute is restored on exit, so nothing
        stays wrapped outside the block.
        """
        original = getattr(owner, attr)
        had_own = attr in vars(owner)
        tracer = self

        def timed(*args: Any, **kwargs: Any) -> Any:
            with tracer.span(name) as record:
                result = original(*args, **kwargs)
            if note is not None:
                note(result, record)
            return result

        setattr(owner, attr, timed)
        try:
            yield
        finally:
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(values: Sequence[float]) -> float:
    """The highest percentile with at least ten samples beyond it
    (nearest rank); the median when there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = int(round(pct / 100.0 * (n - 1)))
        if n - 1 - rank >= 10:
            return float(ordered[rank])
    return median(ordered)


def collect(full: bool = True) -> None:
    """Collect garbage between operations, outside any timed span.

    A full collection walks the whole heap (about 0.25 s with a 40k-node
    graph resident), so rounds start with one and the operations inside
    a round are separated by young-generation collections.
    """
    gc.collect() if full else gc.collect(1)


def stop_resource_tracker() -> None:
    """Stop this process's ``multiprocessing`` resource tracker, if it
    started one, and wait until it has ended.

    The multiprocess runtime's queues start the tracker; left alone it
    ends only after the process that started it has exited, so it would
    outlive the run.
    """
    from multiprocessing import resource_tracker
    try:
        resource_tracker._resource_tracker._stop()
    except ChildProcessError:  # a forked child holds its parent's tracker
        pass


def peak_rss_mb() -> float:
    """Largest peak resident set of this process or any waited-for
    descendant, in MiB.

    This process's own peak is ``VmHWM``, the peak of its current
    address space.  ``ru_maxrss`` would not do for a process started by
    ``subprocess``: Linux carries into it the peak of the address space
    it replaced at ``exec``, which for a ``vfork`` is the parent's, so a
    set-up child would report the benchmark process's memory.  Children
    are forked without ``exec``, so their ``ru_maxrss`` is their own
    (Linux reports it in KiB).
    """
    with open("/proc/self/status") as status:
        own = next(int(line.split()[1]) for line in status
                   if line.startswith("VmHWM:"))
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0
