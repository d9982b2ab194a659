"""Measurement primitives: the benchmark's own timers and check tally.

A :class:`Probe` lives for one set-up or one timed iteration.  The
workload wraps each call into a layer's public function in
``probe.time(name)`` and records the work it did with
``probe.count(name, n)``.  :func:`measure` turns a probe into a
:class:`Sample`; when traced it also switches ``repro.obs`` on for the
call and keeps the spans and counter totals the program emitted.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple, TypeVar

from repro import obs
from repro.obs import Span

T = TypeVar("T")

#: Counters the program already emits that the traced run reads back.
OBS_COUNTERS = (
    "dataset.columnar_hits",
    "dataset.row_fallbacks",
    "figure.runs",
    "ingest.accepted",
    "ingest.deduped",
    "ingest.events",
    "playback.sessions",
    "synthesis.records",
)


class Probe:
    """Wall-clock timers and work counts of one measured call."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self.counts: Dict[str, float] = {}

    @contextmanager
    def time(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.seconds[name] = self.seconds.get(name, 0.0) + elapsed

    def count(self, name: str, value: float) -> None:
        self.counts[name] = value


@dataclass
class Sample:
    """One measured call on one input: timers, counts, obs readings."""

    seconds: Dict[str, float]
    counts: Dict[str, float]
    input: int = 0
    spans: List[Span] = field(default_factory=list)
    obs_counts: Dict[str, float] = field(default_factory=dict)

    def spans_named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def span_durations(self, name: str) -> List[float]:
        return [s.duration for s in self.spans_named(name)]

    def all_counts(self) -> Dict[str, float]:
        """Every count that must repeat exactly for the same inputs."""
        merged = dict(self.counts)
        merged.update({f"obs:{k}": v for k, v in self.obs_counts.items()})
        return merged


def measure(
    fn: Callable[[Probe], T],
    traced: bool,
    index: int,
    check: Optional[Callable[[T], None]] = None,
) -> Tuple[T, Sample]:
    """Run ``fn`` once under a fresh probe; ``run`` times the whole call.

    Garbage from earlier calls is collected first, outside the timer,
    so one iteration does not pay for the previous one's objects.
    ``check`` inspects the output before the obs data is reset, since
    some outputs (an ``IngestReport``) read live obs counters.
    """
    gc.collect()
    probe = Probe()
    if traced:
        obs.configure(enabled=True)
        obs.reset()
    try:
        with probe.time("run"):
            output = fn(probe)
        sample = Sample(
            seconds=probe.seconds, counts=probe.counts, input=index
        )
        if traced:
            sample.spans = list(obs.tracer().finished)
            registry = obs.metrics()
            sample.obs_counts = {
                name: sum(registry.series_values(name).values())
                for name in OBS_COUNTERS
            }
        if check is not None:
            check(output)
    finally:
        if traced:
            obs.configure(enabled=False)
            obs.reset()
    return output, sample


class Tally:
    """Checked operations: attempted, failed, and the first failures."""

    KEEP = 20

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < self.KEEP:
                self.failures.append(what)
