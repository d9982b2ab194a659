"""Differential properties: the linear-time fault injectors match naive ones.

``FaultInjector.apply`` and the chaos plane's ``_delay_starts`` were
rewritten for O(1) work per event.  Their output is part of the
reproduction — corrupted streams are pinned by seed — so the quadratic
originals are kept here verbatim as reference oracles, and Hypothesis
checks that both implementations produce the same stream, fault log
and corrupted-session set for random streams, fault mixes and seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields, replace
from datetime import date
from typing import List, Optional, Sequence, Tuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.chaos.injectors import (
    REORDER_START_SPAN,
    TelemetryInjection,
    _count,
    _delay_starts,
)
from repro.chaos.plan import FaultKind, FaultSpec, Layer, Window
from repro.constants import ContentType
from repro.errors import DatasetError
from repro.telemetry.events import Heartbeat, SessionEnd, SessionStart
from repro.telemetry.faults import FaultInjector, FaultMix, corrupt_heartbeat

pytestmark = pytest.mark.robustness


class NaiveFaultInjector(FaultInjector):
    """The original O(events x sessions) ``apply``, kept as the oracle."""

    def apply(self, events):
        rng = random.Random(self.seed)
        self.log = []
        self.corrupted_sessions = set()
        out: List[object] = []
        # Events being delayed for the reorder fault: (release_at, event).
        delayed: List[Tuple[int, object]] = []
        seen_sessions: List[str] = []

        def flush_due(position: int) -> None:
            due = [e for at, e in delayed if at <= position]
            delayed[:] = [(at, e) for at, e in delayed if at > position]
            out.extend(due)

        for index, event in enumerate(events):
            sid = getattr(event, "session_id", "")
            if sid and sid not in seen_sessions:
                seen_sessions.append(sid)
            kind = self._draw(rng)
            if kind is None:
                out.append(event)
            elif kind == "drop":
                self._record("drop", index, sid)
            elif kind == "duplicate":
                out.append(event)
                out.append(event)
                self._record("duplicate", index, sid)
            elif kind == "reorder":
                span = 1 + rng.randrange(self.REORDER_SPAN)
                delayed.append((index + span, event))
                self._record("reorder", index, sid)
            elif kind == "truncate":
                out.append(self._truncate(event, rng, index, sid))
            elif kind == "negative_timing":
                out.append(self._negate(event, rng, index, sid))
            elif kind == "interleave":
                out.append(self._interleave(event, rng, index, sid,
                                            seen_sessions))
            flush_due(index)
        out.extend(e for _, e in sorted(delayed, key=lambda d: d[0]))
        return out

    def _draw(self, rng: random.Random) -> Optional[str]:
        u = rng.random()
        acc = 0.0
        for f in fields(self.mix):
            acc += getattr(self.mix, f.name)
            if u < acc:
                return f.name
        return None

    def _interleave(
        self,
        event: object,
        rng: random.Random,
        index: int,
        sid: str,
        seen_sessions: Sequence[str],
    ) -> object:
        """Re-address an event to another session seen in the stream."""
        others = [s for s in seen_sessions if s != sid]
        if not sid or not others:
            return event
        other = others[rng.randrange(len(others))]
        self._record("interleave", index, sid)
        self.corrupted_sessions.add(other)
        if isinstance(event, Heartbeat):
            return corrupt_heartbeat(event, session_id=other)
        if isinstance(event, SessionEnd):
            return SessionEnd(session_id=other)
        return replace(event, session_id=other)


def naive_delay_starts(
    out: TelemetryInjection, spec: FaultSpec, rng: random.Random
) -> None:
    """The original pop/insert ``_delay_starts``, kept as the oracle."""
    events = out.events
    n = len(events)
    i0, i1 = spec.window.indices(n)
    index = 0
    while index < n:
        event = events[index]
        if (
            isinstance(event, SessionStart)
            and i0 <= index < i1
            and rng.random() < spec.intensity
        ):
            sid = event.session_id
            beats = 0
            while (
                index + 1 + beats < n
                and isinstance(events[index + 1 + beats], Heartbeat)
                and events[index + 1 + beats].session_id == sid
            ):
                beats += 1
            if beats > 0:
                k = 1 + rng.randrange(min(REORDER_START_SPAN, beats))
                events.pop(index)
                events.insert(index + k, event)
                _count(out, spec, index, sid)
                index += k  # the start's new position; resume after it
        index += 1


# ---------------------------------------------------------------------------
# Streams
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Anonymous:
    """An event with no ``session_id`` attribute at all."""

    payload: int


def _start(sid: str) -> SessionStart:
    return SessionStart(
        session_id=sid,
        snapshot=date(2018, 3, 12),
        publisher_id="pub_001",
        url=f"http://a.cdn.example.net/{sid}/master.m3u8",
        video_id=f"vid_{sid}",
        device_model="roku-ultra",
        os_name="roku",
        content_type=ContentType.VOD,
        bitrate_ladder_kbps=(150.0, 600.0),
    )


def _beat(sid: str, n: int) -> Heartbeat:
    return Heartbeat(
        session_id=sid,
        interval_seconds=20.0,
        playing_seconds=18.0 - n % 5,
        rebuffering_seconds=float(n % 3),
        bitrate_kbps=600.0,
        cdn_name="A",
        seq=n if n % 4 else None,
    )


def _event(kind: str, sid: str, n: int) -> object:
    if kind == "start":
        return _start(sid)
    if kind == "beat":
        return _beat(sid, n)
    if kind == "end":
        return SessionEnd(session_id=sid)
    return Anonymous(payload=n)


#: Session ids include "" — a truncated end carries it, and it is falsy.
event_ops = st.tuples(
    st.sampled_from(["start", "beat", "beat", "beat", "end", "anonymous"]),
    st.sampled_from(["", "s0", "s1", "s2", "s3", "s4", "s5", "s6"]),
)
streams = st.lists(event_ops, max_size=80).map(
    lambda ops: [_event(kind, sid, n) for n, (kind, sid) in enumerate(ops)]
)


@st.composite
def fault_mixes(draw) -> FaultMix:
    """Six rates, some zero, scaled to sum to a drawn total in [0, 1]."""
    weights = [draw(st.integers(min_value=0, max_value=1000)) for _ in range(6)]
    total = draw(
        st.one_of(
            st.just(0.0), st.just(1.0), st.floats(min_value=0.0, max_value=1.0)
        )
    )
    scale = total / sum(weights) if sum(weights) else 0.0
    names = [f.name for f in fields(FaultMix)]
    return FaultMix(**{n: w * scale for n, w in zip(names, weights)})


seeds = st.integers(min_value=0, max_value=2**32 - 1)

INTERLEAVE_ONLY = FaultMix(interleave=1.0)


def _both(mix: FaultMix, seed: int, events: List[object]):
    fast = FaultInjector(mix, seed=seed)
    naive = NaiveFaultInjector(mix, seed=seed)
    return (
        (fast.apply(list(events)), fast.log, fast.corrupted_sessions),
        (naive.apply(list(events)), naive.log, naive.corrupted_sessions),
    )


class TestApplyMatchesNaive:
    @settings(max_examples=300, deadline=None)
    @given(mix=fault_mixes(), seed=seeds, events=streams)
    @example(mix=FaultMix(), seed=0, events=[])
    @example(mix=FaultMix.uniform(1.0), seed=1, events=[])
    @example(mix=INTERLEAVE_ONLY, seed=5, events=[_start("s0")])
    def test_random_mixes(self, mix, seed, events):
        fast, naive = _both(mix, seed, events)
        assert fast == naive

    @settings(max_examples=100, deadline=None)
    @given(
        rate=st.sampled_from([0.0, 0.05, 0.2, 0.9, 1.0]),
        seed=seeds,
        events=streams,
    )
    def test_uniform_mixes(self, rate, seed, events):
        fast, naive = _both(FaultMix.uniform(rate), seed, events)
        assert fast == naive

    @settings(max_examples=100, deadline=None)
    @given(seed=seeds, events=streams)
    def test_interleave_only(self, seed, events):
        fast, naive = _both(INTERLEAVE_ONLY, seed, events)
        assert fast == naive

    @settings(max_examples=50, deadline=None)
    @given(
        seed=seeds,
        beats=st.integers(min_value=0, max_value=20),
        tail=st.integers(min_value=1, max_value=20),
    )
    def test_single_session_interleave_draws_nothing(self, seed, beats, tail):
        """Interleave with one session seen is a no-op that draws nothing.

        A second session follows, so a stray draw during the first
        would shift every partner picked after it.
        """
        events = (
            [_start("s0")]
            + [_beat("s0", n) for n in range(beats)]
            + [_start("s1")]
            + [_beat("s1", n) for n in range(tail)]
        )
        fast, naive = _both(INTERLEAVE_ONLY, seed, events)
        assert fast == naive
        out, log, _ = fast
        assert out[: beats + 1] == events[: beats + 1]
        assert all(entry.index > beats for entry in log)

    @settings(max_examples=50, deadline=None)
    @given(mix=fault_mixes(), seed=seeds,
           payloads=st.lists(st.integers(), max_size=30))
    def test_events_without_session_id(self, mix, seed, payloads):
        events = [Anonymous(payload=p) for p in payloads]
        fast, naive = _both(mix, seed, events)
        assert fast == naive
        assert fast[2] == set()

    @pytest.mark.parametrize("rate", [0.0, 1.0])
    @pytest.mark.parametrize("seed", [0, 7, 2018])
    def test_rate_bounds_on_a_long_stream(self, rate, seed):
        events = []
        for s in range(12):
            sid = f"s{s}"
            events += [_start(sid)] + [_beat(sid, n) for n in range(15)]
            events.append(SessionEnd(session_id=sid))
        fast, naive = _both(FaultMix.uniform(rate), seed, events)
        assert fast == naive


def test_nan_fault_rate_rejected():
    # NaN passed the old ``r < 0`` check and the sum check; the
    # injector's cumulative thresholds need comparable rates.
    with pytest.raises(DatasetError):
        FaultMix(drop=float("nan"))


# ---------------------------------------------------------------------------
# Chaos plane: _delay_starts
# ---------------------------------------------------------------------------


def _session_stream(beats_per_session: List[int], order: List[int]):
    """Whole sessions, their events interleaved by ``order`` picks."""
    queues = []
    for s, beats in enumerate(beats_per_session):
        sid = f"s{s}"
        queues.append(
            [_start(sid)]
            + [_beat(sid, n) for n in range(beats)]
            + [SessionEnd(session_id=sid)]
        )
    events = []
    picks = iter(order)
    while any(queues):
        live = [q for q in queues if q]
        queue = live[next(picks, 0) % len(live)]
        events.append(queue.pop(0))
    return events


windows = st.tuples(
    st.floats(min_value=0.0, max_value=0.9),
    st.floats(min_value=0.05, max_value=1.0),
).map(lambda w: Window(start=w[0], end=min(1.0, w[0] + w[1]))).filter(
    lambda w: w.start < w.end
)


class TestDelayStartsMatchesNaive:
    @settings(max_examples=200, deadline=None)
    @given(
        beats=st.lists(st.integers(min_value=0, max_value=8), max_size=10),
        order=st.lists(st.integers(min_value=0, max_value=9), max_size=120),
        window=windows,
        intensity=st.one_of(
            st.just(1.0), st.floats(min_value=0.01, max_value=1.0)
        ),
        seed=seeds,
    )
    def test_random_streams(self, beats, order, window, intensity, seed):
        events = _session_stream(beats, order)
        spec = FaultSpec(
            kind=FaultKind.REORDER_START,
            layer=Layer.TELEMETRY,
            window=window,
            intensity=intensity,
        )
        fast = TelemetryInjection(events=list(events))
        naive = TelemetryInjection(events=list(events))
        _delay_starts(fast, spec, random.Random(seed))
        naive_delay_starts(naive, spec, random.Random(seed))
        assert fast == naive
        assert sorted(map(repr, fast.events)) == sorted(map(repr, events))

    def test_empty_stream(self):
        spec = FaultSpec(kind=FaultKind.REORDER_START, layer=Layer.TELEMETRY)
        out = TelemetryInjection(events=[])
        _delay_starts(out, spec, random.Random(0))
        assert out == TelemetryInjection(events=[])
