"""Deterministic fault injection for the telemetry event path.

Robustness claims are only worth what exercises them: this module
corrupts event streams the way real SDK fleets do — dropped packets,
duplicated sends, reordering, truncated fields, impossible timings,
crossed sessions — under a seeded RNG so every corrupted stream is
exactly reproducible.  :class:`FlakyTransport` models the other failure
axis, a lossy ingestion *call* path, to drive the retry/backoff and
circuit-breaker primitives in :mod:`repro.resilience`.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, fields, replace
from typing import Callable, Dict, Iterable, List, Sequence, Set, Tuple, TypeVar

from repro import obs
from repro.errors import DatasetError, TransportError
from repro.telemetry.events import Heartbeat, SessionEnd, SessionStart

T = TypeVar("T")

_HEARTBEAT_FIELDS = tuple(f.name for f in fields(Heartbeat))


def _raw_heartbeat(**values: object) -> Heartbeat:
    """Build a Heartbeat bypassing ``__post_init__`` validation.

    Real transports deliver invalid payloads that a same-process
    constructor would refuse to build; tests need such objects to
    exist, so we materialize them the way deserialization effectively
    would.
    """
    beat = object.__new__(Heartbeat)
    for name in _HEARTBEAT_FIELDS:
        object.__setattr__(beat, name, values[name])
    return beat


def corrupt_heartbeat(beat: Heartbeat, **overrides: object) -> Heartbeat:
    """A copy of ``beat`` with fields overridden, validation skipped."""
    values = {name: getattr(beat, name) for name in _HEARTBEAT_FIELDS}
    values.update(overrides)
    return _raw_heartbeat(**values)


@dataclass(frozen=True)
class FaultMix:
    """Per-event probabilities for each corruption mode.

    Probabilities are disjoint (at most one fault per event); their sum
    must not exceed 1.
    """

    drop: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0
    truncate: float = 0.0
    negative_timing: float = 0.0
    interleave: float = 0.0

    def __post_init__(self) -> None:
        rates = [getattr(self, f.name) for f in fields(self)]
        # ``not r >= 0`` also rejects NaN, which every comparison fails.
        if any(not r >= 0 for r in rates):
            raise DatasetError("fault rates must be >= 0")
        if sum(rates) > 1.0 + 1e-9:
            raise DatasetError("fault rates must sum to <= 1")

    @property
    def total(self) -> float:
        return sum(getattr(self, f.name) for f in fields(self))

    @classmethod
    def uniform(cls, rate: float) -> "FaultMix":
        """Spread ``rate`` evenly across all six corruption modes."""
        if not 0.0 <= rate <= 1.0:
            raise DatasetError("fault rate must be in [0, 1]")
        share = rate / 6.0
        return cls(
            drop=share,
            duplicate=share,
            reorder=share,
            truncate=share,
            negative_timing=share,
            interleave=share,
        )


@dataclass(frozen=True)
class FaultEvent:
    """One applied corruption, for audit: (kind, stream index, session)."""

    kind: str
    index: int
    session_id: str


class FaultInjector:
    """Applies a seeded :class:`FaultMix` to an event stream.

    After :meth:`apply`, ``corrupted_sessions`` names every session any
    fault touched (including sessions hit indirectly, e.g. the partner
    of an interleave swap) and ``log`` records each applied fault, so
    tests can assert that *untouched* sessions survive byte-identical.

    :meth:`apply` is one pass with O(1) work per event.  The corrupted
    stream is a pure function of the input stream, the mix and the
    seed, because the RNG draws follow a fixed contract, in stream
    order:

    * one ``random()`` per event picks the fault (or none) against the
      mix's cumulative probabilities, in field order;
    * ``reorder`` then draws ``randrange(REORDER_SPAN)`` for the delay,
      ``truncate`` of a ``SessionStart`` draws one ``choice`` of the
      field to blank, and ``negative_timing`` of a ``Heartbeat`` draws
      one ``random()`` to pick the timing to negate;
    * ``interleave`` of an event with a session id draws
      ``randrange(len(seen) - 1)`` over the sessions seen so far in
      first-seen order, skipping the event's own session; it draws
      nothing when that session is the only one seen.

    Changing this order changes every corrupted stream built from a
    seed, so tests compare :meth:`apply` against a naive reference.
    """

    REORDER_SPAN = 3

    def __init__(self, mix: FaultMix, seed: int = 0) -> None:
        self.mix = mix
        self.seed = seed
        self.log: List[FaultEvent] = []
        self.corrupted_sessions: Set[str] = set()

    def apply(self, events: Iterable[object]) -> List[object]:
        with obs.span("faults.apply", seed=self.seed) as span:
            out, consumed = self._apply(events)
            span.set(
                events=consumed,
                faults=len(self.log),
                corrupted_sessions=len(self.corrupted_sessions),
            )
        return out

    def _apply(self, events: Iterable[object]) -> Tuple[List[object], int]:
        """The corrupted stream and the number of input events read."""
        rng = random.Random(self.seed)
        draw = rng.random
        self.log = []
        self.corrupted_sessions = set()
        out: List[object] = []
        emit = out.append
        # Events delayed by the reorder fault, keyed by the stream index
        # after which they are released, in the order they were delayed.
        delayed: Dict[int, List[object]] = {}
        # Sessions in first-seen order, and each one's position there.
        seen: List[str] = []
        position: Dict[str, int] = {}
        names: List[str] = []
        cumulative: List[float] = []
        acc = 0.0
        for f in fields(self.mix):
            acc += getattr(self.mix, f.name)
            names.append(f.name)
            cumulative.append(acc)
        cutoff = acc

        index = -1
        for index, event in enumerate(events):
            sid = getattr(event, "session_id", "")
            if sid and sid not in position:
                position[sid] = len(seen)
                seen.append(sid)
            u = draw()
            if u >= cutoff:
                emit(event)
            else:
                kind = names[bisect_right(cumulative, u)]
                if kind == "drop":
                    self._record("drop", index, sid)
                elif kind == "duplicate":
                    emit(event)
                    emit(event)
                    self._record("duplicate", index, sid)
                elif kind == "reorder":
                    delay = 1 + rng.randrange(self.REORDER_SPAN)
                    delayed.setdefault(index + delay, []).append(event)
                    self._record("reorder", index, sid)
                elif kind == "truncate":
                    emit(self._truncate(event, rng, index, sid))
                elif kind == "negative_timing":
                    emit(self._negate(event, rng, index, sid))
                else:  # interleave
                    emit(self._interleave(event, rng, index, sid, seen,
                                          position))
            if delayed and index in delayed:
                out.extend(delayed.pop(index))
        for at in sorted(delayed):
            out.extend(delayed[at])
        return out, index + 1

    # ------------------------------------------------------------------

    def _record(self, kind: str, index: int, sid: str) -> None:
        self.log.append(FaultEvent(kind=kind, index=index, session_id=sid))
        if sid:
            self.corrupted_sessions.add(sid)

    def _truncate(
        self, event: object, rng: random.Random, index: int, sid: str
    ) -> object:
        """Blank a required string field, as a cut-off payload would."""
        if isinstance(event, SessionStart):
            field_name = rng.choice(["publisher_id", "url"])
            self._record("truncate", index, sid)
            return replace(event, **{field_name: ""})
        if isinstance(event, Heartbeat):
            self._record("truncate", index, sid)
            # inf rather than nan so corrupted streams stay comparable
            # (nan != nan would break determinism assertions).
            return corrupt_heartbeat(event, playing_seconds=float("inf"))
        # SessionEnd has only the id; truncating it makes the session
        # unknown, corrupting this session.
        self._record("truncate", index, sid)
        return SessionEnd(session_id="")

    def _negate(
        self, event: object, rng: random.Random, index: int, sid: str
    ) -> object:
        if isinstance(event, Heartbeat):
            self._record("negative_timing", index, sid)
            if rng.random() < 0.5:
                return corrupt_heartbeat(
                    event, playing_seconds=-abs(event.playing_seconds) - 1.0
                )
            return corrupt_heartbeat(
                event,
                rebuffering_seconds=-abs(event.rebuffering_seconds) - 1.0,
            )
        return event  # timings only exist on heartbeats: no-op otherwise

    def _interleave(
        self,
        event: object,
        rng: random.Random,
        index: int,
        sid: str,
        seen: Sequence[str],
        position: Dict[str, int],
    ) -> object:
        """Re-address an event to another session seen in the stream.

        The partner is drawn uniformly from ``seen`` without ``sid``:
        draw ``k`` over the other sessions, then step over ``sid``'s own
        slot, which draws the same partner as indexing the list with
        ``sid`` removed.
        """
        if not sid or len(seen) < 2:
            return event
        k = rng.randrange(len(seen) - 1)
        other = seen[k + (k >= position[sid])]
        self._record("interleave", index, sid)
        self.corrupted_sessions.add(other)
        if isinstance(event, Heartbeat):
            return corrupt_heartbeat(event, session_id=other)
        if isinstance(event, SessionEnd):
            return SessionEnd(session_id=other)
        return replace(event, session_id=other)


class FlakyTransport:
    """A delivery callable that fails probabilistically (seeded).

    Wraps any function; each call first draws against ``failure_rate``
    and raises :class:`~repro.errors.TransportError` on a failure draw,
    otherwise delegates.  Use with
    :func:`repro.resilience.retry_with_backoff` and
    :class:`repro.resilience.CircuitBreaker` to exercise the full
    resilience path.
    """

    def __init__(
        self,
        deliver: Callable[..., T],
        failure_rate: float,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= failure_rate <= 1.0:
            raise TransportError("failure_rate must be in [0, 1]")
        self._deliver = deliver
        self.failure_rate = failure_rate
        self._rng = random.Random(seed)
        self.attempts = 0
        self.failures = 0

    def __call__(self, *args: object, **kwargs: object) -> T:
        self.attempts += 1
        if self._rng.random() < self.failure_rate:
            self.failures += 1
            raise TransportError(
                f"transport failure (attempt {self.attempts})"
            )
        return self._deliver(*args, **kwargs)
