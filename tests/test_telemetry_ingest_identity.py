"""The robust ingest path gives pinned outputs, gauges and verdicts.

Three checks on :class:`~repro.telemetry.ingest.RobustSessionizer`:

* a pinned corrupted stream (ecosystem seed 2018, first 500 playable
  views, ``FaultMix.uniform(0.2)`` with fault seed 2018) ingests to the
  report committed in ``tests/golden/`` under ``quarantine`` and
  ``repair``: records, dead letters, ``summary()`` and reason counts;
* the ``ingest.open_sessions`` / ``ingest.parked_events`` gauges read
  the pipeline's live state after every ``ingest`` call;
* ``_check_beat`` gives a pinned verdict for every kind of bad field
  value a transport can deliver.

Both goldens live in one file.  Regenerate it from the repository root
with ``PYTHONPATH=src:. python tests/test_telemetry_ingest_identity.py``,
and only for a change that is meant to alter what ingest produces.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from pathlib import Path
from typing import Dict, Iterable, List

import pytest

from repro.telemetry.events import Heartbeat
from repro.telemetry.faults import FaultInjector, FaultMix, corrupt_heartbeat
from repro.telemetry.ingest import (
    IngestReport,
    RobustSessionizer,
    events_from_records,
)
from tests.test_telemetry_ingest_faults import _beat, make_record

pytestmark = pytest.mark.robustness

GOLDEN = Path(__file__).parent / "golden" / "ingest_seed2018_rate0.2_500.json"
POLICIES = ("quarantine", "repair")
SESSIONS = 500
FAULT_RATE = 0.2
FAULT_SEED = 2018


def _canonical(value: object) -> str:
    """One JSON line for a dataclass event/record (enums as values)."""
    payload = {"type": type(value).__name__, **dataclasses.asdict(value)}
    return json.dumps(payload, default=str, sort_keys=True)


def _digest(lines: Iterable[str]) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def pinned_stream(eco) -> List[object]:
    records = [
        r
        for r in eco.dataset.records
        if r.view_duration_hours > 0 and r.rebuffer_ratio < 1.0
    ][:SESSIONS]
    events = list(events_from_records(records))
    return FaultInjector(FaultMix.uniform(FAULT_RATE), seed=FAULT_SEED).apply(
        events
    )


def fingerprint(report: IngestReport) -> Dict[str, object]:
    return {
        "summary": report.summary(),
        "reasons": dict(sorted(report.reason_counts().items())),
        "records": len(report.records),
        "records_sha256": _digest(_canonical(r) for r in report.records),
        "dead_letters": len(report.dead_letters),
        "dead_letters_sha256": _digest(
            json.dumps(
                [
                    letter.sequence,
                    letter.reason.value,
                    letter.detail,
                    _canonical(letter.event),
                ]
            )
            for letter in report.dead_letters
        ),
    }


def _golden() -> Dict[str, Dict[str, object]]:
    return json.loads(GOLDEN.read_text())


class TestGoldenReport:
    @pytest.fixture(scope="class")
    def stream(self, eco):
        return pinned_stream(eco)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_report_matches_golden(self, stream, policy):
        report = RobustSessionizer(policy).run(stream)
        assert fingerprint(report) == _golden()["reports"][policy]


# ---------------------------------------------------------------------------
# Gauges
# ---------------------------------------------------------------------------


def _gauges(pipeline: RobustSessionizer):
    registry = pipeline.report.counters.registry
    return (
        registry.gauge("ingest.open_sessions").value,
        registry.gauge("ingest.parked_events").value,
    )


def _parked(pipeline: RobustSessionizer) -> int:
    return sum(len(events) for events in pipeline._parked.values())


class TestGaugeTruth:
    @pytest.mark.parametrize(
        "policy, reorder_buffer, max_idle_events",
        [
            ("quarantine", 256, None),
            ("quarantine", 6, 25),
            ("repair", 6, 25),
            ("repair", 0, None),
        ],
    )
    @pytest.mark.parametrize("seed", [3, 11])
    def test_gauges_track_state_after_every_event(
        self, policy, reorder_buffer, max_idle_events, seed
    ):
        events = list(events_from_records([make_record(i) for i in range(30)]))
        corrupted = FaultInjector(FaultMix.uniform(0.5), seed=seed).apply(
            events
        )
        pipeline = RobustSessionizer(
            policy,
            reorder_buffer=reorder_buffer,
            max_idle_events=max_idle_events,
        )
        parked_seen = 0
        for event in corrupted:
            pipeline.ingest(event)
            parked = _parked(pipeline)
            parked_seen = max(parked_seen, parked)
            assert _gauges(pipeline) == (pipeline.open_sessions, parked)
        pipeline.finalize()
        assert _gauges(pipeline) == (0, 0)
        if reorder_buffer:
            assert parked_seen > 0  # the parked gauge was exercised

    def test_strict_gauge_tracks_open_sessions(self):
        events = list(events_from_records([make_record(i) for i in range(8)]))
        pipeline = RobustSessionizer("strict")
        for event in events:
            pipeline.ingest(event)
            assert _gauges(pipeline) == (pipeline.open_sessions, 0)


# ---------------------------------------------------------------------------
# Heartbeat verdicts
# ---------------------------------------------------------------------------

FIELDS = (
    "playing_seconds",
    "rebuffering_seconds",
    "interval_seconds",
    "bitrate_kbps",
)
VALUES = {
    "int": 5,
    "bool-true": True,
    "bool-false": False,
    "str": "7",
    "none": None,
    "nan": math.nan,
    "+inf": math.inf,
    "-inf": -math.inf,
}
#: Finite fields whose sums overflow to infinity.
OVERFLOWS = {
    "sum-overflow": dict(playing_seconds=1e308, rebuffering_seconds=1e308),
    "sum-overflow-big-interval": dict(
        playing_seconds=1.5e308,
        rebuffering_seconds=1.5e308,
        interval_seconds=1.7e308,
    ),
    "negative-plus-overflow": dict(
        playing_seconds=-1e308, rebuffering_seconds=1.7e308
    ),
}

#: An int too large for a float: ``math.isfinite`` raises on it.  Its
#: verdicts are written out here rather than read from the golden.
HUGE_INT = 10**400
MALFORMED = [
    "rejected",
    0,
    [["malformed-event", "non-numeric or non-finite heartbeat timing"]],
]


def verdict_cases() -> Dict[str, Dict[str, object]]:
    cases: Dict[str, Dict[str, object]] = {}
    for field_name in FIELDS:
        for label, value in VALUES.items():
            cases[f"{field_name}={label}"] = {field_name: value}
    cases.update(OVERFLOWS)
    return cases


def verdict(policy: str, overrides: Dict[str, object]) -> List[object]:
    """What ``_check_beat`` does with one corrupted heartbeat."""
    pipeline = RobustSessionizer(policy)
    beat = corrupt_heartbeat(_beat(), **overrides)
    checked = pipeline._check_beat(beat, sequence=0)
    if checked is None:
        outcome = "rejected"
    elif checked is beat:
        outcome = "accepted"
    else:
        outcome = repr([getattr(checked, name) for name in FIELDS])
    report = pipeline.report
    return [
        outcome,
        report.repaired,
        [[letter.reason.value, letter.detail] for letter in report.dead_letters],
    ]


class TestCheckBeatVerdicts:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("case", sorted(verdict_cases()))
    def test_verdict_is_pinned(self, policy, case):
        expected = _golden()["check_beat"][policy][case]
        assert verdict(policy, verdict_cases()[case]) == expected

    def test_clean_beat_is_accepted_unchanged(self):
        for policy in POLICIES:
            assert verdict(policy, {}) == ["accepted", 0, []]

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("field_name", FIELDS)
    def test_int_too_large_for_a_float_is_malformed(self, policy, field_name):
        assert verdict(policy, {field_name: HUGE_INT}) == MALFORMED

    @pytest.mark.parametrize("policy", POLICIES)
    def test_int_too_large_for_a_float_never_raises_in_a_stream(
        self, policy
    ):
        events = list(events_from_records([make_record(i) for i in range(3)]))
        index = next(
            i for i, e in enumerate(events) if isinstance(e, Heartbeat)
        )
        events[index] = corrupt_heartbeat(
            events[index], bitrate_kbps=HUGE_INT
        )
        report = RobustSessionizer(policy).run(events)
        assert [d.reason.value for d in report.dead_letters] == [
            "malformed-event"
        ]


def golden_payload(eco) -> Dict[str, Dict[str, object]]:
    stream = pinned_stream(eco)
    cases = verdict_cases()
    return {
        "reports": {
            policy: fingerprint(RobustSessionizer(policy).run(stream))
            for policy in POLICIES
        },
        "check_beat": {
            policy: {name: verdict(policy, cases[name]) for name in cases}
            for policy in POLICIES
        },
    }


if __name__ == "__main__":
    from repro.synthesis.generator import generate_default_dataset

    eco = generate_default_dataset(seed=2018, snapshot_limit=6)
    payload = golden_payload(eco)
    GOLDEN.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
