"""The two benchmark workloads and their output checks.

Each workload builds ``inputs`` distinct inputs from one seed, then
exposes three steps to the harness in ``run.py``:

* ``setup(index, probe)`` prepares what the timed part reads for input
  ``index`` (repeated a few times per run so set-up time is a median
  too);
* ``run(state, probe)`` is the timed part; every call into a layer's
  public function is wrapped in ``probe.time(...)`` and the work it
  did is recorded with ``probe.count(...)``;
* ``check(state, output, tally)`` verifies the outputs, one tally
  entry per checked operation.

``layers(setup_samples, run_samples)`` turns the traced samples into
the per-layer metrics; ``trace_agrees(sample)`` lists the pairs of
numbers the benchmark measured itself and read back from ``repro.obs``
that must be equal.  All calls are serial (``jobs=1``).
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import statistics
from collections import Counter
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from repro import figures, obs
from repro.core.integrated import project_all_syndicators
from repro.delivery.network import default_isp_profiles
from repro.playback.abr import BufferBasedAbr, HybridAbr, ThroughputAbr
from repro.playback.batch import simulate_session_batch
from repro.playback.session import SessionConfig
from repro.synthesis.calibration import EcosystemConfig
from repro.synthesis.generator import EcosystemGenerator, EcosystemResult
from repro.telemetry.backend import TelemetryBackend
from repro.telemetry.dataset import Dataset
from repro.telemetry.events import Sessionizer
from repro.telemetry.faults import FaultInjector, FaultMix
from repro.telemetry.ingest import events_from_record, events_from_records

from probe import Probe, Sample, Tally

#: Ecosystem of ``dataset-roundtrip``: a thinned schedule and a
#: quarter of the default case-study QoE sessions.
PUBLISHERS = 110
ROUNDTRIP_SNAPSHOTS = 4
ROUNDTRIP_QOE_SESSIONS = 40

#: The build's size varies with its seed (records IQR/median ~9%), so
#: ``dataset-roundtrip`` times several ecosystems per run: input ``k``
#: is built from ``seed + k * INPUT_SEED_STRIDE``, input 0 from the seed.
ROUNDTRIP_INPUTS = 3
INPUT_SEED_STRIDE = 1_000_003

#: Figures that read only the build's ground truth, never its dataset;
#: ``dataset-roundtrip`` skips them, and X2, which is playback.
NON_DATASET_FIGURES = frozenset({"T1", "F5", "F18", "X2"})

#: ``session-replay``: a small ecosystem; phase 2 reads only the case
#: study's ladders, so its QoE records are kept to the minimum.
REPLAY_SNAPSHOTS = 2
REPLAY_QOE_SESSIONS = 10
REPLAY_SESSIONS = 2000
FAULT_RATE = 0.2
PROJECTION_SESSIONS = 120
BATCH_SESSIONS = 1000
BATCH_VIEW_SECONDS = 900.0
BATCH_ABRS = (
    ("throughput", ThroughputAbr),
    ("buffer", BufferBasedAbr),
    ("hybrid", HybridAbr),
)

#: Relative slack for float comparisons: re-folded telemetry sums
#: per-heartbeat shares, and bitrates are averaged over chunks.
RTOL = 1e-9


def _roundtrip_config(seed: int, index: int) -> EcosystemConfig:
    return EcosystemConfig(
        seed=seed + index * INPUT_SEED_STRIDE,
        n_publishers=PUBLISHERS,
        snapshot_limit=ROUNDTRIP_SNAPSHOTS,
        qoe_sessions=ROUNDTRIP_QOE_SESSIONS,
    )


def _build(probe: Probe, config: EcosystemConfig) -> EcosystemResult:
    with probe.time("synthesis.generate"):
        result = EcosystemGenerator(config).generate()
    probe.count("synthesis.records", len(result.dataset))
    return result


def _run_figures(
    probe: Probe, result: EcosystemResult, ids: Sequence[str]
) -> Dict[str, List[dict]]:
    """The suite's serial path: ``run_figure`` per id, in id order."""
    rows: Dict[str, List[dict]] = {}
    with probe.time("figures.suite"):
        for figure_id in ids:
            with probe.time(f"figures.{figure_id}"):
                rows[figure_id] = figures.run_figure(figure_id, result)
    probe.count("figures.runs", len(rows))
    return rows


def _rows_ok(rows: Sequence[dict]) -> bool:
    """Non-empty rows with no infinite number.

    Figures use NaN only as a not-applicable marker in a row that also
    carries a finite number (F13's max-SDK row, S44's top-5 row), so a
    row whose numbers are all NaN fails too.
    """
    if not rows:
        return False
    for row in rows:
        if not row:
            return False
        values = [
            float(v)
            for v in row.values()
            if isinstance(v, numbers.Real) and not isinstance(v, bool)
        ]
        if any(math.isinf(v) for v in values):
            return False
        if any(math.isnan(v) for v in values) and not any(
            math.isfinite(v) for v in values
        ):
            return False
    return True


def _check_figures(rows: Dict[str, List[dict]], tally: Tally) -> None:
    for figure_id, figure_rows in rows.items():
        tally.check(_rows_ok(figure_rows), f"figure {figure_id} rows")


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _timer(samples: Sequence[Sample], name: str) -> float:
    return _median([s.seconds[name] for s in samples if name in s.seconds])


def _synthesis_layers(samples: Sequence[Sample]) -> Dict[str, float]:
    snapshots = [s.span_durations("synthesis.snapshot") for s in samples]
    return {
        "synthesis.generate_s": _timer(samples, "synthesis.generate"),
        "synthesis.us_per_record": _median(
            [
                1e6 * s.seconds["synthesis.generate"]
                / s.counts["synthesis.records"]
                for s in samples
            ]
        ),
        "synthesis.records": samples[0].counts["synthesis.records"],
        "synthesis.snapshot_s_p50": _median(
            [statistics.median(d) for d in snapshots if d]
        ),
        "synthesis.snapshot_s_max": _median([max(d) for d in snapshots if d]),
        "synthesis.case_study_s": _median(
            [sum(s.span_durations("synthesis.case_study")) for s in samples]
        ),
    }


def _figure_layers(
    samples: Sequence[Sample], ids: Sequence[str]
) -> Dict[str, float]:
    out = {
        f"figures.{figure_id}_s": _timer(samples, f"figures.{figure_id}")
        for figure_id in ids
    }
    out["figures.suite_s"] = _timer(samples, "figures.suite")
    out["figures.cold_first_s"] = _timer(samples, f"figures.{ids[0]}")
    out["figures.runs"] = samples[0].counts["figures.runs"]
    out["telemetry.columnar_hits"] = samples[0].obs_counts[
        "dataset.columnar_hits"
    ]
    out["telemetry.row_fallbacks"] = samples[0].obs_counts[
        "dataset.row_fallbacks"
    ]
    return out


def _synthesis_agrees(sample: Sample) -> List[Tuple[str, float, float]]:
    """The build's record count against the obs counter."""
    return [
        (
            "synthesis.records counter",
            sample.counts["synthesis.records"],
            sample.obs_counts["synthesis.records"],
        )
    ]


def _figures_agree(sample: Sample) -> List[Tuple[str, float, float]]:
    return [
        (
            "figure.run spans",
            sample.counts["figures.runs"],
            len(sample.span_durations("figure.run")),
        ),
        (
            "figure.runs counter",
            sample.counts["figures.runs"],
            sample.obs_counts["figure.runs"],
        ),
    ]


# ---------------------------------------------------------------------------
# dataset-roundtrip
# ---------------------------------------------------------------------------


class DatasetRoundtrip:
    """Save the build as gzipped JSONL, load it, query the loaded copy.

    Stage 1 is ``Dataset.save``; stage 2 ("reopen") is ``Dataset.load``
    plus every dataset-reading figure on the loaded copy, which starts
    with cold columnar caches.  Synthesis runs only in set-up.
    """

    name = "dataset-roundtrip"
    stage_names = ("save", "reopen")
    inputs = ROUNDTRIP_INPUTS

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.path = work_dir / "roundtrip.jsonl.gz"
        self.figure_ids = [
            f for f in figures.figure_ids() if f not in NON_DATASET_FIGURES
        ]

    def setup(self, index: int, probe: Probe) -> EcosystemResult:
        return _build(probe, _roundtrip_config(self.seed, index))

    def run(self, result: EcosystemResult, probe: Probe) -> tuple:
        with probe.time("stage1"), probe.time("telemetry.save"):
            result.dataset.save(self.path)
        probe.count("telemetry.saved_bytes", self.path.stat().st_size)
        with probe.time("stage2"):
            with probe.time("telemetry.load"):
                loaded = Dataset.load(self.path)
            probe.count("telemetry.records", len(loaded))
            reopened = dataclasses.replace(result, dataset=loaded)
            rows = _run_figures(probe, reopened, self.figure_ids)
        self.path.unlink()
        return loaded, rows

    def check(
        self, result: EcosystemResult, output: tuple, tally: Tally
    ) -> None:
        loaded, rows = output
        saved = result.dataset.records
        tally.check(len(loaded) == len(saved), "loaded record count")
        for before, after in zip(saved, loaded.records):
            tally.check(before == after, "loaded record equals saved")
        _check_figures(rows, tally)

    def layers(
        self, setup: Sequence[Sample], runs: Sequence[Sample]
    ) -> Dict[str, float]:
        out = _synthesis_layers(setup)
        records = runs[0].counts["telemetry.records"]
        save_s = _timer(runs, "telemetry.save")
        load_s = _timer(runs, "telemetry.load")
        out.update(
            {
                "telemetry.save_s": save_s,
                "telemetry.load_s": load_s,
                "telemetry.save_us_per_record": 1e6 * save_s / records,
                "telemetry.load_us_per_record": 1e6 * load_s / records,
                "telemetry.saved_bytes": runs[0].counts[
                    "telemetry.saved_bytes"
                ],
            }
        )
        out.update(_figure_layers(runs, self.figure_ids))
        return out

    def trace_agrees(self, sample: Sample) -> List[Tuple[str, float, float]]:
        if "figures.runs" not in sample.counts:  # a set-up sample
            return _synthesis_agrees(sample)
        return _figures_agree(sample)


# ---------------------------------------------------------------------------
# session-replay
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class ReplayState:
    result: EcosystemResult
    records: List[object]
    clean_folds: Dict[str, object] = dataclasses.field(default_factory=dict)


class SessionReplay:
    """Telemetry ingest under faults, then per-session playback.

    Stage 1 is what ``repro ingest --policy quarantine --fault-rate
    0.2`` does: render sessions as events, corrupt them with
    ``FaultInjector``, ingest with ``TelemetryBackend.ingest_events``.
    Stage 2 projects every syndicator's QoE and simulates one session
    batch per ABR.  No figures, no persistence.
    """

    name = "session-replay"
    stage_names = ("ingest", "playback")
    #: 2,000 sessions from any seed make nearly the same stream.
    inputs = 1
    rates = (
        ("ingest_events_per_s", "telemetry.ingest_events", "stage1"),
        ("playback_sessions_per_s", "playback.sessions", "stage2"),
    )

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.config = EcosystemConfig(
            seed=seed,
            n_publishers=PUBLISHERS,
            snapshot_limit=REPLAY_SNAPSHOTS,
            qoe_sessions=REPLAY_QOE_SESSIONS,
        )
        self.session_config = SessionConfig(view_seconds=BATCH_VIEW_SECONDS)

    def setup(self, index: int, probe: Probe) -> ReplayState:
        result = _build(probe, self.config)
        records = [
            r
            for r in result.dataset.records
            if r.view_duration_hours > 0 and r.rebuffer_ratio < 1.0
        ][:REPLAY_SESSIONS]
        return ReplayState(result=result, records=records)

    def run(self, state: ReplayState, probe: Probe) -> tuple:
        with probe.time("stage1"):
            with probe.time("telemetry.events_render"):
                events = list(events_from_records(state.records))
            injector = FaultInjector(
                FaultMix.uniform(FAULT_RATE), seed=self.seed
            )
            with probe.time("telemetry.faults_apply"):
                corrupted = injector.apply(events)
            with probe.time("telemetry.ingest"):
                report = TelemetryBackend().ingest_events(
                    corrupted,
                    policy="quarantine",
                    metrics=obs.metrics() if obs.enabled() else None,
                )
        probe.count("telemetry.ingest_events", report.total_events)
        probe.count("telemetry.ingest_accepted", report.accepted)
        probe.count("telemetry.ingest_deduped", report.deduped)
        probe.count("telemetry.ingest_quarantined", report.quarantined)
        probe.count("telemetry.ingest_records", len(report.records))

        case_study = state.result.case_study
        ladder = case_study.ladder("O")
        path = default_isp_profiles()["X"].path_to("A")
        with probe.time("stage2"):
            with probe.time("playback.projections"):
                projections = project_all_syndicators(
                    case_study, sessions=PROJECTION_SESSIONS, seed=self.seed
                )
            batches = {}
            for offset, (name, abr) in enumerate(BATCH_ABRS):
                with probe.time(f"playback.batch_{name}"):
                    batches[name] = simulate_session_batch(
                        ladder,
                        path,
                        self.session_config,
                        seed=self.seed + offset,
                        sessions=BATCH_SESSIONS,
                        abr=abr(),
                    )
        batch_sessions = sum(len(b) for b in batches.values())
        probe.count("playback.batch_sessions", batch_sessions)
        # Each projected session is simulated twice: own and owner ladder.
        probe.count(
            "playback.sessions",
            batch_sessions + 2 * PROJECTION_SESSIONS * len(projections),
        )
        probe.count(
            "playback.chunks",
            sum(r.chunk_count for b in batches.values() for r in b),
        )
        return len(corrupted), injector, report, projections, batches, ladder

    def check(self, state: ReplayState, output: tuple, tally: Tally) -> None:
        n_corrupted, injector, report, projections, batches, ladder = output
        tally.check(
            report.accepted + report.deduped + report.event_quarantined
            == report.total_events
            == n_corrupted,
            "ingest accounting closes",
        )
        if not state.clean_folds:
            state.clean_folds = self._clean_folds(state, tally)
        folded = Counter(report.records)
        for sid, record in state.clean_folds.items():
            if sid in injector.corrupted_sessions:
                continue
            ok = folded[record] > 0
            folded[record] -= 1
            tally.check(ok, f"untouched session {sid} folds back")
        study = state.result.case_study
        owner = study.ladder("O")
        for label, projection in projections.items():
            own = study.ladder(label)
            tally.check(
                _within(projection.before_median_kbps, own)
                and _within(projection.after_median_kbps, owner),
                f"projection {label} within its ladders",
            )
        for results in batches.values():
            for result in results:
                tally.check(
                    0.0 <= result.rebuffer_ratio < 1.0
                    and _within(result.average_bitrate_kbps, ladder),
                    "session result in range",
                )

    def _clean_folds(
        self, state: ReplayState, tally: Tally
    ) -> Dict[str, object]:
        """Each source record folded from its own clean event stream."""
        folds = {}
        sessionizer = Sessionizer(retain_records=False)
        for index, source in enumerate(state.records):
            sid = f"sess_{index:06d}"
            for event in events_from_record(source, session_id=sid):
                record = sessionizer.ingest(event)
            tally.check(
                _same_view(record, source), f"{sid} folds to its source"
            )
            folds[sid] = record
        return folds


    def layers(
        self, setup: Sequence[Sample], runs: Sequence[Sample]
    ) -> Dict[str, float]:
        out = _synthesis_layers(setup)
        counts = runs[0].counts
        for name in (
            "telemetry.ingest_events",
            "telemetry.ingest_accepted",
            "telemetry.ingest_deduped",
            "telemetry.ingest_quarantined",
            "telemetry.ingest_records",
            "playback.sessions",
            "playback.chunks",
        ):
            out[name] = counts[name]
        for name in (
            "telemetry.events_render",
            "telemetry.faults_apply",
            "telemetry.ingest",
            "playback.projections",
        ):
            out[f"{name}_s"] = _timer(runs, name)
        batch_s = 0.0
        for name, _ in BATCH_ABRS:
            seconds = _timer(runs, f"playback.batch_{name}")
            out[f"playback.batch_{name}_s"] = seconds
            batch_s += seconds
        out["playback.us_per_chunk"] = (
            1e6 * batch_s / counts["playback.chunks"]
        )
        return out

    def trace_agrees(self, sample: Sample) -> List[Tuple[str, float, float]]:
        if "telemetry.ingest_events" not in sample.counts:  # a set-up sample
            return _synthesis_agrees(sample)
        batch = sample.spans_named("ingest.batch")
        playback = sample.spans_named("playback.batch")
        pairs = [
            ("ingest.batch spans", 1, len(batch)),
            (
                "playback.batch session attrs",
                sample.counts["playback.batch_sessions"],
                sum(s.attrs.get("sessions", 0) for s in playback),
            ),
            (
                "playback.sessions counter",
                sample.counts["playback.batch_sessions"],
                sample.obs_counts["playback.sessions"],
            ),
        ]
        for attr, name in (
            ("events", "telemetry.ingest_events"),
            ("accepted", "telemetry.ingest_accepted"),
            ("quarantined", "telemetry.ingest_quarantined"),
            ("records", "telemetry.ingest_records"),
        ):
            span_value = batch[0].attrs.get(attr) if batch else None
            pairs.append(
                (f"ingest.batch {attr}", sample.counts[name], span_value)
            )
        for name in ("events", "accepted", "deduped"):
            pairs.append(
                (
                    f"ingest.{name} counter",
                    sample.counts[f"telemetry.ingest_{name}"],
                    sample.obs_counts[f"ingest.{name}"],
                )
            )
        return pairs


def _within(kbps: float, ladder) -> bool:
    low = ladder.min_bitrate_kbps * (1 - RTOL)
    high = ladder.max_bitrate_kbps * (1 + RTOL)
    return math.isfinite(kbps) and low <= kbps <= high


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=RTOL, abs_tol=1e-12)


def _same_view(folded, source) -> bool:
    """A clean fold reproduces its source record's view.

    Identity fields match exactly; playback time, bitrate and
    rebuffering match up to summation rounding.  Folding yields one
    view (``weight=1``), so the source's weight is not compared.
    """
    if folded is None:
        return False
    same = dataclasses.replace(
        folded,
        weight=source.weight,
        view_duration_hours=source.view_duration_hours,
        avg_bitrate_kbps=source.avg_bitrate_kbps,
        rebuffer_ratio=source.rebuffer_ratio,
    )
    return (
        same == source
        and _close(folded.view_duration_hours, source.view_duration_hours)
        and _close(folded.avg_bitrate_kbps, source.avg_bitrate_kbps)
        and _close(folded.rebuffer_ratio, source.rebuffer_ratio)
    )


WORKLOADS = {
    cls.name: cls for cls in (DatasetRoundtrip, SessionReplay)
}
