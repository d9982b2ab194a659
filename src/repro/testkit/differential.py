"""Differential oracles: independent code paths must agree.

Each oracle executes the scenario along two (or more) implementations
that are supposed to be observationally equivalent and asserts they
are.  These are the contracts the column store, the parallel
generator, the robust ingest path and the manifest writers/parsers
each promised individually — here they are enforced together, per
scenario, forever.
"""

from __future__ import annotations

import copy
import tempfile
from operator import attrgetter
from pathlib import Path
from typing import Callable, Dict, Iterator, List

from repro.constants import (
    HTTP_ADAPTIVE_PROTOCOLS, ContentType, Platform, Protocol,
)
from repro.core import counts, prevalence
from repro.core.dimensions import (
    PROTOCOL_COLUMN, Dimension, FamilyDimension, PlatformDimension,
    ProtocolDimension,
)
from repro.core.summary import rtmp_share
from repro.entities.ladder import BitrateLadder
from repro.entities.video import Video
from repro.packaging.manifest import manifest_writer_for, parser_for
from repro.packaging.manifest.detect import (
    detect_protocol,
    sample_manifest_url,
)
from repro.errors import AnalysisError
from repro.synthesis.generator import EcosystemResult
from repro.telemetry.dataset import Dataset
from repro.telemetry.ingest import (
    ErrorPolicy,
    IngestPipeline,
    events_from_records,
)
from repro.testkit import naive
from repro.testkit.oracles import Check, Skip, oracle
from repro.testkit.scenario import ScenarioRun

#: Records replayed through the clean strict-vs-repair comparison.
_CLEAN_REPLAY_LIMIT = 200

#: Distinct dataset ladders exercised per protocol round-trip.
_LADDER_SAMPLE = 3


#: Fields the naive reference groups by on every view; derived columns
#: (a URL parse or registry lookup per record) on the root only.
_FIELDS = ("publisher_id", "snapshot", "video_id", "sdk_name", "content_type")
_DERIVED = (PROTOCOL_COLUMN, PlatformDimension().column_key)


def _generic(dimension: Dimension) -> Dimension:
    """The dimension without its column key: core's generic path."""
    stripped = copy.copy(dimension)
    stripped.column_key = None
    return stripped


def _outcome(analysis: Callable[[], object]) -> object:
    """A result or its typed refusal (both paths must refuse alike)."""
    try:
        return analysis()
    except AnalysisError as error:
        return f"AnalysisError: {error}"


def dispatch_comparisons(
    result: EcosystemResult,
) -> Iterator[naive.Comparison]:
    """Each column-dispatching analysis beside the same analysis on the
    key-stripped dimension, and ``rtmp_share`` beside the generic RTMP
    share of the all-protocol view-hour series."""
    data, latest = result.dataset, result.dataset.latest()
    share = prevalence.view_hour_share_series
    drivers = result.dash_driver_ids
    analyses: Dict[str, Callable[[Dimension], object]] = {
        "support": lambda d: prevalence.publisher_support_series(data, d),
        "share": lambda d: share(data, d),
        "share-no-dash": lambda d: share(data, d, exclude_publishers=drivers),
        "share-by-views": lambda d: share(data, d, by_views=True),
        "counts-latest": lambda d: counts.count_distribution(latest, d),
    }
    dimensions = [
        ProtocolDimension(http_only=True),
        ProtocolDimension(http_only=False),
        PlatformDimension(),
    ] + [FamilyDimension(platform) for platform in Platform]
    for dimension in dimensions:
        for name, analysis in analyses.items():
            yield (
                f"{name}[{dimension.column_key.name}]",
                _outcome(lambda: analysis(dimension)),
                _outcome(lambda: analysis(_generic(dimension))),
            )
    series = share(data, _generic(ProtocolDimension(http_only=False)))
    rtmp = [series[day].get(Protocol.RTMP, 0.0) for day in data.snapshots()]
    yield "rtmp_share", rtmp_share(data), dict(first=rtmp[0], latest=rtmp[-1])


@oracle(
    "differential",
    "row-vs-columnar",
    "column-keyed analyses match the generic path; every dataset "
    "aggregation and slice matches the naive per-record reference",
)
def row_vs_columnar(run: ScenarioRun, check: Check) -> str:
    """Vectorized dispatch checked against two references."""
    compared = list(dispatch_comparisons(run.result))
    analyses = len(compared)
    data = run.result.dataset
    records = data.records
    top, last = data.top_publishers(2), data.latest_snapshot()
    rest = naive.exclude_publishers(records, top)
    syndicated = attrgetter("is_syndicated")
    views = [("root", data, records)] + [
        (f"snapshot {day}", data.for_snapshot(day),
         naive.for_snapshot(records, day))
        for day in data.snapshots()
    ] + [
        ("without top-2", data.exclude_publishers(top), rest),
        ("syndicated without top-2",
         data.exclude_publishers(top).filter(syndicated),
         naive.select(rest, syndicated)),
        ("latest without top-2",
         data.for_snapshot(last).exclude_publishers(top),
         naive.exclude_publishers(naive.for_snapshot(records, last), top)),
    ]
    for label, view, expected_records in views:
        keys = _FIELDS + _DERIVED if view is data else _FIELDS
        check.that(
            view.records == expected_records,
            f"{label}: slice records differ from the naive slice",
        )
        compared += [
            (f"{label} {what}", actual, expected)
            for what, actual, expected in naive.comparisons(view, keys)
        ]
    for what, actual, expected in compared:
        check.that(
            naive.agree(actual, expected),
            f"{what}: {actual!r} != reference {expected!r}",
        )
    return (
        f"{analyses} analyses match the generic path; "
        f"{len(compared) - analyses} aggregations over {len(views)} views "
        "match the naive reference"
    )


@oracle(
    "differential",
    "serial-vs-parallel",
    "jobs=N synthesis is byte-identical to the serial build",
)
def serial_vs_parallel(run: ScenarioRun, check: Check) -> str:
    """The PR 4 determinism contract: same bytes, same figure rows."""
    check.that(
        run.dataset_bytes("parallel") == run.dataset_bytes("base"),
        f"jobs={run.spec.jobs} build serializes to different bytes than "
        "the serial build",
    )
    for figure_id in run.spec.figures():
        check.rows_equal(
            run.figure_rows(figure_id, "parallel"),
            run.figure_rows(figure_id),
            f"figure {figure_id}",
        )
    return (
        f"serial and jobs={run.spec.jobs} builds are byte-identical "
        f"({len(run.dataset_bytes('base'))} bytes, "
        f"{len(run.spec.figures())} figures)"
    )


@oracle(
    "differential",
    "strict-vs-repair-clean",
    "on clean input every error policy folds the same records",
)
def strict_vs_repair_clean(run: ScenarioRun, check: Check) -> str:
    """A lenient policy must be invisible when nothing is wrong."""
    records = run.clean_records(_CLEAN_REPLAY_LIMIT)
    check.that(len(records) > 0, "scenario produced no replayable records")
    folded = {}
    reports = {}
    for policy in ErrorPolicy:
        events = events_from_records(records)
        report = IngestPipeline(policy).run(events)
        folded[policy] = report.records
        reports[policy] = report
    strict = folded[ErrorPolicy.STRICT]
    check.that(len(strict) > 0, "strict ingest folded no records")
    for policy in (ErrorPolicy.QUARANTINE, ErrorPolicy.REPAIR):
        check.equal(
            len(folded[policy]), len(strict), f"{policy.value} record count"
        )
        check.that(
            folded[policy] == strict,
            f"{policy.value} folded different records than strict on "
            "clean input",
        )
        report = reports[policy]
        check.equal(report.quarantined, 0, f"{policy.value} quarantined")
        check.equal(report.repaired, 0, f"{policy.value} repaired")
        check.equal(report.deduped, 0, f"{policy.value} deduped")
        check.equal(report.reaped, 0, f"{policy.value} reaped")
    return (
        f"{len(strict)} records from {len(records)} clean sessions fold "
        "identically under strict/quarantine/repair"
    )


@oracle(
    "differential",
    "save-load-roundtrip",
    "save -> load(limit=None) is the identity, gzipped or not",
)
def save_load_roundtrip(run: ScenarioRun, check: Check) -> str:
    dataset = run.result.dataset
    with tempfile.TemporaryDirectory(prefix="repro-testkit-") as tmp:
        for suffix in (".jsonl", ".jsonl.gz"):
            path = Path(tmp) / f"dataset{suffix}"
            dataset.save(path)
            loaded = Dataset.load(path, limit=None)
            check.equal(
                len(loaded), len(dataset), f"{suffix} loaded record count"
            )
            check.that(
                loaded.records == dataset.records,
                f"{suffix} round-trip changed at least one record",
            )
        # A limited load must be an exact prefix, not a resampling.
        half = max(1, len(dataset) // 2)
        partial = Dataset.load(Path(tmp) / "dataset.jsonl", limit=half)
        check.that(
            partial.records == dataset.records[:half],
            f"load(limit={half}) is not the first {half} records",
        )
    return (
        f"{len(dataset)} records round-trip bit-exact through .jsonl "
        "and .jsonl.gz, and limited loads are exact prefixes"
    )


def _sample_ladders(run: ScenarioRun) -> List[BitrateLadder]:
    """First few distinct ladders observed in the scenario's dataset."""
    seen = []
    for record in run.result.dataset.records:
        if record.bitrate_ladder_kbps not in seen:
            seen.append(record.bitrate_ladder_kbps)
        if len(seen) >= _LADDER_SAMPLE:
            break
    return [BitrateLadder.from_bitrates(b) for b in seen]


@oracle(
    "differential",
    "manifest-roundtrip",
    "emit -> detect -> parse agree for all five protocols",
)
def manifest_roundtrip(run: ScenarioRun, check: Check) -> str:
    """Table 1 as a closed loop, using ladders the scenario generated."""
    ladders = _sample_ladders(run)
    check.that(len(ladders) > 0, "scenario dataset carries no ladders")
    video = Video(
        video_id="vid_testkit_rt",
        duration_seconds=600.0,
        content_type=ContentType.VOD,
    )
    base_url = "http://cdn-a.example.net"
    for protocol in HTTP_ADAPTIVE_PROTOCOLS:
        writer = manifest_writer_for(protocol)
        parser = parser_for(protocol)
        check.equal(
            detect_protocol(writer.manifest_url(video, base_url)),
            protocol,
            f"{protocol.display_name} manifest URL detection",
        )
        for ladder in ladders:
            info = parser.parse(writer.render(video, ladder, base_url))
            check.equal(
                info.protocol, protocol, f"{protocol.display_name} parse"
            )
            check.equal(
                info.video_id,
                video.video_id,
                f"{protocol.display_name} video id",
            )
            check.that(
                len(info.bitrates_kbps) == len(ladder),
                f"{protocol.display_name} lost renditions: "
                f"{len(info.bitrates_kbps)} != {len(ladder)}",
            )
            for parsed, original in zip(
                info.bitrates_kbps, ladder.bitrates_kbps
            ):
                # Writers may legally round to whole kbps (HDS does),
                # so allow up to 1 kbps of quantization.
                check.close(
                    parsed,
                    original,
                    f"{protocol.display_name} bitrate",
                    rel=1e-6,
                    abs_tol=1.0,
                )
    # The paper's two non-manifest protocols detect from URL shape.
    check.equal(
        detect_protocol(
            sample_manifest_url(Protocol.RTMP, video.video_id, "cdn-a")
        ),
        Protocol.RTMP,
        "RTMP scheme detection",
    )
    check.equal(
        detect_protocol(
            sample_manifest_url(Protocol.PROGRESSIVE, video.video_id, "cdn-a")
        ),
        Protocol.PROGRESSIVE,
        "progressive extension detection",
    )
    return (
        f"{len(HTTP_ADAPTIVE_PROTOCOLS)} adaptive protocols round-trip "
        f"{len(ladders)} dataset ladders; RTMP + progressive detect"
    )


@oracle(
    "differential",
    "fault-ingest-replay",
    "fault-injected ingestion is reproducible and fully accounted",
)
def fault_ingest_replay(run: ScenarioRun, check: Check) -> str:
    """The ingest stage under faults: deterministic, accounted, ordered.

    Two independent replays of the same corrupted stream must produce
    identical reports, every input event must be accounted exactly once
    (accepted + deduped + event-level dead letters), and repair must
    never quarantine more than quarantine does.
    """
    if run.spec.ingest is None:
        raise Skip(
            f"scenario {run.spec.name!r} declares no ingest stage"
        )
    events_a, injector_a = run.corrupted_events()
    events_b, injector_b = run.corrupted_events()
    check.equal(
        [(f.kind, f.index, f.session_id) for f in injector_b.log],
        [(f.kind, f.index, f.session_id) for f in injector_a.log],
        "fault injector audit log across replays",
    )
    check.that(
        len(injector_a.log) > 0,
        "fault injector applied no faults at "
        f"rate {run.spec.ingest.fault_rate}",
    )
    reports = {}
    for policy in (ErrorPolicy.QUARANTINE, ErrorPolicy.REPAIR):
        report_a = IngestPipeline(policy).run(events_a)
        report_b = IngestPipeline(policy).run(events_b)
        check.that(
            report_a.records == report_b.records,
            f"{policy.value} replay folded different records",
        )
        check.equal(
            report_b.reason_counts(),
            report_a.reason_counts(),
            f"{policy.value} replay reason counts",
        )
        check.equal(
            report_a.accepted
            + report_a.deduped
            + report_a.event_quarantined,
            report_a.total_events,
            f"{policy.value} event accounting",
        )
        reports[policy] = report_a
    check.that(
        reports[ErrorPolicy.REPAIR].quarantined
        <= reports[ErrorPolicy.QUARANTINE].quarantined,
        "repair quarantined more events than quarantine: "
        f"{reports[ErrorPolicy.REPAIR].quarantined} > "
        f"{reports[ErrorPolicy.QUARANTINE].quarantined}",
    )
    quarantine = reports[ErrorPolicy.QUARANTINE]
    return (
        f"{quarantine.total_events} corrupted events replay "
        f"deterministically ({len(injector_a.log)} faults, "
        f"{quarantine.quarantined} quarantined)"
    )


@oracle(
    "differential",
    "chaos-recovery",
    "chaos with recovery is observationally identical to no chaos",
)
def chaos_recovery(run: ScenarioRun, check: Check) -> str:
    """The chaos plane's core promise, as a differential oracle.

    Restricting the scenario's fault plan to its *recoverable* faults
    (duplicates and delayed session starts), ingesting the faulted
    stream, and rebuilding every figure must reproduce the fault-free
    run byte for byte — zero quarantines, zero record drift, zero
    figure-row drift.
    """
    if run.spec.chaos_plan is None:
        raise Skip(f"scenario {run.spec.name!r} declares no chaos plan")
    # Lazy import: repro.chaos is not in testkit's module-import graph.
    from repro.chaos.runner import ChaosRun

    chaos_run = ChaosRun(run.spec, scenario=run)
    recovery = chaos_run.recovery()
    check.that(
        recovery.injection.total_injected > 0,
        "the plan's recoverable projection injected nothing — this "
        "oracle would be vacuous",
    )
    check.equal(recovery.quarantined, 0, "quarantined under recovery")
    check.equal(
        len(recovery.recovered_records),
        len(recovery.clean_records),
        "recovered record count",
    )
    check.that(
        recovery.identical,
        "recovered ingest folded different records than the fault-free "
        "replay",
    )
    clean_rows = chaos_run.figure_rows_from(recovery.clean_records, "clean")
    recovered_rows = chaos_run.figure_rows_from(
        recovery.recovered_records, "recovered"
    )
    for figure_id in sorted(clean_rows):
        check.rows_equal(
            recovered_rows[figure_id],
            clean_rows[figure_id],
            f"figure {figure_id} under recovered chaos",
        )
    return (
        f"{recovery.injection.total_injected} recoverable faults left "
        f"{len(recovery.clean_records)} records and "
        f"{len(clean_rows)} figures byte-identical"
    )
