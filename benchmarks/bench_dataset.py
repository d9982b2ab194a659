"""Dataset benchmark: naive per-record loops vs the column store.

Times the hot dataset aggregations two ways over a scaled-up record set
(default 10x the 6-snapshot build): as the naive per-record reference
(:mod:`repro.testkit.naive`, the plain Python loop an analysis would
otherwise write) and on :class:`~repro.telemetry.dataset.Dataset`'s
column store.  It writes the timings and speedups to
``BENCH_dataset.json`` at the repo root.  CI runs this at small scale
and fails the build if the column store is ever slower than the naive
loop (speedup < 1).  Run directly::

    PYTHONPATH=src python benchmarks/bench_dataset.py [--scale 10]

The headline numbers are **steady-state query** timings: one dataset,
memoized aggregation results dropped between repeats, the interned
column store kept.  That mirrors real usage — the figures pipeline
builds one dataset and runs ~20 analyses against it, so code interning
is a one-time cost per store, not per query.  The one-time encode cost
is measured separately and recorded in the payload (``first_call``) so
the amortization is visible, not hidden.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from repro.synthesis.calibration import EcosystemConfig
from repro.synthesis.generator import EcosystemGenerator
from repro.telemetry.dataset import Dataset
from repro.telemetry.records import ViewRecord
from repro.testkit import naive

BENCH_PATH = Path(__file__).parent.parent / "BENCH_dataset.json"

SEED = 2018
SNAPSHOT_LIMIT = 6

#: The acceptance floor for the two headline aggregations (ISSUE: >=5x
#: at 10x scale); every other op only has to not be slower.
HEADLINE_OPS = ("publisher_view_hours", "view_hours_by_snapshot")
HEADLINE_MIN_SPEEDUP = 5.0

#: First-call ceiling: interning must amortize, not tax — the cold
#: columnar aggregation may not exceed a naive scan by more than this
#: factor (the allowance absorbs timer noise at small scales).
FIRST_CALL_MAX_RATIO = 1.15


Records = Tuple[ViewRecord, ...]


def _base_records(scale: int) -> Records:
    config = EcosystemConfig(seed=SEED, snapshot_limit=SNAPSHOT_LIMIT)
    records = EcosystemGenerator(config).generate().dataset.records
    return records * scale


#: Each op as (column-store query, naive per-record equivalent).
Op = Tuple[Callable[[Dataset], object], Callable[[Records], object]]


def _ops() -> Dict[str, Op]:
    return {
        "publisher_view_hours": (
            lambda d: d.publisher_view_hours(),
            lambda r: naive.grouped(r, "view_hours", "publisher_id"),
        ),
        "view_hours_by_snapshot": (
            lambda d: d.view_hours_by("snapshot"),
            lambda r: naive.grouped(r, "view_hours", "snapshot"),
        ),
        "views_by_publisher": (
            lambda d: d.views_by("publisher_id"),
            lambda r: naive.grouped(r, "views", "publisher_id"),
        ),
        "distinct_video_ids": (
            lambda d: d.distinct_video_ids(),
            naive.distinct_video_ids,
        ),
        "snapshot_slice_totals": (
            lambda d: [
                d.for_snapshot(s).total_view_hours() for s in d.snapshots()
            ],
            lambda r: [
                naive.total(naive.for_snapshot(r, s), "view_hours")
                for s in naive.snapshots(r)
            ],
        ),
    }


def _best_of(run: Callable[[], object], repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def _time_columnar(
    dataset: Dataset, op: Callable[[Dataset], object], repeats: int
) -> float:
    """Best-of-N steady-state run.

    The warm-up call interns any columns the op needs; each timed
    repeat first drops the dataset's memoized aggregation results
    (``_init_caches``) so the answer is re-aggregated over the
    already-interned store.
    """
    op(dataset)

    def run() -> object:
        dataset._init_caches()
        return op(dataset)

    return _best_of(run, repeats)


def _first_call_s(records: Records, repeats: int) -> float:
    """Cold cost of the first aggregation on a fresh dataset (including
    code interning).

    Best of ``repeats`` fresh datasets: a single cold sample swings
    ~15% with scheduler noise, which is wider than the naive-vs-columnar
    gap this number exists to track.
    """
    best = float("inf")
    for _ in range(repeats):
        dataset = Dataset(records)
        start = time.perf_counter()
        dataset.publisher_view_hours()
        best = min(best, time.perf_counter() - start)
    return best


def run_bench(scale: int, repeats: int) -> Dict[str, object]:
    records = _base_records(scale)
    dataset = Dataset(records)
    results: Dict[str, Dict[str, float]] = {}
    for name, (query, reference) in _ops().items():
        naive_s = _best_of(lambda: reference(records), repeats)
        col_s = _time_columnar(dataset, query, repeats)
        results[name] = {
            "naive_s": round(naive_s, 6),
            "columnar_s": round(col_s, 6),
            "speedup": round(naive_s / col_s, 2) if col_s > 0 else 0.0,
        }
        print(
            f"{name:24s} naive {naive_s * 1e3:9.2f} ms   "
            f"columnar {col_s * 1e3:9.2f} ms   "
            f"{results[name]['speedup']:8.2f}x"
        )
    first_reference = _ops()["publisher_view_hours"][1]
    return {
        "meta": {
            "seed": SEED,
            "snapshot_limit": SNAPSHOT_LIMIT,
            "scale": scale,
            "records": len(records),
            "repeats": repeats,
            "comparand": "repro.testkit.naive",
        },
        "first_call": {
            "naive_s": round(
                _best_of(lambda: first_reference(records), repeats), 6
            ),
            "columnar_s": round(_first_call_s(records, repeats), 6),
        },
        "operations": results,
    }


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scale",
        type=int,
        default=10,
        help="record-set replication factor (default: 10)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="timed runs per (op, side); best is kept (default: 3)",
    )
    parser.add_argument(
        "--out",
        default=str(BENCH_PATH),
        help=f"output JSON path (default: {BENCH_PATH})",
    )
    args = parser.parse_args(argv)
    if args.scale < 1 or args.repeats < 1:
        parser.error("--scale and --repeats must be >= 1")

    payload = run_bench(args.scale, args.repeats)
    Path(args.out).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {args.out}")

    failures = []
    for name, stats in payload["operations"].items():
        floor = (
            HEADLINE_MIN_SPEEDUP
            if name in HEADLINE_OPS and args.scale >= 10
            else 1.0
        )
        if stats["speedup"] < floor:
            failures.append(f"{name}: {stats['speedup']}x < {floor}x")
    first = payload["first_call"]
    if first["columnar_s"] > first["naive_s"] * FIRST_CALL_MAX_RATIO:
        failures.append(
            f"first_call: columnar {first['columnar_s']}s > "
            f"{FIRST_CALL_MAX_RATIO}x naive {first['naive_s']}s"
        )
    if failures:
        print("FAIL: " + "; ".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
