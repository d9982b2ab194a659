"""Naive per-record reference for every ``Dataset`` aggregation and slice.

Plain Python loops over view records — no codes, masks or memoization —
so a disagreement with :class:`~repro.telemetry.dataset.Dataset` points
at the column store.  The ``row-vs-columnar`` oracle, the ``-m perf``
property tests and ``benchmarks/bench_dataset.py`` compare against it.
"""

from __future__ import annotations

import dataclasses
import math
from operator import attrgetter
from typing import Dict, Iterator, Sequence, Set, Tuple

from repro.telemetry.columnar import key_parts
from repro.telemetry.dataset import Dataset, GroupKey
from repro.telemetry.records import ViewRecord

Records = Sequence[ViewRecord]

#: (what, dataset answer, naive answer)
Comparison = Tuple[str, object, object]

_publisher = attrgetter("publisher_id")


def for_snapshot(records: Records, snapshot) -> Tuple[ViewRecord, ...]:
    return tuple(r for r in records if r.snapshot == snapshot)


def exclude_publishers(records: Records, ids) -> Tuple[ViewRecord, ...]:
    excluded = set(ids)
    return tuple(r for r in records if r.publisher_id not in excluded)


def select(records: Records, predicate) -> Tuple[ViewRecord, ...]:
    return tuple(r for r in records if predicate(r))


def snapshots(records: Records) -> list:
    return sorted({r.snapshot for r in records})


def total(records: Records, measure: str) -> float:
    """Sum of ``measure`` (``"view_hours"`` or ``"views"``)."""
    return sum(getattr(r, measure) for r in records)


def grouped(records: Records, measure: str, key: GroupKey) -> Dict:
    """``view_hours_by`` / ``views_by``: sums per in-scope key value."""
    fn, totals = key_parts(key)[1], {}
    for record in records:
        value = fn(record)
        if value is not None:
            totals[value] = totals.get(value, 0.0) + getattr(record, measure)
    return totals


def distinct_video_ids(records: Records, publisher=None) -> int:
    return len(
        {r.video_id for r in records if publisher in (None, r.publisher_id)}
    )


def distinct_per(records: Records, group, member) -> Dict[object, int]:
    """Distinct ``member`` values per ``group`` value (None: skipped)."""
    sets: Dict[object, Set[object]] = {}
    for record in records:
        g, m = group(record), member(record)
        if g is not None and m is not None:
            sets.setdefault(g, set()).add(m)
    return {g: len(members) for g, members in sets.items()}


def comparisons(
    dataset: Dataset, keys: Sequence[GroupKey]
) -> Iterator[Comparison]:
    """Every aggregation of ``dataset`` beside its naive answer over
    ``dataset.records``; ``keys`` drive the keyed ones."""
    records = dataset.records
    expected = {
        "__len__": len(records),
        "snapshots": snapshots(records),
        "publishers": set(map(_publisher, records)),
        "total_views": total(records, "views"),
        "total_view_hours": total(records, "view_hours"),
        "publisher_view_hours": grouped(records, "view_hours", "publisher_id"),
    }
    for method, answer in expected.items():
        yield method, getattr(dataset, method)(), answer
    for publisher in [None, "<absent>"] + sorted(dataset.publishers()):
        yield (
            f"distinct_video_ids({publisher})",
            dataset.distinct_video_ids(publisher),
            distinct_video_ids(records, publisher),
        )
    for key in keys:
        name, fn = key_parts(key)
        expected = {
            "view_hours_by": grouped(records, "view_hours", key),
            "views_by": grouped(records, "views", key),
            "publishers_per_value": distinct_per(records, fn, _publisher),
            "values_per_publisher": distinct_per(records, _publisher, fn),
        }
        for method, answer in expected.items():
            yield f"{method}({name})", getattr(dataset, method)(key), answer


def agree(actual: object, expected: object, rel: float = 1e-9) -> bool:
    """Structural equality with floats by ``isclose`` (summation order
    differs between ``sum`` and ``bincount``); two NaNs agree."""
    if dataclasses.is_dataclass(actual):
        return type(actual) is type(expected) and agree(
            dataclasses.asdict(actual), dataclasses.asdict(expected), rel
        )
    if isinstance(actual, dict) and isinstance(expected, dict):
        return actual.keys() == expected.keys() and all(
            agree(actual[k], expected[k], rel) for k in actual
        )
    if isinstance(actual, list) and isinstance(expected, list):
        return len(actual) == len(expected) and all(
            agree(a, e, rel) for a, e in zip(actual, expected)
        )
    if isinstance(actual, float) or isinstance(expected, float):
        if not all(type(v) in (int, float) for v in (actual, expected)):
            return False
        if math.isnan(actual) or math.isnan(expected):
            return math.isnan(actual) and math.isnan(expected)
        return math.isclose(actual, expected, rel_tol=rel, abs_tol=1e-12)
    return actual == expected
