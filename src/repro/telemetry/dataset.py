"""The Dataset container: a queryable collection of view records.

The analyses slice the dataset the way §3 describes: by snapshot, by
publisher, by any record attribute — and aggregate by view-hours, by
views, or by distinct video IDs.  Persistence is line-delimited JSON
(gzipped when the path ends in ``.gz``).

A dataset is a :class:`~repro.telemetry.columnar.ColumnStore` plus an
optional boolean mask (none for the root).  ``filter``/``for_snapshot``/
``exclude_publishers`` return zero-copy views sharing the store under a
narrower mask.  Aggregations group by a field name or a named
:class:`~repro.telemetry.columnar.ColumnKey` with vectorized
``bincount`` group-bys over interned codes, memoized per (view, key).
``dataset.columnar_hits`` counts those dispatches and
``dataset.row_fallbacks`` every row pass (one per iteration, one per
``filter``); :mod:`repro.testkit.naive` is the per-record reference.
"""

from __future__ import annotations

import csv
import dataclasses
import gzip
import io
from datetime import date
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro import obs
from repro.errors import DatasetError
from repro.telemetry.columnar import (
    ColumnKey,
    ColumnStore,
    distinct_pairs,
    grouped_sum,
    key_parts,
)
from repro.telemetry.records import ViewRecord

#: A grouping key: a record field name or a named derived column.
GroupKey = Union[str, ColumnKey]

#: Records per write batch in :meth:`Dataset.save`.
_SAVE_BATCH = 4096


class Dataset:
    """An immutable collection of weighted view records."""

    def __init__(self, records: Iterable[ViewRecord]) -> None:
        self._init_view(ColumnStore(tuple(records)), None)

    def _init_view(
        self, store: ColumnStore, mask: Optional[np.ndarray]
    ) -> None:
        self._store = store
        self._mask = mask
        self._records: Optional[Tuple[ViewRecord, ...]] = (
            store.records if mask is None else None
        )
        self._length = len(store) if mask is None else int(mask.sum())
        self._init_caches()

    def _init_caches(self) -> None:
        self._agg_cache: Dict[Tuple[str, object], object] = {}

    @classmethod
    def _view(cls, store: ColumnStore, mask: np.ndarray) -> "Dataset":
        """A zero-copy slice sharing ``store`` under a boolean mask."""
        view = cls.__new__(cls)
        view._init_view(store, mask)
        return view

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[ViewRecord]:
        obs.counter("dataset.row_fallbacks").inc()
        return iter(self.records)

    def __repr__(self) -> str:
        return (
            f"Dataset({len(self)} records, "
            f"{len(self.snapshots())} snapshots, "
            f"{len(self.publishers())} publishers)"
        )

    @property
    def records(self) -> Tuple[ViewRecord, ...]:
        if self._records is None:
            rows = np.flatnonzero(self._mask)
            self._records = tuple(self._store.records[i] for i in rows)
        return self._records

    # ------------------------------------------------------------------
    # Slicing
    # ------------------------------------------------------------------

    def snapshots(self) -> List[date]:
        """Sorted distinct snapshot dates."""
        return sorted(self._present("snapshot"))

    def latest_snapshot(self) -> date:
        snapshots = self.snapshots()
        if not snapshots:
            raise DatasetError("dataset is empty")
        return snapshots[-1]

    def first_snapshot(self) -> date:
        snapshots = self.snapshots()
        if not snapshots:
            raise DatasetError("dataset is empty")
        return snapshots[0]

    def for_snapshot(self, snapshot: date) -> "Dataset":
        """Sub-dataset of one snapshot (a zero-copy mask view)."""

        def view() -> Dataset:
            codes, code = self._code("snapshot", snapshot)
            mask = self._narrow(codes == code)
            if not mask.any():
                raise DatasetError(f"no records for snapshot {snapshot}")
            return self._slice(mask)

        return self._memo(("for_snapshot", snapshot), view)

    def latest(self) -> "Dataset":
        return self.for_snapshot(self.latest_snapshot())

    def filter(self, predicate: Callable[[ViewRecord], bool]) -> "Dataset":
        """Records satisfying an arbitrary predicate.

        The predicate runs row-at-a-time (it is opaque Python), but the
        result is still a mask view — no record tuple is copied.
        """
        obs.counter("dataset.row_fallbacks").inc()
        parent = self._store.records
        mask = np.zeros(len(parent), dtype=bool)
        rows = np.flatnonzero(self._narrow(~mask))
        mask[[i for i in rows if predicate(parent[i])]] = True
        return Dataset._view(self._store, mask)

    def exclude_publishers(self, publisher_ids: Iterable[str]) -> "Dataset":
        """Drop named publishers — the Figs 2c/6b 'remove the top N' cut."""
        excluded = frozenset(publisher_ids)

        def view() -> Dataset:
            codes, values = self._store.codes_for("publisher_id")
            banned = [i for i, v in enumerate(values) if v in excluded]
            kept = ~np.isin(codes, np.array(banned, np.int64))
            return self._slice(self._narrow(kept))

        return self._memo(("exclude_publishers", excluded), view)

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------

    def publishers(self) -> Set[str]:
        return set(self._present("publisher_id"))

    def total_view_hours(self) -> float:
        return self._total("view_hours")

    def total_views(self) -> float:
        return self._total("views")

    def view_hours_by(self, key: GroupKey) -> Dict[object, float]:
        """Sum view-hours grouped by a field name or column key."""
        return self._grouped("view_hours", key)

    def views_by(self, key: GroupKey) -> Dict[object, float]:
        """Sum views grouped by a field name or column key."""
        return self._grouped("views", key)

    def publisher_view_hours(self) -> Dict[str, float]:
        """View-hours per publisher — the paper's size proxy."""
        return self.view_hours_by("publisher_id")

    def top_publishers(self, n: int) -> List[str]:
        """The n publishers with the most view-hours."""
        if n < 0:
            raise DatasetError("n must be non-negative")
        totals = self.publisher_view_hours()
        ranked = sorted(totals, key=lambda p: totals[p], reverse=True)
        return ranked[:n]

    def distinct_video_ids(self, publisher_id: Optional[str] = None) -> int:
        """Distinct video IDs, optionally for one publisher (§3 notes
        this measure is an under-estimate where coverage is partial)."""

        def count() -> int:
            obs.counter("dataset.columnar_hits").inc()
            codes = self._masked(self._store.codes_for("video_id")[0])
            if publisher_id is not None:
                pub_codes, wanted = self._code("publisher_id", publisher_id)
                codes = codes[self._masked(pub_codes) == wanted]
            return int(np.unique(codes).size)

        return self._memo(("distinct_video_ids", publisher_id), count)

    def publishers_per_value(self, key: GroupKey) -> Dict[object, int]:
        """Distinct publishers observed per value of ``key``.

        Backs the "% of publishers supporting X" series without
        building per-value publisher sets.
        """
        return self._distinct_per(key, "publisher_id")

    def values_per_publisher(self, key: GroupKey) -> Dict[str, int]:
        """Distinct values of ``key`` observed per publisher.

        Backs the Figs 3a/9a/12a per-publisher instance counts.
        """
        return self._distinct_per("publisher_id", key)

    def explode(self) -> "Dataset":
        """Expand weighted records into unit-weight records.

        Weights must be integral.  Analyses are invariant under this
        transformation (property-tested); it exists to validate the
        weighted representation and for the weighting ablation bench.
        """
        exploded: List[ViewRecord] = []
        for record in self.records:
            weight = record.weight
            if abs(weight - round(weight)) > 1e-9:
                raise DatasetError(
                    f"cannot explode non-integral weight {weight}"
                )
            unit = dataclasses.replace(record, weight=1.0)
            exploded.extend([unit] * int(round(weight)))
        return Dataset(exploded)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save(self, path: Union[str, Path]) -> None:
        """Write the dataset as JSONL (.gz for gzip compression).

        Lines are joined in batches so the hot path is one buffered
        write per :data:`_SAVE_BATCH` records, not two per record.
        """
        path = Path(path)
        opener = gzip.open if path.suffix == ".gz" else io.open
        with opener(path, "wt", encoding="utf-8") as handle:
            batch: List[str] = []
            for record in self.records:
                batch.append(record.to_json())
                if len(batch) >= _SAVE_BATCH:
                    handle.write("\n".join(batch))
                    handle.write("\n")
                    batch.clear()
            if batch:
                handle.write("\n".join(batch))
                handle.write("\n")

    def to_csv(self, path: Union[str, Path]) -> None:
        """Export the dataset as CSV for external tooling.

        Multi-valued fields (CDNs, ladder) are pipe-joined; enums are
        written as their wire values.  CSV is an export format only —
        round-tripping uses :meth:`save`/:meth:`load`.
        """
        fieldnames = [
            "snapshot", "publisher_id", "url", "device_model", "os_name",
            "cdn_names", "bitrate_ladder_kbps", "view_duration_hours",
            "avg_bitrate_kbps", "rebuffer_ratio", "content_type",
            "video_id", "weight", "user_agent", "sdk_name", "sdk_version",
            "is_syndicated", "owner_id", "isp", "geo", "connection",
        ]
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.DictWriter(handle, fieldnames=fieldnames)
            writer.writeheader()
            for record in self.records:
                row = record.to_json_dict()
                row["cdn_names"] = "|".join(record.cdn_names)
                row["bitrate_ladder_kbps"] = "|".join(
                    f"{b:g}" for b in record.bitrate_ladder_kbps
                )
                writer.writerow(row)

    @classmethod
    def load(
        cls, path: Union[str, Path], limit: Optional[int] = None
    ) -> "Dataset":
        """Load a dataset previously written by :meth:`save`.

        ``limit`` stops after that many records — a fast path for
        benches and smoke tests over large files.  ``limit=0`` is an
        explicit empty load; a negative limit is rejected rather than
        silently truncating to nothing.
        """
        if limit is not None and limit < 0:
            raise DatasetError(f"load limit must be >= 0, got {limit}")
        path = Path(path)
        if not path.exists():
            raise DatasetError(f"dataset file not found: {path}")
        opener = gzip.open if path.suffix == ".gz" else io.open
        records: List[ViewRecord] = []
        with opener(path, "rt", encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, start=1):
                if limit is not None and len(records) >= limit:
                    break
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(ViewRecord.from_json(line))
                except DatasetError as exc:
                    raise DatasetError(
                        f"{path}:{line_number}: {exc}"
                    ) from exc
        return cls(records)

    # ------------------------------------------------------------------
    # Internal
    # ------------------------------------------------------------------

    def _masked(self, column: np.ndarray) -> np.ndarray:
        """``column`` restricted to this view's rows."""
        return column if self._mask is None else column[self._mask]

    def _narrow(self, mask: np.ndarray) -> np.ndarray:
        """A full-index-space ``mask`` further restricted to this view."""
        return mask if self._mask is None else mask & self._mask

    def _slice(self, mask: np.ndarray) -> "Dataset":
        """A vectorized zero-copy slice under a full-index-space mask."""
        obs.counter("dataset.columnar_hits").inc()
        return Dataset._view(self._store, mask)

    def _code(self, field: str, value: object) -> Tuple[np.ndarray, int]:
        """A field's code column and ``value``'s code (-2: matches no row)."""
        codes, values = self._store.codes_for(field)
        try:
            return codes, values.index(value)
        except ValueError:
            return codes, -2

    def _memo(self, cache_key: Tuple[str, object], compute: Callable) -> Any:
        """``compute()`` once per view: stores and masks never change."""
        if cache_key not in self._agg_cache:
            self._agg_cache[cache_key] = compute()
        return self._agg_cache[cache_key]

    def _present(self, field: str) -> FrozenSet[object]:
        """Distinct values of a stored field in this view."""

        def distinct() -> FrozenSet[object]:
            codes, values = self._store.codes_for(field)
            return frozenset(values[i] for i in np.unique(self._masked(codes)))

        return self._memo(("present", field), distinct)

    def _distinct_per(
        self, group: GroupKey, member: GroupKey
    ) -> Dict[object, int]:
        """Distinct in-scope ``member`` values per ``group`` value."""

        def count() -> Dict[object, int]:
            obs.counter("dataset.columnar_hits").inc()
            g_codes, g_values = self._store.codes_for(group)
            m_codes, m_values = self._store.codes_for(member)
            n_members = max(len(m_values), 1)
            pairs = distinct_pairs(
                g_codes, len(g_values), m_codes, n_members, self._mask
            )
            counts = np.bincount(pairs // n_members, minlength=len(g_values))
            return {g_values[i]: int(counts[i]) for i in counts.nonzero()[0]}

        names = (key_parts(group)[0], key_parts(member)[0])
        return dict(self._memo(("distinct", names), count))

    def _total(self, measure: str) -> float:
        column = self._store.numeric(measure)
        return self._memo(
            ("total", measure), lambda: float(np.sum(self._masked(column)))
        )

    def _grouped(self, measure: str, key: GroupKey) -> Dict[object, float]:
        def group() -> Dict[object, float]:
            obs.counter("dataset.columnar_hits").inc()
            codes, values = self._store.codes_for(key)
            weights = self._store.numeric(measure)
            return grouped_sum(codes, values, weights, self._mask)

        return dict(self._memo((measure, key_parts(key)[0]), group))

