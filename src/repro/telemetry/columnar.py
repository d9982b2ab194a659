"""The column store behind :class:`~repro.telemetry.dataset.Dataset`.

A :class:`ColumnStore` is the only representation a dataset has: one
immutable tuple of :class:`~repro.telemetry.records.ViewRecord` mirrored
as NumPy arrays, built lazily per column and shared by every view
sliced from the same root dataset.  Categorical fields (snapshot,
publisher, video id, ...) are interned into integer codes so group-bys
reduce to ``np.bincount`` over codes; numeric measures (view-hours,
views) are plain float64 arrays.

Derived columns — values computed from a record rather than stored on
it, such as the protocol detected from the URL — are registered through
:class:`ColumnKey`: a *named* single-valued record function, the only
way to group by a computed value.  The store evaluates it once per
record on first use and memoizes the codes under the key's name, so
every analysis that groups by the same derived key shares one
classification pass.  A derived function may return ``None`` for
out-of-scope records; those rows receive the sentinel code ``-1`` and
are excluded from group-bys.

Everything here is immutable after construction of the record tuple:
columns are only ever *added* to the caches, never changed, which is
why aggregation memoization in the dataset layer needs no invalidation.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Dict, Iterable, Optional, Tuple

import numpy as np

from repro.telemetry.records import ViewRecord

#: Sentinel code for records a derived column does not classify.
OUT_OF_SCOPE = -1


@dataclass(frozen=True)
class ColumnKey:
    """A named, single-valued derived column.

    ``name`` identifies the column in the store's cache (two keys with
    the same name must compute the same values); ``fn`` maps a record
    to a hashable value, or ``None`` when the record is out of scope.
    """

    name: str
    fn: Callable[[ViewRecord], object]

    def __repr__(self) -> str:  # fn identity is noise in test output
        return f"ColumnKey({self.name!r})"


def key_parts(
    key: "str | ColumnKey",
) -> Tuple[str, Callable[[ViewRecord], object]]:
    """(cache name, per-record value function) of a field or column key."""
    if isinstance(key, ColumnKey):
        return key.name, key.fn
    return key, attrgetter(key)


class ColumnStore:
    """Lazily materialized column arrays over one record tuple."""

    def __init__(self, records: Tuple[ViewRecord, ...]) -> None:
        self.records = records
        self._codes: Dict[str, Tuple[np.ndarray, Tuple[object, ...]]] = {}
        self._numeric: Dict[str, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self.records)

    # ------------------------------------------------------------------
    # Columns
    # ------------------------------------------------------------------

    def numeric(self, name: str) -> np.ndarray:
        """A float64 measure column (``view_hours`` or ``views``)."""
        column = self._numeric.get(name)
        if column is None:
            # map(attrgetter) keeps the extraction loop in C; the
            # view-hours product is then a vectorized multiply instead
            # of a per-record Python float multiplication.
            if name == "view_hours":
                column = self.numeric("views") * self._pull(
                    "view_duration_hours"
                )
            elif name == "views":
                column = self._pull("weight")
            else:
                raise KeyError(f"unknown numeric column {name!r}")
            self._numeric[name] = column
        return column

    def _pull(self, attr: str) -> np.ndarray:
        """Extract one float attribute across all records."""
        return np.fromiter(
            map(attrgetter(attr), self.records),
            dtype=np.float64,
            count=len(self.records),
        )

    def codes_for(
        self, key: "str | ColumnKey"
    ) -> Tuple[np.ndarray, Tuple[object, ...]]:
        """Interned codes for a field or derived column, memoized by name."""
        name, fn = key_parts(key)
        cached = self._codes.get(name)
        if cached is None:
            cached = self._intern(name, map(fn, self.records))
        return cached

    # ------------------------------------------------------------------
    # Internal
    # ------------------------------------------------------------------

    def _intern(
        self, name: str, values: Iterable[object]
    ) -> Tuple[np.ndarray, Tuple[object, ...]]:
        """Intern values to first-appearance codes, loops kept in C.

        ``dict.fromkeys`` collects the distinct values in first-
        appearance order without a Python-level loop; the code lookup
        then runs as ``map(lookup.__getitem__, ...)`` feeding
        ``np.fromiter``, so every pass over the record axis executes
        inside the interpreter's C machinery.  ``None`` (out of scope)
        is routed through the lookup table itself rather than a
        per-value branch.
        """
        materialized = list(values)
        uniques = dict.fromkeys(materialized)
        uniques.pop(None, None)
        lookup: Dict[object, int] = {
            value: code for code, value in enumerate(uniques)
        }
        ordered = tuple(lookup)
        lookup[None] = OUT_OF_SCOPE
        codes = np.fromiter(
            map(lookup.__getitem__, materialized),
            dtype=np.int64,
            count=len(self.records),
        )
        result = (codes, ordered)
        self._codes[name] = result
        return result


def grouped_sum(
    codes: np.ndarray,
    values: Tuple[object, ...],
    weights: np.ndarray,
    mask: Optional[np.ndarray],
) -> Dict[object, float]:
    """Sum ``weights`` per code under ``mask``; out-of-scope dropped.

    Groups with no in-scope record are absent from the result; groups
    that appear but sum to zero are kept at 0.0.
    """
    if mask is not None:
        codes = codes[mask]
        weights = weights[mask]
    in_scope = codes >= 0
    if not in_scope.all():
        codes = codes[in_scope]
        weights = weights[in_scope]
    sums = np.bincount(codes, weights=weights, minlength=len(values))
    present = np.bincount(codes, minlength=len(values))
    return {
        values[i]: float(sums[i]) for i in np.flatnonzero(present > 0)
    }


def distinct_pairs(
    codes_a: np.ndarray,
    n_a: int,
    codes_b: np.ndarray,
    n_b: int,
    mask: Optional[np.ndarray],
) -> np.ndarray:
    """Unique in-scope ``(a, b)`` code pairs, encoded as ``a * n_b + b``.

    Rows where either side is out of scope are dropped.  Used for
    "distinct publishers per value" and "distinct values per publisher"
    style counts without building per-group Python sets.
    """
    if mask is not None:
        codes_a = codes_a[mask]
        codes_b = codes_b[mask]
    in_scope = (codes_a >= 0) & (codes_b >= 0)
    combo = codes_a[in_scope] * np.int64(max(n_b, 1)) + codes_b[in_scope]
    return np.unique(combo)
