"""Tabular export of experiment series: CSV and JSON.

Experiment drivers expose their rows as plain sequences; these writers
keep the on-disk formats trivial (RFC-4180 CSV via the stdlib, one JSON
object with ``headers``/``rows`` keys) so results can be re-plotted or
diffed with any external tool.
"""

from __future__ import annotations

import csv
import json
from typing import IO, Dict, Iterable, List, Optional, Sequence, Union

from repro.errors import ReproError

__all__ = ["write_csv", "write_json"]


def _validated_rows(
    header: Sequence[str], rows: Iterable[Sequence[object]]
) -> List[Sequence[object]]:
    """Materialize ``rows``, checking each against the header width."""
    out: List[Sequence[object]] = []
    for row in rows:
        if len(row) != len(header):
            raise ReproError(
                f"row {len(out)} has {len(row)} fields, header has {len(header)}"
            )
        out.append(row)
    return out


def write_csv(
    destination: Union[str, IO[str]],
    header: Sequence[str],
    rows: Iterable[Sequence[object]],
) -> int:
    """Write ``rows`` with ``header`` to a path or file object.

    Returns the number of data rows written.  Row lengths are validated
    against the header so column drift in an experiment driver fails fast.
    """
    if not header:
        raise ReproError("CSV header must not be empty")

    data = _validated_rows(header, rows)

    def _write(handle: IO[str]) -> int:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(data)
        return len(data)

    if isinstance(destination, str):
        with open(destination, "w", encoding="utf-8", newline="") as handle:
            return _write(handle)
    return _write(destination)


def write_json(
    destination: Union[str, IO[str]],
    header: Sequence[str],
    rows: Iterable[Sequence[object]],
    metadata: Optional[Dict[str, object]] = None,
) -> int:
    """Write a table as one JSON object: ``{"headers", "rows", ...metadata}``.

    Cell values that are not JSON-native serialize via ``str``; metadata
    keys (e.g. a provenance block) merge into the top-level object and may
    not collide with ``headers``/``rows``.  Returns the data row count.
    """
    if not header:
        raise ReproError("JSON table header must not be empty")
    metadata = dict(metadata or {})
    for reserved in ("headers", "rows"):
        if reserved in metadata:
            raise ReproError(f"metadata key {reserved!r} is reserved")
    data = _validated_rows(header, rows)
    payload: Dict[str, object] = {
        "headers": [str(h) for h in header],
        "rows": [list(row) for row in data],
        **metadata,
    }

    def _write(handle: IO[str]) -> int:
        json.dump(payload, handle, indent=2, sort_keys=False, default=str)
        handle.write("\n")
        return len(data)

    if isinstance(destination, str):
        with open(destination, "w", encoding="utf-8") as handle:
            return _write(handle)
    return _write(destination)
