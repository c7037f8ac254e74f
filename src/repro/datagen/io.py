"""CSV persistence for generated datasets.

The paper ships its synthetic benchmark as CSV files; this module writes and
reads the generated datasets in the same spirit so that an expensive
generation (or model predictions) can be cached on disk and shared.
"""

from __future__ import annotations

import csv
import dataclasses
from pathlib import Path

from repro.datagen.records import (
    CompanyRecord,
    Dataset,
    ProductRecord,
    Record,
    SecurityRecord,
)

_RECORD_TYPES: dict[str, type[Record]] = {
    "company": CompanyRecord,
    "security": SecurityRecord,
    "product": ProductRecord,
}
_TYPE_NAMES = {cls: name for name, cls in _RECORD_TYPES.items()}

_TUPLE_FIELDS = {"security_isins"}
_TUPLE_SEPARATOR = "|"

#: Columns every dataset CSV must have: the record type plus the fields
#: every record class requires (the ones without a default).
_REQUIRED_COLUMNS = ("record_type",) + tuple(
    f.name
    for f in dataclasses.fields(Record)
    if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
)


class DatasetFormatError(ValueError):
    """A dataset CSV that cannot be read, located by file, line and column
    (``column`` is ``None`` for problems of the file as a whole)."""

    def __init__(self, path: Path, line: int, column: str | None, problem: str) -> None:
        self.path = path
        self.line = line
        self.column = column
        where = f"{path}:{line}: " if column is None else f"{path}:{line}: column {column!r}: "
        super().__init__(where + problem)


def write_dataset_csv(dataset: Dataset, path: str | Path) -> Path:
    """Write ``dataset`` to a CSV file; returns the path written.

    A ``record_type`` column is added so mixed exports stay round-trippable;
    tuple-valued fields are joined with ``|``.
    """
    path = Path(path)
    records = dataset.records
    if not records:
        raise ValueError("cannot write an empty dataset")

    fieldnames: list[str] = ["record_type"]
    for record in records:
        for column in record.to_dict():
            if column not in fieldnames:
                fieldnames.append(column)

    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=fieldnames, restval="")
        writer.writeheader()
        for record in records:
            row = {"record_type": _TYPE_NAMES[type(record)]}
            for column, value in record.to_dict().items():
                if column in _TUPLE_FIELDS and isinstance(value, tuple):
                    row[column] = _TUPLE_SEPARATOR.join(value)
                elif value is None:
                    row[column] = ""
                else:
                    row[column] = value
            writer.writerow(row)
    return path


def read_dataset_csv(path: str | Path, name: str | None = None) -> Dataset:
    """Read a dataset previously written by :func:`write_dataset_csv`.

    Raises :class:`DatasetFormatError` naming the file, line and column when
    the header lacks a required column, a row is truncated, a row names an
    unknown record type or repeats an earlier row's ``record_id`` (records
    are keyed by id everywhere downstream), and naming the file when it
    holds no records at all.
    """
    path = Path(path)
    records: list[Record] = []
    first_line: dict[str, int] = {}
    with path.open("r", newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        header = reader.fieldnames
        if header is not None:
            for column in _REQUIRED_COLUMNS:
                if column not in header:
                    raise DatasetFormatError(path, 1, column, "missing from the header")
        for row in reader:
            missing = [column for column, value in row.items() if value is None]
            if missing:
                raise DatasetFormatError(
                    path,
                    reader.line_num,
                    missing[0],
                    f"missing: the row has {len(header) - len(missing)} of "
                    f"{len(header)} fields",
                )
            record_type = row.pop("record_type")
            record_class = _RECORD_TYPES.get(record_type)
            if record_class is None:
                raise DatasetFormatError(
                    path, reader.line_num, "record_type", f"unknown type {record_type!r}"
                )
            record_id = row["record_id"]
            if record_id in first_line:
                raise DatasetFormatError(
                    path,
                    reader.line_num,
                    "record_id",
                    f"duplicate id {record_id!r} (first on line {first_line[record_id]})",
                )
            first_line[record_id] = reader.line_num
            records.append(_row_to_record(record_class, row))
    if not records:
        raise DatasetFormatError(path, 1, None, "no records (the file has no data rows)")
    return Dataset(name or path.stem, records)


def _row_to_record(record_class: type[Record], row: dict[str, str]) -> Record:
    kwargs: dict[str, object] = {}
    field_names = {f.name for f in dataclasses.fields(record_class)}
    for column, raw in row.items():
        if column not in field_names:
            continue
        if column in _TUPLE_FIELDS:
            kwargs[column] = tuple(part for part in raw.split(_TUPLE_SEPARATOR) if part)
        elif raw == "":
            # Required string fields keep "", optional fields become None.
            kwargs[column] = "" if column in ("record_id", "source", "entity_id", "name",
                                              "title", "security_type") else None
        else:
            kwargs[column] = raw
    return record_class(**kwargs)  # type: ignore[arg-type]
