"""JSONL persistence and schema-version helpers shared by all pipeline artifacts.

Every artifact row carries a ``schema`` tag, which only the writer sets;
readers refuse a line that is not a JSON object or has another tag. Traces and
teacher records share one codec for flat dataclasses, ``write_rows`` and
``read_rows``, which also refuses a row whose keys are not the fields.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields
from pathlib import Path
from typing import Iterable, Iterator, TypeVar

__all__ = ["SchemaError", "write_jsonl", "read_jsonl", "write_rows", "read_rows", "config_digest"]

T = TypeVar("T")


class SchemaError(ValueError):
    """Artifact line is not a JSON object, or its schema tag is not the expected one."""


def write_jsonl(path: str | Path, records: Iterable[dict], schema: str) -> int:
    """Write records to a JSON Lines file, tagging each row with ``schema``.

    Returns the number of rows written. Output is byte-deterministic for a
    given record sequence (insertion-ordered keys, no whitespace variation)
    and strict JSON: a NaN or infinite value, or a record with its own
    ``schema`` key, raises ``ValueError`` and leaves no file behind.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    n = 0
    try:
        with path.open("w", encoding="utf-8") as fh:
            for rec in records:
                if "schema" in rec:
                    raise ValueError(f"record {n + 1} has its own schema key")
                row = {"schema": schema, **rec}
                fh.write(json.dumps(row, separators=(",", ":"), allow_nan=False) + "\n")
                n += 1
    except Exception:
        path.unlink()
        raise
    return n


def read_jsonl(path: str | Path, schema: str) -> Iterator[dict]:
    """Yield rows of a JSON Lines file, enforcing the expected schema tag."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                rec = None  # refused below, as any line that is not an object
            if not isinstance(rec, dict):
                raise SchemaError(f"{path}:{lineno}: not a JSON object: {line.strip()[:40]!r}")
            tag = rec.get("schema")
            if tag != schema:
                raise SchemaError(f"{path}:{lineno}: expected schema {schema!r}, found {tag!r}")
            yield rec


def write_rows(path: str | Path, items: Iterable, schema: str) -> int:
    """Write flat dataclasses as ``schema`` rows, one per item: the fields in
    declaration order, tuples as JSON arrays. Returns the number of rows."""
    return write_jsonl(
        path, ({f.name: getattr(item, f.name) for f in fields(item)} for item in items), schema
    )


def read_rows(path: str | Path, cls: type[T], schema: str) -> list[T]:
    """Read ``write_rows``'s rows back as ``cls`` items, JSON arrays as tuples.

    A row whose keys are not exactly ``cls``'s fields raises ``SchemaError``
    naming the missing and the extra keys.
    """
    expected = {"schema", *(f.name for f in fields(cls))}
    items = []
    for n, rec in enumerate(read_jsonl(path, schema), 1):
        if rec.keys() != expected:
            missing, extra = sorted(expected - rec.keys()), sorted(rec.keys() - expected)
            raise SchemaError(
                f"{path}: row {n} is not a {schema} {cls.__name__}: "
                f"missing keys {missing}, extra keys {extra}"
            )
        del rec["schema"]
        items.append(cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in rec.items()}))
    return items


def config_digest(config: dict) -> str:
    """Stable sha256 digest of a configuration mapping (for run manifests)."""
    blob = json.dumps(config, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()
