"""JSONL persistence and schema-version helpers shared by all pipeline artifacts.

Every artifact row carries a ``schema`` tag; readers reject rows whose tag
does not match the expected version instead of coercing them.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Iterable, Iterator

__all__ = ["SchemaError", "write_jsonl", "read_jsonl", "config_digest"]


class SchemaError(ValueError):
    """Artifact schema tag is missing or not the expected version."""


def write_jsonl(path: str | Path, records: Iterable[dict], schema: str) -> int:
    """Write records to a JSON Lines file, tagging each row with ``schema``.

    Returns the number of rows written. Output is byte-deterministic for a
    given record sequence (insertion-ordered keys, no whitespace variation)
    and strict JSON: a NaN or infinite value raises ``ValueError`` and
    leaves no file behind.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    n = 0
    try:
        with path.open("w", encoding="utf-8") as fh:
            for rec in records:
                row = {"schema": schema}
                row.update(rec)
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
            rec = json.loads(line)
            tag = rec.get("schema")
            if tag != schema:
                raise SchemaError(
                    f"{path}:{lineno}: expected schema {schema!r}, found {tag!r}"
                )
            yield rec


def config_digest(config: dict) -> str:
    """Stable sha256 digest of a configuration mapping (for run manifests)."""
    blob = json.dumps(config, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()
