"""Schema-versioned JSON persistence of sweep results.

A stored document holds one or more sweeps, each a ``(spec, records)`` pair:

.. code-block:: json

    {
      "schema_version": 1,
      "sweeps": [
        {
          "spec": { "name": "figure1-d695_leon", ... },
          "spec_key": "<sha256 of the spec>",
          "records": [ { "index": 0, "system": "d695_leon", ... }, ... ]
        }
      ]
    }

Serialisation is canonical (sorted keys, fixed indentation, records in point
order), so running the same spec twice produces byte-identical files — the
determinism tests rely on this, and so can any downstream diffing.
:mod:`repro.analysis.sweeps` loads documents back for reporting.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from repro.errors import ResultStoreError
from repro.runner.atomic import atomic_write_text
from repro.runner.spec import SweepSpec

if TYPE_CHECKING:  # the engine is needed only to produce outcomes, not to store them
    from repro.runner.engine import SweepOutcome

#: Version of the on-disk result document format.
SCHEMA_VERSION = 1


@dataclass(frozen=True)
class StoredSweep:
    """One sweep loaded back from a result document."""

    spec: SweepSpec
    spec_key: str
    records: tuple[dict, ...]


def sweep_entry(spec: SweepSpec, outcomes: Sequence[SweepOutcome]) -> dict:
    """The document entry for one executed sweep."""
    records = [outcome.record() for outcome in outcomes]
    records.sort(key=lambda record: record["index"])
    return {
        "spec": spec.to_dict(),
        "spec_key": spec.content_key(),
        "records": records,
    }


def sweeps_document(entries: Sequence[tuple[SweepSpec, Sequence[SweepOutcome]]]) -> dict:
    """The full document for several executed sweeps."""
    return {
        "schema_version": SCHEMA_VERSION,
        "sweeps": [sweep_entry(spec, outcomes) for spec, outcomes in entries],
    }


def dump_sweep(spec: SweepSpec, outcomes: Sequence[SweepOutcome]) -> str:
    """Canonical JSON text for one executed sweep (deterministic)."""
    return dump_sweeps([(spec, outcomes)])


def dump_sweeps(entries: Sequence[tuple[SweepSpec, Sequence[SweepOutcome]]]) -> str:
    """Canonical JSON text for several executed sweeps (deterministic)."""
    return json.dumps(sweeps_document(entries), indent=2, sort_keys=True) + "\n"


def save_sweeps(
    path: str | Path, entries: Sequence[tuple[SweepSpec, Sequence[SweepOutcome]]]
) -> Path:
    """Write a result document to ``path`` (atomically) and return the path.

    The document is staged in a temporary file and moved into place with
    ``os.replace``, so a crash mid-write never leaves a truncated document
    that :func:`load_sweeps` would then reject.
    """
    return atomic_write_text(path, dump_sweeps(entries))


def stored_entry(sweep: StoredSweep) -> dict:
    """The document entry for one already-stored sweep (record dicts)."""
    records = sorted(sweep.records, key=lambda record: record.get("index", 0))
    return {
        "spec": sweep.spec.to_dict(),
        "spec_key": sweep.spec_key,
        "records": records,
    }


def dump_stored_sweeps(sweeps: Sequence[StoredSweep]) -> str:
    """Canonical JSON text for already-stored sweeps (deterministic)."""
    document = {
        "schema_version": SCHEMA_VERSION,
        "sweeps": [stored_entry(sweep) for sweep in sweeps],
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def save_stored_sweeps(path: str | Path, sweeps: Sequence[StoredSweep]) -> Path:
    """Write already-stored sweeps as a result document (atomically).

    This is the JSON export half of the sqlite migration path
    (:meth:`repro.runner.db.SweepDatabase.export_document`): a document
    exported from records equals the one :func:`save_sweeps` would have
    written for the original outcomes, byte for byte.
    """
    return atomic_write_text(path, dump_stored_sweeps(sweeps))


def load_sweeps(path: str | Path) -> list[StoredSweep]:
    """Load every sweep of a result document.

    Raises:
        ResultStoreError: when the file is missing, not JSON, or has an
            unsupported schema version or malformed entries.
    """
    target = Path(path)
    try:
        text = target.read_text(encoding="utf-8")
    except OSError as exc:
        raise ResultStoreError(f"cannot read result store {target}: {exc}") from exc
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ResultStoreError(f"result store {target} is not valid JSON: {exc}") from exc

    if not isinstance(document, dict):
        raise ResultStoreError(f"result store {target} must hold a JSON object")
    version = document.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ResultStoreError(
            f"result store {target} has schema version {version!r}; "
            f"this reader supports version {SCHEMA_VERSION}"
        )
    sweeps = document.get("sweeps")
    if not isinstance(sweeps, list):
        raise ResultStoreError(f"result store {target} has no 'sweeps' list")

    loaded: list[StoredSweep] = []
    for position, entry in enumerate(sweeps):
        if not isinstance(entry, dict):
            raise ResultStoreError(
                f"result store {target}: sweep entry {position} is not an object"
            )
        spec_data = entry.get("spec")
        records = entry.get("records")
        if not isinstance(spec_data, dict) or not isinstance(records, list):
            raise ResultStoreError(
                f"result store {target}: sweep entry {position} is malformed "
                "(needs 'spec' object and 'records' list)"
            )
        spec = SweepSpec.from_dict(spec_data)
        spec_key = str(entry.get("spec_key", spec.content_key()))
        # The stored key must match the spec it claims to describe: a stale
        # or tampered key would silently drive incremental re-runs to skip
        # the wrong points.
        if spec_key != spec.content_key():
            raise ResultStoreError(
                f"result store {target}: sweep entry {position} ({spec.name!r}) "
                f"has spec_key {spec_key[:12]}... but its spec hashes to "
                f"{spec.content_key()[:12]}...; refusing the inconsistent document"
            )
        loaded.append(
            StoredSweep(spec=spec, spec_key=spec_key, records=tuple(records))
        )
    return loaded
