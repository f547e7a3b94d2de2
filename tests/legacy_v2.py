"""Hand-written legacy (version 2) store directories.

Checkpoints write only the paged v3 manifest.  A version-2 snapshot —
records inline in ``snapshot.json`` — is still read once and upgraded by
the next checkpoint, so tests, ``benchmarks/bench_paged.py`` and the CI
upgrade smoke build such directories here, by hand, in the layout the
old writer produced.

Usage from the repository root::

    python -c "from tests.legacy_v2 import write_v2_store; write_v2_store('db', [...])"
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.storage.store import records_checksum
from repro.storage.wal import WriteAheadLog


def write_v2_store(
    directory: Path | str,
    records: Iterable[Mapping[str, Any]],
    *,
    wal_seal: int = 1,
    indexes: Iterable[Mapping[str, Any]] = (),
    tail: Iterable[Mapping[str, Any]] = (),
) -> Path:
    """Write a v2 ``snapshot.json`` holding ``records`` inline.

    ``wal_seal`` is the WAL segment the snapshot claims to cover (the
    default 1 is what a first checkpoint published: it sealed segment 1
    and deleted it).  ``tail`` records are appended as ``put`` entries
    to the active WAL, so recovery replays them on top of the snapshot.
    Returns the snapshot path.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rows = [dict(record) for record in records]
    state = {
        "version": 2,
        "wal_seal": wal_seal,
        "record_count": len(rows),
        "checksum": records_checksum(rows),
        "records": rows,
        "indexes": [dict(index) for index in indexes],
    }
    path = directory / "snapshot.json"
    path.write_text(json.dumps(state, ensure_ascii=False), encoding="utf-8")
    with WriteAheadLog(directory / "store.wal", seal_floor=wal_seal) as wal:
        for record in tail:
            wal.append({"op": "put", "record": dict(record)})
    return path
