"""Checksummed full-state snapshots.

A snapshot is one JSON file carrying every attached store's
``durable_snapshot()`` plus the LSN it covers; a SHA-256 over the
canonicalized stores payload detects bit rot.  Snapshots are written
through :func:`repro.durability.fs.fs_write_atomic` (temp + fsync +
rename), so a crash mid-snapshot leaves the previous snapshot intact —
recovery then simply replays a longer WAL suffix.
"""

from __future__ import annotations

import hashlib
import json

from repro.exceptions import DurabilityError

SNAPSHOT_NAME = "snapshot.json"


def _stores_digest(stores: dict) -> str:
    canonical = json.dumps(stores, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def write_snapshot(fs, lsn: int, stores: dict) -> int:
    """Atomically persist a snapshot; returns its size in bytes."""
    from repro.durability.fs import fs_write_atomic

    payload = json.dumps(
        {"lsn": lsn, "sha256": _stores_digest(stores), "stores": stores},
        sort_keys=True,
        ensure_ascii=False,
        separators=(",", ":"),
    ).encode("utf-8")
    try:
        fs_write_atomic(fs, SNAPSHOT_NAME, payload)
    except OSError as exc:
        raise DurabilityError(f"snapshot write failed: {exc}") from exc
    return len(payload)


def load_snapshot(fs) -> dict | None:
    """Load and verify the snapshot; ``None`` when none exists.

    Raises:
        DurabilityError: the file exists but fails verification —
            atomic writes rule out crash damage, so this is real
            corruption and silently ignoring it would resurrect an
            arbitrarily old state.
    """
    try:
        data = fs.read_bytes(SNAPSHOT_NAME)
    except FileNotFoundError:
        return None
    try:
        payload = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DurabilityError(
            f"snapshot {SNAPSHOT_NAME} is not valid JSON"
        ) from exc
    if not isinstance(payload, dict) or "stores" not in payload:
        raise DurabilityError(
            f"snapshot {SNAPSHOT_NAME} has no stores payload"
        )
    if payload.get("sha256") != _stores_digest(payload["stores"]):
        raise DurabilityError(
            f"snapshot {SNAPSHOT_NAME} failed checksum verification"
        )
    return payload
