"""The append-only, checksummed write-ahead log.

On-disk framing, one record after another::

    b"WALR" | length:u32be | crc32(payload):u32be | payload (JSON, utf-8)

Records buffer in process memory until :meth:`WriteAheadLog.flush`,
which lands the whole batch in **one** append + **one** fsync — that is
the group commit: N commits amortize a single disk sync.  Replay scans
records front to back and stops at the first frame that does not check
out (bad magic, truncated frame, checksum mismatch, undecodable JSON);
everything before it is intact by construction, everything from it on
is a torn tail from an interrupted write and is physically truncated.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass, field

from repro.exceptions import DurabilityError

WAL_NAME = "wal.log"

_MAGIC = b"WALR"
_HEADER = struct.Struct(">4sII")


def encode_op(op: dict) -> bytes:
    """One journaled op as the JSON bytes its WAL record carries: keys
    sorted, no whitespace, UTF-8.

    Raises:
        TypeError: the op holds a value JSON cannot carry, or one it
            would carry lossily (see :func:`_refuse_lossy`).
        UnicodeEncodeError: a string holds a lone surrogate.
    """
    payload = json.dumps(
        op, sort_keys=True, ensure_ascii=False, separators=(",", ":")
    ).encode("utf-8")
    _refuse_lossy(op)
    return payload


def record_frame(lsn: int, ops: dict[str, list[bytes]]) -> bytes:
    """The framed record ``{"lsn": lsn, "ops": ops}`` spliced from each
    store's :func:`encode_op` bytes, stores in sorted name order: the
    bytes a whole-record ``json.dumps`` gives, with no op encoded again.
    """
    stores = b",".join(
        b"%b:[%b]"
        % (json.dumps(name, ensure_ascii=False).encode(), b",".join(ops[name]))
        for name in sorted(ops)
    )
    payload = b'{"lsn":%d,"ops":{%b}}' % (lsn, stores)
    return _HEADER.pack(_MAGIC, len(payload), zlib.crc32(payload)) + payload


def _refuse_lossy(op) -> None:
    """Raise ``TypeError`` at the first value that ``json.dumps``
    accepted but replay would not give back equal: a tuple (it decodes
    as a list) or a dict key that is not a ``str`` (it decodes as one).

    Called only after ``json.dumps`` succeeded, so the op holds no
    cycle and no leaf but ``str``, numbers, ``bool`` and ``None``.
    NaN and the infinities pass: they round-trip as ``NaN`` /
    ``Infinity``.
    """
    stack: list = [op]
    while stack:
        value = stack.pop()
        if isinstance(value, dict):
            for key in value:
                if not isinstance(key, str):
                    raise TypeError(
                        f"WAL record keys must be str, not {key!r}"
                    )
            stack.extend(value.values())
        elif isinstance(value, list):
            stack.extend(value)
        elif isinstance(value, tuple):
            raise TypeError(f"WAL records hold lists, not the tuple {value!r}")


@dataclass
class ReplayResult:
    """What a replay scan found."""

    records: list = field(default_factory=list)
    valid_bytes: int = 0
    torn: bool = False
    torn_reason: str = ""


def scan_records(data: bytes) -> ReplayResult:
    """Decode frames until the data ends or a frame fails to verify."""
    result = ReplayResult()
    offset = 0
    while offset < len(data):
        if offset + _HEADER.size > len(data):
            result.torn, result.torn_reason = True, "truncated header"
            break
        magic, length, crc = _HEADER.unpack_from(data, offset)
        if magic != _MAGIC:
            result.torn, result.torn_reason = True, "bad magic"
            break
        start = offset + _HEADER.size
        end = start + length
        if end > len(data):
            result.torn, result.torn_reason = True, "truncated payload"
            break
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            result.torn, result.torn_reason = True, "checksum mismatch"
            break
        try:
            record = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            result.torn, result.torn_reason = True, "undecodable payload"
            break
        result.records.append(record)
        result.valid_bytes = end
        offset = end
    return result


class WriteAheadLog:
    """Buffered appends to the log file (``WAL_NAME``) on a durability
    filesystem.

    Args:
        fs: filesystem (``OsFileSystem``, ``MemFS``, or an injector).
    """

    def __init__(self, fs):
        self.fs = fs
        self._buffer: list[bytes] = []
        self.bytes_written = 0

    def append(self, frame: bytes) -> None:
        """Buffer one framed record (durable only after :meth:`flush`)."""
        self._buffer.append(frame)

    def flush(self) -> None:
        """Group-commit the buffer: one append, one fsync.

        Raises:
            DurabilityError: the write or sync failed; the records in
                the failed batch must not be acknowledged.
        """
        if not self._buffer:
            return
        batch = b"".join(self._buffer)
        try:
            self.fs.append(WAL_NAME, batch)
            self.fs.fsync(WAL_NAME)
        except OSError as exc:
            raise DurabilityError(f"WAL flush failed: {exc}") from exc
        self._buffer.clear()
        self.bytes_written += len(batch)

    def replay(self, truncate_torn: bool = True) -> ReplayResult:
        """Scan the log; optionally truncate a torn tail in place."""
        try:
            data = self.fs.read_bytes(WAL_NAME)
        except FileNotFoundError:
            return ReplayResult()
        result = scan_records(data)
        if result.torn and truncate_torn:
            self.fs.truncate(WAL_NAME, result.valid_bytes)
        return result

    def reset(self) -> None:
        """Atomically replace the log with an empty one (post-snapshot)."""
        from repro.durability.fs import fs_write_atomic

        self._buffer.clear()
        try:
            fs_write_atomic(self.fs, WAL_NAME, b"")
        except OSError as exc:
            raise DurabilityError(f"WAL reset failed: {exc}") from exc
