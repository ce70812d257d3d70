"""The snapshot file format: one header line + a checksummed JSON-lines body.

A snapshot is a UTF-8 text file::

    {"magic": "repro-snapshot", "schema": 1, "kind": ..., "model": ...,
     "body_lines": N, "body_sha256": "...", ...}
    ["tree", {...}]          <- body record 1
    ["node", [0, null, ...]] <- body record 2
    ...                      <- body record N

The first line is the *header*: a JSON object carrying the schema version,
what kind of state the body holds (a bare model or a whole serving
session), the parameters needed to rebuild the owning objects, provenance
(which trace trained it), and item counts for cheap inspection.  The
remaining ``body_lines`` lines are the *body*: one JSON record per line,
in a layer-defined order (see :mod:`repro.store.models` and
:func:`repro.service.session.snapshot_session`).

Integrity is verified on load:

* the header must parse, carry the right magic, and a known schema version;
* the body must have exactly ``body_lines`` lines (catches truncation);
* the SHA-256 of the exact body bytes must match ``body_sha256`` (catches
  bit rot and hand edits);
* every body line must parse as JSON.

All JSON is written canonically (sorted keys, compact separators, NaN
forbidden), so ``save -> load -> save`` is byte-stable — the property the
round-trip tests pin, and what makes snapshot checksums meaningful as
content addresses.

Writes are atomic: the file is written to a same-directory temp name,
fsync'd, then ``os.replace``-d into place, so a crashed or killed writer
can never leave a half-written snapshot behind at the target path.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Union

PathLike = Union[str, "os.PathLike[str]"]

MAGIC = "repro-snapshot"
SCHEMA_VERSION = 1

#: Snapshot kinds.  ``model`` bodies hold one predictor/tree; ``session``
#: bodies hold a whole serving session (model + engine runtime state);
#: ``base-model`` bodies are model bodies promoted to shared multi-tenant
#: bases (loaded once per worker, mmap-read); ``delta`` bodies hold one
#: session's copy-on-write overlay over a named base (see
#: :mod:`repro.tenancy`).
KIND_MODEL = "model"
KIND_SESSION = "session"
KIND_BASE = "base-model"
KIND_DELTA = "delta"


class SnapshotError(Exception):
    """Base class for everything the snapshot layer can raise."""


class SnapshotCorruptError(SnapshotError):
    """The file is not a well-formed snapshot: truncated, bit-flipped,
    hand-edited, or not a snapshot at all."""


class SnapshotVersionError(SnapshotError):
    """The file is a snapshot, but of a schema this code does not speak."""


def canonical_json(obj: Any) -> str:
    """Deterministic JSON encoding (sorted keys, compact, no NaN)."""
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True,
        allow_nan=False,
    )


@dataclass
class Snapshot:
    """A decoded snapshot: header metadata plus the body records.

    ``header`` holds everything except the integrity fields (``magic``,
    ``schema``, ``body_lines``, ``body_sha256``), which the codec owns.
    """

    kind: str
    model: str
    header: Dict[str, Any] = field(default_factory=dict)
    records: List[Any] = field(default_factory=list)

    @property
    def counts(self) -> Dict[str, Any]:
        return dict(self.header.get("counts", {}))

    @property
    def config(self) -> Dict[str, Any]:
        return dict(self.header.get("config", {}))

    @property
    def provenance(self) -> Dict[str, Any]:
        return dict(self.header.get("provenance", {}))


def _encode_body(records: List[Any]) -> bytes:
    lines = []
    for record in records:
        try:
            lines.append(canonical_json(record))
        except (TypeError, ValueError) as exc:
            raise SnapshotError(
                f"body record is not canonical-JSON-able: {exc}"
            ) from None
    return ("".join(line + "\n" for line in lines)).encode("utf-8")


def encode_snapshot(snapshot: Snapshot) -> bytes:
    """Serialize a snapshot to its on-disk byte form."""
    body = _encode_body(snapshot.records)
    header = dict(snapshot.header)
    header["magic"] = MAGIC
    header["schema"] = SCHEMA_VERSION
    header["kind"] = snapshot.kind
    header["model"] = snapshot.model
    header["body_lines"] = len(snapshot.records)
    header["body_sha256"] = hashlib.sha256(body).hexdigest()
    try:
        header_line = canonical_json(header)
    except (TypeError, ValueError) as exc:
        raise SnapshotError(f"header is not canonical-JSON-able: {exc}") from None
    return header_line.encode("utf-8") + b"\n" + body


def _parse_header_line(header_bytes: bytes) -> Dict[str, Any]:
    """Parse + validate the header line; returns the header dict."""
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotCorruptError(f"header is not valid JSON: {exc}") from None
    if not isinstance(header, dict) or header.get("magic") != MAGIC:
        raise SnapshotCorruptError(
            f"not a snapshot file (magic {header.get('magic')!r} "
            f"!= {MAGIC!r})" if isinstance(header, dict)
            else "not a snapshot file (header is not an object)"
        )
    schema = header.get("schema")
    if schema != SCHEMA_VERSION:
        raise SnapshotVersionError(
            f"snapshot schema {schema!r} is not supported "
            f"(this build reads schema {SCHEMA_VERSION})"
        )
    return header


def _finish_snapshot(header: Dict[str, Any], records: List[Any]) -> Snapshot:
    """Strip codec-owned fields and build the Snapshot object."""
    kind = str(header.pop("kind", ""))
    model = str(header.pop("model", ""))
    for key in ("magic", "schema", "body_lines", "body_sha256"):
        header.pop(key, None)
    return Snapshot(kind=kind, model=model, header=header, records=records)


def decode_snapshot(data: bytes) -> Snapshot:
    """Parse and verify on-disk bytes; raises on any integrity failure."""
    newline = data.find(b"\n")
    if newline < 0:
        raise SnapshotCorruptError("no header line (empty or truncated file)")
    header = _parse_header_line(data[:newline])
    body = data[newline + 1 :]
    expected_lines = header.get("body_lines")
    expected_sha = header.get("body_sha256")
    if not isinstance(expected_lines, int) or not isinstance(expected_sha, str):
        raise SnapshotCorruptError("header is missing the integrity fields")
    actual_sha = hashlib.sha256(body).hexdigest()
    if actual_sha != expected_sha:
        raise SnapshotCorruptError(
            f"body checksum mismatch: header says {expected_sha[:12]}..., "
            f"body hashes to {actual_sha[:12]}... (corrupt or edited)"
        )
    lines = body.split(b"\n")
    if lines and lines[-1] == b"":
        lines.pop()
    if len(lines) != expected_lines:
        raise SnapshotCorruptError(
            f"body has {len(lines)} lines, header says {expected_lines} "
            "(truncated file)"
        )
    records: List[Any] = []
    for i, line in enumerate(lines, start=2):
        try:
            records.append(json.loads(line.decode("utf-8")))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise SnapshotCorruptError(f"line {i} is not valid JSON: {exc}") from None
    return _finish_snapshot(header, records)


def atomic_write(path: PathLike, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically: a same-directory temp file,
    fsync'd, then ``os.replace``-d into place.  On any failure the temp
    file is removed and ``path`` is left as it was."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    tmp = os.path.join(directory, f".{os.path.basename(path)}.tmp-{os.getpid()}")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_snapshot(snapshot: Snapshot, path: PathLike) -> None:
    """Atomically write a snapshot (see :func:`atomic_write`)."""
    atomic_write(path, encode_snapshot(snapshot))


def read_snapshot(path: PathLike) -> Snapshot:
    """Read and verify a snapshot file.

    Raises :class:`SnapshotCorruptError` / :class:`SnapshotVersionError`
    for bad files and ``OSError`` (e.g. ``FileNotFoundError``) for I/O
    failures.
    """
    with open(path, "rb") as fh:
        return decode_snapshot(fh.read())


def read_snapshot_mmap(path: PathLike) -> Snapshot:
    """Read and verify a snapshot through a read-only memory map.

    Behaviourally identical to :func:`read_snapshot` (same integrity
    checks, same errors), but the file bytes are never copied wholesale
    into the process: the body checksum hashes the mapped pages directly
    and records are parsed line by line off the map.  For the multi-GB
    base-model snapshots the tenancy layer loads once per worker this
    keeps peak RSS at ~parsed-records instead of parsed-records plus a
    full byte copy of the file, and the mapped pages stay evictable,
    shared page cache.
    """
    import mmap

    with open(path, "rb") as fh:
        try:
            mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError:  # zero-length file cannot be mapped
            raise SnapshotCorruptError(
                "no header line (empty or truncated file)"
            ) from None
        with mm:
            newline = mm.find(b"\n")
            if newline < 0:
                raise SnapshotCorruptError(
                    "no header line (empty or truncated file)"
                )
            header = _parse_header_line(mm[:newline])
            expected_lines = header.get("body_lines")
            expected_sha = header.get("body_sha256")
            if not isinstance(expected_lines, int) or not isinstance(
                expected_sha, str
            ):
                raise SnapshotCorruptError(
                    "header is missing the integrity fields"
                )
            body_start = newline + 1
            with memoryview(mm) as view:
                actual_sha = hashlib.sha256(view[body_start:]).hexdigest()
            if actual_sha != expected_sha:
                raise SnapshotCorruptError(
                    f"body checksum mismatch: header says "
                    f"{expected_sha[:12]}..., body hashes to "
                    f"{actual_sha[:12]}... (corrupt or edited)"
                )
            records: List[Any] = []
            pos = body_start
            end = mm.size()
            lineno = 2
            while pos < end:
                nl = mm.find(b"\n", pos)
                if nl < 0:
                    nl = end
                try:
                    records.append(json.loads(mm[pos:nl].decode("utf-8")))
                except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                    raise SnapshotCorruptError(
                        f"line {lineno} is not valid JSON: {exc}"
                    ) from None
                pos = nl + 1
                lineno += 1
            if len(records) != expected_lines:
                raise SnapshotCorruptError(
                    f"body has {len(records)} lines, header says "
                    f"{expected_lines} (truncated file)"
                )
    return _finish_snapshot(header, records)


def read_header(path: PathLike) -> Dict[str, Any]:
    """Read only the header line (cheap inspection of a large snapshot).

    The body is *not* verified; use :func:`read_snapshot` before trusting
    the contents.
    """
    with open(path, "rb") as fh:
        return _parse_header_line(fh.readline())
