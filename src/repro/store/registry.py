"""On-disk model registry: named, versioned snapshot entries.

Layout under the registry root::

    MANIFEST.json              # index of every entry (atomic rewrite)
    <name>/1.snap              # immutable snapshot files, one per version
    <name>/2.snap

Saving under an existing name allocates the next version; versions are
never overwritten or renumbered, so a reference like ``tree-cad@3`` stays
valid for the registry's lifetime.  ``load("tree-cad")`` resolves to the
latest version.  Both the manifest and snapshot files are written with the
temp-file + rename discipline, so a crashed save leaves either the old
registry state or the new one, never a torn file.
"""

from __future__ import annotations

import json
import os
import re
from typing import Any, Dict, List, Optional, Tuple

from repro.store.codec import (
    PathLike,
    Snapshot,
    SnapshotError,
    atomic_write,
    read_snapshot,
    write_snapshot,
)

MANIFEST_NAME = "MANIFEST.json"

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")
_SPEC_RE = re.compile(r"^(?P<name>[^@]+)(?:@(?P<version>\d+))?$")


class ModelStoreError(SnapshotError):
    """Registry-level failure: unknown name/version, bad manifest, ..."""


def parse_spec(spec: str) -> Tuple[str, Optional[int]]:
    """Split ``name[@version]``; version ``None`` means latest."""
    match = _SPEC_RE.match(spec)
    if match is None or not _NAME_RE.match(match.group("name")):
        raise ModelStoreError(
            f"bad model spec {spec!r} (expected NAME or NAME@VERSION, "
            "name charset [A-Za-z0-9._-])"
        )
    version = match.group("version")
    return match.group("name"), int(version) if version is not None else None


class ModelStore:
    """A directory of named, versioned snapshots."""

    def __init__(self, root: PathLike) -> None:
        self.root = os.fspath(root)
        os.makedirs(self.root, exist_ok=True)

    # ------------------------------------------------------------ manifest

    @property
    def _manifest_path(self) -> str:
        return os.path.join(self.root, MANIFEST_NAME)

    def _read_manifest(self) -> Dict[str, Any]:
        try:
            with open(self._manifest_path, "r", encoding="utf-8") as fh:
                manifest = json.load(fh)
        except FileNotFoundError:
            return {"entries": {}}
        except (OSError, json.JSONDecodeError) as exc:
            raise ModelStoreError(
                f"cannot read registry manifest {self._manifest_path}: {exc}"
            ) from None
        if not isinstance(manifest, dict) or not isinstance(
            manifest.get("entries"), dict
        ):
            raise ModelStoreError(
                f"registry manifest {self._manifest_path} is malformed"
            )
        return manifest

    def _write_manifest(self, manifest: Dict[str, Any]) -> None:
        text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        atomic_write(self._manifest_path, text.encode("utf-8"))

    # ------------------------------------------------------------- save

    def save(self, name: str, snapshot: Snapshot) -> int:
        """Store ``snapshot`` under ``name``; returns the assigned version."""
        if not _NAME_RE.match(name):
            raise ModelStoreError(
                f"bad model name {name!r} (charset [A-Za-z0-9._-], "
                "must not start with a dot)"
            )
        manifest = self._read_manifest()
        entry = manifest["entries"].setdefault(
            name, {"versions": [], "latest": 0}
        )
        version = int(entry["latest"]) + 1
        rel_path = os.path.join(name, f"{version}.snap")
        os.makedirs(os.path.join(self.root, name), exist_ok=True)
        write_snapshot(snapshot, os.path.join(self.root, rel_path))
        entry["versions"].append({
            "version": version,
            "file": rel_path,
            "kind": snapshot.kind,
            "model": snapshot.model,
            "counts": snapshot.counts,
        })
        entry["latest"] = version
        self._write_manifest(manifest)
        return version

    # ------------------------------------------------------------- load

    def resolve(self, spec: str) -> Tuple[str, int, str]:
        """Resolve ``name[@version]`` to ``(name, version, absolute path)``."""
        name, version = parse_spec(spec)
        manifest = self._read_manifest()
        entry = manifest["entries"].get(name)
        if entry is None:
            known = ", ".join(sorted(manifest["entries"])) or "(registry empty)"
            raise ModelStoreError(
                f"no model named {name!r} in {self.root} (known: {known})"
            )
        if version is None:
            version = int(entry["latest"])
        for record in entry["versions"]:
            if int(record["version"]) == version:
                return name, version, os.path.join(self.root, record["file"])
        raise ModelStoreError(
            f"model {name!r} has no version {version} "
            f"(latest is {entry['latest']})"
        )

    def load(self, spec: str) -> Snapshot:
        """Read and verify the snapshot for ``name[@version]``."""
        _, _, path = self.resolve(spec)
        try:
            return read_snapshot(path)
        except FileNotFoundError:
            raise ModelStoreError(
                f"registry file missing for {spec!r}: {path}"
            ) from None

    # ------------------------------------------------------------ queries

    def list_entries(self) -> List[Dict[str, Any]]:
        """Every stored version: name, version, kind, model, counts."""
        manifest = self._read_manifest()
        rows: List[Dict[str, Any]] = []
        for name in sorted(manifest["entries"]):
            entry = manifest["entries"][name]
            for record in entry["versions"]:
                rows.append({
                    "name": name,
                    "version": int(record["version"]),
                    "kind": record.get("kind", ""),
                    "model": record.get("model", ""),
                    "counts": dict(record.get("counts", {})),
                    "latest": int(record["version"]) == int(entry["latest"]),
                })
        return rows

    def versions(self, name: str) -> List[int]:
        manifest = self._read_manifest()
        entry = manifest["entries"].get(name)
        if entry is None:
            return []
        return [int(r["version"]) for r in entry["versions"]]
