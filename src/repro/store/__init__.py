"""Persistent model state: snapshots, warm starts, and the model registry.

The paper's prefetch tree is an online model that only pays off once warmed
up, yet the simulator and the advisory service historically started every
run from an empty model.  This package makes model state a first-class
artifact (cf. MITHRIL's managed association state):

* :mod:`repro.store.codec` — the versioned, checksummed snapshot file
  format (header line + JSON-lines body, atomic writes, corruption
  detection on load);
* :mod:`repro.store.models` — ``model``-kind snapshots of any
  ``Snapshotable`` (the prefetch tree and every predictor);
* :mod:`repro.store.registry` — :class:`ModelStore`, an on-disk directory
  of named, versioned snapshot entries (``tree-cad@3``).

``session``-kind snapshots of a whole live session, which resume
decision-identically, are written and read by the session itself
(:func:`repro.service.session.snapshot_session` and
:func:`~repro.service.session.restore_session`); this package imports
nothing from :mod:`repro.service`.

See ``docs/PERSISTENCE.md`` for the format spec and the parity guarantee.
"""

from repro.store.codec import (
    KIND_MODEL,
    KIND_SESSION,
    SCHEMA_VERSION,
    Snapshot,
    SnapshotCorruptError,
    SnapshotError,
    SnapshotVersionError,
    read_header,
    read_snapshot,
    write_snapshot,
)
from repro.store.models import Snapshotable, model_snapshot, restore_model
from repro.store.registry import ModelStore, ModelStoreError, parse_spec

__all__ = [
    "KIND_MODEL",
    "KIND_SESSION",
    "ModelStore",
    "ModelStoreError",
    "SCHEMA_VERSION",
    "Snapshot",
    "SnapshotCorruptError",
    "SnapshotError",
    "SnapshotVersionError",
    "Snapshotable",
    "model_snapshot",
    "parse_spec",
    "read_header",
    "read_snapshot",
    "restore_model",
    "write_snapshot",
]
