"""Unified transactional storage (crash-consistent cross-store commits).

This package owns *all* persistence in the reproduction:

* :mod:`repro.storage.atomic` -- the fsync'd atomic-write helpers every
  file write in the repo must go through (lint: ``store/raw-atomic-write``).
* :mod:`repro.storage.faults` -- deterministic crash-point injection.
* :mod:`repro.storage.engine` -- the :class:`StorageEngine` that
  coordinates the property graph, search index, crawl state and SQL
  mirror under one journal with atomic cross-store commits and
  exactly-once ingest markers.
"""

from repro.storage.atomic import (
    atomic_write_bytes,
    atomic_write_text,
    fsync_directory,
)
from repro.storage.engine import (
    EngineTransaction,
    Participant,
    StorageEngine,
    StorageError,
)
from repro.storage.faults import (
    CRASH_POINTS,
    CrashInjector,
    InjectedCrash,
    NO_FAULTS,
    NoFaults,
)

__all__ = [
    "CRASH_POINTS",
    "CrashInjector",
    "EngineTransaction",
    "InjectedCrash",
    "NO_FAULTS",
    "NoFaults",
    "Participant",
    "StorageEngine",
    "StorageError",
    "atomic_write_bytes",
    "atomic_write_text",
    "fsync_directory",
]
