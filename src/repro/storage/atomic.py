"""Durable atomic file writes.

The one sanctioned way to persist a file in this codebase (enforced by
the ``store/raw-atomic-write`` lint rule): write a sibling temp file,
flush and ``fsync`` it, rename it over the target, then ``fsync`` the
directory so the rename itself survives a power cut.  A bare
``write_text`` + ``replace`` gives atomicity against a crashed *writer*
but not durability against a crashed *host* -- after the rename the new
inode's data may still sit in the page cache.

The temp name is ``<name>.tmp`` appended to the full filename (not
``with_suffix``), so ``crawl_state.json`` and ``crawl_state.yaml``
cannot collide on one ``crawl_state.tmp``.
"""

from __future__ import annotations

import os
from pathlib import Path


def fsync_directory(path: Path) -> None:
    """Best-effort fsync of a directory (makes renames in it durable)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # platforms/filesystems without directory fds
        return
    try:
        os.fsync(fd)
    except OSError:
        pass  # repro: allow[silent-swallow] -- durability hint only
    finally:
        os.close(fd)


def atomic_write_bytes(path: str | Path, data: bytes, fsync: bool = True) -> None:
    """Atomically (and, by default, durably) replace ``path`` with ``data``."""
    path = Path(path)
    tmp = path.parent / (path.name + ".tmp")
    with tmp.open("wb") as handle:
        handle.write(data)
        handle.flush()
        if fsync:
            os.fsync(handle.fileno())
    os.replace(tmp, path)
    if fsync:
        fsync_directory(path.parent)


def atomic_write_text(path: str | Path, text: str, fsync: bool = True) -> None:
    """Atomically replace ``path`` with ``text`` as UTF-8 (see
    :func:`atomic_write_bytes`)."""
    atomic_write_bytes(path, text.encode("utf-8"), fsync=fsync)


__all__ = [
    "atomic_write_bytes",
    "atomic_write_text",
    "fsync_directory",
]
