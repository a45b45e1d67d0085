"""Per-item encoding memos for snapshot text.

A store that serialises many items keeps one ``key -> text`` dict and
drops a key wherever that item changes; :func:`memoised` fills the
misses, so a snapshot re-encodes only what changed since the last one.
"""

from __future__ import annotations

from typing import Callable, Iterable


def memoised(memo: dict, items: Iterable[tuple], encode: Callable) -> list:
    """``encode(key, item)`` for each ``(key, item)``, memoised in
    ``memo`` by key; the owner drops a key whenever its item changes."""
    texts = []
    for key, item in items:
        text = memo.get(key)
        if text is None:
            text = memo[key] = encode(key, item)
        texts.append(text)
    return texts
