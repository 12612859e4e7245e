"""Deterministic JSON: the one encoding behind every content address."""

from __future__ import annotations

import json


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, compact separators, ASCII-safe.

    The one encoding used everywhere bytes must be reproducible —
    compile-service cache keys, native-store keys, artifact files.  Two
    structurally equal objects always encode to the same string, so
    hashing the result is a sound content address.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True)
