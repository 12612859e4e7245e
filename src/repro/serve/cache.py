"""Content-addressed artifact cache for the compile service.

The cache key is a sha256 over the *complete semantic input* of a
compile: the source text, the optimization level, the canonicalized
:class:`~repro.transform.pipeline.OptimizeOptions`, and — for PGO — a
digest of the profile (or of the training workload that determines it).
Everything the pipeline's output depends on is in the key; nothing
else is.  A request's ``options`` may name only the fields the key
covers (:data:`WIRE_OPTIONS`).  The operational field ``pass_hook`` is
set only from a ``fault`` request, so a request naming it is rejected
like any unknown name: a client cannot change artifacts behind an
unchanged key.

Layout: an in-memory LRU (dict-ordered, capped by entry count) in
front of an on-disk object store ``<cache_dir>/objects/<k[:2]>/<k>.json``
— the git-style fan-out keeps directories small.  Both tiers hold an
entry as its canonical JSON text, encoded once by :meth:`ArtifactCache.put`;
the server splices that text into replies verbatim
(:class:`~repro.serve.protocol.RawJSON`), so a hit does no JSON work on
the artifacts.  Disk writes are atomic (tmp + rename) so a killed
server never leaves a torn object, and a disk hit is parsed and
re-encoded before it is promoted into memory: an object that does not
decode to a JSON object is a miss, never a reply.  The disk tier is
best-effort: a write the store refuses (full disk, quota, read-only
mount) leaves the entry in memory, removes its temp file and counts in
``disk_write_errors``; the compile is still answered.

The store is shared-nothing-safe: entries are immutable once written
(content-addressed), so concurrent servers on one directory can only
race to write identical bytes.

Disk growth is bounded by an optional mtime-LRU sweep
(``max_bytes``): every ``GC_PUT_INTERVAL`` writes the owning server
scans the object store and unlinks the least-recently-used objects
until usage falls under a low watermark.  Hits refresh an object's
mtime, so hot entries survive.  The sweep is safe under concurrent
shards sharing one store: deletes are single atomic ``unlink`` calls,
a racing reader that loses simply takes a miss and recompiles, and a
racing sweeper that loses an ``unlink`` ignores the ``ENOENT``.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
import time
from pathlib import Path

from ..core.canonical import canonical_json

CACHE_FORMAT = 1

# The OptimizeOptions fields a request may carry, at their defaults:
# every one reaches the key.  Data, not an import of the pipeline, so
# the router derives keys without loading the compiler; a test pins it
# to ``OptimizeOptions()``.  ``pass_hook`` is operational, a callable
# no wire can carry.
_WIRE_DEFAULTS = {
    "mem_opt": True, "verify_each_pass": False, "strict": False,
    "growth_cap_factor": 64.0, "growth_cap_floor": 4096,
}
WIRE_OPTIONS = frozenset(_WIRE_DEFAULTS)

# Retired OptimizeOptions fields, at the value the pipeline now always
# uses.  They stay in the key material so every stored artifact keeps
# its address; requests naming them are rejected like any unknown field.
_RETIRED_OPTIONS = {
    "cache_analyses": True, "incremental": True,
    "checkpoint_granularity": "phase",
    "max_rounds": 8, "inline_size_threshold": 40, "inline_budget": 256,
    "pe_budget": 512, "closure_budget": 512, "drop_budget": 256,
    "mem_opt_budget": 2048, "pgo_call_min_count": 4,
    "pgo_hot_call_fraction": 0.05, "pgo_inline_budget": 32,
    "pgo_loop_min_count": 32, "pgo_loop_budget": 16,
    "pass_deadline": None,
}

# Distinct override sets whose canonical options stay memoized.  Real
# traffic sends a handful (mostly none at all); the bound keeps a client
# cycling through option values from growing the memo without limit.
OPTIONS_MEMO_ENTRIES = 64


def canonical_options(overrides: dict | None = None) -> dict:
    """Defaults + *overrides* as a stable, artifact-relevant dict.

    Override names outside :data:`WIRE_OPTIONS` raise ``ValueError``
    (surfaces as a bad-request to clients), operational and retired
    names included.  Results are memoized by the canonical JSON of the
    overrides, so ``1``, ``1.0`` and ``true`` stay distinct.
    """
    overrides = overrides or {}
    unknown = set(overrides) - WIRE_OPTIONS
    if unknown:
        raise ValueError(f"unknown option(s): {', '.join(sorted(unknown))} "
                         f"(a request may set "
                         f"{', '.join(sorted(WIRE_OPTIONS))})")
    return dict(_canonical_options(canonical_json(overrides)))


@functools.lru_cache(maxsize=OPTIONS_MEMO_ENTRIES)
def _canonical_options(overrides_json: str) -> dict:
    return {**_WIRE_DEFAULTS, **json.loads(overrides_json),
            **_RETIRED_OPTIONS}


def profile_digest(request: dict) -> str | None:
    """Digest of whatever determines the PGO profile, or ``None``.

    An explicit precollected profile is hashed directly.  A training
    workload (``entry`` + ``train_args``) determines the profile
    deterministically — the VM is deterministic — so hashing the
    workload description is equivalent to hashing the profile it will
    produce.
    """
    if request.get("opt") != "pgo":
        return None
    profile = request.get("profile")
    if profile is not None:
        payload = {"profile": profile}
    else:
        payload = {"entry": request.get("entry"),
                   "train_args": request.get("train_args")}
    return hashlib.sha256(
        canonical_json(payload).encode("utf-8")).hexdigest()


def cache_key(request: dict) -> str:
    """The content address of a validated compile request."""
    material = {
        "format": CACHE_FORMAT,
        "source": request["source"],
        "opt": request.get("opt", "static"),
        "options": canonical_options(request.get("options")),
        "profile": profile_digest(request),
    }
    return hashlib.sha256(
        canonical_json(material).encode("utf-8")).hexdigest()


def run_cache_key(request: dict) -> str:
    """The tiering key of a validated run request.

    Deliberately excludes the argument lists: hotness must accumulate
    across calls with different inputs, and one compiled artifact
    (VM image or ``.so``) serves them all.
    """
    material = {
        "format": CACHE_FORMAT,
        "kind": "run",
        "source": request["source"],
        "entry": request["entry"],
        "options": canonical_options(request.get("options")),
    }
    return hashlib.sha256(
        canonical_json(material).encode("utf-8")).hexdigest()


# Disk GC cadence: one sweep per this many object writes.  A sweep is
# a directory scan, so amortize it; the store can overshoot max_bytes
# by at most GC_PUT_INTERVAL objects between sweeps.
GC_PUT_INTERVAL = 16

# Sweep down to this fraction of max_bytes so back-to-back puts don't
# re-trigger a full scan each time.
GC_LOW_WATERMARK = 0.8

# Orphaned .tmp files (a writer died between write and rename) older
# than this are reclaimed by the sweep.
GC_STALE_TMP_SECONDS = 600.0


class ArtifactCache:
    """In-memory LRU over an on-disk content-addressed object store."""

    def __init__(self, cache_dir: str | Path | None,
                 memory_entries: int = 128,
                 max_bytes: int | None = None):
        self.root = None if cache_dir is None else Path(cache_dir)
        self.memory_entries = memory_entries
        self.max_bytes = max_bytes
        # key -> canonical JSON text; insertion order = LRU order
        self._memory: dict[str, str] = {}
        self.hits_memory = 0
        self.hits_disk = 0
        self.misses = 0
        self.evictions = 0
        self.evicted_bytes = 0
        self.gc_sweeps = 0
        self.disk_write_errors = 0
        # Sweep on the very first put, then every GC_PUT_INTERVAL.
        self._puts_since_gc = GC_PUT_INTERVAL - 1

    def _object_path(self, key: str) -> Path:
        return self.root / "objects" / key[:2] / f"{key}.json"

    def get(self, key: str) -> tuple[str, str] | None:
        """Look *key* up; returns ``(text, tier)`` or ``None``.

        *text* is the entry's canonical JSON.  ``tier`` is ``"memory"``
        or ``"disk"``; a disk hit is promoted into the in-memory LRU on
        the way out, and an object that does not parse as a JSON object
        (torn, truncated, foreign) counts as a miss.
        """
        text = self._memory.pop(key, None)
        if text is not None:
            self._memory[key] = text  # re-insert at the MRU end
            self.hits_memory += 1
            return text, "memory"
        if self.root is not None:
            path = self._object_path(key)
            try:
                entry = json.loads(path.read_text())
            except (OSError, ValueError):
                entry = None
            if isinstance(entry, dict):
                self.hits_disk += 1
                try:  # LRU touch: a hit must survive the next GC sweep
                    os.utime(path)
                except OSError:
                    pass  # concurrently evicted; the entry is in memory now
                # Re-encoded, so memory only ever holds text this
                # version wrote: the server splices it unchecked.
                text = canonical_json(entry)
                self._remember(key, text)
                return text, "disk"
        self.misses += 1
        return None

    def put(self, key: str, entry: dict) -> str:
        """Store *entry*; returns its canonical JSON text."""
        text = canonical_json(entry)
        self._remember(key, text)
        if self.root is None:
            return text
        path = self._object_path(key)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_text(text)
            os.replace(tmp, path)
        except OSError:  # ENOSPC, EDQUOT, EROFS, ...: memory only
            self.disk_write_errors += 1
            with contextlib.suppress(OSError):
                tmp.unlink()
            return text
        if self.max_bytes is not None:
            self._puts_since_gc += 1
            if self._puts_since_gc >= GC_PUT_INTERVAL:
                self.gc()
        return text

    # -- disk eviction ------------------------------------------------------

    def disk_usage(self) -> int:
        """Bytes currently held by the on-disk object store."""
        if self.root is None:
            return 0
        total = 0
        for path in (self.root / "objects").glob("*/*.json"):
            try:
                total += path.stat().st_size
            except OSError:
                pass  # racing sweeper on a shared store
        return total

    def gc(self, max_bytes: int | None = None) -> dict:
        """One mtime-LRU sweep; returns what it did.

        Oldest objects go first until usage is under the low
        watermark.  Every delete is one atomic ``unlink``; ``ENOENT``
        (a concurrent shard swept the same file) is not an error.
        """
        budget = self.max_bytes if max_bytes is None else max_bytes
        self._puts_since_gc = 0
        if self.root is None or budget is None:
            return {"evicted": 0, "evicted_bytes": 0, "disk_bytes": 0}
        self.gc_sweeps += 1
        now = time.time()
        entries: list[tuple[float, int, Path]] = []
        total = 0
        for path in (self.root / "objects").glob("*/*"):
            try:
                stat = path.stat()
            except OSError:
                continue
            if path.name.endswith(".json"):
                entries.append((stat.st_mtime, stat.st_size, path))
                total += stat.st_size
            elif (".tmp." in path.name
                  and now - stat.st_mtime > GC_STALE_TMP_SECONDS):
                # A writer died between write and rename; reclaim.
                try:
                    path.unlink()
                except OSError:
                    pass
        disk_bytes = total
        evicted = evicted_bytes = 0
        if total > budget:
            target = int(budget * GC_LOW_WATERMARK)
            entries.sort()  # oldest mtime first
            for _, size, path in entries:
                if total <= target:
                    break
                try:
                    path.unlink()
                except FileNotFoundError:
                    total -= size  # another shard beat us to it
                    continue
                except OSError:
                    continue
                total -= size
                evicted += 1
                evicted_bytes += size
        self.evictions += evicted
        self.evicted_bytes += evicted_bytes
        return {"evicted": evicted, "evicted_bytes": evicted_bytes,
                "disk_bytes": disk_bytes - evicted_bytes}

    def _remember(self, key: str, text: str) -> None:
        self._memory.pop(key, None)
        self._memory[key] = text
        while len(self._memory) > self.memory_entries:
            self._memory.pop(next(iter(self._memory)))

    def stats(self) -> dict:
        total = self.hits_memory + self.hits_disk + self.misses
        return {
            "memory_entries": len(self._memory),
            "hits_memory": self.hits_memory,
            "hits_disk": self.hits_disk,
            "misses": self.misses,
            "hit_rate": (0.0 if not total
                         else round((self.hits_memory + self.hits_disk)
                                    / total, 4)),
            "evictions": self.evictions,
            "evicted_bytes": self.evicted_bytes,
            "gc_sweeps": self.gc_sweeps,
            "disk_write_errors": self.disk_write_errors,
        }
