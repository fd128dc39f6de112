"""Decoded-chunk cache: byte-budgeted LRU with single-flight decode deduplication.

Region reads hit the same chunks over and over (a user panning across a field,
a dashboard refreshing a zoom window), and decompression dominates read
latency.  :class:`SharedChunkCache` is the one cache class of the store, used
in two roles:

- every :class:`~repro.store.reader.ChunkFetcher` owns a *private* instance
  (a reader's is sized by ``cache_bytes``, the writer's anchor cache by a
  fixed 32 MiB); it holds full decodes when no shared cache is given, and
  always holds the reader's progressive previews;
- a *shared* instance (the lazily created :func:`process_chunk_cache`, or one
  handed to ``ArchiveReader(shared_cache=...)`` / ``ArchiveService(cache=...)``)
  lets many readers decode every hot chunk exactly once.

Keys carry the archive *generation* so entries can never leak across archives
or across append publications:

``key = (st_dev, st_ino, generation, field_name, chunk_index)``

(previews append ``("preview", fraction)``), where ``generation`` is the
archive's published end offset — the byte just past the footer the reader's
manifest came from.  Appends only ever publish *new* footers at larger
offsets, so a new generation means new keys; entries cached for generation G
stay byte-correct for every reader still holding G and simply age out of the
LRU once those readers are gone.  No cross-thread invalidation race exists
because stale entries are never *wrong*, only old.  :meth:`invalidate` exists
for callers that want eager eviction anyway.

Each entry is a read-only array (see :func:`~repro.store.cache.freeze_chunk`)
plus an optional decode report (``info``; previews carry theirs, full decodes
carry ``None``).  The byte budget counts the arrays alone; least recently used
entries are evicted first, and an array larger than the whole budget is never
cached.

**Single-flight:** concurrent misses on one key do not decode redundantly.
The first caller (the *leader*) runs the decode; every other caller blocks on
the leader's in-flight entry and receives the same array.  If the decode
raises, the exception propagates to the leader *and* every waiter, and the
in-flight entry is removed so a later call retries cleanly.

Telemetry (``store.cache.*``): ``hits`` / ``misses`` count resolved lookups,
``evictions`` counts entries dropped for the budget, ``coalesced`` counts
callers that piggybacked on another thread's in-flight decode, and
``wait_seconds`` times how long they blocked.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Callable, Dict, Hashable, Optional, Tuple

import numpy as np

from repro import obs as _obs
from repro.store.cache import freeze_chunk

__all__ = [
    "SharedChunkCache",
    "process_chunk_cache",
    "DEFAULT_CACHE_BYTES",
    "DEFAULT_SHARED_CACHE_BYTES",
]

#: Default budget of a reader's private cache: 128 MiB of decoded chunks.
DEFAULT_CACHE_BYTES = 128 * 1024 * 1024

#: Default budget for the process-wide cache: 256 MiB of decoded chunks.
DEFAULT_SHARED_CACHE_BYTES = 256 * 1024 * 1024

#: A cached decode: the read-only array and its decode report (or ``None``).
Entry = Tuple[np.ndarray, Optional[Dict]]


class _InFlight:
    """One in-progress decode: waiters block on ``event``, then read the result."""

    __slots__ = ("event", "value", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.value: Optional[Entry] = None
        self.error: Optional[BaseException] = None

    def wait(self) -> Entry:
        self.event.wait()
        if self.error is not None:
            raise self.error
        return self.value


class SharedChunkCache:
    """Thread-safe byte-budgeted LRU of decoded chunks with single-flight misses.

    ``max_bytes`` is the total decoded bytes the cache may hold; ``0``
    disables caching (every lookup misses and nothing is stored, though
    concurrent misses still coalesce).  All stored arrays are read-only;
    callers needing a writable chunk copy it.
    """

    def __init__(self, max_bytes: int = DEFAULT_SHARED_CACHE_BYTES) -> None:
        if max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        self.max_bytes = int(max_bytes)
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, Entry]" = OrderedDict()
        self._nbytes = 0
        self._inflight: Dict[Hashable, _InFlight] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.coalesced = 0

    # ------------------------------------------------------------------ #
    # LRU bookkeeping (callers hold ``_lock``)
    # ------------------------------------------------------------------ #
    def _lookup(self, key: Hashable) -> Optional[Entry]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def _insert(self, key: Hashable, entry: Entry) -> int:
        """Store a frozen entry; returns how many entries the budget evicted."""
        stale = self._entries.pop(key, None)
        if stale is not None:
            self._nbytes -= int(stale[0].nbytes)
        nbytes = int(entry[0].nbytes)
        if self.max_bytes == 0 or nbytes > self.max_bytes:
            # caching disabled, or larger than the whole budget: never cached
            # (any stale entry under this key was already dropped above)
            return 0
        self._entries[key] = entry
        self._nbytes += nbytes
        evicted = 0
        while self._nbytes > self.max_bytes:
            _, (array, _) = self._entries.popitem(last=False)
            self._nbytes -= int(array.nbytes)
            evicted += 1
        self.evictions += evicted
        return evicted

    # ------------------------------------------------------------------ #
    def get(self, key: Hashable) -> Optional[np.ndarray]:
        """A cached chunk (read-only, marked most recently used) or ``None``."""
        with self._lock:
            entry = self._lookup(key)
        _count("store.cache.hits" if entry is not None else "store.cache.misses")
        return entry[0] if entry is not None else None

    def put(self, key: Hashable, chunk: np.ndarray) -> None:
        """Insert a chunk (frozen read-only) outside any single-flight path."""
        entry = (freeze_chunk(chunk), None)
        with self._lock:
            evicted = self._insert(key, entry)
        _count("store.cache.evictions", evicted)

    def get_or_compute(self, key: Hashable, factory: Callable[[], np.ndarray]) -> np.ndarray:
        """The cached chunk for ``key``, decoding via ``factory`` at most once."""
        return self.get_or_compute_entry(key, lambda: (factory(), None))[0]

    def get_or_compute_entry(
        self, key: Hashable, factory: Callable[[], Entry]
    ) -> Entry:
        """The cached ``(array, info)`` for ``key``, computing it at most once.

        Concurrent callers with the same key block on one in-flight decode
        instead of each running ``factory``.  A factory exception propagates
        to every blocked caller and removes the in-flight entry, so the next
        call after a failure retries.
        """
        with self._lock:
            entry = self._lookup(key)
            if entry is None:
                flight = self._inflight.get(key)
                leader = flight is None
                if leader:
                    flight = self._inflight[key] = _InFlight()
                else:
                    self.coalesced += 1
        recorder = _obs.get_recorder()
        if entry is not None:
            if recorder.enabled:
                recorder.count("store.cache.hits")
            return entry

        if not leader:
            if recorder.enabled:
                recorder.count("store.cache.coalesced")
                started = time.perf_counter()
                try:
                    return flight.wait()
                finally:
                    recorder.observe("store.cache.wait_seconds", time.perf_counter() - started)
            return flight.wait()

        if recorder.enabled:
            recorder.count("store.cache.misses")
        try:
            array, info = factory()
            entry = (freeze_chunk(array), info)
        except BaseException as exc:
            flight.error = exc
            with self._lock:
                self._inflight.pop(key, None)
            flight.event.set()
            raise
        with self._lock:
            evicted = self._insert(key, entry)
            self._inflight.pop(key, None)
        flight.value = entry
        flight.event.set()
        if evicted and recorder.enabled:
            recorder.count("store.cache.evictions", evicted)
        return entry

    # ------------------------------------------------------------------ #
    def invalidate(self, archive_id: Optional[Tuple] = None) -> int:
        """Drop cached entries; returns how many were removed.

        ``archive_id`` is the key prefix readers use — ``(st_dev, st_ino)``
        drops every generation of one archive, ``(st_dev, st_ino, generation)``
        just one.  ``None`` clears everything.  In-flight decodes are left to
        finish (their result lands under its original key and ages out).
        """
        with self._lock:
            if archive_id is None:
                victims = list(self._entries)
            else:
                prefix = tuple(archive_id)
                victims = [
                    key
                    for key in self._entries
                    if isinstance(key, tuple) and key[: len(prefix)] == prefix
                ]
            for key in victims:
                self._nbytes -= int(self._entries.pop(key)[0].nbytes)
            return len(victims)

    def clear(self) -> None:
        """Drop every cached entry (counters are kept)."""
        self.invalidate(None)

    @property
    def stats(self) -> Dict[str, int]:
        """Hit/miss/eviction/coalesced counters plus current occupancy."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "entries": len(self._entries),
                "nbytes": self._nbytes,
                "coalesced": self.coalesced,
                "inflight": len(self._inflight),
            }

    @property
    def nbytes(self) -> int:
        """Total bytes of all cached arrays."""
        with self._lock:
            return self._nbytes

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


def _count(name: str, value: int = 1) -> None:
    recorder = _obs.get_recorder()
    if value and recorder.enabled:
        recorder.count(name, value)


_process_cache: Optional[SharedChunkCache] = None
_process_cache_lock = threading.Lock()


def process_chunk_cache() -> SharedChunkCache:
    """The lazily created process-wide cache (``shared_cache=True`` readers)."""
    global _process_cache
    with _process_cache_lock:
        if _process_cache is None:
            _process_cache = SharedChunkCache()
        return _process_cache
