"""Read-only freezing of decoded chunks before they enter a cache.

The cache itself is :class:`~repro.store.shared_cache.SharedChunkCache`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["freeze_chunk"]


def freeze_chunk(chunk: np.ndarray) -> np.ndarray:
    """Return a read-only array safe to hand out from a cache.

    Cached chunks are shared across callers (and, through the shared cache,
    across readers), so a caller mutating a returned chunk must never corrupt
    later hits — and the cache must never keep a view into a buffer it does
    not own (an mmap page, a codec scratch array).  Arrays that borrow their
    memory are copied; the result is then marked non-writeable.  Arrays that
    already own their data are frozen in place without a copy, which is the
    common case: codec decodes end in a fresh ``.copy()``.
    """
    arr = np.asarray(chunk)
    if arr.base is not None or not arr.flags.owndata:
        arr = arr.copy()
    if arr.flags.writeable:
        arr.setflags(write=False)
    return arr
