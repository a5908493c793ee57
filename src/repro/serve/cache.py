"""The compile-once image cache.

The host toolchain (parse → normalize → compile → link,
:mod:`repro.compiler`) costs milliseconds per program — about as long
as a short suite query takes to *run* — and the seed
:func:`repro.api.run_query` paid it on every call.  The cache keys a
:class:`~repro.compiler.linker.LinkedImage` by a content hash of the
program source, the query text and the compiler options, so each
distinct (program, query) pair is compiled and linked exactly once per
process tree: :func:`repro.api.run_query`, the bench
:class:`~repro.bench.runner.SuiteRunner` and the query service
(:mod:`repro.serve.service`) all route through one process-global
instance, and service workers receive the parent's images pickled
rather than recompiling.

Images are immutable once linked — ``install`` copies the code list
and the handler table into the machine — so one cached image may back
any number of machines; they share the image's append-only
:class:`~repro.core.symbols.SymbolTable`.
"""

from __future__ import annotations

import hashlib
import pickle
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.compiler.linker import LinkedImage, Linker
from repro.core.symbols import SymbolTable


@dataclass
class ImageCacheStats:
    """Hit/miss/eviction counters for one cache.

    ``bytes_cached`` is a gauge, not a counter: the serialized size of
    everything currently resident (the same pickled form the query
    service ships to workers, so it tracks real IPC/memory weight).
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    bytes_cached: int = 0

    def reset(self) -> None:
        """Zero all counters."""
        self.hits = self.misses = self.evictions = 0
        self.bytes_cached = 0


def image_key(program_text: str, query_text: str,
              io_mode: str = "stub") -> str:
    """Content hash identifying one compiled image.

    Covers everything the compile+link pipeline reads: the program
    source, the query text (compiled into the hidden ``'$query'/0``
    driver) and the linker options (today just ``io_mode``).
    """
    digest = hashlib.sha256()
    for part in (io_mode, program_text, query_text):
        encoded = part.encode("utf-8")
        digest.update(str(len(encoded)).encode("ascii"))
        digest.update(b":")
        digest.update(encoded)
    return digest.hexdigest()


class ImageCache:
    """LRU cache of linked images keyed by :func:`image_key`.

    Thread-safe: the query service's result collector and user code
    may compile concurrently.  ``max_entries`` bounds the cache by
    count; ``max_bytes`` (optional) additionally bounds it by the
    serialized size of the resident images — each image holds its code
    list and symbol table, tens of kilobytes for suite-sized programs,
    and the byte budget is what keeps a long-lived service hosting many
    programs from growing without bound.  Eviction is LRU under either
    pressure, except that the entry just inserted is never evicted: a
    compile that was just paid for is always served at least once, even
    if the image alone exceeds the whole byte budget.
    """

    def __init__(self, max_entries: int = 128,
                 max_bytes: Optional[int] = None):
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be positive")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.stats = ImageCacheStats()
        self._images: "OrderedDict[str, LinkedImage]" = OrderedDict()
        self._sizes: Dict[str, int] = {}
        self._lock = threading.Lock()
        self._eviction_listeners: List[Callable[[str], None]] = []

    def add_eviction_listener(self,
                              listener: Callable[[str], None]) -> None:
        """Register ``listener(key)`` to be called whenever an entry
        leaves the cache (LRU/byte-budget eviction or :meth:`clear`).

        The query service uses this to drop its derived per-key state —
        pickled payloads and worker shipped-image records — in step
        with the cache, so nothing derived from an image outlives the
        image.  A listener runs on whichever thread called the cache,
        so the service's listener only parks the key and its collector
        applies the drop at the end of a batch.  Listeners are called
        *outside* the cache lock (the lock is not reentrant and a
        listener may well call back into the cache); exceptions are
        swallowed — eviction is bookkeeping and must never fail a
        ``get``.
        """
        with self._lock:
            self._eviction_listeners.append(listener)

    def remove_eviction_listener(self,
                                 listener: Callable[[str], None]) -> None:
        """Unregister ``listener``; unknown listeners are ignored."""
        with self._lock:
            try:
                self._eviction_listeners.remove(listener)
            except ValueError:
                pass

    def _notify_evictions(self, keys: List[str]) -> None:
        """Fire the eviction listeners (must be called with the lock
        released — see :meth:`add_eviction_listener`)."""
        if not keys:
            return
        with self._lock:
            listeners = list(self._eviction_listeners)
        for key in keys:
            for listener in listeners:
                try:
                    listener(key)
                except Exception:
                    pass

    def get(self, program_text: str, query_text: str,
            io_mode: str = "stub") -> LinkedImage:
        """The image for ``(program, query, options)``; compiled on the
        first request, served from the cache afterwards."""
        key = image_key(program_text, query_text, io_mode)
        # Compile under the lock: concurrent misses on one key must
        # yield one compile and one image, not a compile per caller —
        # the machines served from the cache share the image's symbol
        # table, and callers comparing images by identity (or counting
        # Linker.links_performed) rely on get() being atomic.  Linking
        # is milliseconds; holding the lock across it briefly serialises
        # compiles of *different* keys, which only ever happens on the
        # cold first request for each.
        with self._lock:
            image = self._images.get(key)
            if image is not None:
                self._images.move_to_end(key)
                self.stats.hits += 1
                return image
            image = Linker(symbols=SymbolTable(), io_mode=io_mode).link(
                program_text, query_text)
            self.stats.misses += 1
            self._images[key] = image
            if self.max_bytes is not None:
                # Size by pickle: it is the exact form the query
                # service ships over IPC, and measuring it here means
                # the budget tracks real shipping weight, not a guess.
                self._sizes[key] = len(
                    pickle.dumps(image, pickle.HIGHEST_PROTOCOL))
                self.stats.bytes_cached += self._sizes[key]
            evicted = self._evict_over_budget()
        self._notify_evictions(evicted)
        return image

    def _evict_over_budget(self) -> List[str]:
        """Drop LRU entries until count and byte budgets hold (lock
        held by the caller); returns the evicted keys.  The newest
        entry is never evicted."""
        evicted: List[str] = []
        while len(self._images) > self.max_entries:
            evicted.append(self._evict_oldest())
        if self.max_bytes is not None:
            while (self.stats.bytes_cached > self.max_bytes
                   and len(self._images) > 1):
                evicted.append(self._evict_oldest())
        return evicted

    def _evict_oldest(self) -> str:
        key, _ = self._images.popitem(last=False)
        self.stats.bytes_cached -= self._sizes.pop(key, 0)
        self.stats.evictions += 1
        return key

    def lookup(self, key: str) -> Optional[LinkedImage]:
        """The cached image under a precomputed ``key``, or ``None``."""
        with self._lock:
            image = self._images.get(key)
            if image is not None:
                self._images.move_to_end(key)
            return image

    def clear(self) -> None:
        """Drop every cached image and zero the counters (eviction
        listeners fire for every dropped key)."""
        with self._lock:
            dropped = list(self._images)
            self._images.clear()
            self._sizes.clear()
            self.stats.reset()
        self._notify_evictions(dropped)

    def __len__(self) -> int:
        return len(self._images)

    def __contains__(self, key: str) -> bool:
        return key in self._images


#: the process-global cache every compile path shares.
_default_cache: Optional[ImageCache] = None
_default_lock = threading.Lock()


def default_image_cache() -> ImageCache:
    """The process-global :class:`ImageCache` (created on first use)."""
    global _default_cache
    with _default_lock:
        if _default_cache is None:
            _default_cache = ImageCache()
        return _default_cache
