"""Parking paused engines: the byte-budgeted :class:`EngineStore`.

The BinProlog engine model (Tarau, arXiv 1102.1178, PAPERS.md) treats a
running query as a first-class value: an *engine* you create, ask for
one answer at a time, suspend, ship somewhere else, and resume.  Here
the engine is a value already: the ``session_payload`` of a
:meth:`~repro.serve.service.QueryService.run_steps` step, a pickled
:class:`~repro.core.traps.MachineCheckpoint` taken where the
stop-at-solution hook in the ``'$answer'`` escape paused the machine.
Passing it to the next step resumes the search, on any worker or in
any process, bit-identically (solutions and ``RunStats``) to an
uninterrupted all-solutions run.  :meth:`~repro.serve.service.
EnginePool._drive` is the one driver that runs it.

What this module adds is somewhere to keep those payloads between
steps.  :class:`EngineStore` bounds the resident ones by bytes (LRU);
cold ones spill to disk (hibernate) and rehydrate on demand, each wake
verified against the content hash recorded at spill time
(:class:`EngineStoreCorrupt` on mismatch).  A host can hold thousands
of paused engines under a bounded RSS.

:class:`~repro.serve.session.SessionService` layers leases, crash
migration and reaping over these pieces; see docs/SESSIONS.md for the
lifecycle state machine.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile
from collections import OrderedDict
from typing import Dict, Optional, Tuple

from repro.errors import KCMError

#: default resident-byte budget for an :class:`EngineStore` (beyond it,
#: least-recently-used paused engines hibernate to disk).
DEFAULT_STORE_BUDGET = 64 * 1024 * 1024


class EngineStoreCorrupt(KCMError):
    """A hibernated engine's bytes failed content-hash verification on
    wake: the spill file was truncated, tampered with or mixed up.  The
    engine is unrecoverable; the session layer fails the session rather
    than resume from silently wrong state."""


class EngineStore:
    """A byte-budgeted parking lot for paused engines.

    Maps session ids to opaque payload bytes (the resume tokens of
    :meth:`~repro.serve.service.QueryService.run_steps`).  The newest
    payloads stay resident; once resident bytes exceed
    ``budget_bytes`` the least-recently-used spill to disk —
    *hibernate* — each recorded with its SHA-256.  :meth:`get`
    rehydrates a hibernated payload and verifies the hash
    (:class:`EngineStoreCorrupt` on mismatch), so a session never
    resumes from silently corrupted state.

    The accounting invariant the session chaos gate leans on: every
    payload is exactly resident or hibernated, and
    ``len(store) == 0`` once every session has been closed, exhausted
    or reaped — a nonzero count at :meth:`close` is a leaked engine.
    """

    def __init__(self, budget_bytes: int = DEFAULT_STORE_BUDGET,
                 directory: Optional[str] = None):
        if budget_bytes < 0:
            raise ValueError("budget_bytes must be >= 0")
        self.budget_bytes = budget_bytes
        self._resident: "OrderedDict[str, bytes]" = OrderedDict()
        self._resident_bytes = 0
        #: session id -> (spill path, sha256 hex, nbytes)
        self._hibernated: Dict[str, Tuple[str, str, int]] = {}
        self._directory = directory
        self._own_directory = directory is None
        self._seq = 0
        self.spills = 0                 # payloads written to disk
        self.wakes = 0                  # payloads read back and verified
        self._closed = False

    # -- accounting ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._resident) + len(self._hibernated)

    def __contains__(self, session_id: str) -> bool:
        return (session_id in self._resident
                or session_id in self._hibernated)

    @property
    def resident_bytes(self) -> int:
        return self._resident_bytes

    @property
    def hibernated_count(self) -> int:
        return len(self._hibernated)

    # -- the parking lot -------------------------------------------------------

    def put(self, session_id: str, payload: bytes) -> None:
        """Park ``session_id``'s engine payload (replacing any previous
        one), spilling cold entries past the byte budget."""
        if self._closed:
            raise RuntimeError("engine store is closed")
        self._evict_entry(session_id)
        self._resident[session_id] = payload
        self._resident_bytes += len(payload)
        self._enforce_budget()

    def get(self, session_id: str) -> bytes:
        """The parked payload, rehydrated (and hash-verified) from disk
        if it had hibernated.  Raises ``KeyError`` when absent."""
        payload = self._resident.get(session_id)
        if payload is not None:
            self._resident.move_to_end(session_id)
            return payload
        path, digest, nbytes = self._hibernated.pop(session_id)
        try:
            with open(path, "rb") as handle:
                payload = handle.read()
        except OSError as err:
            raise EngineStoreCorrupt(
                f"hibernated engine for session {session_id} is "
                f"unreadable: {err}") from err
        finally:
            try:
                os.unlink(path)
            except OSError:
                pass
        if (len(payload) != nbytes
                or hashlib.sha256(payload).hexdigest() != digest):
            raise EngineStoreCorrupt(
                f"hibernated engine for session {session_id} failed "
                f"content verification (expected {nbytes} bytes, "
                f"sha256 {digest[:12]}...)")
        self.wakes += 1
        # Re-admit as the most recently used entry; something colder
        # may hibernate in its place.
        self._resident[session_id] = payload
        self._resident_bytes += len(payload)
        self._enforce_budget()
        return payload

    def pop(self, session_id: str) -> bool:
        """Forget ``session_id``'s payload entirely (session closed,
        exhausted or reaped); ``True`` if one was parked."""
        return self._evict_entry(session_id)

    def close(self) -> None:
        """Drop every payload and remove the spill directory (if this
        store created it)."""
        if self._closed:
            return
        self._closed = True
        for path, _, _ in self._hibernated.values():
            try:
                os.unlink(path)
            except OSError:
                pass
        self._hibernated.clear()
        self._resident.clear()
        self._resident_bytes = 0
        if self._own_directory and self._directory is not None:
            shutil.rmtree(self._directory, ignore_errors=True)
            self._directory = None

    def __enter__(self) -> "EngineStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- internals -------------------------------------------------------------

    def _evict_entry(self, session_id: str) -> bool:
        payload = self._resident.pop(session_id, None)
        if payload is not None:
            self._resident_bytes -= len(payload)
            return True
        entry = self._hibernated.pop(session_id, None)
        if entry is not None:
            try:
                os.unlink(entry[0])
            except OSError:
                pass
            return True
        return False

    def _enforce_budget(self) -> None:
        while (self._resident_bytes > self.budget_bytes
               and len(self._resident) > 1):
            session_id, payload = self._resident.popitem(last=False)
            self._resident_bytes -= len(payload)
            self._spill(session_id, payload)

    def _spill(self, session_id: str, payload: bytes) -> None:
        if self._directory is None:
            self._directory = tempfile.mkdtemp(prefix="kcm-engine-store-")
        self._seq += 1
        name = (hashlib.sha256(session_id.encode()).hexdigest()[:16]
                + f"-{self._seq}.engine")
        path = os.path.join(self._directory, name)
        with open(path, "wb") as handle:
            handle.write(payload)
        self._hibernated[session_id] = (
            path, hashlib.sha256(payload).hexdigest(), len(payload))
        self.spills += 1
