"""Query serving: compile-once image cache + warm multiprocess pool.

See docs/SERVING.md for the architecture, the spawn-safety rules and
the benchmark methodology, docs/RESILIENCE.md for the failure
semantics (checkpoint/resume across worker death, retry with
deterministic backoff, admission control, poison-query quarantine,
crash-loop supervision and the seeded chaos harness), and
docs/SESSIONS.md for the session layer: streamed logic engines,
lease-based ownership, crash migration and hibernation.
"""

from repro.serve.cache import (
    ImageCache, ImageCacheStats, default_image_cache, image_key,
)
from repro.serve.chaos import (
    ChaosPlan, ChaosPolicy, verify_chaos_invariant,
    verify_session_chaos_invariant,
)
from repro.serve.engine import EngineStore, EngineStoreCorrupt
from repro.serve.loadgen import (
    Arrival, LoadSpec, OpenLoopGenerator, SessionLoadSpec,
    SessionSoakReport, SoakReport, run_session_soak, run_soak,
)
from repro.serve.overload import (
    POISONED, DeadlineAbandoned, LeasePolicy, QuarantineBreaker,
    QuarantinePolicy, SupervisorPolicy, WorkerSupervisor,
)
from repro.serve.retry import (
    RETRYABLE_KINDS, TRANSIENT_KINDS, RetryPolicy, is_transient,
)
from repro.serve.service import (
    DEFAULT_PROGRAM, EnginePool, QueryError, QueryService, ServiceHealth,
    ServiceResult,
)
from repro.serve.session import (
    SessionError, SessionExpired, SessionReaper, SessionService,
    SessionStepFailed, StepOutcome, UnknownSession,
)

__all__ = [
    "DEFAULT_PROGRAM",
    "POISONED",
    "Arrival",
    "ChaosPlan",
    "ChaosPolicy",
    "DeadlineAbandoned",
    "EnginePool",
    "EngineStore",
    "EngineStoreCorrupt",
    "ImageCache",
    "ImageCacheStats",
    "LeasePolicy",
    "LoadSpec",
    "OpenLoopGenerator",
    "QuarantineBreaker",
    "QuarantinePolicy",
    "QueryError",
    "QueryService",
    "RETRYABLE_KINDS",
    "RetryPolicy",
    "ServiceHealth",
    "ServiceResult",
    "SessionError",
    "SessionExpired",
    "SessionLoadSpec",
    "SessionReaper",
    "SessionService",
    "SessionSoakReport",
    "SessionStepFailed",
    "SoakReport",
    "StepOutcome",
    "SupervisorPolicy",
    "TRANSIENT_KINDS",
    "UnknownSession",
    "WorkerSupervisor",
    "default_image_cache",
    "image_key",
    "is_transient",
    "run_session_soak",
    "run_soak",
    "verify_chaos_invariant",
    "verify_session_chaos_invariant",
]
