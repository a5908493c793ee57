"""The trap vector: hardware-trap delivery to software handlers.

The KCM survives its own faults by design: the zone check raises traps
on bad or out-of-limits accesses (section 3.2.3), the RAM-resident page
table turns missing translations into page faults the host services
(sections 2.1 and 3.2.5), and the host interface delivers every trap to
a software handler which may repair the cause — grow a stack, trigger
garbage collection, map a page — and restart the faulting instruction
(sections 2.2 and 4).  This module is that delivery layer:

- :class:`TrapReport` — the structured machine-state snapshot built at
  every trap (kind, PC, faulting address, register snapshot, cycle
  count), attached to the trap exception and logged on the machine;
- :class:`TrapVector` — the handler table.  Handlers are registered per
  trap class and called most-recently-registered first; a handler
  returns ``True`` when it repaired the fault (the machine restarts the
  faulting instruction) or ``False``/``None`` to decline (the next
  handler is tried, and the trap aborts the run when all decline);
- :class:`MachineCheckpoint` — a full snapshot of the machine's dynamic
  state (registers, stacks, trail, zone limits, dirty store pages) so
  long runs can be resumed after a fatal trap or a watchdog stop.

The hot path pays nothing for any of this: a machine whose trap vector
has no handlers (and no fault injector) takes no per-instruction
snapshot or write-undo log and may run fused superinstructions, and
simulated cycle counts are bit-identical either way.  Recovery costs
cycles only when a trap actually fires; the accounting lands in
``RunStats.recovery_cycles``.

Handler contract (see ``docs/TRAPS.md``): ``handler(machine, trap,
report) -> bool``.  Handlers run in *system mode* — the zone check is
disabled around the call, as on the real machine where trap handlers
execute privileged host/runtime code — and any memory traffic or
explicit ``machine.cycles`` charges they make are attributed to
recovery overhead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.tags import Zone
from repro.core.word import Word

#: handler signature: (machine, trap, report) -> recovered?
TrapHandler = Callable[[object, BaseException, "TrapReport"], bool]

#: cycles charged for trap delivery + handler dispatch itself (the
#: host-interface round trip is far more expensive than a cache miss;
#: this is deliberately conservative and configurable per vector).
DEFAULT_SERVICE_CYCLES = 100

#: how many TrapReports a machine's audit log retains (newest wins).
#: A long-lived session engine may service thousands of recovered page
#: faults over its lifetime; an unbounded list would grow the engine's
#: resident size — and every checkpoint — without bound.
TRAP_LOG_RING = 256


@dataclass
class TrapReport:
    """Structured description of one delivered trap.

    Built by the machine's trap dispatcher before handlers run;
    attached to the trap exception (``trap.report``) and appended to
    ``machine.trap_log``, so both recovered and fatal traps leave an
    audit trail.
    """

    kind: str                          # trap class name, e.g. "PageFault"
    message: str
    pc: int                            # address of the faulting instruction
    cycles: int                        # cycle count when the trap fired
    instructions: int                  # instructions retired so far
    faulting_address: Optional[int] = None
    zone: Optional[Zone] = None
    virtual_page: Optional[int] = None
    registers: Dict[str, int] = field(default_factory=dict)
    recovered: bool = False
    handler: Optional[str] = None      # name of the handler that recovered
    retry: int = 0                     # consecutive services at this PC
    injected: bool = False             # raised by the fault injector

    def describe(self) -> str:
        """One-line human-readable rendering."""
        where = f"P={self.pc}, cycle {self.cycles}"
        target = ""
        if self.faulting_address is not None:
            target = f", address {self.faulting_address:#x}"
            if self.zone is not None:
                target += f" ({self.zone.name})"
        elif self.virtual_page is not None:
            target = f", page {self.virtual_page}"
        outcome = "recovered" if self.recovered else "fatal"
        via = f" by {self.handler}" if self.handler else ""
        return f"{self.kind} at {where}{target}: {outcome}{via}"


class TrapLogRing:
    """``machine.trap_log``: a bounded, ordered trap audit log.

    Behaves like the list it replaced — ``append``, ``len``, indexing,
    iteration oldest-first — but retains only the newest
    ``capacity`` reports, counting evictions in ``dropped`` (the same
    keep-the-tail discipline as the machine's recent-PC ring, applied
    to reports rather than addresses).  The total delivered count is
    therefore always ``len(ring) + ring.dropped``, and a long-lived
    engine's audit trail stops growing with its lifetime.

    :meth:`snapshot` / :meth:`restore` round-trip the ring through
    :class:`MachineCheckpoint` bit-identically — entries, drop count
    and capacity all survive, so a resumed engine's log is
    indistinguishable from an uninterrupted one's.
    """

    __slots__ = ("capacity", "dropped", "_entries")

    def __init__(self, capacity: int = TRAP_LOG_RING,
                 entries: Optional[List[TrapReport]] = None,
                 dropped: int = 0):
        if capacity < 1:
            raise ValueError("trap log capacity must be >= 1")
        self.capacity = capacity
        self.dropped = dropped
        self._entries: List[TrapReport] = list(entries or ())
        overflow = len(self._entries) - capacity
        if overflow > 0:
            del self._entries[:overflow]
            self.dropped += overflow

    def append(self, report: TrapReport) -> None:
        self._entries.append(report)
        if len(self._entries) > self.capacity:
            del self._entries[0]
            self.dropped += 1

    def clear(self) -> None:
        self._entries = []
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def __getitem__(self, index):
        return self._entries[index]

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __eq__(self, other) -> bool:
        if isinstance(other, TrapLogRing):
            return (self._entries == other._entries
                    and self.dropped == other.dropped
                    and self.capacity == other.capacity)
        if isinstance(other, list):
            return self._entries == other and not self.dropped
        return NotImplemented

    def __repr__(self) -> str:
        return (f"TrapLogRing({len(self._entries)} of {self.capacity} "
                f"retained, {self.dropped} dropped)")

    def snapshot(self) -> Tuple[List[TrapReport], int, int]:
        """Checkpoint form: ``(entries, dropped, capacity)``."""
        return (list(self._entries), self.dropped, self.capacity)

    @classmethod
    def restore(cls, snapshot) -> "TrapLogRing":
        """Rebuild from :meth:`snapshot` output (or, for checkpoints
        predating the ring, a plain report list)."""
        if isinstance(snapshot, tuple):
            entries, dropped, capacity = snapshot
            return cls(capacity=capacity, entries=entries, dropped=dropped)
        return cls(entries=list(snapshot))


class TrapVector:
    """The software trap-handler table.

    Registration is per trap *class*; delivery walks the registered
    (class, handler) pairs most-recently-registered first and offers the
    trap to every handler whose class matches (``isinstance``), stopping
    at the first that returns ``True``.  Most-specific-wins therefore
    falls out of registering specific handlers after generic ones, and
    the default installer does exactly that.
    """

    def __init__(self, service_cycles: int = DEFAULT_SERVICE_CYCLES):
        self._handlers: List[Tuple[type, TrapHandler, str]] = []
        #: cycles charged per delivered trap for the dispatch itself.
        self.service_cycles = service_cycles

    @property
    def armed(self) -> bool:
        """Whether any handler is registered (the machine checks this
        once per run to pick the zero-overhead loop when idle)."""
        return bool(self._handlers)

    def register(self, trap_type: type, handler: TrapHandler,
                 name: Optional[str] = None) -> None:
        """Install ``handler`` for ``trap_type`` and its subclasses."""
        label = name or getattr(handler, "__name__",
                                type(handler).__name__)
        self._handlers.append((trap_type, handler, label))

    def unregister(self, handler: TrapHandler) -> int:
        """Remove every registration of ``handler``; returns how many
        entries were removed."""
        before = len(self._handlers)
        self._handlers = [(t, h, n) for (t, h, n) in self._handlers
                          if h is not handler]
        return before - len(self._handlers)

    def clear(self) -> None:
        """Drop all handlers (returns the machine to abort-on-trap)."""
        self._handlers = []

    def dispatch(self, machine, trap: BaseException,
                 report: TrapReport) -> bool:
        """Offer ``trap`` to matching handlers; True when recovered."""
        for trap_type, handler, label in reversed(self._handlers):
            if isinstance(trap, trap_type):
                if handler(machine, trap, report):
                    report.handler = label
                    return True
        return False


@dataclass
class MachineCheckpoint:
    """A restorable snapshot of everything dynamic in a machine.

    Captures the register file, the dedicated state registers, the
    written store cells (which hold all four stacks and the trail
    contents), the zone limits, run statistics and
    collected solutions — plus, since the resilient-serving work, the
    *timing* state (the valid cache lines, MMU translations, traffic
    counters via
    :meth:`~repro.memory.memory_system.MemorySystem.timing_state`) and
    the host-side run context (recent-PC ring, entry name, trap log,
    livelock counters, fault-injector progress).  The original
    "timing state is expendable" tradeoff — the paper's host-serviced
    process switch — still holds when restoring onto the machine that
    captured the snapshot, but resuming on a *fresh* machine in another
    process needs all of it to make the resumed run bit-identical
    (solutions **and** ``RunStats``) to the uninterrupted one.

    Checkpoints are pickle-safe (words, zone enums and trap reports all
    pickle).  Every capture is full and follows what the run touched,
    not the space it spans: ``store_words`` is a copy of the store's
    dict of written cells, and the timing state holds the lines the
    caches' fill logs name, which are exactly the valid lines.  A
    restore clears each cache through its log and replays those lines
    (:mod:`repro.memory.cache`).

    Use :meth:`repro.core.machine.Machine.checkpoint` /
    :meth:`~repro.core.machine.Machine.restore`; after a restore,
    :meth:`~repro.core.machine.Machine.resume` continues the run loop
    from the captured program counter.
    """

    label: str
    state: Dict[str, int]                      # named machine registers
    registers: List[Word]                      # the 64-word register file
    store_words: Dict[int, Word]               # address -> written cell
    zone_limits: Dict[Zone, Tuple[int, int, bool]]
    stats: object                              # RunStats copy
    solutions: List[dict]
    output: List[str]
    answer_names: List[str]
    collect_all: bool
    timing: Dict[str, object]                  # MemorySystem.timing_state()
    host: Dict[str, object]                    # host-side run context

    @property
    def cycles(self) -> int:
        """Simulated cycle count at the capture point."""
        return self.state["cycles"]

    @classmethod
    def capture(cls, machine, label: str = "") -> "MachineCheckpoint":
        """Snapshot ``machine`` (words are immutable, so the store and
        register copies are shallow)."""
        shadow = machine.shadow
        state = {
            "p": machine.p, "cp": machine.cp, "e": machine.e,
            "b": machine.b, "b0": machine.b0, "h": machine.h,
            "hb": machine.hb, "s": machine.s, "lb": machine.lb,
            "mode_write": machine.mode_write,
            "shallow_flag": machine.shallow_flag,
            "cp_flag": machine.cp_flag,
            "shadow_alt": shadow.alt, "shadow_h": shadow.h,
            "shadow_tr": shadow.tr,
            "trail_top": machine.trail.top,
            "trail_pushes": machine.trail.pushes,
            "trail_checks": machine.trail.checks,
            "cycles": machine.cycles, "max_cycles": machine.max_cycles,
            "running": machine.running, "halted": machine.halted,
            "exhausted": machine.exhausted,
            "stop_on_solution": machine.stop_on_solution,
            "solution_paused": machine.solution_paused,
        }
        zones = {zone: (entry.min_address, entry.max_address,
                        entry.write_protected)
                 for zone, entry in machine.memory.zones.entries.items()}
        injector = machine.injector
        host = {
            "recent_pcs": list(machine._recent_pcs),
            "recent_index": machine._recent_index,
            "entry_name": machine._entry_name,
            "retry_pc": machine._retry_pc,
            "retry_kind": machine._retry_kind,
            "retry_count": machine._retry_count,
            "trap_log": machine.trap_log.snapshot(),
            "injector": (injector.runtime_state()
                         if injector is not None else None),
        }
        return cls(
            label=label,
            state=state,
            registers=list(machine.regs.cells),
            store_words=dict(machine.memory.store.words),
            zone_limits=zones,
            stats=machine.stats.copy(),
            solutions=[dict(s) for s in machine.solutions],
            output=list(machine.output),
            answer_names=list(machine.answer_names),
            collect_all=machine.collect_all,
            timing=machine.memory.timing_state(),
            host=host,
        )

    def restore(self, machine) -> None:
        """Put ``machine`` back into the captured state.

        Safe on the capturing machine, on a fresh machine loaded with
        the same image (resume-on-respawn) and on one that holds
        another run's cache lines: every captured container is written
        in place — the fused data path, generated superop code and the
        run loops hold references to the store's ``words`` dict, the
        cache tag lists and fill logs and the recent-PC ring.
        """
        state = self.state
        machine.p = state["p"]
        machine.cp = state["cp"]
        machine.e = state["e"]
        machine.b = state["b"]
        machine.b0 = state["b0"]
        machine.h = state["h"]
        machine.hb = state["hb"]
        machine.s = state["s"]
        machine.lb = state["lb"]
        machine.mode_write = state["mode_write"]
        machine.shallow_flag = state["shallow_flag"]
        machine.cp_flag = state["cp_flag"]
        machine.shadow.set(state["shadow_alt"], state["shadow_h"],
                           state["shadow_tr"])
        machine.trail.top = state["trail_top"]
        machine.trail.pushes = state["trail_pushes"]
        machine.trail.checks = state["trail_checks"]
        machine.cycles = state["cycles"]
        machine.max_cycles = state["max_cycles"]
        machine.running = state["running"]
        machine.halted = state["halted"]
        machine.exhausted = state["exhausted"]
        machine.stop_on_solution = state["stop_on_solution"]
        machine.solution_paused = state["solution_paused"]
        machine.regs.cells[:] = self.registers
        words = machine.memory.store.words
        words.clear()
        words.update(self.store_words)
        zones = machine.memory.zones
        for zone, (low, high, protected) in self.zone_limits.items():
            zones.set_limits(zone, low, high)
            zones.set_write_protected(zone, protected)
        machine.stats = self.stats.copy()
        machine.solutions = [dict(s) for s in self.solutions]
        machine.output = list(self.output)
        machine.answer_names = list(self.answer_names)
        machine.collect_all = self.collect_all
        machine.memory.restore_timing_state(self.timing)
        host = self.host
        machine._recent_pcs[:] = host["recent_pcs"]
        machine._recent_index = host["recent_index"]
        machine._entry_name = host["entry_name"]
        machine._retry_pc = host["retry_pc"]
        machine._retry_kind = host["retry_kind"]
        machine._retry_count = host["retry_count"]
        machine.trap_log = TrapLogRing.restore(host["trap_log"])
        if host["injector"] is not None and machine.injector is not None:
            machine.injector.set_runtime_state(host["injector"])
