"""Deterministic fault injection for the trap-and-recovery subsystem.

A :class:`FaultInjector` is seeded once and pre-computes a schedule of
fault events at chosen simulated-cycle counts; attached to a machine it
fires each event exactly when the cycle counter first reaches it, from
the machine's instruction-boundary hook.  The same seed against the
same program therefore produces the same faults at the same points —
which is what lets tests assert that a faulted run computes *identical
solutions* to a fault-free one.

Three fault kinds, one per recovery path:

- ``page-fault`` — a resident data page near the machine's working set
  (the pages under H, E and the trail top) loses its translation, as
  if the host paging server evicted it; the next miss on it raises a
  :class:`~repro.errors.PageFault` that the page-service handler must
  repair.  Attaching an injector with page-fault events switches the
  MMU out of implicit demand paging so the fault is actually delivered.
- ``zone-squeeze`` — a stack zone's upper limit is pulled down to the
  granule boundary above its current top, so the next push across it
  raises a :class:`~repro.errors.StackOverflowTrap` for the growth (or
  heap-GC) handler.
- ``spurious`` — a :class:`~repro.errors.SpuriousTrap` with no
  underlying fault is raised directly; recovery must restart the
  instruction with no visible effect.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.tags import Zone, ZONE_GRANULE_WORDS, page_number
from repro.errors import SpuriousTrap

#: event kinds in schedule order of precedence (stable tie-break).
KINDS = ("page-fault", "zone-squeeze", "spurious")


def _granule_ceil(address: int) -> int:
    return -(-address // ZONE_GRANULE_WORDS) * ZONE_GRANULE_WORDS


@dataclass
class InjectedFault:
    """One scheduled fault event."""

    cycle: int                 # fire when machine.cycles first reaches this
    kind: str                  # "page-fault" | "zone-squeeze" | "spurious"
    #: what was hit, filled in when fired (page number / zone name).
    detail: str = ""
    fired: bool = False
    #: False when the event found nothing to break (e.g. no resident
    #: page yet) and was skipped.
    effective: bool = field(default=False, repr=False)


class FaultInjector:
    """Seeded, pre-scheduled fault source for one machine run.

    ``horizon`` bounds the cycle counts the schedule draws from; events
    past the program's actual run length simply never fire.  Call
    :meth:`rewind` to replay the identical schedule on a fresh run.
    """

    def __init__(self, seed: int = 0,
                 page_faults: int = 0,
                 zone_squeezes: int = 0,
                 spurious: int = 0,
                 horizon: int = 100_000,
                 squeeze_zones: Sequence[Zone] = (Zone.GLOBAL, Zone.TRAIL)):
        self.seed = seed
        self.horizon = horizon
        self.squeeze_zones = tuple(squeeze_zones)
        rng = random.Random(seed)
        requests: List[Tuple[str, int]] = (
            [("page-fault", 0)] * page_faults
            + [("zone-squeeze", 0)] * zone_squeezes
            + [("spurious", 0)] * spurious)
        events: List[InjectedFault] = []
        for kind, _ in requests:
            events.append(InjectedFault(cycle=rng.randrange(1, horizon),
                                        kind=kind))
        # Stable order: by cycle, ties broken by kind precedence, so the
        # schedule is a pure function of the constructor arguments.
        events.sort(key=lambda ev: (ev.cycle, KINDS.index(ev.kind)))
        self.events = events
        self._rng = rng
        # Fire-time draws (victim pages, squeeze zones) continue from
        # the post-schedule rng state; rewind must restart from here,
        # not from the bare seed, or replays diverge.
        self._rng_state = rng.getstate()
        self._next = 0

    # -- lifecycle -------------------------------------------------------------

    def attach(self, machine) -> "FaultInjector":
        """Install on ``machine`` (the run loop then recovers per
        instruction; with page-fault events scheduled, also turns
        implicit demand paging off so the faults are real)."""
        machine.injector = self
        if any(ev.kind == "page-fault" for ev in self.events):
            mmu = machine.memory.mmu
            # The host wires the initial working set before handing the
            # machine over to explicit paging (section 2.1) — the run
            # bootstrap writes the first environment outside the run
            # loop, where a fault has no handler yet.
            for pointer in self._initial_working_set(machine):
                vpage = page_number(pointer)
                if not mmu.is_mapped(vpage):
                    mmu.map_page(vpage)
            mmu.demand_paging = False
        return self

    @staticmethod
    def _initial_working_set(machine) -> List[int]:
        """Addresses whose pages must be resident before the run
        bootstrap: every stack base plus the current stack pointers."""
        pointers = list(machine._stack_base.values())
        pointers += [machine.h, machine.e, machine.b, machine.trail.top]
        return [pointer for pointer in pointers if pointer > 0]

    def rewind(self) -> None:
        """Reset so the identical schedule replays on the next run."""
        for event in self.events:
            event.fired = False
            event.effective = False
            event.detail = ""
        self._rng.setstate(self._rng_state)
        self._next = 0

    # -- checkpointable progress ------------------------------------------------

    def runtime_state(self) -> dict:
        """The injector's mid-run progress as a picklable dict, so a
        machine checkpoint can resume an injected run on a fresh worker
        without re-firing already-delivered events (the schedule itself
        is rebuilt deterministically from the constructor arguments)."""
        return {
            "next": self._next,
            "rng": self._rng.getstate(),
            "events": [(event.fired, event.effective, event.detail)
                       for event in self.events],
        }

    def set_runtime_state(self, state: dict) -> None:
        """Adopt :meth:`runtime_state` progress captured by an injector
        built with the same constructor arguments."""
        events = state["events"]
        if len(events) != len(self.events):
            raise ValueError("runtime state is from a different schedule")
        self._next = state["next"]
        self._rng.setstate(state["rng"])
        for event, (fired, effective, detail) in zip(self.events, events):
            event.fired = fired
            event.effective = effective
            event.detail = detail

    @property
    def fired(self) -> List[InjectedFault]:
        """Events delivered so far."""
        return [ev for ev in self.events if ev.fired]

    # -- the machine-facing hook -----------------------------------------------

    def before_instruction(self, machine) -> None:
        """Called by the run loop at every instruction boundary; fires
        every event whose cycle count has been reached.  May raise a
        trap (spurious events) — the loop treats it like any other
        instruction-boundary trap."""
        while self._next < len(self.events) \
                and self.events[self._next].cycle <= machine.cycles:
            event = self.events[self._next]
            self._next += 1          # advance first: replay must not re-fire
            event.fired = True
            self._fire(machine, event)

    def _fire(self, machine, event: InjectedFault) -> None:
        machine.stats.faults_injected += 1
        if event.kind == "page-fault":
            victim = self._pick_victim_page(machine)
            if victim is None:
                event.detail = "no resident page"
                return
            machine.memory.mmu.unmap_page(victim)
            event.detail = f"page {victim}"
            event.effective = True
        elif event.kind == "zone-squeeze":
            zone = self.squeeze_zones[
                self._rng.randrange(len(self.squeeze_zones))]
            entry = machine.memory.zones.entries[zone]
            top = self._zone_top(machine, zone)
            # Pull the limit down to the granule boundary just above the
            # current top: everything in use stays legal, the next push
            # across the boundary traps.
            new_max = max(entry.min_address + ZONE_GRANULE_WORDS,
                          _granule_ceil(top + 1))
            if new_max >= entry.max_address:
                event.detail = f"{zone.name} already at {new_max:#x}"
                return
            machine.memory.zones.set_limits(zone, entry.min_address, new_max)
            event.detail = f"{zone.name} max -> {new_max:#x}"
            event.effective = True
        else:
            event.detail = f"spurious at cycle {machine.cycles}"
            event.effective = True
            trap = SpuriousTrap(
                f"injected spurious trap at cycle {machine.cycles}")
            trap.injected = True
            raise trap

    # -- victim selection ------------------------------------------------------

    def _pick_victim_page(self, machine) -> Optional[int]:
        """A resident data page in the working set (deterministic)."""
        mmu = machine.memory.mmu
        hot = sorted({page_number(pointer)
                      for pointer in (machine.h, machine.e, machine.b,
                                      machine.trail.top)
                      if pointer > 0})
        candidates = [vpage for vpage in hot if mmu.is_mapped(vpage)]
        if not candidates:
            candidates = mmu.resident_pages()
        if not candidates:
            return None
        return candidates[self._rng.randrange(len(candidates))]

    @staticmethod
    def _zone_top(machine, zone: Zone) -> int:
        """The zone's current high-water pointer."""
        if zone is Zone.GLOBAL:
            return machine.h
        if zone is Zone.TRAIL:
            return machine.trail.top
        if zone is Zone.LOCAL:
            return max(machine.e, machine._stack_base[Zone.LOCAL])
        if zone is Zone.CONTROL:
            return max(machine.b, machine._stack_base[Zone.CONTROL])
        return machine.memory.zones.entries[zone].min_address
