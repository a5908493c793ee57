"""Warm-reuse determinism (ISSUE 3): a machine returned to service by
``reset_for_reuse`` must be observationally indistinguishable from a
fresh one — bit-identical ``RunStats`` and identical solutions on
every program of the bench corpus, including runs with injected
faults routed through the recovery subsystem.  This is the contract
the warm machine pool (:mod:`repro.serve`) is built on: which worker
(and which machine incarnation) serves a query must never show up in
the results."""

import pytest

from repro.bench.programs import SUITE, SUITE_ORDER
from repro.core.machine import Machine
from repro.core.traps import MachineCheckpoint
from repro.errors import CycleLimitExceeded
from repro.prolog.writer import term_to_text
from repro.recovery import FaultInjector, install_default_recovery
from repro.serve import ImageCache
from tests.conftest import assert_logs_name_the_valid_lines

#: one cache for the module: compiling each suite program once is the
#: production configuration (and keeps the test fast).
CACHE = ImageCache()


def _load(name):
    bench = SUITE[name]
    image = CACHE.get(bench.source_pure, bench.query_pure)
    machine = Machine(symbols=image.symbols)
    image.install(machine)
    return bench, image, machine


def _run(machine, image, bench):
    stats = machine.run(image.entry, collect_all=bench.all_solutions,
                        answer_names=image.query_variable_names)
    answers = tuple(tuple((n, term_to_text(t)) for n, t in sol.items())
                    for sol in machine.solutions)
    return stats, answers


@pytest.mark.parametrize("name", SUITE_ORDER)
def test_reused_machine_matches_fresh(name):
    bench, image, reused = _load(name)
    first = _run(reused, image, bench)
    reused.reset_for_reuse()
    second = _run(reused, image, bench)

    _, _, fresh_a = _load(name)
    _, _, fresh_b = _load(name)
    expected_first = _run(fresh_a, image, bench)
    expected_second = _run(fresh_b, image, bench)

    assert first == expected_first
    assert second == expected_second
    assert first == second, (
        f"{name}: run after reset_for_reuse diverged from a fresh run")


def _assert_no_residue(machine):
    memory = machine.memory
    assert memory.store.words == {}
    assert memory.store.uninitialised_reads == 0
    assert memory.mmu.next_free_page == 0
    assert memory.mmu.resident_pages() == []
    assert memory.mmu.resident_pages(code_space=True) == []
    assert set(memory.data_cache.tags) == {None}
    assert set(memory.data_cache.dirty) == {False}
    assert set(memory.code_cache.tags) == {None}
    for cache in (memory.data_cache, memory.code_cache):
        assert cache.fills == []
    assert memory.data_cache.stats.accesses == 0
    for zone, region in memory.zones._layout.items():
        entry = memory.zones.entries[zone]
        assert (entry.min_address, entry.max_address) \
            == (region.base, region.limit)
    assert all(cell.value == 0 for cell in machine.regs.cells)


def test_reused_machine_leaves_no_residue(name="nrev1"):
    bench, image, machine = _load(name)
    _run(machine, image, bench)
    machine.reset_for_reuse()
    _assert_no_residue(machine)


def _seed_run(machine, image, bench):
    machine.fast_path = False
    _run(machine, image, bench)


def _run_after_restore(machine, image, bench):
    """Stop the run on its budget, checkpoint, reset, restore and
    resume: the restore replays the checkpoint's lines and logs them,
    so the logs still name exactly the valid lines."""
    budget = machine.max_cycles
    machine.max_cycles = 2_000
    with pytest.raises(CycleLimitExceeded):
        _run(machine, image, bench)
    checkpoint = MachineCheckpoint.capture(machine)
    machine.reset_for_reuse()
    machine._bootstrap_stub(image.entry)
    checkpoint.restore(machine)
    machine.max_cycles = budget
    machine.resume()
    assert_logs_name_the_valid_lines(machine.memory)


def _run_with_faults(machine, image, bench):
    install_default_recovery(machine)
    FaultInjector(seed=11, page_faults=2, zone_squeezes=1, spurious=1,
                  horizon=20_000).attach(machine)
    _run(machine, image, bench)
    assert machine.stats.traps_recovered > 0


def _code_write_and_flush(machine, image, bench):
    _run(machine, image, bench)
    memory = machine.memory
    tags = memory.code_cache.tags
    memory.code_write(3 * len(tags) + tags.index(None))
    memory.data_cache.flush()
    _run(machine, image, bench)


@pytest.mark.parametrize("fill", [
    _seed_run, _run_after_restore, _run_with_faults,
    _code_write_and_flush], ids=lambda fill: fill.__name__.strip("_"))
def test_reset_leaves_no_residue_whoever_filled_the_lines(fill,
                                                          name="nrev1"):
    """The fast-path run above is one source of cache fills; the
    layered path, a checkpoint restore (which replays the checkpoint's
    lines), fault recovery, a code write and a data-cache flush are the
    others."""
    bench, image, machine = _load(name)
    fill(machine, image, bench)
    machine.reset_for_reuse()
    _assert_no_residue(machine)


@pytest.mark.parametrize("plan", [
    dict(seed=11, page_faults=2, zone_squeezes=1, spurious=1),
    dict(seed=3, page_faults=0, zone_squeezes=2, spurious=0),
])
def test_reused_machine_matches_fresh_under_injected_faults(plan):
    """The recovery paths dirty exactly the state reset_for_reuse must
    repair (moved zone limits, unmapped/premapped pages, the
    demand-paging switch), so the fault corpus is the sharp edge of
    the determinism guarantee."""
    name = "qs4"
    horizon = 20_000

    bench, image, reused = _load(name)
    install_default_recovery(reused)
    FaultInjector(horizon=horizon, **plan).attach(reused)
    first = _run(reused, image, bench)
    assert reused.stats.faults_injected > 0

    # reset_for_reuse detaches the consumed injector; re-attach a
    # rewound one for the replay (the documented faulted-replay idiom).
    reused.reset_for_reuse()
    assert reused.injector is None
    replay = FaultInjector(horizon=horizon, **plan)
    replay.attach(reused)
    second = _run(reused, image, bench)

    fresh = Machine(symbols=image.symbols)
    image.install(fresh)
    install_default_recovery(fresh)
    FaultInjector(horizon=horizon, **plan).attach(fresh)
    expected = _run(fresh, image, bench)

    assert first == expected
    assert second == expected


def test_rewound_injector_replays_identically():
    name = "qs4"
    plan = dict(seed=11, page_faults=2, zone_squeezes=1, spurious=1)
    bench, image, machine = _load(name)
    install_default_recovery(machine)
    injector = FaultInjector(horizon=20_000, **plan)
    injector.attach(machine)
    first = _run(machine, image, bench)
    fired = [(ev.kind, ev.cycle, ev.detail) for ev in injector.fired]

    machine.reset_for_reuse()
    injector.rewind()
    injector.attach(machine)
    second = _run(machine, image, bench)
    assert second == first
    assert [(ev.kind, ev.cycle, ev.detail)
            for ev in injector.fired] == fired
