"""Durable checkpoint/resume (ISSUE 5 tentpole): cycle-sliced
execution is observation-equivalent to a plain run, every periodic
checkpoint pickles and resumes bit-identically on a *fresh* machine,
and incremental capture copies only the chunks dirtied since the
previous checkpoint."""

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.machine import Machine
from repro.core.traps import MachineCheckpoint
from repro.recovery import FaultInjector, install_default_recovery
from repro.serve import ImageCache

APPEND = ("append([], L, L). "
          "append([H|T], L, [H|R]) :- append(T, L, R).")
NREV = (APPEND +
        " nrev([], []). "
        "nrev([H|T], R) :- nrev(T, RT), append(RT, [H], R). "
        "mklist(0, []). "
        "mklist(N, [N|T]) :- N > 0, M is N - 1, mklist(M, T). "
        "run(N, R) :- mklist(N, L), nrev(L, R).")

_cache = ImageCache()


def _image(query="run(20, R)"):
    return _cache.get(NREV, query)


def _fresh(image, inject_seed=None):
    machine = Machine(symbols=image.symbols)
    image.install(machine)
    if inject_seed is not None:
        install_default_recovery(machine)
        FaultInjector(seed=inject_seed, page_faults=1, zone_squeezes=1,
                      spurious=1, horizon=10_000).attach(machine)
    return machine


def _signature(machine, stats):
    return (stats, machine.solutions, "".join(machine.output))


def _reference(image, inject_seed=None):
    machine = _fresh(image, inject_seed)
    stats = machine.run(image.entry,
                        answer_names=image.query_variable_names)
    return _signature(machine, stats)


def _run_checkpointed(image, every, inject_seed=None):
    """A sliced run checkpointing on the cycle-aligned grid; returns
    (signature, [checkpoints])."""
    machine = _fresh(image, inject_seed)
    checkpoints = []
    previous = [None]

    def on_stop(m):
        ckpt = MachineCheckpoint.capture(m, since=previous[0])
        previous[0] = ckpt
        checkpoints.append(ckpt)

    machine.memory.store.track_dirty = True
    try:
        stats = machine.run_sliced(
            image.entry,
            lambda cycles: cycles - cycles % every + every,
            on_stop,
            answer_names=image.query_variable_names)
    finally:
        machine.memory.store.track_dirty = False
        machine.memory.store.dirty_chunks.clear()
    return _signature(machine, stats), checkpoints


def _resume_on_fresh(image, ckpt, inject_seed=None):
    """The documented resume protocol: fresh machine, bootstrap stub,
    restore, real budget back (the checkpoint saved the slice target)."""
    machine = _fresh(image, inject_seed)
    budget = machine.max_cycles
    machine._bootstrap_stub(image.entry)
    ckpt.restore(machine)
    machine.max_cycles = budget
    stats = machine.resume()
    return _signature(machine, stats)


# -- the tentpole invariant --------------------------------------------------

def test_sliced_run_is_observation_equivalent():
    image = _image()
    expected = _reference(image)
    got, checkpoints = _run_checkpointed(image, every=1_000)
    assert got == expected
    assert checkpoints, "a multi-thousand-cycle run must checkpoint"
    assert [c.cycles for c in checkpoints] == \
        sorted(set(c.cycles for c in checkpoints)), "monotone grid"


def test_every_checkpoint_resumes_bit_identically_on_fresh_machine():
    image = _image()
    expected = _reference(image)
    _, checkpoints = _run_checkpointed(image, every=1_000)
    for ckpt in checkpoints:
        revived = pickle.loads(pickle.dumps(ckpt))
        assert _resume_on_fresh(image, revived) == expected


def test_resume_under_injected_faults_matches():
    """Checkpoint/resume composes with trap recovery: a checkpoint of
    an injected run carries the injector's mid-run progress, and the
    resumed machine replays the remaining schedule only."""
    image = _image()
    expected = _reference(image, inject_seed=11)
    assert expected[0].faults_injected > 0, "the seed must inject"
    _, checkpoints = _run_checkpointed(image, every=800, inject_seed=11)
    middle = checkpoints[len(checkpoints) // 2]
    revived = pickle.loads(pickle.dumps(middle))
    assert _resume_on_fresh(image, revived, inject_seed=11) == expected


def test_resume_sliced_continues_the_same_grid():
    image = _image()
    _, checkpoints = _run_checkpointed(image, every=1_000)
    expected_later = [c.cycles for c in checkpoints[2:]]

    machine = _fresh(image)
    budget = machine.max_cycles
    machine._bootstrap_stub(image.entry)
    pickle.loads(pickle.dumps(checkpoints[1])).restore(machine)
    machine.max_cycles = budget
    seen = []
    machine.memory.store.track_dirty = True
    try:
        stats = machine.resume_sliced(
            lambda cycles: cycles - cycles % 1_000 + 1_000,
            lambda m: seen.append(m.cycles))
    finally:
        machine.memory.store.track_dirty = False
        machine.memory.store.dirty_chunks.clear()
    assert seen == expected_later
    assert _signature(machine, stats) == _reference(image)


# -- incremental capture -----------------------------------------------------

def test_incremental_capture_copies_only_dirty_chunks():
    machine = Machine()
    store = machine.memory.store
    store.track_dirty = True
    try:
        from repro.core.word import make_int
        words = store.CHUNK_WORDS
        bases = [words, 2 * words, 3 * words]   # three distinct chunks
        for base in bases:
            store.poke(base + 4, make_int(base))
        full = MachineCheckpoint.capture(machine)
        assert sorted(full.copied_chunks) == [b // words for b in bases]

        store.poke(bases[1] + 8, make_int(99))
        delta = MachineCheckpoint.capture(machine, since=full)
        assert list(delta.copied_chunks) == [bases[1] // words]
        # Clean chunks are shared with the baseline, not recopied.
        for base in (bases[0], bases[2]):
            key = base // words
            assert delta.store_chunks[key] is full.store_chunks[key]
        assert delta.store_chunks[bases[1] // words] \
            is not full.store_chunks[bases[1] // words]
    finally:
        store.track_dirty = False
        store.dirty_chunks.clear()


def test_checkpoint_pickle_round_trip_is_faithful():
    image = _image("run(8, R)")
    _, checkpoints = _run_checkpointed(image, every=500)
    ckpt = checkpoints[-1]
    clone = pickle.loads(pickle.dumps(ckpt))
    assert clone.cycles == ckpt.cycles
    assert clone.state == ckpt.state
    assert clone.registers == ckpt.registers
    assert clone.solutions == ckpt.solutions
    assert clone.timing is not None
    assert clone.host is not None
    assert set(clone.store_chunks) == set(ckpt.store_chunks)


# -- the property ------------------------------------------------------------

@given(every=st.integers(min_value=100, max_value=4_000))
@settings(max_examples=12, deadline=None)
def test_any_checkpoint_cadence_resumes_identically(every):
    """For an arbitrary checkpoint cadence, the sliced run and a resume
    from its middle checkpoint both reproduce the plain run exactly."""
    image = _image("run(12, R)")
    expected = _reference(image)
    got, checkpoints = _run_checkpointed(image, every=every)
    assert got == expected
    if checkpoints:
        middle = checkpoints[len(checkpoints) // 2]
        assert _resume_on_fresh(
            image, pickle.loads(pickle.dumps(middle))) == expected
