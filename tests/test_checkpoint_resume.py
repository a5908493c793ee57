"""Durable checkpoint/resume (ISSUE 5 tentpole): cycle-sliced
execution is observation-equivalent to a plain run, and every periodic
checkpoint pickles and resumes bit-identically on a *fresh* machine."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.linker import Linker
from repro.core.machine import _FUSED, CP_ARGS, Machine
from repro.core.symbols import SymbolTable
from repro.core.tags import Zone
from repro.core.traps import MachineCheckpoint
from repro.core.word import ZERO_WORD, make_int
from repro.memory.layout import DATA_SPACE_WORDS
from repro.recovery import FaultInjector, install_default_recovery
from repro.serve import ImageCache
from tests.conftest import assert_logs_name_the_valid_lines

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
    stats = machine.run_sliced(
        image.entry,
        lambda cycles: cycles - cycles % every + every,
        lambda m: checkpoints.append(MachineCheckpoint.capture(m)),
        answer_names=image.query_variable_names)
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
    stats = machine.resume_sliced(
        lambda cycles: cycles - cycles % 1_000 + 1_000,
        lambda m: seen.append(m.cycles))
    assert seen == expected_later
    assert _signature(machine, stats) == _reference(image)


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
    assert ckpt.store_words
    assert clone.store_words == ckpt.store_words


# -- restore by replay ------------------------------------------------------

def _holding_other_lines(image):
    """A machine that ran a different query of the program to the end
    first, then took ``image``: it holds that run's cache lines, dirty
    ones included, none of which the checkpoint names."""
    other = Linker(symbols=image.symbols).link(NREV, "mklist(300, L)")
    machine = Machine(symbols=image.symbols)
    other.install(machine)
    machine.run(other.entry, answer_names=other.query_variable_names)
    assert any(machine.memory.data_cache.dirty)
    image.install(machine)
    return machine


@pytest.mark.parametrize("place", ["fresh", "holding_other_lines"])
def test_restore_replays_the_checkpoints_lines(place):
    """A mid-run checkpoint resumed on a fresh machine, and on one that
    already holds other lines, ends with the uninterrupted run's
    answers, ``RunStats`` and memory hierarchy; the restore clears each
    cache through its log and replays the checkpoint's lines into it,
    so after the restore and after the resume the log names exactly
    the valid lines."""
    image = Linker(symbols=SymbolTable()).link(NREV, "run(20, R)")
    reference = _fresh(image)
    stats = reference.run(image.entry,
                          answer_names=image.query_variable_names)
    expected = (_signature(reference, stats),
                reference.memory.timing_state())
    _, checkpoints = _run_checkpointed(image, every=1_000)
    middle = pickle.loads(pickle.dumps(checkpoints[len(checkpoints) // 2]))

    machine = (_fresh(image) if place == "fresh"
               else _holding_other_lines(image))
    budget = machine.max_cycles
    machine._bootstrap_stub(image.entry)
    middle.restore(machine)
    assert_logs_name_the_valid_lines(machine.memory)
    assert machine.memory.timing_state() == middle.timing
    machine.max_cycles = budget
    stats = machine.resume()
    assert (_signature(machine, stats),
            machine.memory.timing_state()) == expected
    assert_logs_name_the_valid_lines(machine.memory)


# -- writes past the data space ---------------------------------------------

def _past_the_data_space(zone, fast_path=True):
    """A machine whose ``zone`` reaches past the data space (set_limits
    does not validate) and whose data cache already holds the first
    line there, so only the store's own bound stands between a hit-path
    write and a cell outside the data space."""
    machine = Machine(fast_path=fast_path)
    zones = machine.memory.zones
    zones.set_limits(zone, zones.entries[zone].min_address,
                     DATA_SPACE_WORDS + 0x1000)
    if fast_path:
        machine.__dict__.update(zip(_FUSED, machine._fused_paths()))
    assert machine._read(DATA_SPACE_WORDS, zone) is ZERO_WORD
    return machine


@pytest.mark.parametrize("fast_path", [True, False])
def test_write_past_the_data_space_raises(fast_path):
    machine = _past_the_data_space(Zone.TRAIL, fast_path)
    with pytest.raises(IndexError):
        machine._write(DATA_SPACE_WORDS, make_int(1), Zone.TRAIL)
    assert machine.memory.store.words == {}


def _trail_push(machine, bind, create_choice_point):
    heap = machine._stack_base[Zone.GLOBAL]
    machine.hb = heap + 1               # older than HB: trailed
    machine.trail.top = DATA_SPACE_WORDS
    bind(heap, Zone.GLOBAL, make_int(1))


def _binding(machine, bind, create_choice_point):
    bind(DATA_SPACE_WORDS, Zone.GLOBAL, make_int(1))


def _choice_point(machine, bind, create_choice_point):
    machine.b = DATA_SPACE_WORDS - CP_ARGS  # the next frame starts at the end
    create_choice_point(0, 0, machine.h, 0, 0)


@pytest.mark.parametrize("zone, write", [(Zone.TRAIL, _trail_push),
                                         (Zone.GLOBAL, _binding),
                                         (Zone.CONTROL, _choice_point)],
                         ids=["trail_push", "binding", "choice_point"])
def test_fused_control_path_write_past_the_data_space_raises(zone, write):
    machine = _past_the_data_space(zone)
    with pytest.raises(IndexError):
        write(machine, machine.bind, machine._create_choice_point)
    assert max(machine.memory.store.words, default=0) < DATA_SPACE_WORDS


def test_fused_block_heap_push_past_the_data_space_raises():
    """Mid-run, the heap zone is stretched past the data space, H moved
    there and its cache line loaded: the next heap push, from a fused
    block of the list-building loop, must raise, not store."""
    image = _image("mklist(300, L)")
    machine = _fresh(image)
    moved = []

    def on_stop(m):
        m.memory.zones.set_limits(Zone.GLOBAL, m._stack_base[Zone.GLOBAL],
                                  DATA_SPACE_WORDS + 0x1000)
        m.h = DATA_SPACE_WORDS
        m._read(DATA_SPACE_WORDS, Zone.GLOBAL)
        moved.append(m.cycles)

    with pytest.raises(IndexError):
        machine.run_sliced(image.entry,
                           lambda cycles: None if moved else 3_000,
                           on_stop)
    assert moved and machine._predecoded.fused_count
    assert max(machine.memory.store.words) < DATA_SPACE_WORDS


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
