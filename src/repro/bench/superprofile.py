"""Opcode-sequence profiler: selects the superinstruction fusion table.

Runs the PLM bench corpus under an instruction tracer (which turns
superop fusion off, so the run loop executes one instruction per step
and the profile sees the exact executed instruction stream), segments
the stream into straight-line runs — a run breaks at every control
transfer, i.e. wherever the executed successor differs from the
fall-through, and after every :data:`~repro.core.predecode.BLOCK_ENDERS`
opcode, mirroring how the predecoder delimits basic blocks — and
counts executions per opcode sequence.  Sequences are ranked by
``count * max(1, len - 1)``: the number of handler dispatches fusing
that sequence would eliminate (single-opcode runs still save the
outer-loop iteration, counted as one dispatch).

The selection is written as the generated module
:mod:`repro.core.superops_table`, committed so builds are reproducible
without re-profiling.  Regenerate (or verify, in CI) with::

    PYTHONPATH=src python -m repro.bench.superprofile            # rewrite
    PYTHONPATH=src python -m repro.bench.superprofile --check    # verify
    PYTHONPATH=src python -m repro.bench.superprofile --json out.json

The output is deterministic for a given corpus and selection
parameters: simulated execution is deterministic, and ranking ties
break on the sequence itself.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.programs import SUITE_ORDER
from repro.bench.runner import SuiteRunner
from repro.core.machine import Machine
from repro.core.predecode import BLOCK_ENDERS
from repro.core.superops import MAX_FUSE_LEN, MIN_FUSE_LEN

#: Default selection parameters (the committed table's provenance).
#: The count floor is 1 on purpose: the deriv family and the long
#: once-per-query head/body blocks run only a handful of times each,
#: but carry a large share of their program's host time — a high floor
#: fuses the recursion-heavy programs and leaves the one-shot ones
#: cold.  The top-N cut is what bounds table size.
DEFAULT_TOP = 384
DEFAULT_MIN_COUNT = 1


class SequenceProfiler:
    """Tracer that segments the executed instruction stream into
    straight-line runs and counts them by opcode-name sequence."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self.instructions = 0
        self._run: List[str] = []
        self._expected = -1

    def on_instruction(self, machine, p, instr, replay=False) -> None:
        if replay:
            return
        self.instructions += 1
        if p != self._expected and self._run:
            # Control arrived here from somewhere else: the previous
            # run ended at its last instruction (deviation or failure).
            self._flush()
        self._run.append(instr.op.name)
        if instr.op in BLOCK_ENDERS:
            self._flush()
            self._expected = -1
        else:
            self._expected = p + instr.size

    def _flush(self) -> None:
        if self._run:
            self.counts[tuple(self._run)] += 1
            del self._run[:]

    def finish(self) -> None:
        """Account the trailing run (program halted mid-block)."""
        self._flush()


def profile_corpus(programs: Optional[Sequence[str]] = None,
                   variant: str = "pure") -> SequenceProfiler:
    """Execute ``programs`` (default: the full suite) under the
    profiler and return it."""
    names = list(programs) if programs is not None else list(SUITE_ORDER)
    profiler = SequenceProfiler()
    runner = SuiteRunner(machine_factory=lambda s: Machine(symbols=s,
                                                           fast_path=True))
    for name in names:
        machine = runner.load(name, variant)
        machine.tracer = profiler     # no fusion: one step each
        try:
            runner.run(name, variant, warm=False)
        finally:
            machine.tracer = None
        profiler.finish()
    return profiler


def select_sequences(counts: Counter,
                     top: int = DEFAULT_TOP,
                     min_count: int = DEFAULT_MIN_COUNT
                     ) -> List[Tuple[Tuple[str, ...], int]]:
    """Rank profiled sequences by eliminated dispatches and keep the
    ``top`` ones above ``min_count`` executions.

    Runs longer than :data:`~repro.core.superops.MAX_FUSE_LEN` are
    truncated to that prefix (merging counts) rather than dropped —
    the fuser matches static blocks by recorded prefix, so the prefix
    is what the table needs to carry.  Single-opcode runs eliminate no
    dispatch but a whole outer-loop iteration, weighted here like one
    dispatch; the fuser only accepts them for inline-emitted opcodes.
    """
    merged: Counter = Counter()
    for seq, count in counts.items():
        if len(seq) >= MIN_FUSE_LEN:
            merged[seq[:MAX_FUSE_LEN]] += count
    ranked = []
    for seq, count in merged.items():
        if count < min_count:
            continue
        ranked.append((count * max(1, len(seq) - 1), count, seq))
    ranked.sort(key=lambda item: (-item[0], -item[1], item[2]))
    return [(seq, count) for _, count, seq in ranked[:top]]


def render_table(selected: List[Tuple[Tuple[str, ...], int]],
                 corpus: Sequence[str], total_instructions: int,
                 top: int, min_count: int) -> str:
    """The generated superops_table.py source text (deterministic)."""
    lines = [
        '"""GENERATED - do not edit.',
        "",
        "Superinstruction fusion table selected by profiling the bench",
        "corpus; see repro.bench.superprofile (the generator) and",
        "repro.core.superops (the consumer).  Regenerate with:",
        "",
        "    PYTHONPATH=src python -m repro.bench.superprofile",
        "",
        f"Corpus: {', '.join(corpus)}",
        f"Instructions profiled: {total_instructions}",
        f"Selection: top {top} sequences with >= {min_count} executions,",
        "ranked by executions * max(1, length - 1) (handler dispatches",
        'eliminated).  Each entry is (opcode_names, executed_count).',
        '"""',
        "",
        "SEQUENCES = (",
    ]
    for seq, count in selected:
        names = ", ".join(f'"{name}"' for name in seq)
        entry = f"    (({names},), {count}),"
        if len(entry) <= 78:
            lines.append(entry)
        else:
            lines.append("    ((")
            for name in seq:
                lines.append(f'        "{name}",')
            lines.append(f"    ), {count}),")
    lines.append(")")
    return "\n".join(lines) + "\n"


def default_output_path() -> Path:
    import repro.core
    return Path(repro.core.__file__).resolve().parent \
        / "superops_table.py"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default=None,
                        help="table module path (default: the in-tree "
                             "repro/core/superops_table.py)")
    parser.add_argument("--json", default=None,
                        help="also write the profile/selection as a "
                             "JSON artifact (CI upload)")
    parser.add_argument("--check", action="store_true",
                        help="regenerate and compare against the "
                             "committed table instead of writing; "
                             "exit 1 on drift")
    parser.add_argument("--top", type=int, default=DEFAULT_TOP)
    parser.add_argument("--min-count", type=int, default=DEFAULT_MIN_COUNT)
    parser.add_argument("--programs", nargs="*", default=None,
                        help="corpus subset (default: full suite)")
    args = parser.parse_args(argv)

    corpus = args.programs if args.programs else list(SUITE_ORDER)
    profiler = profile_corpus(corpus)
    selected = select_sequences(profiler.counts, top=args.top,
                                min_count=args.min_count)
    text = render_table(selected, corpus, profiler.instructions,
                        args.top, args.min_count)
    output = Path(args.output) if args.output else default_output_path()

    fused_instr = sum(count * len(seq) for seq, count in selected)
    print(f"  profiled {profiler.instructions} instructions, "
          f"{len(profiler.counts)} distinct runs")
    print(f"  selected {len(selected)} sequences covering "
          f"{fused_instr} executed instructions "
          f"({100.0 * fused_instr / max(1, profiler.instructions):.1f}%)")

    if args.json:
        artifact = {
            "corpus": list(corpus),
            "total_instructions": profiler.instructions,
            "distinct_runs": len(profiler.counts),
            "selection": {"top": args.top, "min_count": args.min_count},
            "covered_instructions": fused_instr,
            "sequences": [{"ops": list(seq), "count": count}
                          for seq, count in selected],
        }
        with open(args.json, "w") as handle:
            json.dump(artifact, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"  JSON artifact written to {args.json}")

    if args.check:
        try:
            committed = output.read_text()
        except OSError:
            print(f"  MISSING: {output} does not exist; run the "
                  f"generator to create it")
            return 1
        if committed != text:
            print(f"  DRIFT: {output} does not match a fresh "
                  f"regeneration; rerun "
                  f"`python -m repro.bench.superprofile`")
            return 1
        print(f"  ok: {output} matches the regenerated table")
        return 0

    output.write_text(text)
    print(f"  table written to {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
