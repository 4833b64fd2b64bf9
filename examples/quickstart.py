#!/usr/bin/env python
"""Quickstart: simulate a real kernel on three machines.

Runs the spill/fill kernel (call-frame save/restore traffic -- the classic
store-load forwarding pattern) on:

1. the conventional baseline,
2. the non-associative LQ (ordering checked by re-execution), and
3. NLQ + SVW (re-execution filtered by the store vulnerability window),

then prints re-execution statistics and verifies every machine against the
golden functional execution.
"""

from repro import Processor, eight_wide, kernel_trace
from repro.core.svw import SVWConfig
from repro.isa.golden import golden_execute
from repro.pipeline.config import LSUKind, RexMode


def main() -> None:
    trace = kernel_trace("spill_fill")
    golden = golden_execute(trace)
    print(f"workload: {trace.name}, {len(trace)} dynamic instructions")
    print()

    configs = {
        "baseline (associative LQ)": eight_wide("baseline", store_issue=1),
        "NLQ (re-execution)": eight_wide(
            "nlq",
            lsu=LSUKind.NLQ,
            rex_mode=RexMode.REEXECUTE,
            rex_stages=2,
            store_issue=2,
        ),
        "NLQ + SVW": eight_wide(
            "nlq+svw",
            lsu=LSUKind.NLQ,
            rex_mode=RexMode.REEXECUTE,
            rex_stages=2,
            store_issue=2,
            svw=SVWConfig(),
        ),
    }

    for label, config in configs.items():
        processor = Processor(config, trace, validate=True)
        stats = processor.run()
        assert processor.committed_memory == golden.memory, "functional mismatch!"
        print(f"{label}:")
        print(f"  IPC {stats.ipc:.3f} over {stats.cycles} cycles")
        print(
            f"  loads: {stats.committed_loads}, marked {stats.marked_rate:.1%}, "
            f"re-executed {stats.reexec_rate:.1%}, filtered {stats.filtered_loads}"
        )
        print(f"  flushes: {stats.flushes} (rex failures {stats.rex_failures})")
        print("  committed state matches the golden functional execution")
        print()


if __name__ == "__main__":
    main()
