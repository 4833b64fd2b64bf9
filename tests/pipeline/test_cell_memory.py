"""A cell holds memory for its window, not its length.

Every per-run container the processor (or its LSU) fills while a trace
runs must be empty once the whole trace has committed; anything left is
state that grows with the trace.  And what a finished cell retains must
grow with the trace no faster under ``+PERFECT`` (verification at commit)
than under its REEXECUTE sibling (a real re-execution pipe): the bytes a
longer trace adds are the data footprint, the same for both.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro.experiments.fuzz import fuzz_matrix
from repro.harness.configs import (
    fig5_configs,
    fig6_configs,
    fig7_configs,
    svw_replacement_configs,
)
from repro.lsu.conventional import ConventionalLSU
from repro.pipeline.config import MachineConfig
from repro.pipeline.processor import Processor
from repro.workloads.spec2000 import spec_profile
from repro.workloads.synthetic import generate_trace


def _cells() -> dict[str, MachineConfig]:
    """Every LSUKind x RexMode cell (both 8-bit-SSN wrap cells included),
    every fig5-7 config (the bench trio, RLE, ``+PERFECT``) and the
    SVW_ONLY replacement cell, one per distinct machine, plus that cell
    under NLQ-SM invalidations (the most SVW_ONLY refetches)."""
    cells: dict[str, MachineConfig] = {}
    seen: set[str] = set()
    for family in (fuzz_matrix, fig5_configs, fig6_configs, fig7_configs,
                   svw_replacement_configs):
        for name, config in family().items():
            if config.fingerprint() not in seen:
                seen.add(config.fingerprint())
                cells[f"{family.__name__}:{name}"] = config
    replacement = svw_replacement_configs()["NLQ+SVW-only"]
    cells["svw_replacement_configs:NLQ+SVW-only+inval"] = replacement.derive(
        "NLQ+SVW-only+inval", invalidation_interval=200
    )
    return cells


CELLS = _cells()


def _trace(n_insts: int):
    trace = generate_trace(spec_profile("gcc"), n_insts)
    # The trace's lazy views belong to the trace, not to the cell.
    trace.meta().signature
    trace.hot()
    return trace


@pytest.fixture(scope="module")
def trace():
    # 2000 gcc insts hold ~270 stores: enough for an 8-bit SSN to wrap.
    return _trace(2000)


@pytest.mark.parametrize("name", sorted(CELLS))
def test_finished_run_leaves_no_per_run_state(trace, name):
    processor = Processor(CELLS[name], trace, warmup=300)
    processor.run()
    assert processor.stats.committed == len(trace) - 300
    if processor.svw is not None and processor.svw.config.ssn_bits == 8:
        assert processor.svw.ssn.drains > 0
    left = {
        "rex_queue": len(processor.rex_queue),
        "rob": len(processor.rob),
        "inflight_by_seq": len(processor.inflight_by_seq),
        "store_words": len(processor.store_words),
        "_uncommitted_loads": len(processor._uncommitted_loads),
        "_svw_retried": len(processor._svw_retried),
    }
    if isinstance(processor.lsu, ConventionalLSU):
        left["lq_index"] = len(processor.lsu._loads_by_word)
    assert left == dict.fromkeys(left, 0)


#: Slack on the ``+PERFECT`` - NLQ difference in retained growth from 6k
#: to 12k gcc insts.  Measured at -9 to +0.1 KB on each of fig5-7 (the
#: cells hold different cache, predictor and integration-table contents;
#: the ~40 B/inst both grow by is cache tags and the memory image, i.e.
#: the data footprint); a ``+PERFECT`` cell that kept each memory op's
#: entry grew ~0.9 MB more.
GROWTH_MARGIN = 32 * 1024


def _retained(config, trace) -> int:
    """Bytes a finished cell still holds (traced from its construction)."""
    tracemalloc.start()
    try:
        processor = Processor(config, trace)
        processor.run()
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_perfect_cell_grows_no_faster_than_reexecute():
    """fig5 only, to keep tier-1 short: the empty-container test above
    covers fig6's and fig7's ``+PERFECT`` cells."""
    short, long = _trace(6000), _trace(12000)
    configs = fig5_configs()
    growth = {
        label: _retained(configs[label], long) - _retained(configs[label], short)
        for label in ("+PERFECT", "NLQ")
    }
    assert growth["+PERFECT"] <= growth["NLQ"] + GROWTH_MARGIN, growth
