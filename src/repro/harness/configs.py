"""The paper's named machine configurations (section 4).

Each ``fig*_configs`` returns an ordered mapping whose first entry is the
*baseline* the figure's speedups are measured against, followed by the
configurations in the order the figure's legend lists them.
"""

from __future__ import annotations

from repro.core.svw import SVWConfig
from repro.pipeline.config import LSUKind, MachineConfig, RexMode, eight_wide, four_wide

#: Re-execution adds two pipeline stages for NLQ/SSQ, four for RLE.
NLQ_REX_STAGES = 2
SSQ_REX_STAGES = 2
RLE_REX_STAGES = 4


def fig5_configs() -> dict[str, MachineConfig]:
    """Figure 5: SVW's impact on NLQ-LS.

    Baseline: 8-way superscalar, 128-entry LQ with one associative port --
    the ability to issue one store per cycle.  The NLQ configurations
    replace the port with re-execution and issue two stores per cycle.
    """
    nlq = eight_wide(
        "NLQ",
        lsu=LSUKind.NLQ,
        rex_mode=RexMode.REEXECUTE,
        rex_stages=NLQ_REX_STAGES,
        store_issue=2,
    )
    return {
        "baseline": eight_wide("fig5-baseline", store_issue=1),
        "NLQ": nlq,
        "+SVW-UPD": nlq.derive("+SVW-UPD", svw=SVWConfig(update_on_forward=False)),
        "+SVW+UPD": nlq.derive("+SVW+UPD", svw=SVWConfig()),
        "+PERFECT": nlq.derive("+PERFECT", rex_mode=RexMode.PERFECT, rex_stages=0),
    }


def fig6_configs() -> dict[str, MachineConfig]:
    """Figure 6: SVW's impact on the speculative SQ.

    Baseline: 64-entry associative SQ with two associative (load) ports;
    loads take 4 cycles due to the SQ search.  SSQ replaces it with a
    64-entry RSQ + 16-entry single-ported FSQ; loads take 2 cycles.
    """
    ssq = eight_wide(
        "SSQ",
        lsu=LSUKind.SSQ,
        rex_mode=RexMode.REEXECUTE,
        rex_stages=SSQ_REX_STAGES,
        load_latency=2,
    )
    return {
        "baseline": eight_wide("fig6-baseline", load_latency=4),
        "SSQ": ssq,
        "+SVW-UPD": ssq.derive("+SVW-UPD", svw=SVWConfig(update_on_forward=False)),
        "+SVW+UPD": ssq.derive("+SVW+UPD", svw=SVWConfig()),
        "+PERFECT": ssq.derive("+PERFECT", rex_mode=RexMode.PERFECT, rex_stages=0),
    }


def fig7_configs() -> dict[str, MachineConfig]:
    """Figure 7: SVW's impact on redundant load elimination.

    Baseline: the 4-wide machine with no elimination.  RLE adds a
    512-entry 2-way IT and a four-stage re-execution pipeline (addresses
    and values come from the register file).  ``+SVW-SQU`` disables squash
    reuse so the remaining re-executions become filterable.
    """
    rle = four_wide(
        "RLE",
        rle=True,
        rex_mode=RexMode.REEXECUTE,
        rex_stages=RLE_REX_STAGES,
    )
    return {
        "baseline": four_wide("fig7-baseline"),
        "RLE": rle,
        "+SVW": rle.derive("+SVW", svw=SVWConfig()),
        "+SVW-SQU": rle.derive("+SVW-SQU", svw=SVWConfig(), squash_reuse=False),
        "+PERFECT": rle.derive("+PERFECT", rex_mode=RexMode.PERFECT, rex_stages=0),
    }


def fig8_ssbf_variants() -> dict[str, SVWConfig]:
    """Figure 8: SSBF organizations, evaluated on the SSQ optimization.

    ``128``/``512``/``2048``: simple 8-byte-granularity tables;
    ``Bloom``: two 512-entry tables indexed by disjoint address bits;
    ``4-byte``: 512 entries at 4-byte granularity;
    ``Infinite``: alias-free reference.
    """
    return {
        "128": SVWConfig(ssbf_kind="simple", ssbf_entries=128),
        "512": SVWConfig(ssbf_kind="simple", ssbf_entries=512),
        "2048": SVWConfig(ssbf_kind="simple", ssbf_entries=2048),
        "Bloom": SVWConfig(ssbf_kind="dual", ssbf_entries=512),
        "4-byte": SVWConfig(ssbf_kind="simple", ssbf_entries=512, ssbf_granularity=4),
        "Infinite": SVWConfig(ssbf_kind="infinite"),
    }


def fig8_configs() -> dict[str, MachineConfig]:
    """SSQ+SVW+UPD under each SSBF organization (plus the SSQ baseline)."""
    base = fig6_configs()
    configs: dict[str, MachineConfig] = {"baseline": base["baseline"]}
    ssq = base["SSQ"]
    for name, svw_config in fig8_ssbf_variants().items():
        configs[name] = ssq.derive(f"SSBF-{name}", svw=svw_config)
    return configs


def spec_updates_configs() -> dict[str, MachineConfig]:
    """Section 3.6: atomic (baseline) vs speculative SSBF updates on SSQ.

    ``speculative`` is fig6's ``+SVW+UPD`` machine under its own name.
    """
    ssq_svw = fig6_configs()["+SVW+UPD"]
    return {
        "baseline": ssq_svw.derive("atomic", svw=SVWConfig(speculative_updates=False)),
        "speculative": ssq_svw.derive(
            "speculative", svw=SVWConfig(speculative_updates=True)
        ),
    }


def nlqsm_configs(invalidation_interval: int) -> dict[str, MachineConfig]:
    """Section 3.2: NLQ-SM, without and with coherence invalidations.

    The paper defines NLQ-SM but does not evaluate it ("our simulation
    infrastructure does not execute shared-memory programs").  Both
    configurations use the banked SSBF; ``invalidations`` adds a silent
    synthetic invalidation every ``invalidation_interval`` cycles, which
    writes ``SSN_RENAME + 1`` over the line and marks every in-flight
    load, so the filtering cost is measured without perturbing
    single-thread correctness.
    """
    nlqsm = eight_wide(
        "nlqsm-0",
        lsu=LSUKind.NLQ,
        rex_mode=RexMode.REEXECUTE,
        rex_stages=NLQ_REX_STAGES,
        store_issue=2,
        svw=SVWConfig(ssbf_kind="banked"),
    )
    return {
        "baseline": nlqsm,
        "invalidations": nlqsm.derive(
            f"nlqsm-{invalidation_interval}",
            invalidation_interval=invalidation_interval,
        ),
    }


def composition_configs() -> dict[str, MachineConfig]:
    """Section 3.5: NLQ + SSQ + RLE composed on one machine.

    SSQ marks every load.  An RLE-eliminated load takes the IT entry's SSN
    as its window (section 3.4); the section 3.5 MIN rule is not applied,
    so the SSQ dispatch window does not widen it.  The 8-wide machine hosts
    all three.
    """
    combined = eight_wide(
        "NLQ+SSQ+RLE",
        lsu=LSUKind.SSQ,
        rle=True,
        rex_mode=RexMode.REEXECUTE,
        rex_stages=RLE_REX_STAGES,
        load_latency=2,
    )
    return {
        "baseline": eight_wide("comp-baseline", load_latency=4, store_issue=1),
        "combined": combined,
        "+SVW": combined.derive("combined+SVW", svw=SVWConfig()),
    }


def svw_replacement_configs() -> dict[str, MachineConfig]:
    """Section 6 future work: SVW as a *replacement* for re-execution.

    A positive SSBF test triggers a flush directly; there is no
    re-execution data-cache traffic at all.
    """
    base = fig5_configs()
    nlq_svw = base["+SVW+UPD"]
    return {
        "baseline": base["baseline"],
        "NLQ+SVW": nlq_svw,
        "NLQ+SVW-only": nlq_svw.derive("NLQ+SVW-only", rex_mode=RexMode.SVW_ONLY),
    }
